import json
import os
import subprocess
import sys

import pytest

BASE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "hallcrys.cli", *args],
                          capture_output=True, text=True,
                          cwd=BASE, env={**os.environ, "PYTHONPATH":
                                         os.path.join(BASE, "src")})
    return proc


@pytest.fixture(scope="module")
def a2_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("quivers") / "a2.json"
    path.write_text(json.dumps({"vertices": ["1", "2"], "arrows": [["1", "2"]]}))
    return str(path)


@pytest.fixture(scope="module")
def kron_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("quivers") / "kron.json"
    path.write_text(json.dumps({"vertices": ["1", "2"],
                                "arrows": [["1", "2"], ["1", "2"]]}))
    return str(path)


class TestValidation:
    def test_empty_quiver_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        proc = run_cli("enumerate", "--quiver", str(path), "--dim-bound", "1")
        assert proc.returncode == 1
        assert "error" in json.loads(proc.stdout)

    def test_invalid_json_line_info(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\n  broken")
        proc = run_cli("enumerate", "--quiver", str(path), "--dim-bound", "1")
        assert proc.returncode == 1
        assert "line" in json.loads(proc.stdout)["error"]

    def test_single_prime_rejected(self, a2_file):
        proc = run_cli("enumerate", "--quiver", a2_file, "--primes", "2")
        assert proc.returncode == 1


class TestEnumerate:
    def test_a2_class_listing(self, a2_file):
        proc = run_cli("enumerate", "--quiver", a2_file, "--dim-bound", "1",
                       "--primes", "2,3")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["schema"] == 1
        labels = [e["label"] for e in report["results"]["2"]]
        assert labels == ["S2", "S1", "S1+S2", "r1.1"]

    def test_kronecker_field_dependent_flag(self, kron_file):
        proc = run_cli("enumerate", "--quiver", kron_file, "--dim-bound", "1",
                       "--primes", "3,5")
        report = json.loads(proc.stdout)
        regs = [e for e in report["results"]["3"]
                if e.get("field_dependent")]
        assert len(regs) == 4          # the q + 1 regular points at q = 3


class TestCompute:
    def test_product(self, a2_file):
        proc = run_cli("compute", "--quiver", a2_file, "u[S1]*u[S2]")
        report = json.loads(proc.stdout)
        assert "u[S1+S2]" in report["results"]["generic"]
        assert "u[r1.1]" in report["results"]["generic"]

    def test_pairR(self, a2_file):
        proc = run_cli("compute", "--quiver", a2_file, "pairR(u[r1.1],u[r1.1])")
        report = json.loads(proc.stdout)
        assert report["results"]["generic"] == "v^2/(v^2 - 1)"

    def test_rprime(self, a2_file):
        proc = run_cli("compute", "--quiver", a2_file, "rprime[1](u[r1.1])")
        report = json.loads(proc.stdout)
        assert report["results"]["generic"] == "(1 - v^-2)*u[S2]"

    def test_braid(self, a2_file):
        proc = run_cli("compute", "--quiver", a2_file, "braid[1,1](u[S1],u[S2])")
        report = json.loads(proc.stdout)
        assert report["results"]["fixed"]["2"] == [["r1.1", "1 + 0*sqrt(2)"]]

    def test_parse_error_position(self, a2_file):
        proc = run_cli("compute", "--quiver", a2_file, "u[S1]*")
        assert proc.returncode == 1
        assert "position" in json.loads(proc.stdout)["error"]

    def test_field_dependent_generic_error(self, kron_file):
        proc = run_cli("compute", "--quiver", kron_file, "u[R[0]m1]*u[S1]",
                       "--primes", "2,3")
        report = json.loads(proc.stdout)
        assert report["results"]["generic_error"] is not None
        assert report["results"]["fixed"]["2"]


class TestCertify:
    def test_single_label_integrality(self, a2_file):
        proc = run_cli("certify", "--quiver", a2_file, "--label", "S1",
                       "--target", "integrality")
        report = json.loads(proc.stdout)
        assert proc.returncode == 0
        entry = report["results"][0]
        assert entry["integrality"] == "pass"
        assert entry["tree"] == [{"coeff": "1", "word": [["1", 1]]}]

    def test_non_exceptional_rejected(self, a2_file):
        proc = run_cli("certify", "--quiver", a2_file, "--label", "S1+S2",
                       "--target", "integrality")
        assert proc.returncode == 2
        report = json.loads(proc.stdout)
        assert report["falsifications"]

    def test_all_exceptional_crystal(self, a2_file):
        proc = run_cli("certify", "--quiver", a2_file, "--all-exceptional",
                       "--dim-bound", "2", "--target", "crystal")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert len(report["results"]) == 8
        for entry in report["results"]:
            assert entry["crystal"]["sign"] == 1
            assert entry["crystal"]["norm_in_one_plus_vinv_A"]


class TestSelftestAndCache:
    def test_determinism_and_cache_transparency(self, kron_file, tmp_path):
        cache = str(tmp_path / "cache")
        outs = []
        for _ in range(2):
            proc = run_cli("selftest", "--quiver", kron_file, "--dim-bound", "2",
                           "--cache", cache)
            assert proc.returncode == 0, proc.stdout + proc.stderr
            report = json.loads(proc.stdout)
            report.pop("generated_at")
            outs.append(json.dumps(report, sort_keys=True))
        assert outs[0] == outs[1]
        assert os.listdir(cache)
        # cold run without cache agrees too
        proc = run_cli("selftest", "--quiver", kron_file, "--dim-bound", "2")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        report = json.loads(proc.stdout)
        report.pop("generated_at")
        assert json.dumps(report, sort_keys=True) == outs[0]

    def test_selftest_checks_pass(self, a2_file):
        proc = run_cli("selftest", "--quiver", a2_file, "--dim-bound", "2",
                       "--primes", "2,3")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        report = json.loads(proc.stdout)
        assert all(c["pass"] for c in report["results"])


class TestCertifyCache:
    ARGS = ("certify", "--all-exceptional", "--dim-bound", "2",
            "--target", "integrality")

    def test_cache_written_and_reused(self, a2_file, tmp_path, monkeypatch, capsys):
        from hallcrys import cli
        from hallcrys.classtable import ClassTable
        cache = tmp_path / "cache"
        argv = [*self.ARGS, "--quiver", a2_file, "--cache", str(cache)]
        built = []
        load = cli._load_table
        monkeypatch.setattr(cli, "_load_table",
                            lambda config, quiver, q: built.append(q) or load(config, quiver, q))
        assert cli.main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        # one file per prime a table was built for, each holding Hall numbers
        files = sorted(os.listdir(cache))
        assert [int(f.split("_q")[1].split("_")[0]) for f in files] == sorted(built)
        for f in files:
            assert json.loads((cache / f).read_text())["hall"]

        def no_scan(*args):
            raise AssertionError("Hall scan on a cached rerun")

        monkeypatch.setattr(ClassTable, "_scan_submodules", no_scan)
        assert cli.main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        first.pop("generated_at")
        second.pop("generated_at")
        assert first == second

    @pytest.mark.parametrize("umask", [0o022, 0o077])
    def test_cache_files_follow_umask(self, a2_file, tmp_path, capsys, umask):
        from hallcrys import cli
        cache = tmp_path / "cache"
        old = os.umask(umask)
        try:
            assert cli.main([*self.ARGS, "--quiver", a2_file, "--cache", str(cache)]) == 0
        finally:
            os.umask(old)
        capsys.readouterr()
        files = list(cache.iterdir())
        assert files and all(f.suffix == ".json" for f in files)
        for f in files:
            assert f.stat().st_mode & 0o777 == 0o666 & ~umask

    def test_malformed_entries_skipped(self, a2_file, tmp_path):
        cache = tmp_path / "cache"
        clean = run_cli(*self.ARGS, "--quiver", a2_file, "--cache", str(cache))
        assert clean.returncode == 0, clean.stdout + clean.stderr
        path = cache / sorted(os.listdir(cache))[0]
        data = json.loads(path.read_text())
        data["hall"]["broken-key"] = 1            # bad key shape
        data["hall"]["r1.1|S1|nosuch"] = 1        # unknown label
        data["hall"]["r1.1|S1|S2"] = "one"       # non-integer value
        data["hom"]["S1"] = 0                     # bad key shape
        path.write_text(json.dumps(data))
        proc = run_cli(*self.ARGS, "--quiver", a2_file, "--cache", str(cache))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert f"cache file {path}: skipped 4 malformed entries" in proc.stderr
        reports = [json.loads(p.stdout) for p in (clean, proc)]
        for report in reports:
            report.pop("generated_at")
        assert reports[0] == reports[1]


def test_wild_quiver_is_operational_error(tmp_path):
    path = tmp_path / "wild.json"
    path.write_text(json.dumps({"vertices": ["1", "2"],
                                "arrows": [["1", "2"]] * 3}))
    proc = run_cli("enumerate", "--quiver", str(path), "--dim-bound", "1")
    assert proc.returncode == 1
    assert "catalog" in json.loads(proc.stdout)["error"]


def test_regular_class_certification_rejected(kron_file):
    proc = run_cli("certify", "--quiver", kron_file, "--label", "R[0]m1",
                   "--target", "crystal", "--primes", "2,3")
    assert proc.returncode == 2
    report = json.loads(proc.stdout)
    assert "not exceptional" in report["falsifications"][0]


def test_table_format(a2_file):
    proc = run_cli("compute", "--quiver", a2_file, "u[S1]*u[S2]",
                   "--format", "table")
    assert proc.returncode == 0
    assert "# compute" in proc.stdout
