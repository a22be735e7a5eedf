import json
import os
import re
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
def a3_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("quivers") / "a3.json"
    path.write_text(json.dumps({"vertices": ["1", "2", "3"],
                                "arrows": [["1", "2"], ["2", "3"]]}))
    return str(path)


@pytest.fixture(scope="module")
def d4_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("quivers") / "d4.json"
    path.write_text(json.dumps({"vertices": ["1", "2", "3", "4"],
                                "arrows": [["1", "4"], ["2", "4"], ["3", "4"]]}))
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

    @pytest.mark.parametrize("name", ["nosuch.json", "."], ids=["missing", "directory"])
    def test_unreadable_quiver_file_rejected(self, tmp_path, name):
        path = tmp_path / name
        proc = run_cli("certify", "--quiver", str(path), "--all-exceptional")
        assert proc.returncode == 1
        assert str(path) in json.loads(proc.stdout)["error"]
        assert "Traceback" not in proc.stderr

    def test_single_prime_rejected(self, a2_file):
        proc = run_cli("enumerate", "--quiver", a2_file, "--primes", "2")
        assert proc.returncode == 1

    @pytest.mark.parametrize("args, primes", [
        (("certify", "--label", "S1"), "2,2"),
        (("compute", "u[S1]*u[S2]"), "3,3"),
    ], ids=["certify", "compute"])
    def test_repeated_primes_rejected(self, a2_file, args, primes):
        proc = run_cli(*args, "--quiver", a2_file, "--primes", primes)
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["error"] == f"repeated primes in --primes {primes}"
        assert "Traceback" not in proc.stderr


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

    def test_doctored_cache_falsified(self, a3_file, tmp_path, monkeypatch, capsys):
        """Cached tables pass the cross-prime check like fresh ones."""
        from hallcrys import cli
        monkeypatch.delenv("HALLCRYS_CACHE_DIR", raising=False)
        cache = tmp_path / "cache"
        argv = ["enumerate", "--quiver", a3_file, "--dim-bound", "1",
                "--primes", "2,3", "--cache", str(cache)]
        assert cli.main(argv) == 0
        capsys.readouterr()
        path = next(cache.glob("*_q3_*.json"))
        data = json.loads(path.read_text())
        data["hom"]["S1|S1"] = 2
        path.write_text(json.dumps(data))
        assert cli.main(argv) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["falsifications"] == ["Hom(S1,S1) differs at q = 2 and q = 3"]

    # |Aut(S1+S2)| made seven times too large, so it no longer divides |G_d|
    DOCTORED = """
import sys
from hallcrys import cli
from hallcrys.classtable import ClassTable, IsoClass
aut_order = ClassTable.aut_order
ClassTable.aut_order = lambda self, cls: aut_order(self, cls) * (
    7 if cls == IsoClass.of("S1", "S2") else 1)
sys.exit(cli.main(sys.argv[1:]))
"""

    def test_doctored_aut_order_falsified(self, a2_file, monkeypatch, capsys):
        """The failed mass formula is a falsification, in process and under
        python -O alike."""
        from hallcrys import cli
        from hallcrys.classtable import ClassTable, IsoClass
        monkeypatch.delenv("HALLCRYS_CACHE_DIR", raising=False)
        args = ["enumerate", "--quiver", a2_file, "--dim-bound", "1", "--primes", "2,3"]
        proc = subprocess.run([sys.executable, "-O", "-c", self.DOCTORED, *args],
                              capture_output=True, text=True, cwd=BASE,
                              env={**os.environ, "PYTHONPATH": os.path.join(BASE, "src")})
        aut_order = ClassTable.aut_order
        monkeypatch.setattr(ClassTable, "aut_order", lambda self, cls: aut_order(
            self, cls) * (7 if cls == IsoClass.of("S1", "S2") else 1))
        code = cli.main(args)
        runs = [(code, json.loads(capsys.readouterr().out)),
                (proc.returncode, json.loads(proc.stdout))]
        for code, report in runs:
            assert code == 2
            assert [f.split(":")[0] for f in report["falsifications"]] == [
                "mass formula failed at q=2, dim=(1, 1)",
                "mass formula failed at q=3, dim=(1, 1)"]
            assert all("error" not in e for e in report["results"]["2"])

    def test_error_in_mass_check_exits_1(self, a2_file, monkeypatch, capsys):
        """An error inside the per-dimension loop is an operational error, not
        an entry of a report that exits 0."""
        from hallcrys import cli
        from hallcrys.classtable import ClassTable

        def boom(self, dim):
            raise RuntimeError("boom")

        monkeypatch.delenv("HALLCRYS_CACHE_DIR", raising=False)
        monkeypatch.setattr(ClassTable, "mass_check", boom)
        code = cli.main(["enumerate", "--quiver", a2_file, "--dim-bound", "1",
                         "--primes", "2,3"])
        assert code == 1
        assert json.loads(capsys.readouterr().out)["error"] == "boom"


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

    @pytest.mark.parametrize("expression, atom", [
        ("u[S1", "u"), ("rprime[1", "rprime"), ("braid[1,1", "braid"),
        ("u[S1]*rprime[1", "rprime"),
    ])
    def test_unterminated_bracket(self, a2_file, expression, atom):
        proc = run_cli("compute", "--quiver", a2_file, expression)
        assert proc.returncode == 1
        position = expression.rfind(atom)
        assert json.loads(proc.stdout)["error"] == \
            f"parse error at position {position}: unterminated {atom}[...]"

    @pytest.mark.parametrize("expression, message", [
        ("pairR(u[S1],u[S1])*u[S1]",
         "pairR/pairK give a scalar, not a factor of a product"),
        ("rprime[9](u[S1])", "unknown vertex '9'"),
        ("u[X9]", "unknown indecomposable label 'X9'"),
    ], ids=["scalar-factor", "unknown-vertex", "unknown-label"])
    def test_evaluation_error_reported(self, a2_file, expression, message):
        proc = run_cli("compute", "--quiver", a2_file, expression)
        assert proc.returncode == 0, proc.stderr
        results = json.loads(proc.stdout)["results"]
        assert results["fixed"] == {q: f"error: {message}" for q in ("2", "3", "5")}
        assert results["generic"] is None
        assert results["generic_error"] == message

    def test_braid_direction_checked(self, a2_file):
        proc = run_cli("compute", "--quiver", a2_file, "braid[1,7](u[S1],u[S2])")
        assert proc.returncode == 1
        assert "braid direction" in json.loads(proc.stdout)["error"]
        # a pair has the single position 1
        for position in ("2", "x"):
            proc = run_cli("compute", "--quiver", a2_file,
                           f"braid[{position},1](u[S1],u[S2])")
            assert proc.returncode == 1
            assert "braid position" in json.loads(proc.stdout)["error"]
        proc = run_cli("compute", "--quiver", a2_file, "braid[1,-1](u[S1],u[S2])")
        assert proc.returncode == 0, proc.stderr

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

    def test_non_exceptional_rejected(self, a2_file, tmp_path):
        args = ("certify", "--quiver", a2_file, "--label", "S1+S2", "--target", "integrality")
        proc = run_cli(*args)
        assert proc.returncode == 2
        report = json.loads(proc.stdout)
        assert report["falsifications"]
        # a rejection saves its tables like any other run
        cache = tmp_path / "cache"
        cached = run_cli(*args, "--cache", str(cache))
        assert cached.returncode == 2
        reports = [json.loads(p.stdout) for p in (proc, cached)]
        for r in reports:
            r.pop("generated_at")
        assert reports[0] == reports[1]
        assert list(cache.glob("*_q2_*.json"))    # the only table built

    @pytest.mark.parametrize("label", ["X9", "S1+X9"])
    def test_unknown_label_rejected(self, a2_file, label):
        proc = run_cli("certify", "--quiver", a2_file, "--label", label)
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["error"] == "unknown indecomposable label 'X9'"
        assert "Traceback" not in proc.stderr

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

    @pytest.mark.parametrize("argv", [
        ("selftest", "--dim-bound", "2"),
        ("certify", "--all-exceptional", "--dim-bound", "2", "--target", "integrality",
         "--primes", "2,3"),
    ], ids=["selftest", "certify"])
    def test_uncached_run_footprint(self, kron_file, argv):
        """An uncached run in a fresh interpreter leaves numpy.ma and
        _hashlib unimported.  np.unique imports numpy.ma on first use (the
        selftest's orbit |Aut| check runs orbit_fill), and hashlib maps
        OpenSSL's libcrypto; only cache file names need it."""
        script = ("import sys\nfrom hallcrys import cli\ncode = cli.main(sys.argv[1:])\n"
                  "print(sorted({'numpy.ma', '_hashlib'} & set(sys.modules)), "
                  "file=sys.stderr)\nsys.exit(code)\n")
        env = {key: value for key, value in os.environ.items()
               if key != "HALLCRYS_CACHE_DIR"}
        proc = subprocess.run([sys.executable, "-c", script, *argv, "--quiver", kron_file],
                              capture_output=True, text=True, cwd=BASE,
                              env={**env, "PYTHONPATH": os.path.join(BASE, "src")})
        assert proc.returncode == 0, proc.stdout + proc.stderr
        report = json.loads(proc.stdout)
        if argv[0] == "selftest":
            assert any(e["check"].startswith("aut order closed form vs orbit") and e["pass"]
                       for e in report["results"])
        else:
            assert report["results"] and \
                all(e["integrality"] == "pass" for e in report["results"])
        assert proc.stderr.splitlines()[-1] == "[]"

    def test_selftest_checks_pass(self, a2_file):
        proc = run_cli("selftest", "--quiver", a2_file, "--dim-bound", "2",
                       "--primes", "2,3")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        report = json.loads(proc.stdout)
        assert all(c["pass"] for c in report["results"])


    def test_selftest_reports_skipped(self, kron_file, monkeypatch, capsys):
        """Comparisons skipped past --ext-budget are counted per check and
        named on stderr; they do not fail the check."""
        from hallcrys import cli
        monkeypatch.delenv("HALLCRYS_CACHE_DIR", raising=False)
        assert cli.main(["selftest", "--quiver", kron_file, "--dim-bound", "2",
                         "--ext-budget", "4"]) == 0
        out, err = capsys.readouterr()
        checks = json.loads(out)["results"]
        assert all(c["pass"] and type(c["skipped"]) is int for c in checks)
        skipped = {c["check"]: c["skipped"] for c in checks if c["skipped"]}
        assert sum(n for name, n in skipped.items() if "dual routes" in name) == 12
        assert err.splitlines() == [f"hallcrys: selftest check {name!r} skipped {n} "
                                    f"comparisons past a budget or the dimension bound"
                                    for name, n in skipped.items()]

    def test_selftest_serre_degree_past_bound_skipped(self, kron_file, monkeypatch, capsys):
        """At bound (1, 1) the Kronecker Serre relation, of degree
        1 - a_ij = 3, leaves the table; each (i, j) is counted as skipped
        and the run exits 0."""
        from hallcrys import cli
        monkeypatch.delenv("HALLCRYS_CACHE_DIR", raising=False)
        assert cli.main(["selftest", "--quiver", kron_file, "--dim-bound", "1",
                         "--primes", "2,3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["falsifications"] == []
        serre = [c for c in report["results"] if c["check"].startswith("quantum serre")]
        assert serre == [{"check": f"quantum serre q={q}", "pass": True, "skipped": 2}
                         for q in (2, 3)]

    def test_selftest_on_quiver_without_arrows(self, tmp_path):
        path = tmp_path / "a1.json"
        path.write_text(json.dumps({"vertices": ["1"], "arrows": []}))
        proc = run_cli("selftest", "--quiver", str(path), "--dim-bound", "2")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        report = json.loads(proc.stdout)
        assert len(report["results"]) == 19
        assert all(c["pass"] for c in report["results"])

    @pytest.mark.parametrize("argv", [
        ["enumerate", "--primes", "2,3"],
        ["certify", "--all-exceptional", "--dim-bound", "2", "--target", "both"],
        ["selftest", "--dim-bound", "2"]])
    def test_two_vertices_without_arrows(self, tmp_path, capsys, argv):
        """Two vertices and no arrows: the catalog stacks, label batches and
        Hom counts have no arrow stacks, and the cross-prime check reads a
        Hom matrix of 0-d counts; each command exits 0 with no
        falsification."""
        from hallcrys import cli
        path = tmp_path / "two.json"
        path.write_text(json.dumps({"vertices": ["1", "2"], "arrows": []}))
        assert cli.main([*argv, "--quiver", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["falsifications"] == []


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
        # one file per prime a table was built for, named by the quiver's
        # content hash, the prime and the bound, each holding Hall numbers
        files = sorted(os.listdir(cache))
        assert files[0] == "593004cb9e59_q2_b2.json"
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

    @pytest.mark.parametrize("blocker", ["file", "directory"])
    def test_unwritable_cache_keeps_report(self, a2_file, tmp_path, monkeypatch, capsys,
                                           blocker):
        """A cache that cannot be written (its directory is a regular file,
        or a directory stands where the table's file goes) is a note on
        stderr naming the path; the report and exit code are those of an
        uncached run, and no temporary file is left behind."""
        from hallcrys import cli
        monkeypatch.delenv("HALLCRYS_CACHE_DIR", raising=False)
        argv = [*self.ARGS, "--quiver", a2_file]
        assert cli.main(argv) == 0
        uncached = json.loads(capsys.readouterr().out)
        if blocker == "file":
            cache = tmp_path / "cache"
            cache.write_text("")
        else:
            cache = tmp_path
            (cache / "593004cb9e59_q2_b2.json").mkdir()
        assert cli.main([*argv, "--cache", str(cache)]) == 0
        out, err = capsys.readouterr()
        cached = json.loads(out)
        uncached.pop("generated_at")
        cached.pop("generated_at")
        assert cached == uncached
        assert f"hallcrys: cache not written to {cache}: " in err
        assert not list(tmp_path.rglob("*.tmp"))

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
        # an Ext section, as older files held, is not read: Ext is Hom minus
        # the Euler form, so a doctored entry cannot reach the report
        assert "ext" not in data
        data["ext"] = {"S1|S1": 1}
        path.write_text(json.dumps(data))
        proc = run_cli(*self.ARGS, "--quiver", a2_file, "--cache", str(cache))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert f"cache file {path}: skipped 4 malformed entries" in proc.stderr
        reports = [json.loads(p.stdout) for p in (clean, proc)]
        for report in reports:
            report.pop("generated_at")
        assert reports[0] == reports[1]


    def test_cache_for_another_prime_ignored(self, a2_file, tmp_path):
        cache = tmp_path / "cache"
        clean = run_cli(*self.ARGS, "--quiver", a2_file, "--cache", str(cache))
        assert clean.returncode == 0, clean.stdout + clean.stderr
        q2, q3 = (next(cache.glob(f"*_q{q}_*.json")) for q in (2, 3))
        q3.write_text(q2.read_text())
        proc = run_cli(*self.ARGS, "--quiver", a2_file, "--cache", str(cache))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert f"cache file {q3} ignored: table cache for another q" in proc.stderr
        reports = [json.loads(p.stdout) for p in (clean, proc)]
        for report in reports:
            report.pop("generated_at")
        assert reports[0] == reports[1]

    def test_doctored_hom_at_second_prime_falsified(self, a2_file, tmp_path, capsys):
        # a cached table is checked against the first prime's like a fresh one
        from hallcrys import cli
        cache = tmp_path / "cache"
        argv = ["certify", "--label", "S1", "--dim-bound", "2", "--target",
                "integrality", "--quiver", a2_file, "--cache", str(cache)]
        assert cli.main(argv) == 0
        capsys.readouterr()
        path = next(cache.glob("*_q3_*.json"))
        data = json.loads(path.read_text())
        data["hom"]["S1|S1"] = 2
        path.write_text(json.dumps(data))
        assert cli.main(argv) == 2
        report = json.loads(capsys.readouterr().out)
        message = "Hom(S1,S1) differs at q = 2 and q = 3"
        assert report["falsifications"] == [f"integrality of S1: {message}"]


class TestGoldenReports:
    """Reports are byte-identical, apart from ``generated_at``, to the files
    under tests/data/golden/, which were written by an earlier version."""

    GOLDEN = os.path.join(BASE, "tests", "data", "golden")
    CASES = {
        "kron_enumerate.json": ("kron", "enumerate", "--dim-bound", "3",
                                "--primes", "2,3"),
        "kron_compute.json": ("kron", "compute", "--dim-bound", "3", "--primes", "2,3",
                              "u[r3.2]*u[S1]"),
        "kron_certify.json": ("kron", "certify", "--all-exceptional", "--dim-bound", "3",
                              "--target", "integrality", "--primes", "2,3"),
        "a2_certify.json": ("a2", "certify", "--all-exceptional", "--dim-bound", "2",
                            "--target", "both"),
        "a3_certify.json": ("a3", "certify", "--all-exceptional", "--dim-bound", "2",
                            "--target", "both"),
        "d4_certify.json": ("d4", "certify", "--all-exceptional", "--dim-bound", "2",
                            "--target", "both"),
    }

    @staticmethod
    def _strip(text):
        return re.sub(r'^ "generated_at": "[^"]*",\n', "", text, count=1, flags=re.M)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_report_matches_golden(self, name, a2_file, a3_file, d4_file, kron_file,
                                   monkeypatch):
        monkeypatch.delenv("HALLCRYS_CACHE_DIR", raising=False)
        quiver, *args = self.CASES[name]
        files = {"a2": a2_file, "a3": a3_file, "d4": d4_file, "kron": kron_file}
        proc = run_cli(*args, "--quiver", files[quiver])
        assert proc.returncode == 0, proc.stdout + proc.stderr
        with open(os.path.join(self.GOLDEN, name)) as fh:
            golden = fh.read()
        assert '"generated_at"' in golden and '"generated_at"' in proc.stdout
        assert self._strip(proc.stdout) == self._strip(golden)


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


class TestCrystalFalsifications:
    """Crystal falsifications reach the report and set exit code 2."""

    ARGS = ("certify", "--all-exceptional", "--dim-bound", "2",
            "--target", "crystal", "--primes", "2,3")

    def _certify(self, a2_file, monkeypatch, capsys):
        from hallcrys import cli
        monkeypatch.delenv("HALLCRYS_CACHE_DIR", raising=False)
        code = cli.main([*self.ARGS, "--quiver", a2_file])
        return code, json.loads(capsys.readouterr().out)

    def test_bfs_sign_falsification_reported(self, a2_file, monkeypatch, capsys):
        from hallcrys.crystal import Crystal
        generate = Crystal._generate
        entry = "pairing -1 between words (0, 1) and (1, 0)"

        def doctored(self):
            generate(self)
            self.falsifications.append(entry)

        monkeypatch.setattr(Crystal, "_generate", doctored)
        code, report = self._certify(a2_file, monkeypatch, capsys)
        assert code == 2
        assert f"crystal: {entry}" in report["falsifications"]
        assert len(report["results"]) == 8

    def test_raised_falsification_exits_2(self, a2_file, monkeypatch, capsys):
        from hallcrys import CheckFailed
        from hallcrys.crystal import Crystal, CrystalFalsification
        from hallcrys.generic import GenericContext
        # a crystal theorem contradicted, and a failed check of the generic layer
        cases = [(Crystal, "_generate", CrystalFalsification,
                  "Etilde image at word (0,) left the lattice L(infinity)"),
                 (GenericContext, "hall_polynomial", CheckFailed,
                  "Riedtmann fit of (S1+S2, S1, S2) misses a scanned Hall number")]
        for owner, name, error, message in cases:
            def raising(*args, error=error, message=message):
                raise error(message)

            with monkeypatch.context() as patch:
                patch.setattr(owner, name, raising)
                code, report = self._certify(a2_file, monkeypatch, capsys)
            assert code == 2
            assert "error" not in report
            assert report["falsifications"] == [message]


class TestCertifyExitCodes:
    """A failed replay is a falsification (exit 2); a certificate limit is an
    operational error (exit 1)."""

    def _certify(self, path, label, primes, monkeypatch, capsys):
        from hallcrys import cli
        monkeypatch.delenv("HALLCRYS_CACHE_DIR", raising=False)
        code = cli.main(["certify", "--quiver", path, "--label", label,
                         "--dim-bound", "3", "--target", "integrality",
                         "--primes", primes])
        return code, json.loads(capsys.readouterr().out)

    def test_no_holdout_prime_is_an_error(self, kron_file, monkeypatch, capsys):
        code, report = self._certify(kron_file, "r2.3", "2,3,5,7,11,13,17",
                                     monkeypatch, capsys)
        assert code == 1
        assert "no PRIME_POOL prime is left" in report["error"]

    def test_failed_replay_exits_2(self, a2_file, monkeypatch, capsys):
        from hallcrys.exseq import CertificateEngine
        monkeypatch.setattr(CertificateEngine, "verify_tree",
                            lambda self, tree, cls, primes=None: False)
        code, report = self._certify(a2_file, "S1", "2,3", monkeypatch, capsys)
        message = "divided-power tree for S1^(1) failed"
        assert code == 2
        assert report["results"][0]["integrality"] == f"fail: {message}"
        assert report["falsifications"] == [f"integrality of S1: {message}"]


def test_selftest_euler_check_is_live(kron_file, monkeypatch, capsys):
    """One wrong Ext entry is reported as a falsification of the Euler check."""
    from hallcrys import cli, modules
    ext_dims = modules.ext_dims

    def off_by_one(Ms, Ns):
        out = ext_dims(Ms, Ns)
        if len(Ms) > 1:       # the battery's matrix, not a single ext_dim pair
            out[0][-1] += 1
        return out

    monkeypatch.delenv("HALLCRYS_CACHE_DIR", raising=False)
    monkeypatch.setattr(modules, "ext_dims", off_by_one)
    code = cli.main(["selftest", "--quiver", kron_file, "--dim-bound", "2",
                     "--primes", "2,3"])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report["falsifications"] == ["euler identity q=2", "euler identity q=3"]


def test_selftest_euler_check_sees_hom(kron_file, monkeypatch, capsys):
    """One regular module's Hom count raised by one at q = 3 is reported as a
    falsification of that prime's Euler check alone.  A regular module is
    field-dependent, so the rigid cross-prime check of the TableSet cannot
    see it."""
    from hallcrys import cli
    load = cli._load_table
    doctored = []

    def raise_one_hom(config, quiver, q):
        table = load(config, quiver, q)
        if q == 3:
            it = next(it for it in table.catalog if it.dim == (2, 2))
            assert it.field_dependent
            table._hom_cache[it.label, it.label] = table.hom_indec(it.label, it.label) + 1
            doctored.append(it.label)
        return table

    monkeypatch.delenv("HALLCRYS_CACHE_DIR", raising=False)
    monkeypatch.setattr(cli, "_load_table", raise_one_hom)
    code = cli.main(["selftest", "--quiver", kron_file, "--dim-bound", "2",
                     "--primes", "2,3"])
    report = json.loads(capsys.readouterr().out)
    assert doctored
    assert code == 2
    assert report["falsifications"] == ["euler identity q=3"]
