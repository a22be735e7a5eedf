"""Fast tests of the benchmark's checkers and tracer.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checkers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from checkers import Quiver  # noqa: E402

A2 = Quiver({"vertices": ["1", "2"], "arrows": [["1", "2"]]})
A3 = Quiver.load(os.path.join(HERE, "inputs", "a3.json"))
KRON = Quiver.load(os.path.join(HERE, "inputs", "kronecker.json"))

A3_EXCEPTIONAL = [
    "S1", "S1+S1", "S1+S1+S3", "S1+S1+S3+S3", "S1+S3", "S1+S3+S3",
    "S1+S3+r1.1.1", "S1+r1.1.0", "S1+r1.1.1", "S2", "S2+S2", "S2+r0.1.1",
    "S2+r1.1.0", "S2+r1.1.1", "S3", "S3+S3", "S3+r0.1.1", "S3+r1.1.1",
    "r0.1.1", "r0.1.1+r0.1.1", "r0.1.1+r1.1.1", "r1.1.0", "r1.1.0+r1.1.0",
    "r1.1.0+r1.1.1", "r1.1.1"]
KRON_EXCEPTIONAL = [
    "S1", "S1+S1", "S1+S1+S1", "S1+r2.1", "S2", "S2+S2", "S2+S2+S2",
    "S2+r1.2", "r1.2", "r2.1", "r2.3", "r3.2"]


# ----------------------------------------------------------------------
# roots, Kostant partition function, exceptional sets


def test_real_roots():
    assert checkers.real_roots(A2, (2, 2)) == [(0, 1), (1, 0), (1, 1)]
    assert checkers.real_roots(A3, (5, 5, 5)) == [
        (0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 1, 0), (1, 1, 1)]
    assert checkers.real_roots(KRON, (3, 3)) == [
        (0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)]


@pytest.mark.parametrize("quiver, weight, count", [
    # A2: alpha1, alpha2, alpha1 + alpha2
    (A2, (1, 0), 1), (A2, (1, 1), 2), (A2, (2, 1), 2), (A2, (2, 2), 3),
    # A3 (1,1,1): a1+a2+a3, a12+a3, a1+a23, a123
    (A3, (1, 1, 1), 4),
    # A3 (1,2,1): the four above with one more a2, except a123 + a2 counted
    # once: a1+2a2+a3, a12+a2+a3, a1+a2+a23, a12+a23, a123+a2
    (A3, (1, 2, 1), 5),
    (A3, (0, 0, 0), 1), (A3, (3, 0, 0), 1),
])
def test_kostant_hand_counts(quiver, weight, count):
    roots = checkers.real_roots(quiver, (max(weight) + 1,) * quiver.n)
    assert checkers.kostant(roots, weight) == count


def test_a3_crystal_has_120_vertices_to_weight_5():
    counts = checkers.crystal_vertex_counts(A3, 5)
    assert sum(counts.values()) == 120
    assert counts[(2, 2, 1)] == 7


@pytest.mark.parametrize("quiver, bound, max_total, labels", [
    (A3, (2, 2, 2), 5, A3_EXCEPTIONAL),
    (KRON, (3, 3), None, KRON_EXCEPTIONAL),
])
def test_exceptional_sets(quiver, bound, max_total, labels):
    expected = checkers.exceptional_sums(quiver, bound, max_total)
    assert expected == {checkers.label_roots(quiver, lab) for lab in labels}
    assert len(expected) == len(labels)


def test_label_roots():
    assert checkers.label_roots(KRON, "S1+r2.1") == ((1, 0), (2, 1))
    assert checkers.label_roots(KRON, "R[0]m1") is None


# ----------------------------------------------------------------------
# coefficients and trees


@pytest.mark.parametrize("text, value", [
    ("1", {0: 1}), ("v^-2", {-2: 1}), ("-v^-1 + v^-3", {-1: -1, -3: 1}),
    ("2*v^-3", {-3: 2}), ("v - v", {}), ("1/2*v", {1: checkers.Fraction(1, 2)}),
    ("-3 + v^2", {0: -3, 2: 1}),
])
def test_parse_laurent(text, value):
    assert checkers.parse_laurent(text) == value


@pytest.mark.parametrize("text", ["", "v^", "2**v", "x", "v v"])
def test_parse_laurent_rejects(text):
    with pytest.raises(ValueError):
        checkers.parse_laurent(text)


def _label(quiver, roots):
    parts = []
    for r in roots:
        if sum(r) == 1:
            parts.append("S" + quiver.vertices[r.index(1)])
        else:
            parts.append("r" + ".".join(map(str, r)))
    return "+".join(sorted(parts))


def _tree(quiver, roots):
    weight = [sum(c) for c in zip(*roots)]
    return [{"coeff": "-v^-1 + 2", "word": [[quiver.vertices[v], n]
                                            for v, n in enumerate(weight) if n]}]


def _entries(quiver, bound, max_total=None):
    out = []
    for roots in sorted(checkers.exceptional_sums(quiver, bound, max_total)):
        out.append({"label": _label(quiver, roots), "integrality": "pass",
                    "tree": _tree(quiver, roots)})
    return out


def a3_output():
    entries = _entries(A3, checkers.A3_BOUND, checkers.A3_WEIGHT)
    for e in entries:
        e["crystal"] = {"norm": "1", "norm_in_one_plus_vinv_A": True,
                        "falsifications": [], "sign": 1, "matched_word": "2.1",
                        "pairing_units": {"1.2": "0", "2.1": "1"}}
    counts = checkers.crystal_vertex_counts(A3, checkers.A3_WEIGHT)
    return {"vertices": {",".join(map(str, w)): c for w, c in counts.items()},
            "crystal_falsifications": [], "results": entries,
            "primes_used": [2, 3, 5, 7, 11]}


def kron_output():
    return {"exit": 0, "report": {"results": _entries(KRON, checkers.KRON_BOUND),
                                  "primes": [2, 3], "falsifications": []}}


def selftest_output():
    checks = [{"check": f"{name} q={p}", "pass": True}
              for p in (2, 3, 5) for name in "abcdef"]
    checks.append({"check": "certificate replay on the simples", "pass": True})
    return {"exit": 0, "report": {"results": checks, "primes": [2, 3, 5],
                                  "falsifications": []}}


def test_checkers_accept_good_outputs():
    attempted, failed, problems, (prime, trees) = checkers.check_a3_crystal(A3, a3_output())
    assert (attempted, failed, problems, prime, len(trees)) == (55, 0, [], 13, 25)
    attempted, failed, problems, (prime, trees) = \
        checkers.check_kron_integrality(KRON, kron_output())
    assert (attempted, failed, problems, prime, len(trees)) == (12, 0, [], 5, 12)
    assert checkers.check_kron_selftest(selftest_output()) == (19, 0, [], None)


def test_a3_rejects_vertex_count_off_by_one():
    out = a3_output()
    out["vertices"]["1,1,1"] += 1
    assert checkers.check_a3_crystal(A3, out)[2]


def test_a3_rejects_sign_minus_one():
    out = a3_output()
    cert = out["results"][3]["crystal"]
    cert.update(sign=-1, matched_word=None, pairing_units={"2.1": "-1"})
    assert checkers.check_a3_crystal(A3, out)[2]


def test_a3_rejects_second_plus_one_match():
    out = a3_output()
    out["results"][0]["crystal"]["pairing_units"]["1.2"] = "1"
    assert checkers.check_a3_crystal(A3, out)[2]


def test_a3_rejects_missing_class():
    out = a3_output()
    del out["results"][-1]
    assert checkers.check_a3_crystal(A3, out)[2]


@pytest.mark.parametrize("coeff", ["1/2*v^-1", "v^-1 + 1/3"])
def test_trees_reject_non_integral_coefficient(coeff):
    out = kron_output()
    out["report"]["results"][-1]["tree"][0]["coeff"] = coeff
    assert checkers.check_kron_integrality(KRON, out)[2]
    out = a3_output()
    out["results"][5]["tree"][0]["coeff"] = coeff
    assert checkers.check_a3_crystal(A3, out)[2]


def test_trees_reject_wrong_weight():
    out = kron_output()
    out["report"]["results"][-1]["tree"][0]["word"].append(["1", 1])
    assert checkers.check_kron_integrality(KRON, out)[2]


def test_kron_rejects_falsification_and_exit_code():
    out = kron_output()
    out["report"]["falsifications"] = ["integrality of r3.2: boom"]
    out["exit"] = 2
    assert len(checkers.check_kron_integrality(KRON, out)[2]) == 2


def test_failed_certificate_is_counted_not_checked():
    out = kron_output()
    entry = out["report"]["results"][0]
    entry["integrality"] = "fail: certificate fails replay"
    del entry["tree"]
    out["exit"] = 2
    out["report"]["falsifications"] = ["integrality of S1: certificate fails replay"]
    attempted, failed, problems, _ = checkers.check_kron_integrality(KRON, out)
    assert (attempted, failed, problems) == (12, 1, [])


def test_selftest_rejects_failing_check():
    out = selftest_output()
    out["report"]["results"][4]["pass"] = False
    assert checkers.check_kron_selftest(out)[2]


def test_selftest_rejects_missing_check():
    out = selftest_output()
    del out["report"]["results"][0]
    assert checkers.check_kron_selftest(out)[2]


def test_selftest_operational_error_fails_every_check():
    out = {"exit": 1, "report": {"schema": 1, "error": "boom"}}
    assert checkers.check_kron_selftest(out) == (19, 19, [], None)


# ----------------------------------------------------------------------
# replay at a held-out prime (runs hallcrys)


def _with_src():
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def test_replay_rejects_wrong_tree():
    _with_src()
    path = os.path.join(HERE, "inputs", "a3.json")
    good = [("S1", [{"coeff": "1", "word": [["1", 1]]}]),
            ("r1.1.0", [{"coeff": "1", "word": [["1", 1], ["2", 1]]},
                        {"coeff": "-v^-1", "word": [["2", 1], ["1", 1]]}])]
    bad = [("S1", [{"coeff": "2", "word": [["1", 1]]}])]
    assert checkers.replay_problems(path, (1, 1, 1), 13, good) == []
    assert checkers.replay_problems(path, (1, 1, 1), 13, bad)


# ----------------------------------------------------------------------
# tracer and the metric lists


def test_tracer_wraps_the_names_callers_look_up():
    _with_src()
    import numpy as np
    from hallcrys import _kernels, linalg
    original = _kernels.rank_mod
    t = tracer.Tracer()
    t.install()
    try:
        assert linalg.rank_mod is not original
        assert linalg.column_space_contains(np.eye(3, dtype=np.int64)[:, :2],
                                            np.array([[1], [1], [0]]), 5)
        list(linalg.subspaces(2, 1, 3))
    finally:
        t.uninstall()
    assert linalg.rank_mod is original and _kernels.rank_mod is original
    values = t.layer_metrics(0)
    assert values["linalg.column_space_contains.calls"] == 1
    assert values["kernels.rank_mod.calls"] == 2
    assert values["kernels.rref_mod.calls"] == 2
    assert values["linalg.subspaces.yielded"] == 4
    assert values["trace.spans"] == 5
    assert values["linalg.column_space_contains.self_s"] >= 0.0


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.E2E_METRICS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracer.LAYER_METRICS)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.OPERATIONS)
    names = {n for n, _, _ in tracer.TRACED} | {n for n, _, _ in tracer.COUNTED_GENERATORS}
    for name, _ in tracer.LAYER_METRICS:
        assert name.rsplit(".", 1)[0] in names | {"trace"}
