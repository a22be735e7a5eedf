"""Acceptance suite: the ten exit criteria, one test per criterion.

Every check is an exact identity (tolerance zero).  Each test prints one
``[criterion N] PASS ...`` line; run with ``pytest -s tests/test_acceptance.py``
to see them.
"""

import json
import os
import subprocess
import sys
import time

import pytest

from hallcrys.classtable import ClassTable, IsoClass
from hallcrys.crystal import (Crystal, certify_exceptional, etilde,
                              exceptional_norm, ftilde, membership_L)
from hallcrys.exseq import (CertificateEngine, braid_case_used, braid_move_hall,
                            braid_move_module, braid_orbit,
                            complete_exceptional_sequences,
                            is_exceptional_sequence)
from hallcrys.generic import (GenericContext, expr_evaluate_fixed, generic_ringel_pair,
                              kashiwara_pair_elements,
                              lusztig_symmetry_generator, lusztig_symmetry_tree)
from hallcrys.hallalg import (multiply, rescale, ringel_pair, serre_defect,
                              transport_Ti)
from hallcrys.modules import ext_dim, hom_dim
from hallcrys.quivers import (dim_add, euler_bilinear, quiver_a2, quiver_a3,
                              quiver_kronecker)
from hallcrys.scalars import a_membership, eval_at_sqrt_q, in_one_plus_vinv_A

A2 = quiver_a2()
A3 = quiver_a3()
KRON = quiver_kronecker()


def _dims_up_to(quiver, total=None, bound=None):
    out = []

    def rec(prefix):
        if len(prefix) == quiver.n:
            if any(prefix):
                out.append(tuple(prefix))
            return
        hi = bound[len(prefix)] if bound else (total or 4)
        for d in range(hi + 1):
            rec(prefix + [d])

    rec([])
    if total is not None:
        out = [d for d in out if sum(d) <= total]
    return sorted(out, key=lambda d: (sum(d), d))


@pytest.fixture(scope="module")
def tables():
    cache = {}

    def get(quiver, q, bound=None):
        bound = bound or (4,) * quiver.n
        key = (quiver, q, bound)
        if key not in cache:
            cache[key] = ClassTable(quiver, q, bound)
        return cache[key]

    return get


@pytest.fixture(scope="module")
def contexts():
    cache = {}

    def get(quiver, bound=None):
        bound = bound or (4,) * quiver.n
        key = (quiver, bound)
        if key not in cache:
            cache[key] = GenericContext(quiver, bound, primes=(2, 3, 5))
        return cache[key]

    return get


@pytest.fixture(scope="module")
def a3_crystal(contexts):
    ctx = contexts(A3)
    return Crystal(ctx, 6)


@pytest.fixture(scope="module")
def a2_crystal(contexts):
    ctx = contexts(A2)
    return Crystal(ctx, 4)


def test_criterion_1_euler_identity(tables):
    """hom - ext = <dim M, dim N> on all class pairs of total dim <= 4."""
    start = time.time()
    pairs = 0
    for quiver in (A2, A3, KRON):
        for q in (2, 3, 5):
            t = tables(quiver, q)
            classes = [c for d in _dims_up_to(quiver, total=4)
                       for c in t.classes_of_dim(d)]
            reps = {c: t.representative(c) for c in classes}
            for a in classes:
                for b in classes:
                    got = hom_dim(reps[a], reps[b]) - ext_dim(reps[a], reps[b])
                    want = euler_bilinear(quiver, t.class_dim(a), t.class_dim(b))
                    assert got == want, (quiver, q, a.label, b.label)
                    pairs += 1
    elapsed = time.time() - start
    assert elapsed < 60, f"criterion 1 runtime {elapsed:.1f}s exceeds 1 min"
    print(f"\n[criterion 1] PASS euler identity on {pairs} class pairs "
          f"(A2/A3/Kronecker, q in {{2,3,5}}) in {elapsed:.1f}s")


def test_criterion_2_hall_axioms(tables):
    """Associativity on all basis triples within the (2,2)-type bound at
    q in {2,3}; quantum Serre relations on every tested quiver."""
    triples = 0
    for quiver in (A2, A3, KRON):
        bound = (2,) * quiver.n
        for q in (2, 3):
            t = tables(quiver, q)
            dims = _dims_up_to(quiver, bound=bound)
            for d1 in dims:
                for d2 in dims:
                    d12 = dim_add(d1, d2)
                    if any(x > b for x, b in zip(d12, bound)):
                        continue
                    for d3 in dims:
                        d123 = dim_add(d12, d3)
                        if any(x > b for x, b in zip(d123, bound)):
                            continue
                        for a in t.classes_of_dim(d1):
                            for b in t.classes_of_dim(d2):
                                for c in t.classes_of_dim(d3):
                                    x = rescale(t, a)
                                    y = rescale(t, b)
                                    z = rescale(t, c)
                                    assert multiply(multiply(x, y), z) \
                                        == multiply(x, multiply(y, z))
                                    triples += 1
            for i in range(quiver.n):
                for j in range(quiver.n):
                    if i != j:
                        assert serre_defect(t, i, j).is_zero(), (quiver, q, i, j)
    print(f"\n[criterion 2] PASS associativity on {triples} basis triples and "
          f"quantum Serre relations (incl. the Kronecker four-term one)")


def test_criterion_3_hall_number_and_aut_oracles(tables):
    """Both Hall-number algorithms agree on every enumerated triple; the
    closed-form aut orders match orbit counting and unit counting."""
    checked_triples = 0
    checked_classes = 0
    for quiver in (A2, A3, KRON):
        bound = (2, 2) if quiver.n == 2 else (2, 1, 1)
        for q in (2, 3):
            t = tables(quiver, q)
            dims = _dims_up_to(quiver, bound=bound)
            for dl in dims:
                for lam in t.classes_of_dim(dl):
                    for da in _dims_up_to(quiver, bound=dl) + [(0,) * quiver.n]:
                        if any(x > y for x, y in zip(da, dl)):
                            continue
                        db = tuple(x - y for x, y in zip(dl, da))
                        for alpha in t.classes_of_dim(da):
                            for beta in t.classes_of_dim(db):
                                assert t.hall_number(lam, alpha, beta) == \
                                    t.hall_number_rp(lam, alpha, beta)
                                checked_triples += 1
            for d in dims:
                for cls in t.classes_of_dim(d):
                    closed = t.aut_order(cls)
                    assert closed == t.aut_order_orbit(cls), (quiver, q, cls.label)
                    if q ** t.end_dim(cls) <= 100_000:
                        assert closed == t.aut_order_units(cls)
                    checked_classes += 1
    print(f"\n[criterion 3] PASS Riedtmann-Peng agreement on {checked_triples} "
          f"triples; closed-form aut orders match orbit/unit counts on "
          f"{checked_classes} classes")


def test_criterion_4_lusztig_vs_reflection(tables, contexts):
    """T''_{i,1}(E_j) equals the reflection-functor transport of <u_{S_j}>,
    generically on A2/A3 and at q in {2,3} on the Kronecker quiver."""
    checked = 0
    for quiver in (A2, A3):
        for i in quiver.sinks():
            reflected = quiver.reflect(i)
            rctx = contexts(reflected)
            for j in range(quiver.n):
                if j == i:
                    continue
                val = lusztig_symmetry_generator(rctx, i, j)
                t = tables(quiver, 2)
                rt = rctx.table(2)
                img = transport_Ti(rescale(t, t.simple_class(j)), i, rt)
                (target,) = img.coeffs
                assert val == rescale(rctx, target), (quiver, i, j)
                checked += 1
    for q in (2, 3):
        for i in KRON.sinks():
            reflected = KRON.reflect(i)
            t = tables(KRON, q, (3, 3))
            rt = tables(reflected, q, (3, 3))
            for j in range(KRON.n):
                if j == i:
                    continue
                tree = lusztig_symmetry_tree(reflected, i, j)
                val = expr_evaluate_fixed(tree, rt)
                img = transport_Ti(rescale(t, t.simple_class(j)), i, rt)
                assert val == img, (q, i, j)
                checked += 1
    print(f"\n[criterion 4] PASS Lusztig symmetry = reflection transport on "
          f"{checked} (sink, vertex) pairs (generic on A2/A3; q=2,3 Kronecker)")


def test_criterion_5_braid_case_formulas(tables):
    """braid_move_hall equals rescale(braid_move_module) for every
    exceptional pair within the bound and every applicable case."""
    import collections
    case_hits = collections.defaultdict(set)
    checked = 0
    for quiver in (A2, A3):
        bound = (2,) * quiver.n
        for q in (2, 3):
            t = tables(quiver, q)
            indecs = [IsoClass((it.label,)) for it in t.catalog
                      if not it.field_dependent]
            indecs = [c for c in indecs if t.is_exceptional(c)]
            for a in indecs:
                for b in indecs:
                    if not t.exceptional_pair_check(a, b):
                        continue
                    for d in (1, -1):
                        try:
                            moved = braid_move_module(t, (a, b), 0, d)
                        except Exception:
                            continue   # partner outside the catalog bound
                        new_obj = moved[1] if d > 0 else moved[0]
                        got = braid_move_hall(t, a, b, d)
                        assert got == rescale(t, new_obj), (quiver, q, a.label,
                                                            b.label, d)
                        case_hits[quiver.content_hash()].add(
                            braid_case_used(t, a, b, d))
                        checked += 1
    a2_cases = case_hits[A2.content_hash()]
    assert "3" in a2_cases and ({"1", "2"} & a2_cases), \
        f"A2 orbit failed to exercise case 3 plus one of 1/2: {a2_cases}"
    all_cases = set().union(*case_hits.values())
    unexercised = {"1", "2", "3", "1'", "2'", "3'"} - all_cases
    print(f"\n[criterion 5] PASS braid case formulas on {checked} (pair, direction) moves; "
          f"cases exercised: {sorted(all_cases)}"
          + (f"; never reachable at this scale: {sorted(unexercised)}"
             if unexercised else ""))


def test_criterion_6_braid_laws_and_transitivity(tables):
    """Braid relations on all complete exceptional sequences; the orbit of
    the simple sequence is everything."""
    for quiver in (A2, A3):
        t = tables(quiver, 2)
        seqs = complete_exceptional_sequences(t)
        for seq in seqs:
            assert is_exceptional_sequence(t, seq)
            for i in range(quiver.n - 2):
                lhs = braid_move_module(
                    t, braid_move_module(
                        t, braid_move_module(t, seq, i, 1), i + 1, 1), i, 1)
                rhs = braid_move_module(
                    t, braid_move_module(
                        t, braid_move_module(t, seq, i + 1, 1), i, 1), i + 1, 1)
                assert lhs == rhs, seq
        simples = tuple(t.simple_class(v) for v in range(quiver.n))
        orbit, _ = braid_orbit(t, simples)
        assert sorted(orbit) == sorted(seqs)
    print("\n[criterion 6] PASS braid relations and transitivity "
          f"(A2: 3 sequences, A3: 16 sequences)")


def _exceptional_classes(table, quiver, bound, rigid_only=True):
    out = []
    for d in _dims_up_to(quiver, bound=bound):
        for cls in table.classes_of_dim(d):
            if table.field_dependent(cls) and rigid_only:
                continue
            if table.is_exceptional(cls):
                out.append(cls)
    return sorted(set(out))


@pytest.fixture(scope="module")
def cert_scope(tables):
    scope = {}
    scope[A2] = _exceptional_classes(tables(A2, 2), A2, (2, 2))
    scope[A3] = _exceptional_classes(tables(A3, 2), A3, (2, 2, 2))
    scope[KRON] = _exceptional_classes(tables(KRON, 2, (3, 3)), KRON, (3, 3))
    return scope


def test_criterion_7_integrality_certificates(cert_scope):
    """Laurent-integral trees replaying to <u_lambda> at q in {2,3,5}."""
    start = time.time()
    engines = {q: CertificateEngine(q, (2,) * q.n if q is not KRON else (3, 3),
                                    primes=(2, 3, 5))
               for q in (A2, A3, KRON)}
    count = 0
    for quiver, classes in cert_scope.items():
        eng = engines[quiver]
        for cls in classes:
            tree = eng.integral_certificate(cls)
            assert tree.is_laurent_integral(), cls.label
            for p in (2, 3, 5):
                t = eng.table(p)
                assert expr_evaluate_fixed(tree, t) == rescale(t, cls), \
                    (cls.label, p)
            count += 1
    elapsed = time.time() - start
    assert elapsed < 300, f"criterion 7 runtime {elapsed:.1f}s exceeds 5 min"
    print(f"\n[criterion 7] PASS {count} integrality certificates "
          f"(A2 <= (2,2), A3 <= (2,2,2), Kronecker strings <= (3,3)) "
          f"replayed at q in {{2,3,5}} in {elapsed:.1f}s")


def test_criterion_8_crystal_axioms(contexts, a2_crystal, a3_crystal):
    """L-stability, Etilde/Ftilde inversion, Gram orthonormality mod v^-1 A,
    and agreement of the Kashiwara and Ringel pairings mod v^-1 A."""
    for quiver, crystal in ((A2, a2_crystal), (A3, a3_crystal)):
        ctx = contexts(quiver)
        vertices = [v for v in crystal.all_vertices() if sum(v.weight) <= 4]
        assert crystal.falsifications == []
        for v in vertices:
            assert membership_L(v.rep)
            for i in range(quiver.n):
                up = etilde(ctx, i, v.rep)
                assert membership_L(up)
                assert ftilde(ctx, i, up) == v.rep
        by_weight = {}
        for v in vertices:
            by_weight.setdefault(v.weight, []).append(v)
        for w, bucket in by_weight.items():
            for i, b1 in enumerate(bucket):
                for j, b2 in enumerate(bucket):
                    mr = a_membership(generic_ringel_pair(b1.rep, b2.rep))
                    mk = a_membership(kashiwara_pair_elements(b1.rep, b2.rep))
                    assert mr.in_A and mk.in_A
                    want = 1 if i == j else 0
                    assert mr.unit_part == want, (quiver, w, b1.word, b2.word)
                    assert mk.unit_part == mr.unit_part
    total = sum(1 for v in a2_crystal.all_vertices() if sum(v.weight) <= 4) + \
        sum(1 for v in a3_crystal.all_vertices() if sum(v.weight) <= 4)
    print(f"\n[criterion 8] PASS crystal axioms and K/R pairing agreement on "
          f"{total} vertices of weight sum <= 4 (A2 and A3)")


def test_criterion_9_crystal_membership_of_exceptionals(
        cert_scope, contexts, a2_crystal, a3_crystal):
    """Norms lie in 1 + v^-1 A (closed form validated at every prime);
    on A2/A3 exactly one crystal vertex pairs to +1, the rest to 0."""
    kron_ctx = contexts(KRON, (3, 3))
    count = signs = 0
    for quiver, crystal in ((A2, a2_crystal), (A3, a3_crystal), (KRON, None)):
        ctx = contexts(quiver) if quiver is not KRON else kron_ctx
        for cls in cert_scope[quiver]:
            norm = exceptional_norm(ctx, cls)
            assert in_one_plus_vinv_A(norm), cls.label
            for p in (2, 3, 5):
                t = ctx.table(p)
                assert eval_at_sqrt_q(norm, p) == ringel_pair(
                    rescale(t, cls), rescale(t, cls)), (cls.label, p)
            count += 1
            if crystal is not None:
                cert = certify_exceptional(ctx, cls, crystal)
                assert cert.passed, (cls.label, cert.falsifications)
                assert cert.sign == 1
                matches = [u for u in cert.pairing_units.values() if u == 1]
                zeros = [u for u in cert.pairing_units.values() if u == 0]
                assert len(matches) == 1
                assert len(matches) + len(zeros) == len(cert.pairing_units)
                signs += 1
    print(f"\n[criterion 9] PASS norms in 1 + v^-1 A for {count} exceptional "
          f"classes; unique +1 crystal match for {signs} Dynkin classes; "
          f"zero falsifications")


def test_criterion_10_determinism_and_cache(tmp_path):
    """Byte-identical selftest reports across runs and cold/warm cache."""
    base = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    qfile = tmp_path / "kron.json"
    qfile.write_text(json.dumps(KRON.to_json()))
    cache = str(tmp_path / "cache")

    def run():
        proc = subprocess.run(
            [sys.executable, "-m", "hallcrys.cli", "selftest", "--quiver",
             str(qfile), "--dim-bound", "2", "--cache", cache],
            capture_output=True, text=True, cwd=base,
            env={**os.environ, "PYTHONPATH": os.path.join(base, "src")})
        assert proc.returncode == 0, proc.stdout + proc.stderr
        report = json.loads(proc.stdout)
        report.pop("generated_at")
        return json.dumps(report, sort_keys=True)

    cold = run()           # populates the cache
    warm = run()           # reads it back
    assert cold == warm
    assert os.listdir(cache)
    print("\n[criterion 10] PASS byte-identical selftest reports across runs "
          "and cold/warm cache (modulo the timestamp field)")
