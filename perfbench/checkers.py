"""Checks of the workloads' outputs, computed apart from hallcrys.

Expected values come from the quiver JSON alone: the real roots are the
nonnegative vectors x with <x, x> = 1 under the Euler form
<x, y> = sum_i x_i y_i - sum_{arrows s->t} x_s y_t; crystal vertex counts are
the Kostant partition function of those roots; a sum of real roots is
exceptional when <x, y> >= 0 for every ordered pair of its summands.  Tree
coefficients are parsed here, not by hallcrys.  Only the replay at a
held-out prime (:func:`replay_problems`) calls into hallcrys.

Each ``check_*`` function returns (attempted, failed, problems, replay): the
operations the workload attempts, those the program reported as errors, one
line per output that is wrong, and the (prime, [(label, tree)]) to replay, or
None.  An operation that failed is counted, not checked.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import product

from worker import A3_BOUND, A3_WEIGHT, KRON_BOUND

KRON_REPLAY_PRIME = 5
HELD_OUT_PRIMES = (13, 17, 19, 23)
SELFTEST_PRIMES = (2, 3, 5)
SELFTEST_CHECKS_PER_PRIME = 6


class Quiver:
    def __init__(self, data: dict):
        self.vertices = [str(v) for v in data["vertices"]]
        index = {v: i for i, v in enumerate(self.vertices)}
        self.arrows = [(index[str(s)], index[str(t)]) for s, t in data["arrows"]]

    @classmethod
    def load(cls, path: str) -> "Quiver":
        with open(path) as fh:
            return cls(json.load(fh))

    @property
    def n(self) -> int:
        return len(self.vertices)

    def euler(self, x, y) -> int:
        return (sum(a * b for a, b in zip(x, y))
                - sum(x[s] * y[t] for s, t in self.arrows))


# ----------------------------------------------------------------------
# roots, Kostant partition function, exceptional sums


def real_roots(quiver: Quiver, box) -> list:
    """Nonnegative nonzero x <= box with <x, x> = 1, sorted."""
    return sorted(x for x in product(*(range(b + 1) for b in box))
                  if any(x) and quiver.euler(x, x) == 1)


def kostant(roots, weight) -> int:
    """Number of multisets of ``roots`` summing to ``weight``."""
    memo = {}

    def count(idx, rest):
        if not any(rest):
            return 1
        if idx == len(roots):
            return 0
        key = (idx, rest)
        if key not in memo:
            root = roots[idx]
            total, cur = 0, rest
            while all(c >= 0 for c in cur):
                total += count(idx + 1, cur)
                cur = tuple(c - r for c, r in zip(cur, root))
            memo[key] = total
        return memo[key]

    return count(0, tuple(weight))


def crystal_vertex_counts(quiver: Quiver, max_total: int) -> dict:
    """Weight -> number of B(infinity) vertices, for every weight of total
    at most ``max_total`` (the weight spaces of U+ have Kostant dimension)."""
    roots = real_roots(quiver, (max_total,) * quiver.n)
    out = {}
    for w in product(range(max_total + 1), repeat=quiver.n):
        if sum(w) <= max_total:
            out[w] = kostant(roots, w)
    return out


def exceptional_sums(quiver: Quiver, bound, max_total=None) -> set:
    """Ext-free sums of real roots inside ``bound``, as sorted root tuples."""
    roots = real_roots(quiver, bound)
    out = set()

    def grow(start, parts, total):
        if parts:
            out.add(tuple(parts))
        for k in range(start, len(roots)):
            r = roots[k]
            new = tuple(a + b for a, b in zip(total, r))
            if any(a > b for a, b in zip(new, bound)):
                continue
            if max_total is not None and sum(new) > max_total:
                continue
            if all(quiver.euler(r, p) >= 0 and quiver.euler(p, r) >= 0
                   for p in parts):
                grow(k, parts + [r], new)

    grow(0, [], (0,) * quiver.n)
    return out


def label_roots(quiver: Quiver, label: str):
    """The summands' dimension vectors of a hallcrys class label, sorted;
    None for a label with a part that is not a real-root module."""
    parts = []
    for part in label.split("+"):
        if part.startswith("S") and part[1:] in quiver.vertices:
            dim = [0] * quiver.n
            dim[quiver.vertices.index(part[1:])] = 1
            parts.append(tuple(dim))
        elif re.fullmatch(r"r\d+(\.\d+)*", part):
            dim = tuple(int(d) for d in part[1:].split("."))
            if len(dim) != quiver.n:
                return None
            parts.append(dim)
        else:
            return None
    return tuple(sorted(parts))


# ----------------------------------------------------------------------
# divided-power trees


_TERM = re.compile(r"([+-])?(\d+(?:/\d+)?)?(?:\*?(v)(?:\^(-?\d+))?)?")


def parse_laurent(text: str) -> dict:
    """Exponent -> Fraction for text such as ``-v^-1 + 2*v^-3`` or ``1/2*v``."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty coefficient")
    out = {}
    pos = 0
    while pos < len(s):
        m = _TERM.match(s, pos)
        sign, coeff, v, exp = m.groups()
        if m.end() == pos or (coeff is None and v is None) \
                or (pos > 0 and sign is None):
            raise ValueError(f"malformed coefficient {text!r}")
        value = Fraction(coeff) if coeff else Fraction(1)
        e = (int(exp) if exp else 1) if v else 0
        out[e] = out.get(e, 0) + (-value if sign == "-" else value)
        pos = m.end()
    return {e: c for e, c in out.items() if c != 0}


def tree_problems(quiver: Quiver, label: str, tree) -> list:
    """Laurent-integral coefficients and every word of the class's weight."""
    if not tree:
        return [f"{label}: empty tree"]
    roots = label_roots(quiver, label)
    weight = [sum(c) for c in zip(*roots)] if roots else None
    problems = []
    for term in tree:
        try:
            coeffs = parse_laurent(term["coeff"])
        except ValueError as exc:
            problems.append(f"{label}: {exc}")
            continue
        if not coeffs:
            problems.append(f"{label}: zero coefficient {term['coeff']!r}")
        if any(c.denominator != 1 for c in coeffs.values()):
            problems.append(f"{label}: coefficient {term['coeff']!r} "
                            f"is not Laurent-integral")
        word_weight = [0] * quiver.n
        for vertex, power in term["word"]:
            word_weight[quiver.vertices.index(str(vertex))] += int(power)
        if weight is not None and word_weight != weight:
            problems.append(f"{label}: word {term['word']} has weight "
                            f"{word_weight}, not {weight}")
    return problems


def replay_problems(quiver_path: str, bound, prime: int, entries) -> list:
    """Replay each (label, tree) in the fixed-q Hall algebra at ``prime``.

    This is the one check that runs hallcrys itself.  For A3 the prime is
    one at which the checked run built no table; for Kronecker it is 5, which
    is not a certify prime (2, 3) but is the loop-element ladder's own
    held-out prime.
    """
    from hallcrys import ClassTable, Quiver as HQuiver
    from hallcrys.classtable import parse_class_label
    from hallcrys.generic import ExprTree, expr_evaluate_fixed
    from hallcrys.hallalg import rescale
    quiver = HQuiver.load(quiver_path)
    table = ClassTable(quiver, prime, tuple(bound))
    problems = []
    for label, tree in entries:
        cls = parse_class_label(label)
        value = expr_evaluate_fixed(ExprTree.from_json(quiver, tree), table)
        if value != rescale(table, cls):
            problems.append(f"{label}: tree does not replay to <u> at q={prime}")
    return problems


# ----------------------------------------------------------------------
# per-workload checks


def _labels_problems(quiver, labels, expected) -> list:
    got = {}
    for label in labels:
        got[label_roots(quiver, label)] = label
    problems = []
    if len(got) != len(labels):
        problems.append("duplicate exceptional classes")
    for roots in sorted(expected - set(got), key=str):
        problems.append(f"missing exceptional class with summands {roots}")
    for roots in sorted(set(got) - expected, key=str):
        problems.append(f"unexpected exceptional class {got[roots]}")
    return problems


def _integrality(quiver, entries):
    """(failed labels, problems, (label, tree) pairs to replay)."""
    failed, problems, trees = set(), [], []
    for entry in entries:
        label = entry["label"]
        if entry.get("integrality") != "pass":
            failed.add(label)
            continue
        problems += tree_problems(quiver, label, entry.get("tree"))
        trees.append((label, entry.get("tree")))
    return failed, problems, trees


def check_a3_crystal(quiver: Quiver, output: dict):
    """Returns (attempted, failed, problems, replay) for a3-crystal-w5;
    ``replay`` is (prime, trees) for :func:`replay_problems`."""
    expected_counts = {w: c for w, c in crystal_vertex_counts(quiver, A3_WEIGHT).items()
                       if c}
    expected = exceptional_sums(quiver, A3_BOUND, A3_WEIGHT)
    attempted = A3_WEIGHT + 2 * len(expected)
    problems = []
    got_counts = {tuple(int(x) for x in k.split(",")): c
                  for k, c in output["vertices"].items()}
    for w in sorted(set(expected_counts) | set(got_counts)):
        if got_counts.get(w, 0) != expected_counts.get(w, 0):
            problems.append(f"crystal weight {w}: {got_counts.get(w, 0)} vertices, "
                            f"Kostant partition function gives "
                            f"{expected_counts.get(w, 0)}")
    if output["crystal_falsifications"]:
        problems.append(f"crystal falsifications: {output['crystal_falsifications']}")
    entries = output["results"]
    problems += _labels_problems(quiver, [e["label"] for e in entries], expected)
    failed, tree_probs, trees = _integrality(quiver, entries)
    problems += tree_probs
    for entry in entries:
        cert = entry["crystal"]
        label = entry["label"]
        units = cert.get("pairing_units") or {}
        plus_one = [w for w, u in units.items() if Fraction(u) == 1]
        if not cert["norm_in_one_plus_vinv_A"]:
            problems.append(f"{label}: norm {cert['norm']} is not in 1 + v^-1 A")
        if cert["falsifications"]:
            problems.append(f"{label}: {cert['falsifications']}")
        if cert["sign"] != 1:
            problems.append(f"{label}: crystal sign {cert['sign']}, not +1")
        if len(plus_one) != 1 or cert["matched_word"] != (plus_one or [None])[0]:
            problems.append(f"{label}: matched word {cert['matched_word']} is not "
                            f"the unique +1 pairing among {units}")
        if any(Fraction(u) not in (0, 1) for u in units.values()):
            problems.append(f"{label}: pairing units {units} outside {{0, 1}}")
    used = set(output["primes_used"])
    prime = next(p for p in HELD_OUT_PRIMES if p not in used)
    return attempted, len(failed), problems, (prime, trees)


def check_kron_integrality(quiver: Quiver, output: dict):
    """Returns (attempted, failed, problems, replay) for kron-integrality-b3."""
    expected = exceptional_sums(quiver, KRON_BOUND)
    attempted = len(expected)
    report = output["report"]
    if "results" not in report:
        return attempted, attempted, [], (KRON_REPLAY_PRIME, [])
    entries = report["results"]
    problems = _labels_problems(quiver, [e["label"] for e in entries], expected)
    failed, tree_probs, trees = _integrality(quiver, entries)
    problems += tree_probs
    if not failed:
        if output["exit"] != 0:
            problems.append(f"certify exited {output['exit']}")
        if report["falsifications"]:
            problems.append(f"falsifications: {report['falsifications']}")
    if KRON_REPLAY_PRIME in report["primes"]:
        problems.append(f"replay prime {KRON_REPLAY_PRIME} was a certify prime")
    return attempted, len(failed), problems, (KRON_REPLAY_PRIME, trees)


def check_kron_selftest(output: dict):
    """Returns (attempted, failed, problems, None) for kron-selftest-b2."""
    attempted = SELFTEST_CHECKS_PER_PRIME * len(SELFTEST_PRIMES) + 1
    report = output["report"]
    if "results" not in report:
        return attempted, attempted, [], None
    checks = report["results"]
    problems = []
    if output["exit"] != 0:
        problems.append(f"selftest exited {output['exit']}")
    if report["falsifications"]:
        problems.append(f"falsifications: {report['falsifications']}")
    if list(report["primes"]) != list(SELFTEST_PRIMES):
        problems.append(f"selftest primes {report['primes']}, not {SELFTEST_PRIMES}")
    for p in SELFTEST_PRIMES:
        n = sum(1 for c in checks if c["check"].endswith(f" q={p}"))
        if n != SELFTEST_CHECKS_PER_PRIME:
            problems.append(f"{n} checks at q={p}, not {SELFTEST_CHECKS_PER_PRIME}")
    if len(checks) != attempted:
        problems.append(f"{len(checks)} checks, not {attempted}")
    problems += [f"check failed: {c['check']}" for c in checks if c["pass"] is not True]
    return attempted, 0, problems, None
