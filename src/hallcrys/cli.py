"""Command-line driver: enumerate, compute, certify, selftest.

:func:`main` owns the run envelope: it loads the quiver, builds the prime
tables through the cache, runs one ``cmd_*`` (which returns the report's
inputs, results and falsifications), saves the tables and writes the report.
Reports are deterministic JSON (sorted keys; a single ``generated_at``
timestamp field is the only run-dependent entry).  Exit codes: 0 all checks
pass, 2 a falsification flag was raised or a check raised
:class:`~hallcrys.checks.CheckFailed`, 1 operational error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .checks import CheckFailed
from .classtable import ClassTable, IsoClass, TableSet, parse_class_label
from .crystal import Crystal, certify_exceptional
from .exseq import CertificateEngine, braid_move_hall, braid_move_module
from .generic import GenericContext, generic_multiply, kashiwara_pair_elements
from .hallalg import HallElement, multiply, rescale, ringel_pair, rprime
from .quivers import Quiver, dim_total

SCHEMA = 1


class CLIError(RuntimeError):
    pass


@dataclass
class RunConfig:
    quiver_path: str
    primes: tuple = (2, 3, 5)
    dim_bound: int = 3
    point_budget: int = 500_000
    ext_budget: int = 200_000
    cache_dir: str | None = None
    fmt: str = "json"

    def __post_init__(self):
        if len(self.primes) < 2:
            raise CLIError("at least two primes are required (one for validation)")
        if len(set(self.primes)) != len(self.primes):
            raise CLIError(f"repeated primes in --primes {','.join(map(str, self.primes))}")
        if self.dim_bound <= 0 or self.point_budget <= 0 or self.ext_budget <= 0:
            raise CLIError("bounds and budgets must be positive")


def _bound_tuple(quiver: Quiver, config: RunConfig):
    return (config.dim_bound,) * quiver.n


def _cache_path(config: RunConfig, quiver: Quiver, q: int):
    if not config.cache_dir:
        return None
    name = f"{quiver.content_hash()}_q{q}_b{config.dim_bound}.json"
    return os.path.join(config.cache_dir, name)


def _load_table(config: RunConfig, quiver: Quiver, q: int) -> ClassTable:
    table = ClassTable(quiver, q, _bound_tuple(quiver, config),
                       config.point_budget, config.ext_budget)
    path = _cache_path(config, quiver, q)
    if path and os.path.exists(path):
        try:
            with open(path) as fh:
                skipped = table.load_cache(json.load(fh))
        except (OSError, ValueError) as exc:      # unreadable, or for another table
            print(f"hallcrys: cache file {path} ignored: {exc}", file=sys.stderr)
        else:
            if skipped:
                print(f"hallcrys: cache file {path}: skipped {skipped} malformed "
                      f"entries", file=sys.stderr)
    return table


def _tables(config: RunConfig, quiver: Quiver) -> TableSet:
    """The command's tables, one per prime, loaded from the cache on first use."""
    return TableSet(quiver, _bound_tuple(quiver, config),
                    lambda q: _load_table(config, quiver, q))


def _save_tables(config: RunConfig, quiver: Quiver, tables: TableSet):
    if not config.cache_dir:
        return
    os.makedirs(config.cache_dir, exist_ok=True)
    # mkstemp creates files 0600; give them the mode open() would, so a
    # cache directory shared through HALLCRYS_CACHE_DIR stays readable
    umask = os.umask(0)
    os.umask(umask)
    for table in tables.values():
        payload = json.dumps(table.dump_cache(), sort_keys=True, indent=1)
        fd, tmp = tempfile.mkstemp(dir=config.cache_dir, suffix=".tmp")
        try:
            os.fchmod(fd, 0o666 & ~umask)
            with os.fdopen(fd, "w") as fh:
                fh.write(payload)
            os.replace(tmp, _cache_path(config, quiver, table.q))
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise


def _all_dims(quiver: Quiver, bound: int):
    from itertools import product
    dims = [d for d in product(range(bound + 1), repeat=quiver.n) if any(d)]
    return sorted(dims, key=lambda d: (sum(d), d))


def _report(command, inputs, results, primes, falsifications):
    return {
        "schema": SCHEMA,
        "command": command,
        "inputs": inputs,
        "results": results,
        "primes": list(primes),
        "falsifications": falsifications,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


# ----------------------------------------------------------------------
# enumerate


def cmd_enumerate(config: RunConfig, quiver: Quiver, tables: TableSet, args):
    falsifications = []
    per_prime = {}
    for q in config.primes:
        table = tables[q]
        entries = []
        for dim in _all_dims(quiver, config.dim_bound):
            try:
                mass_ok = table.mass_check(dim)
            except CheckFailed as exc:
                falsifications.append(f"mass formula failed at q={q}, dim={dim}: {exc}")
                continue
            except Exception as exc:
                entries.append({"dim": list(dim), "error": str(exc)})
                continue
            if not mass_ok:
                falsifications.append(f"mass formula failed at q={q}, dim={dim}")
            for cls in table.classes_of_dim(dim):
                entries.append({
                    "label": cls.label,
                    "dim": list(dim),
                    "aut_order": table.aut_order(cls),
                    "exceptional": table.is_exceptional(cls),
                    "field_dependent": table.field_dependent(cls),
                })
        per_prime[str(q)] = entries
    return {"dim_bound": config.dim_bound}, per_prime, falsifications


# ----------------------------------------------------------------------
# compute: a tiny expression DSL


class _Parser:
    """expr := atom ('*' atom)* ; atom := 'u[label]' | func '(' args ')'
    func := 'pairR' | 'pairK' | 'rprime[i]' | 'braid[1,+-1]'"""

    def __init__(self, text):
        self.text = text
        self.pos = 0

    def error(self, msg):
        raise CLIError(f"parse error at position {self.pos}: {msg}")

    def skip(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def expect(self, ch):
        self.skip()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def parse(self):
        node = self.parse_product()
        self.skip()
        if self.pos != len(self.text):
            self.error("trailing input")
        return node

    def parse_product(self):
        factors = [self.parse_atom()]
        while True:
            self.skip()
            if self.pos < len(self.text) and self.text[self.pos] == "*":
                self.pos += 1
                factors.append(self.parse_atom())
            else:
                break
        if len(factors) == 1:
            return factors[0]
        return ("product", factors)

    def parse_atom(self):
        self.skip()
        rest = self.text[self.pos:]
        if rest.startswith("u["):
            depth = 0
            end = None
            for k in range(self.pos + 1, len(self.text)):
                if self.text[k] == "[":
                    depth += 1
                elif self.text[k] == "]":
                    depth -= 1
                    if depth == 0:
                        end = k
                        break
            if end is None:
                self.error("unterminated u[...]")
            label = self.text[self.pos + 2:end]
            self.pos = end + 1
            return ("class", label)
        for name in ("pairR", "pairK"):
            if rest.startswith(name):
                self.pos += len(name)
                self.expect("(")
                a = self.parse_product()
                self.expect(",")
                b = self.parse_product()
                self.expect(")")
                return (name, a, b)
        if rest.startswith("rprime["):
            end = self.text.find("]", self.pos)
            if end < 0:
                self.error("unterminated rprime[...]")
            vertex = self.text[self.pos + 7:end]
            self.pos = end + 1
            self.expect("(")
            a = self.parse_product()
            self.expect(")")
            return ("rprime", vertex, a)
        if rest.startswith("braid["):
            end = self.text.find("]", self.pos)
            if end < 0:
                self.error("unterminated braid[...]")
            args = [arg.strip() for arg in self.text[self.pos + 6:end].split(",")]
            if len(args) != 2:
                self.error("braid[i,dir] takes two arguments")
            position, direction = args
            if position != "1":
                self.error(f"braid position must be 1 (a pair has one), not {position!r}")
            if direction not in ("1", "+1", "-1"):
                self.error(f"braid direction must be 1, +1 or -1, not {direction!r}")
            self.pos = end + 1
            self.expect("(")
            a = self.parse_product()
            self.expect(",")
            b = self.parse_product()
            self.expect(")")
            return ("braid", direction, a, b)
        self.error("expected u[...], pairR, pairK, rprime[...] or braid[...]")


def _operand(node, layer, role: str) -> HallElement:
    """The value of node as an element; a scalar there is an error."""
    val = _evaluate(node, layer)
    if not isinstance(val, HallElement):
        raise CLIError(f"pairR/pairK give a scalar, not {role}")
    return val


def _evaluate(node, layer):
    """Evaluate a parsed expression over a ClassTable or a GenericContext.

    Each operation has one routine for both layers; on the generic layer
    products go through :func:`generic_multiply`, which spot-checks them
    against the fixed-q product."""
    generic = isinstance(layer, GenericContext)
    product = generic_multiply if generic else multiply
    kind = node[0]
    if kind == "class":
        cls = parse_class_label(node[1])
        try:
            val = rescale(layer, cls)
        except KeyError as exc:     # an unknown label
            raise CLIError(exc.args[0]) from None
        if generic and layer.field_dependent(cls):
            raise CLIError(f"label {cls.label} is field-dependent; no generic form")
        return val
    if kind == "product":
        out = None
        for sub in node[1]:
            val = _operand(sub, layer, "a factor of a product")
            out = val if out is None else product(out, val)
        return out
    if kind == "rprime":
        vertex = layer.quiver.index.get(node[1])
        if vertex is None:
            raise CLIError(f"unknown vertex {node[1]!r}")
        x = _operand(node[2], layer, "an argument of rprime")
        return rprime(layer.simple_class(vertex), x)
    if kind in ("pairR", "pairK"):
        if kind == "pairK" and not generic:
            raise CLIError("pairK is generic-only; see the generic results")
        x = _operand(node[1], layer, f"an argument of {kind}")
        y = _operand(node[2], layer, f"an argument of {kind}")
        if kind == "pairK":
            return kashiwara_pair_elements(x, y)
        return ringel_pair(x, y)
    if kind == "braid":
        if generic:
            raise CLIError("braid moves are evaluated at fixed q; see fixed results")
        a = _operand(node[2], layer, "an argument of braid")
        b = _operand(node[3], layer, "an argument of braid")
        if len(a.coeffs) != 1 or len(b.coeffs) != 1:
            raise CLIError("braid[.] expects single basis classes")
        (ca,), (cb,) = list(a.coeffs), list(b.coeffs)
        return braid_move_hall(layer, ca, cb, int(node[1]))
    raise CLIError(f"cannot evaluate {kind}")


def cmd_compute(config: RunConfig, quiver: Quiver, tables: TableSet, args):
    node = _Parser(args.expression).parse()
    results = {"fixed": {}, "generic": None, "generic_error": None}
    for q in config.primes:
        try:
            val = _evaluate(node, tables[q])
            results["fixed"][str(q)] = (val.to_json() if hasattr(val, "to_json")
                                        else str(val))
        except CLIError as exc:
            results["fixed"][str(q)] = f"error: {exc}"
    if quiver.is_dynkin():
        ctx = GenericContext(quiver, _bound_tuple(quiver, config), config.primes,
                             tables=tables)
        try:
            results["generic"] = str(_evaluate(node, ctx))
        except CLIError as exc:
            results["generic_error"] = str(exc)
    else:
        results["generic_error"] = "generic layer requires a Dynkin quiver"
    return {"expression": args.expression}, results, []


# ----------------------------------------------------------------------
# certify


def cmd_certify(config: RunConfig, quiver: Quiver, tables: TableSet, args):
    target, label = args.target, args.label
    bound = _bound_tuple(quiver, config)
    t0 = tables[config.primes[0]]
    if args.all_exceptional:
        classes = []
        for dim in _all_dims(quiver, config.dim_bound):
            for cls in t0.classes_of_dim(dim):
                if t0.is_exceptional(cls) and not t0.field_dependent(cls):
                    classes.append(cls)
        classes = sorted(set(classes))
    else:
        if not label:
            raise CLIError("provide --label or --all-exceptional")
        classes = [parse_class_label(label)]
        for part in classes[0].parts:
            if part not in t0.by_label:
                raise CLIError(f"unknown indecomposable label {part!r}")
        if not t0.is_exceptional(classes[0]):
            return ({"label": label}, {"rejected": f"{label} is not exceptional"},
                    [f"{label} is not exceptional"])
    falsifications = []
    results = []
    engine = CertificateEngine(quiver, bound, config.primes, tables=tables)
    ctx = GenericContext(quiver, bound, config.primes, tables=tables)
    crystal = None
    if target in ("crystal", "both") and quiver.is_dynkin():
        max_weight = max(sum(t0.class_dim(c)) for c in classes) if classes else 0
        crystal = Crystal(ctx, max_weight, bound)
        falsifications.extend(f"crystal: {f}" for f in crystal.falsifications)
    for cls in classes:
        entry = {"label": cls.label}
        if target in ("integrality", "both"):
            try:
                tree = engine.integral_certificate(cls)
                entry["tree"] = tree.to_json()
                entry["integrality"] = "pass"
            except CheckFailed as exc:
                # a limit or an unsupported case (CertificateError) is an
                # operational error and reaches main
                entry["integrality"] = f"fail: {exc}"
                falsifications.append(f"integrality of {cls.label}: {exc}")
        if target in ("crystal", "both"):
            cert = certify_exceptional(ctx, cls, crystal,
                                       tree_json=entry.get("tree"))
            entry["crystal"] = cert.to_json()
            falsifications.extend(f"{cls.label}: {f}" for f in cert.falsifications)
        results.append(entry)
    inputs = {"target": target, "label": label, "all_exceptional": args.all_exceptional}
    return inputs, results, falsifications


# ----------------------------------------------------------------------
# selftest


def cmd_selftest(config: RunConfig, quiver: Quiver, tables: TableSet, args):
    from .exseq import BraidError
    from .hallalg import serre_defect
    from .modules import BudgetExceeded, ext_dims
    from .quivers import euler_form
    falsifications = []
    checks = []

    def check(name, ok, skipped=0):
        checks.append({"check": name, "pass": bool(ok), "skipped": skipped})
        if not ok:
            falsifications.append(name)
        if skipped:
            print(f"hallcrys: selftest check {name!r} skipped {skipped} comparisons "
                  f"past a budget or the dimension bound", file=sys.stderr)

    for q in config.primes:
        table = tables[q]
        dims = [d for d in _all_dims(quiver, config.dim_bound) if sum(d) <= 4]
        classes = []
        for d in dims:
            classes.extend(table.classes_of_dim(d))
        reps = [table.representative(c) for c in classes]
        # C H C^T - X = D E D^T over every pair of classes: Hom is additive
        # over the table's Krull-Schmidt parts (C counts them, H is the Hom
        # matrix of the indecomposables); Ext (X) comes from the direct sums,
        # so the identity still compares two routes
        labels = sorted({part for c in classes for part in c.parts})
        m, n = len(classes), len(labels)
        C = np.array([[mult.get(label, 0) for label in labels]
                      for mult in (c.multiplicities() for c in classes)],
                     dtype=np.int64).reshape(m, n)
        H = np.array(table.hom_matrix(labels, labels), dtype=np.int64).reshape(n, n)
        X = np.array(ext_dims(reps, reps), dtype=np.int64).reshape(m, m)
        D = np.array([table.class_dim(c) for c in classes], dtype=np.int64)
        E = np.array(euler_form(quiver), dtype=np.int64)
        check(f"euler identity q={q}", np.array_equal(C @ H @ C.T - X, D @ E @ D.T))
        mass_ok = all(table.mass_check(d) for d in dims)
        check(f"mass formula q={q}", mass_ok)
        serre_ok, skipped = True, 0
        for i, j in permutations(range(quiver.n), 2):
            try:
                if not serre_defect(table, i, j).is_zero():
                    serre_ok = False
            except BudgetExceeded:
                skipped += 1     # the Serre degree 1 - a_ij leaves the bound
        check(f"quantum serre q={q}", serre_ok, skipped)
        # dual-route Hall numbers and automorphism orders on small triples
        dual_ok, skipped = True, 0
        small = [c for c in classes if dim_total(table.class_dim(c)) <= 2]
        for lam in small:
            ld = table.class_dim(lam)
            for alpha in classes:
                ad = table.class_dim(alpha)
                bd = tuple(x - y for x, y in zip(ld, ad))
                if any(x < 0 for x in bd):
                    continue
                for beta in table.classes_of_dim(bd):
                    try:
                        if table.hall_number(lam, alpha, beta) != \
                                table.hall_number_rp(lam, alpha, beta):
                            dual_ok = False
                    except BudgetExceeded:
                        skipped += 1
        check(f"hall-number dual routes q={q}", dual_ok, skipped)
        aut_ok, skipped = True, 0
        for cls in small:
            try:
                if table.aut_order(cls) != table.aut_order_orbit(cls):
                    aut_ok = False
            except BudgetExceeded:
                skipped += 1
        check(f"aut order closed form vs orbit q={q}", aut_ok, skipped)
        # Hall-level braid moves reproduce the module-level ones
        indecs = [IsoClass((it.label,)) for it in table.catalog
                  if not it.field_dependent and dim_total(it.dim) <= 3]
        indecs = [c for c in indecs if table.is_exceptional(c)]
        braid_ok, skipped = True, 0
        for a in indecs:
            for b in indecs:
                if not table.exceptional_pair_check(a, b):
                    continue
                for d in (1, -1):
                    try:
                        moved = braid_move_module(table, (a, b), 0, d)
                        new_obj = moved[1] if d > 0 else moved[0]
                        hall_side = braid_move_hall(table, a, b, d)
                    except (BudgetExceeded, BraidError):
                        skipped += 1     # the move leaves the configured bound
                        continue
                    if hall_side != rescale(table, new_obj):
                        braid_ok = False
        check(f"braid move hall/module consistency q={q}", braid_ok, skipped)
    # one integrality certificate replay per exceptional simple
    engine = CertificateEngine(quiver, _bound_tuple(quiver, config), config.primes,
                               tables=tables)
    simples = [IsoClass((f"S{v}",)) for v in quiver.vertices]
    check("certificate replay on the simples",
          all(engine.verify_tree(engine.integral_certificate(cls), cls)
              for cls in simples))
    return {"dim_bound": config.dim_bound}, checks, falsifications


# ----------------------------------------------------------------------
# entry point


def build_parser():
    p = argparse.ArgumentParser(prog="hallcrys",
                                description="Exact Hall-algebra engine with "
                                            "integrality and crystal certification")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--quiver", required=True, help="quiver JSON file")
        sp.add_argument("--primes", default="2,3,5",
                        help="comma-separated primes; at least two")
        sp.add_argument("--dim-bound", type=int, default=3)
        sp.add_argument("--point-budget", type=int, default=500_000)
        sp.add_argument("--ext-budget", type=int, default=200_000)
        sp.add_argument("--cache", default=os.environ.get("HALLCRYS_CACHE_DIR"))
        sp.add_argument("--format", choices=("json", "table"), default="json")

    common(sub.add_parser("enumerate", help="list iso-classes per prime"))
    sp = sub.add_parser("compute", help="evaluate a DSL expression")
    common(sp)
    sp.add_argument("expression")
    sp = sub.add_parser("certify", help="integrality / crystal certificates")
    common(sp)
    sp.add_argument("--target", choices=("integrality", "crystal", "both"),
                    default="both")
    sp.add_argument("--label")
    sp.add_argument("--all-exceptional", action="store_true")
    common(sub.add_parser("selftest", help="run the internal consistency battery"))
    return p


def _emit(report: dict, fmt: str):
    if fmt == "json":
        print(json.dumps(report, sort_keys=True, indent=1))
        return
    print(f"# {report['command']}  (primes {report['primes']})")
    results = report["results"]
    if isinstance(results, dict):
        for key, value in results.items():
            print(f"{key}: {value}")
    else:
        for row in results:
            print(row)
    for f in report["falsifications"]:
        print(f"FALSIFIED: {f}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = {"enumerate": cmd_enumerate, "compute": cmd_compute,
               "certify": cmd_certify, "selftest": cmd_selftest}[args.command]
    try:
        config = RunConfig(quiver_path=args.quiver,
                           primes=tuple(int(x) for x in args.primes.split(",")),
                           dim_bound=args.dim_bound,
                           point_budget=args.point_budget,
                           ext_budget=args.ext_budget,
                           cache_dir=args.cache,
                           fmt=args.format)
        quiver = Quiver.load(config.quiver_path)
        tables = _tables(config, quiver)
        inputs, results, falsifications = command(config, quiver, tables, args)
        _save_tables(config, quiver, tables)
        report = _report(args.command, {"quiver": quiver.to_json(), **inputs},
                         results, config.primes, falsifications)
    except CheckFailed as exc:
        # a contradicted identity is a falsification, not an operational error
        report = _report(args.command, {"quiver": args.quiver}, {},
                         config.primes, [str(exc)])
    except (ValueError, RuntimeError) as exc:
        # bad input (CLIError, QuiverError) or a budget, catalog or
        # certificate failure: an operational error
        print(json.dumps({"schema": SCHEMA, "error": str(exc)}, sort_keys=True))
        return 1
    _emit(report, config.fmt)
    return 2 if report["falsifications"] else 0


if __name__ == "__main__":
    sys.exit(main())
