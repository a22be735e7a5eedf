"""Command-line driver: enumerate, compute, certify, selftest.

Reports are deterministic JSON (sorted keys; a single ``generated_at``
timestamp field is the only run-dependent entry).  Exit codes: 0 all checks
pass, 2 a falsification flag was raised, 1 operational error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from dataclasses import dataclass

from .classtable import ClassTable, IsoClass, TableSet, parse_class_label
from .crystal import Crystal, certify_exceptional
from .exseq import CertificateEngine, braid_move_hall, braid_move_module
from .generic import GenericContext, generic_ringel_pair, kashiwara_pair_elements
from .hallalg import multiply, rescale, ringel_pair, rprime
from .quivers import Quiver, QuiverError, dim_total

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
        except (OSError, json.JSONDecodeError) as exc:
            print(f"hallcrys: cache file {path} ignored: {exc}", file=sys.stderr)
        else:
            if skipped:
                print(f"hallcrys: cache file {path}: skipped {skipped} malformed "
                      f"entries", file=sys.stderr)
    return table


def _tables(config: RunConfig, quiver: Quiver) -> TableSet:
    """The command's tables, one per prime, loaded from the cache on first use."""
    return TableSet(lambda q: _load_table(config, quiver, q))


def _save_table(config: RunConfig, quiver: Quiver, table: ClassTable):
    path = _cache_path(config, quiver, table.q)
    if not path:
        return
    os.makedirs(config.cache_dir, exist_ok=True)
    payload = json.dumps(table.dump_cache(), sort_keys=True, indent=1)
    fd, tmp = tempfile.mkstemp(dir=config.cache_dir, suffix=".tmp")
    # mkstemp creates the file 0600; give it the mode open() would, so a
    # cache directory shared through HALLCRYS_CACHE_DIR stays readable
    umask = os.umask(0)
    os.umask(umask)
    try:
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _save_tables(config: RunConfig, quiver: Quiver, tables: TableSet):
    for table in tables.values():
        _save_table(config, quiver, table)


def _all_dims(quiver: Quiver, bound: int):
    out = []

    def rec(prefix):
        if len(prefix) == quiver.n:
            if any(prefix):
                out.append(tuple(prefix))
            return
        for d in range(bound + 1):
            rec(prefix + [d])

    rec([])
    out.sort(key=lambda d: (sum(d), d))
    return out


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


def cmd_enumerate(config: RunConfig) -> dict:
    quiver = Quiver.load(config.quiver_path)
    falsifications = []
    per_prime = {}
    for q in config.primes:
        table = _load_table(config, quiver, q)
        entries = []
        for dim in _all_dims(quiver, config.dim_bound):
            try:
                mass_ok = table.mass_check(dim)
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
        _save_table(config, quiver, table)
    return _report("enumerate", {"quiver": quiver.to_json(),
                                 "dim_bound": config.dim_bound},
                   per_prime, config.primes, falsifications)


# ----------------------------------------------------------------------
# compute: a tiny expression DSL


class _Parser:
    """expr := atom ('*' atom)* ; atom := 'u[label]' | func '(' args ')'
    func := 'pairR' | 'pairK' | 'rprime[i]' | 'braid[i,+-1]'"""

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
            end = self.text.index("]", self.pos)
            vertex = self.text[self.pos + 7:end]
            self.pos = end + 1
            self.expect("(")
            a = self.parse_product()
            self.expect(")")
            return ("rprime", vertex, a)
        if rest.startswith("braid["):
            end = self.text.index("]", self.pos)
            args = self.text[self.pos + 6:end].split(",")
            if len(args) != 2:
                self.error("braid[i,dir] takes two arguments")
            self.pos = end + 1
            self.expect("(")
            a = self.parse_product()
            self.expect(",")
            b = self.parse_product()
            self.expect(")")
            return ("braid", args[0].strip(), args[1].strip(), a, b)
        self.error("expected u[...], pairR, pairK, rprime[...] or braid[...]")


def _eval_fixed(node, table: ClassTable):
    kind = node[0]
    if kind == "class":
        return rescale(table, parse_class_label(node[1]))
    if kind == "product":
        out = None
        for sub in node[1]:
            val = _eval_fixed(sub, table)
            out = val if out is None else multiply(out, val)
        return out
    if kind == "rprime":
        vertex = table.quiver.index.get(node[1])
        if vertex is None:
            raise CLIError(f"unknown vertex {node[1]!r}")
        return rprime(table.simple_class(vertex), _eval_fixed(node[2], table))
    if kind == "pairR":
        return ringel_pair(_eval_fixed(node[1], table), _eval_fixed(node[2], table))
    if kind == "braid":
        a = _eval_fixed(node[3], table)
        b = _eval_fixed(node[4], table)
        if len(a.coeffs) != 1 or len(b.coeffs) != 1:
            raise CLIError("braid[.] expects single basis classes")
        (ca,), (cb,) = list(a.coeffs), list(b.coeffs)
        return braid_move_hall(table, ca, cb, 1 if node[2] in ("1", "+1") else -1)
    if kind == "pairK":
        raise CLIError("pairK is generic-only; see the generic results")
    raise CLIError(f"cannot evaluate {kind}")


def _eval_generic(node, ctx: GenericContext):
    from .generic import generic_basis, generic_multiply, generic_rprime
    kind = node[0]
    if kind == "class":
        cls = parse_class_label(node[1])
        t0 = ctx.table(ctx.primes[0])
        if t0.field_dependent(cls):
            raise CLIError(f"label {cls.label} is field-dependent; no generic form")
        return generic_basis(ctx, cls)
    if kind == "product":
        out = None
        for sub in node[1]:
            val = _eval_generic(sub, ctx)
            out = val if out is None else generic_multiply(out, val)
        return out
    if kind == "rprime":
        vertex = ctx.quiver.index.get(node[1])
        if vertex is None:
            raise CLIError(f"unknown vertex {node[1]!r}")
        t0 = ctx.table(ctx.primes[0])
        return generic_rprime(ctx, t0.simple_class(vertex), _eval_generic(node[2], ctx))
    if kind == "pairR":
        return generic_ringel_pair(_eval_generic(node[1], ctx), _eval_generic(node[2], ctx))
    if kind == "pairK":
        x = _eval_generic(node[1], ctx)
        y = _eval_generic(node[2], ctx)
        return kashiwara_pair_elements(x, y)
    if kind == "braid":
        raise CLIError("braid moves are evaluated at fixed q; see fixed results")
    raise CLIError(f"cannot evaluate {kind}")


def cmd_compute(config: RunConfig, expression: str) -> dict:
    quiver = Quiver.load(config.quiver_path)
    node = _Parser(expression).parse()
    results = {"fixed": {}, "generic": None, "generic_error": None}
    falsifications = []
    tables = _tables(config, quiver)
    for q in config.primes:
        try:
            val = _eval_fixed(node, tables[q])
            results["fixed"][str(q)] = (val.to_json() if hasattr(val, "to_json")
                                        else str(val))
        except CLIError as exc:
            results["fixed"][str(q)] = f"error: {exc}"
    if quiver.is_dynkin():
        ctx = GenericContext(quiver, _bound_tuple(quiver, config), config.primes,
                             point_budget=config.point_budget,
                             ext_budget=config.ext_budget, tables=tables)
        try:
            results["generic"] = str(_eval_generic(node, ctx))
        except CLIError as exc:
            results["generic_error"] = str(exc)
    else:
        results["generic_error"] = "generic layer requires a Dynkin quiver"
    _save_tables(config, quiver, tables)
    return _report("compute", {"quiver": quiver.to_json(), "expression": expression},
                   results, config.primes, falsifications)


# ----------------------------------------------------------------------
# certify


def cmd_certify(config: RunConfig, target: str, label: str | None,
                all_exceptional: bool) -> dict:
    quiver = Quiver.load(config.quiver_path)
    bound = _bound_tuple(quiver, config)
    tables = _tables(config, quiver)
    t0 = tables[config.primes[0]]
    if all_exceptional:
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
        if not t0.is_exceptional(classes[0]):
            return _report("certify", {"quiver": quiver.to_json(), "label": label},
                           {"rejected": f"{label} is not exceptional"},
                           config.primes,
                           [f"{label} is not exceptional"])
    falsifications = []
    results = []
    engine = CertificateEngine(quiver, bound, config.primes,
                               point_budget=config.point_budget,
                               ext_budget=config.ext_budget, tables=tables)
    ctx = GenericContext(quiver, bound, config.primes,
                         point_budget=config.point_budget,
                         ext_budget=config.ext_budget, tables=tables)
    crystal = None
    if target in ("crystal", "both") and quiver.is_dynkin():
        max_weight = max(sum(t0.class_dim(c)) for c in classes) if classes else 0
        crystal = Crystal(ctx, max_weight)
    for cls in classes:
        entry = {"label": cls.label}
        if target in ("integrality", "both"):
            try:
                tree = engine.integral_certificate(cls)
                entry["tree"] = tree.to_json()
                entry["integrality"] = "pass"
            except Exception as exc:
                entry["integrality"] = f"fail: {exc}"
                falsifications.append(f"integrality of {cls.label}: {exc}")
        if target in ("crystal", "both"):
            cert = certify_exceptional(ctx, cls, crystal,
                                       tree_json=entry.get("tree"))
            entry["crystal"] = cert.to_json()
            falsifications.extend(f"{cls.label}: {f}" for f in cert.falsifications)
        results.append(entry)
    _save_tables(config, quiver, tables)
    return _report("certify", {"quiver": quiver.to_json(), "target": target,
                               "label": label, "all_exceptional": all_exceptional},
                   results, config.primes, falsifications)


# ----------------------------------------------------------------------
# selftest


def cmd_selftest(config: RunConfig) -> dict:
    from .exseq import BraidError, braid_move_hall, braid_move_module
    from .generic import expr_evaluate_fixed
    from .hallalg import serre_defect
    from .modules import BudgetExceeded, ext_dim, hom_dim
    from .quivers import euler_bilinear
    quiver = Quiver.load(config.quiver_path)
    falsifications = []
    checks = []

    def check(name, ok):
        checks.append({"check": name, "pass": bool(ok)})
        if not ok:
            falsifications.append(name)

    tables = _tables(config, quiver)
    for q in config.primes:
        table = tables[q]
        dims = [d for d in _all_dims(quiver, config.dim_bound) if sum(d) <= 4]
        classes = []
        for d in dims:
            classes.extend(table.classes_of_dim(d))
        euler_ok = True
        for a in classes:
            for b in classes:
                M, N = table.representative(a), table.representative(b)
                if hom_dim(M, N) - ext_dim(M, N) != euler_bilinear(
                        quiver, table.class_dim(a), table.class_dim(b)):
                    euler_ok = False
        check(f"euler identity q={q}", euler_ok)
        mass_ok = all(table.mass_check(d) for d in dims)
        check(f"mass formula q={q}", mass_ok)
        serre_ok = all(serre_defect(table, i, j).is_zero()
                       for i in range(quiver.n) for j in range(quiver.n) if i != j)
        check(f"quantum serre q={q}", serre_ok)
        # dual-route Hall numbers and automorphism orders on small triples
        dual_ok = True
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
                        pass
        check(f"hall-number dual routes q={q}", dual_ok)
        aut_ok = True
        for cls in small:
            try:
                if table.aut_order(cls) != table.aut_order_orbit(cls):
                    aut_ok = False
            except BudgetExceeded:
                pass
        check(f"aut order closed form vs orbit q={q}", aut_ok)
        # Hall-level braid moves reproduce the module-level ones
        indecs = [IsoClass((it.label,)) for it in table.catalog
                  if not it.field_dependent and dim_total(it.dim) <= 3]
        indecs = [c for c in indecs if table.is_exceptional(c)]
        braid_ok = True
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
                        continue     # move leaves the configured bound
                    if hall_side != rescale(table, new_obj):
                        braid_ok = False
        check(f"braid move hall/module consistency q={q}", braid_ok)
    # one integrality certificate replay per exceptional simple
    from .exseq import CertificateEngine
    engine = CertificateEngine(quiver, _bound_tuple(quiver, config), config.primes,
                               point_budget=config.point_budget,
                               ext_budget=config.ext_budget, tables=tables)
    cert_ok = True
    for v in range(quiver.n):
        cls = IsoClass((f"S{quiver.vertices[v]}",))
        tree = engine.integral_certificate(cls)
        for p in config.primes:
            t = engine.table(p)
            if expr_evaluate_fixed(tree, t) != rescale(t, cls):
                cert_ok = False
    check("certificate replay on the simples", cert_ok)
    _save_tables(config, quiver, tables)
    return _report("selftest", {"quiver": quiver.to_json(),
                                "dim_bound": config.dim_bound},
                   checks, config.primes, falsifications)


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
    try:
        config = RunConfig(quiver_path=args.quiver,
                           primes=tuple(int(x) for x in args.primes.split(",")),
                           dim_bound=args.dim_bound,
                           point_budget=args.point_budget,
                           ext_budget=args.ext_budget,
                           cache_dir=args.cache,
                           fmt=args.format)
        if args.command == "enumerate":
            report = cmd_enumerate(config)
        elif args.command == "compute":
            report = cmd_compute(config, args.expression)
        elif args.command == "certify":
            report = cmd_certify(config, args.target, args.label,
                                 args.all_exceptional)
        elif args.command == "selftest":
            report = cmd_selftest(config)
        else:
            raise CLIError(f"unknown command {args.command}")
    except (CLIError, QuiverError, ValueError) as exc:
        print(json.dumps({"schema": SCHEMA, "error": str(exc)}, sort_keys=True))
        return 1
    except RuntimeError as exc:
        # budget, catalog or certificate failures are operational errors
        print(json.dumps({"schema": SCHEMA, "error": str(exc)}, sort_keys=True))
        return 1
    _emit(report, config.fmt)
    return 2 if report["falsifications"] else 0


if __name__ == "__main__":
    sys.exit(main())
