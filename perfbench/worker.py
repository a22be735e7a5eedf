"""One round of one workload in a fresh interpreter.

Started by ``run.py`` with ``src`` on PYTHONPATH; never run with ``-O``,
because hallcrys carries mathematical checks in ``assert`` statements.

    python perfbench/worker.py --workload NAME --mode setup|round
                               [--trace-spans PATH]

Set-up imports hallcrys and loads the workload's quiver, then prints the
``time.monotonic()`` reading at which it finished (the parent took one just
before starting this process).  A round then runs the workload's operation
once, timed from its first call to its result, and prints one JSON line with
the timings, the peak resident memory and the operation's outputs for the
parent to check.  With ``--trace-spans`` the round runs under the tracer and
adds its per-layer counts; the spans go to PATH.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
from itertools import product

HERE = os.path.dirname(os.path.abspath(__file__))
QUIVERS = {
    "a3-crystal-w5": os.path.join(HERE, "inputs", "a3.json"),
    "kron-integrality-b3": os.path.join(HERE, "inputs", "kronecker.json"),
    "kron-selftest-b2": os.path.join(HERE, "inputs", "kronecker.json"),
}

# a3-crystal-w5: the library calls of `certify --target both`, at the bound
# and weight where the crystal is the cost
A3_BOUND = (2, 2, 2)
A3_PRIMES = (2, 3, 5)
A3_WEIGHT = 5
# kron-integrality-b3: `certify --dim-bound 3`, i.e. the bound (3, 3)
KRON_BOUND = (3, 3)


def a3_crystal_w5(quiver_path: str) -> dict:
    import hallcrys
    from hallcrys.exseq import CertificateError
    quiver = hallcrys.Quiver.load(quiver_path)
    ctx = hallcrys.GenericContext(quiver, A3_BOUND, A3_PRIMES)
    crystal = hallcrys.Crystal(ctx, A3_WEIGHT)
    engine = hallcrys.CertificateEngine(quiver, A3_BOUND, A3_PRIMES)
    table = ctx.table(A3_PRIMES[0])
    classes = sorted({cls
                      for dim in product(*(range(b + 1) for b in A3_BOUND))
                      if 0 < sum(dim) <= A3_WEIGHT
                      for cls in table.classes_of_dim(dim)
                      if table.is_exceptional(cls)})
    results = []
    for cls in classes:
        entry = {"label": cls.label}
        try:
            entry["tree"] = engine.integral_certificate(cls).to_json()
            entry["integrality"] = "pass"
        except CertificateError as exc:
            entry["integrality"] = f"fail: {exc}"
        cert = hallcrys.certify_exceptional(ctx, cls, crystal,
                                            tree_json=entry.get("tree"))
        entry["crystal"] = cert.to_json()
        results.append(entry)
    vertices = {}
    for vertex in crystal.all_vertices():
        key = ",".join(map(str, vertex.weight))
        vertices[key] = vertices.get(key, 0) + 1
    return {
        "vertices": vertices,
        "crystal_falsifications": list(crystal.falsifications),
        "results": results,
        # every prime a fixed-q table was built for, so the held-out replay
        # prime can be shown unused
        "primes_used": sorted(set(ctx._tables) | set(engine._tables)),
    }


def _cli(argv) -> dict:
    from hallcrys import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return {"exit": code, "report": json.loads(out.getvalue())}


def kron_integrality_b3(quiver_path: str) -> dict:
    return _cli(["certify", "--quiver", quiver_path, "--all-exceptional",
                 "--dim-bound", str(KRON_BOUND[0]), "--target", "integrality",
                 "--primes", "2,3"])


def kron_selftest_b2(quiver_path: str) -> dict:
    return _cli(["selftest", "--quiver", quiver_path, "--dim-bound", "2"])


OPERATIONS = {
    "a3-crystal-w5": a3_crystal_w5,
    "kron-integrality-b3": kron_integrality_b3,
    "kron-selftest-b2": kron_selftest_b2,
}


def environment() -> dict:
    import numpy
    from hallcrys import _kernels
    return {
        "python": sys.version.split()[0],
        "implementation": sys.implementation.name,
        "numpy": numpy.__version__,
        "numba": _kernels._HAVE_NUMBA,
        "backend": _kernels.BACKEND,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(OPERATIONS))
    ap.add_argument("--mode", required=True, choices=("setup", "round"))
    ap.add_argument("--trace-spans")
    args = ap.parse_args(argv)
    if not __debug__:
        print("worker: assertions are disabled (-O); hallcrys checks would not run",
              file=sys.stderr)
        return 2

    import hallcrys
    import hallcrys.cli
    quiver_path = QUIVERS[args.workload]
    hallcrys.Quiver.load(quiver_path)
    ready = time.monotonic()
    record = {"ready": ready}
    if args.mode == "setup":
        record["env"] = environment()
        print(json.dumps(record))
        return 0

    tracer = None
    if args.trace_spans:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    operation = OPERATIONS[args.workload]
    wall0, cpu0 = time.perf_counter(), time.process_time()
    output = operation(quiver_path)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    # ru_maxrss is in KiB on Linux
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record.update(wall_s=wall, cpu_s=cpu, peak_rss_mib=peak_kib / 1024.0,
                  output=output)
    if tracer is not None:
        tracer.uninstall()
        # every crystal vertex but the unit came from an accepted Etilde image
        accepted = max(sum(output.get("vertices", {}).values()) - 1, 0)
        record["layers"] = tracer.layer_metrics(accepted)
        tracer.write_spans(args.trace_spans)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
