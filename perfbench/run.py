"""Benchmark hallcrys end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/hallcrys`` must exist).  Each
workload operation runs as a batch job: a fresh interpreter per round, one
thread, one call at a time (a closed loop with a single caller).  Nothing is
shared between runs: no process, no hallcrys cache directory and no
bytecode cache.

``--trace 0`` measures set-up several times, then runs rounds until the next
one would end after ``--seconds`` (at least one), and reports medians of the
end-to-end metrics.  ``--trace 1`` runs one untraced and one traced round
and reports the per-layer metrics of the traced one, plus the tracing
overhead.  Every round's outputs are checked (see checkers.py); the last
line of standard output is the JSON result.  The inputs are fixed and every
check is exhaustive, so ``--seed`` only labels the run record.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import checkers
from tracer import LAYER_METRICS
from worker import OPERATIONS, QUIVERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKER = os.path.join(HERE, "worker.py")
SETUPS = 9
# a run must end within 180 s; leave time for the checks after the rounds
RUN_DEADLINE_S = 150

E2E_METRICS = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
               ("peak_rss_mib", "MiB"))


class RunError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for name in ("PYTHONOPTIMIZE", "HALLCRYS_CACHE_DIR", "PYTHONSTARTUP"):
        env.pop(name, None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    # no process writes bytecode, so no run reads bytecode an earlier one left
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def spawn(workload: str, mode: str, env: dict, deadline: float,
          spans: str | None = None) -> dict:
    """One worker process, killed at ``deadline`` (a ``time.monotonic()``
    reading); returns its record with ``setup_s`` added."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--mode", mode]
    if spans:
        cmd += ["--trace-spans", spans]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(deadline - start, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"{workload} {mode} did not finish in {exc.timeout} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RunError(f"{workload} {mode} exited {proc.returncode}:\n"
                       f"{proc.stderr[-4000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_s"] = record["ready"] - start
    return record


def check(workload: str, output: dict):
    """(attempted, failed, problems) for one round's output."""
    quiver_path = QUIVERS[workload]
    quiver = checkers.Quiver.load(quiver_path)
    if workload == "a3-crystal-w5":
        attempted, failed, problems, replay = checkers.check_a3_crystal(quiver, output)
        bound = checkers.A3_BOUND
    elif workload == "kron-integrality-b3":
        attempted, failed, problems, replay = checkers.check_kron_integrality(quiver, output)
        bound = checkers.KRON_BOUND
    else:
        attempted, failed, problems, replay = checkers.check_kron_selftest(output)
    if replay is not None and replay[1]:
        prime, trees = replay
        problems += checkers.replay_problems(quiver_path, bound, prime, trees)
    return attempted, failed, problems


def measure(workload: str, seconds: int, trace: bool, env: dict, spans: str):
    deadline = time.monotonic() + RUN_DEADLINE_S
    setups = [spawn(workload, "setup", env, deadline) for _ in range(SETUPS)]
    rounds = []
    traced = None
    begin = time.monotonic()
    while True:
        rounds.append(spawn(workload, "round", env, deadline))
        if trace:
            traced = spawn(workload, "round", env, deadline, spans=spans)
            break
        elapsed = time.monotonic() - begin
        if elapsed + elapsed / len(rounds) > seconds:
            break
    return setups, rounds, traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark hallcrys end to end and per layer.")
    ap.add_argument("--workload", required=True, choices=sorted(OPERATIONS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "hallcrys", "__init__.py")):
        print(f"run.py: no hallcrys sources under {SRC}", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = os.path.join(OUT, f"spans-{args.workload}.bin")
    try:
        setups, rounds, traced = measure(args.workload, args.seconds,
                                         bool(args.trace), child_env(), spans)
    except RunError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    # the replay check imports hallcrys here
    sys.dont_write_bytecode = True
    sys.path.insert(0, SRC)
    checked = {}
    attempted = failed = 0
    problems = []
    for record in rounds + ([traced] if traced else []):
        # identical outputs need one check; a CLI report differs between
        # rounds only in its generated_at stamp
        output = dict(record["output"])
        if "report" in output:
            output["report"] = {k: v for k, v in output["report"].items()
                                if k != "generated_at"}
        key = json.dumps(output, sort_keys=True)
        if key not in checked:
            checked[key] = check(args.workload, record["output"])
        a, f, p = checked[key]
        attempted += a
        failed += f
        problems += p

    if args.trace:
        layers = traced["layers"]
        layers["trace.overhead_s"] = traced["wall_s"] - rounds[0]["wall_s"]
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in LAYER_METRICS}
    else:
        values = {"setup_s": [s["setup_s"] for s in setups]}
        for name in ("wall_s", "cpu_s", "peak_rss_mib"):
            values[name] = [r[name] for r in rounds]
        metrics = {name: {"value": statistics.median(values[name]), "unit": unit}
                   for name, unit in E2E_METRICS}

    env_info = setups[0]["env"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env_info,
        "setup_s": [s["setup_s"] for s in setups],
        "rounds": [{k: r[k] for k in ("setup_s", "wall_s", "cpu_s", "peak_rss_mib")}
                   for r in rounds],
        "traced_wall_s": traced["wall_s"] if traced else None,
        "spans_file": os.path.relpath(spans, ROOT) if traced else None,
        "problems": problems, "metrics": metrics,
    }
    with open(os.path.join(OUT, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    for line in problems:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    print("environment: " + " ".join(f"{k}={v}" for k, v in sorted(env_info.items())))
    print(f"workload {args.workload}: {len(rounds)} round(s), "
          f"{attempted} operations attempted, {failed} failed, "
          f"{len(problems)} check failures")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
