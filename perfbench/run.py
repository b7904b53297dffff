"""Wall-clock benchmark of the SEDSpec reproduction.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload guest-mix --seed 1 --seconds 10 \\
        --trace 0

``--workload all`` runs every workload in turn, each in a fresh
process, so nothing one workload leaves behind (compiled device
programs, peak memory) carries into the next.  ``--trace 0`` prints
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced
run.  ``--check`` is the untimed mode: a tiny run whose correctness
gates are checked and whose timings are not printed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A run whose
correctness gates fail prints ``"correct": false`` with no metrics and
exits with code 1.  Without the program's sources next to this
directory the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("guest-mix", "gateway-credit")
#: --check size: enough traffic for every gate to see an attack
CHECK_SECONDS = 1.0


def source_digest() -> str:
    """sha256 over the program's Python sources (the checkout the
    benchmark runs in need not be a git repository)."""
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(SRC, "repro")):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def commit() -> str:
    """The checkout's git commit; "unknown" outside a git checkout."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            check: bool) -> dict:
    from perfbench.workloads import run_workload

    work_dir = os.path.join(HERE, ".work", f"run-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    try:
        out = run_workload(workload, seed, seconds, work_dir, trace=trace)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    metrics = out.layers if trace else out.metrics
    result = {
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": ({} if check or not out.correct else
                    {name: {"value": value, "unit": unit}
                     for name, (value, unit) in metrics.items()}),
    }
    info = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "ops_attempted": out.attempted,
        "ops_failed": out.failed,
        "ops_refused_after_detection": out.refused_after_detection,
        **out.info,
    }
    return {"result": result, "info": info, "failures": out.failures}


def run_all(args) -> int:
    """Every workload in its own process; one merged result line."""
    work_dir = os.path.join(HERE, ".work", f"all-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    runs, results = [], []
    try:
        for name in WORKLOAD_NAMES:
            out = os.path.join(work_dir, f"{name}.json")
            cmd = [sys.executable, os.path.abspath(__file__),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--out", out]
            if args.check:
                cmd.append("--check")
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            if proc.returncode not in (0, 1) or not lines:
                return proc.returncode or 1
            print("\n".join(lines[:-1]))
            results.append(json.loads(lines[-1]))
            with open(out) as handle:
                runs.extend(json.load(handle))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(runs, handle, indent=2, sort_keys=True)
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {f"{name}.{k}": v for name, r
                    in zip(WORKLOAD_NAMES, results)
                    for k, v in r["metrics"].items()},
    }, sort_keys=True))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", action="store_true",
                        help="untimed: tiny size, gates only")
    parser.add_argument("--out", help="also write every result to this "
                        "JSON file")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources at {SRC}; run from the "
              f"root of a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [ROOT, SRC]

    name = args.workload
    run = run_one(name, args.seed,
                  CHECK_SECONDS if args.check else args.seconds,
                  bool(args.trace), args.check)
    for failure in run["failures"]:
        print(f"GATE FAILED [{name}]: {failure}", file=sys.stderr)
    for metric, entry in sorted(run["result"]["metrics"].items()):
        print(f"{name:15s} {metric:34s} {entry['value']:14.4f} "
              f"{entry['unit']}")
    run["info"].update(python=platform.python_version(),
                       nproc=os.cpu_count(), commit=commit(),
                       src_sha256=source_digest())
    print("info " + json.dumps(run["info"], sort_keys=True))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump([run], handle, indent=2, sort_keys=True)
    print(json.dumps(run["result"], sort_keys=True))
    return 0 if run["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
