"""Run the prepush benchmark and print its metrics.

    python3 bench/run.py                         # every workload, untraced
    python3 bench/run.py --workload cli-1m --seed 7 --seconds 10 --trace 0
    python3 bench/run.py --workload planner-1m --trace 1   # per-layer run

Run it from the repository root.  Each metric is printed by name with its
unit, followed by the error rate; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics of ``BENCHMARK.json`` untraced, its per-layer
metrics traced).  See ``bench/README.md`` for the workloads and metrics.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC_PATH = ROOT / "BENCHMARK.json"


def parse_args(argv, spec):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=[w["name"] for w in spec["workloads"]] + ["all"])
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--seconds", type=float,
                        help="minimum measured time of one run (default: "
                        "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--visits", type=int,
                        help="shrink the workload to this many visits (the "
                        "self-test's tiny scale; no pinned digests apply)")
    parser.add_argument("--record", type=Path,
                        help="merge this run's results and metadata into a "
                        "JSON file")
    return parser.parse_args(argv)


def metadata():
    """Facts about the code and machine, recorded next to the metrics."""
    import numpy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True,
                             timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {"git_sha": sha, "src_lines": src_lines, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__}


def print_table(workload, args, values, units, counts, ledger):
    print(f"== {workload} seed={args.seed} trace={args.trace}")
    for name, value in values.items():
        print(f"  {name:62s} {value:>16.6g} {units[name]}")
    error_rate = len(ledger.failures) / ledger.attempted
    print(f"  {'error_rate':62s} {error_rate:>16.6g} ratio "
          f"({len(ledger.failures)} failed / {ledger.attempted} attempted)")
    for label, count in counts.items():
        print(f"  [{label}: {count:.6g}]")
    for failure in ledger.failures[:20]:
        print(f"  FAILED {failure}", file=sys.stderr)


def record(path, key, entry):
    data = json.loads(path.read_text()) if path.exists() else {}
    data.setdefault("runs", {})[key] = entry
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def run_one(args, spec):
    import workloads

    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[group]}
    run = workloads.Run(workloads.WORKLOADS[args.workload], args.seed,
                        args.seconds, args.visits)
    # One CPU for this process and the children it starts, so that work and
    # the speed probes share a core and nothing migrates mid-measurement.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        if args.trace:
            values, counts = workloads.measure_traced(run)
        else:
            values, counts = workloads.measure(run)
    finally:
        workloads.cleanup(run)

    missing = sorted(set(units) - set(values))
    if missing:
        raise SystemExit(f"bench: metrics not measured: {missing}")
    values = {name: values[name] for name in units}
    print_table(args.workload, args, values, units, counts, run.ledger)
    meta = metadata()
    print("meta " + json.dumps(meta, sort_keys=True))
    result = {
        "correct": not run.ledger.failures,
        "attempted": run.ledger.attempted,
        "failed": len(run.ledger.failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    if args.record:
        record(args.record, f"{args.workload}/seed{args.seed}/trace{args.trace}",
               {"meta": meta, "seconds": args.seconds, "counts": counts,
                **result})
    print(json.dumps(result))
    return 0


def run_all(args, spec):
    """Every workload in its own process, so peak memory stays per workload."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in (w["name"] for w in spec["workloads"]):
        argv = [sys.executable, str(BENCH / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        if args.visits:
            argv += ["--visits", str(args.visits)]
        if args.record:
            argv += ["--record", str(args.record)]
        child = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1]) if child.returncode == 0 else None
        except (IndexError, json.JSONDecodeError):
            result = None
        if result is None:
            print(f"bench: workload {name} failed (exit {child.returncode})",
                  file=sys.stderr)
            return 1
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None):
    spec = json.loads(SPEC_PATH.read_text())
    args = parse_args(argv, spec)
    if not (ROOT / "src" / "prepush" / "__init__.py").is_file():
        print(f"bench: no prepush sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if not (ROOT / "tests" / "oracle.py").is_file():
        print("bench: tests/oracle.py is missing", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload == "all":
        return run_all(args, spec)
    sys.path.insert(0, str(ROOT / "src"))
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
