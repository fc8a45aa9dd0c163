"""Self-test of the benchmark at tiny scale (10k visits per workload).

    python3 bench/selftest.py

Runs every workload untraced and traced through ``bench/run.py`` and checks
that each metric named in ``BENCHMARK.json`` is emitted with its unit and
that no operation failed.  Then it tampers with one row of a CLI
``breakdowns.csv`` and checks that the output checker flags it.  Exits 1 on
any problem.  Not part of the test suite; it takes about 15 s.
"""

import contextlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TINY_VISITS = 10_000


def check_output(problems, spec, workload, trace):
    group = "per_layer" if trace else "end_to_end"
    child = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seconds", "0", "--trace", str(trace), "--visits", str(TINY_VISITS)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    where = f"{workload} trace={trace}"
    if child.returncode != 0:
        problems.append(f"{where}: exit {child.returncode}")
        return
    result = json.loads(child.stdout.splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: {result['failed']} of "
                        f"{result['attempted']} operations failed")
    for metric in spec[group]:
        got = result["metrics"].get(metric["name"])
        if got is None or got.get("unit") != metric["unit"] \
                or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{where}: {metric['name']} emitted as {got}")
    print(f"{where}: {result['attempted']} operations checked")


def check_tamper(problems):
    sys.path.insert(0, str(ROOT / "src"))
    import checks
    import workloads
    from prepush import cli

    run = workloads.Run(workloads.WORKLOADS["cli-1m"], workloads.DEFAULT_SEED,
                        0, TINY_VISITS)
    run.workdir.mkdir(parents=True, exist_ok=True)
    try:
        trace_path = run.workdir / "trace.csv"
        _, dataset = workloads.setup(run, trace_path)
        outdir = run.workdir / "out"
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            for _, argv in workloads.cli_commands(trace_path, outdir):
                cli.main(argv)
        sample = run.sample(dataset, sorted(dataset.title_visits))
        clean = checks.Ledger()
        checks.check_cli_outputs(clean, outdir, dataset.total_visits, sample)
        if clean.failures:
            problems.append(f"untouched outputs flagged: {clean.failures}")
        before = checks.digest_dir(outdir)

        path = outdir / "breakdowns.csv"
        lines = path.read_text().splitlines()
        fields = lines[2].split(",")
        fields[-1] = str(int(fields[-1]) + 1)
        lines[2] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")

        tampered = checks.Ledger()
        checks.check_cli_outputs(tampered, outdir, dataset.total_visits, sample)
        checks.check_same(tampered, "digests", checks.digest_dir(outdir), before)
        flagged = " | ".join(tampered.failures)
        for expected in ("total = broadcast + missed", "digests"):
            if expected not in flagged:
                problems.append(f"tampered breakdowns.csv not flagged by "
                                f"{expected!r}: {flagged}")
        print(f"tampered breakdowns.csv: {len(tampered.failures)} failures flagged")
    finally:
        workloads.cleanup(run)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            check_output(problems, spec, workload, trace)
    check_tamper(problems)
    for problem in problems:
        print(f"SELFTEST FAILED: {problem}", file=sys.stderr)
    print("selftest ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
