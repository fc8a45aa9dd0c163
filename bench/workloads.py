"""The benchmark's workloads and the two ways of running them.

An untraced run measures the end-to-end metrics: CLI commands run one at a
time as child processes, exactly as a user starts them, and library calls
are timed one by one in this process.  A traced run executes the same work
in-process, once, with every layer wrapped by :class:`tracer.Tracer`, and
reports the per-layer metrics plus the tracing overhead: its span count
times the calibrated cost of one span.  Both are a closed loop from one
process with one client and no threads.
"""

import contextlib
import gc
import hashlib
import json
import os
import random
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import checks
from checks import Ledger, OracleSample
from prepush import cli, concentration, placement, planning, synth, trace
from prepush.concentration import CURVE_KINDS
from prepush.synth import SynthParams
from tracer import Tracer, span_cost_s

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "digests.json"

#: The seed of the test suite's reference trace (tests/conftest.py).
DEFAULT_SEED = 12345
#: Set-up repeats per run; set-up time is their median (here their mean).
#: A 1M-visit set-up takes about 9 s, and the median of three is no steadier
#: than the mean of two, so a third repeat is not worth its time.
SETUP_REPEATS = 2
#: Broadcast ratios of the traffic curve: 0, 0.01, ..., 0.30, where the
#: paper's savings are.
TRAFFIC_RATIOS = tuple(round(0.01 * k, 2) for k in range(31))
#: Oracle coverages of the per-title coverage_cost queries.
QUERY_COVERAGES = (1.0, 0.2)
#: Titles queried in-process by the CLI workloads (three calls each): the
#: p99 latency has 36 samples beyond it.  With 400 titles its spread over
#: ten seeds was 0.19 on cli-1m, against 0.08 for the planner's 15,000.
CLI_QUERY_TITLES = 1200
#: Traffic curves timed per CLI run; the metric is their median.  With two
#: (their mean) the 1M curve's time spread 0.12 over ten seeds.
CLI_CURVES = 3
ORACLE_TITLES = 4
ORACLE_USERS = 3
#: Cell ranks `prepush stats` reports in the geo profile by default.
GEO_RANKS = 10
STEPS = ("stats", "plan", "sweep")
#: Title queries that share one pair of speed probes.
PROBE_CHUNK = 500
#: Entries of the memory probe's dict and lookups per probe.
PROBE_TABLE = 300_000
PROBE_LOOKUPS = 100_000
#: Seconds between the probes taken while long work runs: set-up and CLI
#: commands, which take 1 to 20 s each.
PROBE_EVERY_S = 1.0
#: Each probe's reference time, the unit of the normalised timings: about
#: its median on the 2-vCPU box the baseline was recorded on.
CPU_PROBE_S = 0.035
MEMORY_PROBE_S = 0.050

#: The ROADMAP reference trace: 5k users x 5k titles x 1k cells, 1M visits,
#: default Zipf exponents and geo profile.
CONCENTRATED = {"n_users": 5000, "n_titles": 5000, "n_cells": 1000,
                "n_visits": 1_000_000}
#: About 6 visits per user (against 200 above) and flatter popularity, so
#: per-entity costs outweigh per-visit costs.  This is a third of the
#: 50k-user, 300k-visit shape first proposed for it, so that every run of
#: all three workloads fits the benchmark's time budget (see README.md).
DISPERSED = {"n_users": 16_667, "n_titles": 3_333, "n_cells": 1_667,
             "n_visits": 100_000, "title_zipf_exponent": 0.7,
             "user_zipf_exponent": 0.5,
             "geo_profile": (0.3, 0.2, 0.15, 0.1, 0.05),
             "max_cells_per_user": 20}


@dataclass(frozen=True)
class Workload:
    name: str
    shape: dict
    #: True: the pipeline runs through the CLI on a trace file.  False:
    #: the dataset stays resident and only library calls are timed.
    cli: bool


WORKLOADS = {w.name: w for w in (
    Workload("cli-1m", CONCENTRATED, cli=True),
    Workload("planner-1m", CONCENTRATED, cli=False),
    Workload("cli-dispersed", DISPERSED, cli=True),
)}


def cpu_probe():
    """Seconds a fixed, cache-resident pure-Python loop takes now."""
    start = time.perf_counter()
    counts = {}
    for i in range(200_000):
        key = i % 4099
        counts[key] = counts.get(key, 0) + 1
    sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return time.perf_counter() - start


class MemoryProbe:
    """Seconds fixed random lookups in a dict too large for the caches take."""

    def __init__(self):
        rng = random.Random(0)
        self.table = {i: i for i in range(PROBE_TABLE)}
        self.keys = [rng.randrange(PROBE_TABLE) for _ in range(PROBE_LOOKUPS)]

    def __call__(self):
        table = self.table
        start = time.perf_counter()
        total = 0
        for key in self.keys:
            total += table[key]
        return time.perf_counter() - start


class Speed:
    """Expresses timings at a fixed reference speed of the host.

    The machine this benchmark runs on is shared: the same work takes up to
    twice as long for tens of seconds at a time while neighbours are busy,
    and a run-to-run spread of that size would hide any change to the
    program.  So every timed piece of work sits between runs of a probe,
    and its time is scaled by the probe's reference time over the mean of
    the probes taken before, during (see :meth:`probing`) and after it; raw
    times are reported next to the normalised ones.  Work in this process
    is tracked best by :func:`cpu_probe`; CLI child processes, which start
    cold and allocate their whole dataset, by :class:`MemoryProbe` (over 33
    interleaved samples against a CLI child its time correlated 0.83 with
    the child's, the CPU probe's 0.38).
    """

    def __init__(self, probe, reference_s):
        self.probe_once = probe
        self.reference_s = reference_s
        #: Probes since the start of the work being timed.
        self.window = []
        self.probes = []

    def probe(self):
        elapsed = self.probe_once()
        self.probes.append(elapsed)
        return elapsed

    def mark(self):
        """Probe before timed work that follows untimed work."""
        self.window = [self.probe()]

    def scale(self):
        """Probe after timed work; the factor that normalises its time."""
        now = self.probe()
        factor = self.reference_s / statistics.fmean(self.window + [now])
        self.window = [now]
        return factor

    @contextlib.contextmanager
    def probing(self, child=None):
        """Also probe every ``PROBE_EVERY_S`` seconds while the block runs.

        A timer signal interrupts the block for each probe, so that this
        process's own work waits while it runs; ``child``, a
        :class:`Child` being timed, is stopped for it.  The timer is
        re-armed after each probe, so probes never nest.  Yields a one-item
        list holding the seconds of these probes, to be taken off the
        block's time before :meth:`scale`.
        """
        paused = [0.0]
        active = [True]

        def interrupt(signum, frame):
            try:
                if child is None or child.stop():
                    start = time.perf_counter()
                    try:
                        self.window.append(self.probe())
                    finally:
                        elapsed = time.perf_counter() - start
                        if child is None or child.resume():
                            paused[0] += elapsed
            finally:
                if active[0]:
                    signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S)

        previous = signal.signal(signal.SIGALRM, interrupt)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S)
        try:
            yield paused
        finally:
            active[0] = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


class Child:
    """A CLI command the launcher is running, which a probe may pause."""

    def __init__(self):
        self.pidfd = None

    def attach(self, pid):
        try:
            self.pidfd = os.pidfd_open(pid)
        except ProcessLookupError:
            pass  # it has already ended

    def stop(self):
        """Stop the command; False if it has not started or has ended.

        All processes of a run share one CPU, so the command is not running
        while this process is, and once stopped it can at most finish an
        exit it had begun: :meth:`resume` tells whether it did.
        """
        if self.pidfd is None:
            return False
        try:
            signal.pidfd_send_signal(self.pidfd, signal.SIGSTOP)
        except ProcessLookupError:
            return False
        return not self._ended()

    def resume(self):
        """Continue the command; True if it was stopped all along, so that
        the probe taken meanwhile lies wholly inside its wall time."""
        try:
            signal.pidfd_send_signal(self.pidfd, signal.SIGCONT)
        except ProcessLookupError:
            return False
        return not self._ended()

    def _ended(self):
        return bool(select.select([self.pidfd], [], [], 0)[0])

    def close(self):
        if self.pidfd is not None:
            os.close(self.pidfd)


def synth_params(workload, seed, visits=None):
    """The workload's generator parameters, optionally shrunk to ``visits``."""
    shape = dict(workload.shape)
    if visits is not None:
        factor = visits / shape["n_visits"]
        floor = shape.get("max_cells_per_user", 10)
        for key in ("n_users", "n_titles", "n_cells"):
            shape[key] = max(floor, round(shape[key] * factor))
        shape["n_visits"] = visits
    return SynthParams(**shape, seed=seed)


def cli_commands(trace_path, outdir):
    """The pipeline after `gen`: stats, plan in assumed mode, sweep."""
    common = ["--input", str(trace_path), "--output", str(outdir)]
    return (
        ("stats", ["stats", *common]),
        ("plan", ["plan", *common, "--mode", "assumed"]),
        ("sweep", ["sweep", *common]),
    )


class Run:
    """State of one benchmark run: inputs, work directory and the ledger."""

    def __init__(self, workload, seed, seconds, visits=None):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.params = synth_params(workload, seed, visits)
        #: Digests the outputs must have: pinned for the default seed only.
        self.pinned = (json.loads(DIGESTS.read_text()).get(workload.name, {})
                       if visits is None and seed == DEFAULT_SEED else None)
        self.ledger = Ledger()
        self.run_id = f"{workload.name}-{seed}-{os.getpid()}"
        self.workdir = ROOT / ".bench_work" / self.run_id
        self.digests = {}
        self.speed = Speed(cpu_probe, CPU_PROBE_S)
        #: Speed probes around CLI child processes, made only by CLI runs.
        self.child_speed = None
        #: Raw (not normalised) seconds of each end-to-end timing.
        self.raw = {}

    def timed(self, label, func, *args):
        """Call ``func`` as one attempted operation; return (result, seconds)."""
        self.ledger.attempted += 1
        start = time.perf_counter()
        try:
            result = func(*args)
        except Exception:
            elapsed = time.perf_counter() - start
            self.ledger.fail(label)
            return None, elapsed
        return result, time.perf_counter() - start

    def repeat_digests(self, label, digests):
        """Check a repeat's digests against the first, then the pinned ones."""
        first = self.digests.setdefault(label, digests)
        if first is not digests:
            checks.check_same(self.ledger, f"{label} repeat is identical",
                              digests, first)
        elif self.pinned is not None:
            checks.check_same(self.ledger, f"{label} matches pinned digests",
                              digests, self.pinned.get(label, {}))

    def sample(self, dataset, titles):
        """Oracle sample: queried titles at evenly spaced popularity ranks,
        the most and the least visited among them, and seeded users."""
        ranked = sorted(titles, key=lambda t: (-len(dataset.title_users[t]), t))
        picked = dict.fromkeys(
            ranked[i * (len(ranked) - 1) // (ORACLE_TITLES - 1)]
            for i in range(ORACLE_TITLES))
        users = random.Random(self.seed).sample(sorted(dataset.user_visits),
                                                ORACLE_USERS)
        return OracleSample(dataset.records, picked, users)


def query_titles(run, dataset):
    """Titles for the per-title queries, in a seeded shuffled order.

    The planner queries every title.  The CLI workloads query titles at
    evenly spaced popularity ranks, so that every seed's sample holds
    popular and rare titles in the same proportions.
    """
    titles = sorted(dataset.title_visits,
                    key=lambda t: (-dataset.title_visits[t], t))
    if run.workload.cli and len(titles) > CLI_QUERY_TITLES:
        titles = [titles[i * len(titles) // CLI_QUERY_TITLES]
                  for i in range(CLI_QUERY_TITLES)]
    random.Random(run.seed).shuffle(titles)
    return titles


def stats_step(dataset):
    """What `prepush stats` computes, on the resident dataset."""
    curves = [concentration.concentration_curve(dataset, k).points
              for k in CURVE_KINDS]
    profile = concentration.geo_concentration_profile(dataset, GEO_RANKS)
    return curves, profile


def traffic_curves(run, dataset):
    """The traffic curve in all three modes; return (seconds, curves)."""
    curves, seconds, raw = {}, 0.0, 0.0
    run.speed.mark()
    for mode in planning.TRAFFIC_MODES:
        curve, elapsed = run.timed(f"traffic curve {mode}",
                                   planning.traffic_vs_broadcast_ratio,
                                   dataset, mode, TRAFFIC_RATIOS)
        curves[mode] = curve
        seconds += elapsed * run.speed.scale()
        raw += elapsed
    run.raw.setdefault("traffic_curve_s", []).append(raw)
    return seconds, curves


def _timed_calls(run, calls):
    """Time each ``(key, func, *args)`` call; return latencies and results.

    Calls share a pair of speed probes per ``PROBE_CHUNK`` of them.
    """
    latencies, results = [], {}
    run.speed.mark()
    for i in range(0, len(calls), PROBE_CHUNK):
        raw = []
        for key, func, *args in calls[i:i + PROBE_CHUNK]:
            results[key], elapsed = run.timed(f"{func.__name__} {key}", func,
                                              *args)
            raw.append(elapsed)
        factor = run.speed.scale()
        latencies += [t * factor for t in raw]
        run.raw.setdefault("title_query_s", []).extend(raw)
    return latencies, results


def title_queries(run, dataset, titles):
    """coverage_cost at each query coverage for every title, then
    sweep_coverage for every title; latencies and results of each."""
    cost_lat, costs = _timed_calls(run, [
        ((title, coverage), planning.coverage_cost, dataset, title, coverage)
        for title in titles for coverage in QUERY_COVERAGES])
    sweep_lat, sweeps = _timed_calls(run, [
        (title, planning.sweep_coverage, dataset, title) for title in titles])
    return cost_lat, sweep_lat, costs, sweeps


def resident_digest(curves, costs, sweeps, stats=None):
    """sha256 of the in-process results, for repeat and pinned checks."""
    payload = {
        "curves": curves,
        "costs": [[t, c, None if b is None else
                   [b.broadcast_transmissions, b.missed_visits,
                    b.total_transmissions]]
                  for (t, c), b in costs.items()],
        "sweeps": [[t, None if s is None else
                    [list(s.costs), s.optimal_coverage, s.unicast_baseline]]
                   for t, s in sweeps.items()],
        "stats": stats,
    }
    text = json.dumps(payload, sort_keys=True, default=repr)
    return {"results": hashlib.sha256(text.encode()).hexdigest()}


def resident_phase(run, dataset, titles):
    """Traffic curves and title queries on the resident dataset."""
    curve_s, curves = traffic_curves(run, dataset)
    cost_lat, sweep_lat, costs, sweeps = title_queries(run, dataset, titles)
    return {"curve_s": curve_s, "curves": curves, "cost_lat": cost_lat,
            "sweep_lat": sweep_lat, "costs": costs, "sweeps": sweeps}


def check_cli(run, outdir, dataset, sample):
    try:
        checks.check_cli_outputs(run.ledger, outdir, dataset.total_visits,
                                 sample)
    except Exception:
        run.ledger.attempted += 1
        run.ledger.fail("CLI output checks")


def check_phase(run, dataset, phase, sample):
    try:
        checks.check_resident(run.ledger, phase, dataset.total_visits, sample,
                              placement.most_active_cell, dataset)
    except Exception:
        run.ledger.attempted += 1
        run.ledger.fail("resident checks")


def setup(run, trace_path=None):
    """Build the input ``SETUP_REPEATS`` times; return (seconds, dataset).

    CLI workloads generate and write the trace file, as `prepush gen`
    does; the planner only builds the dataset.
    """
    times, dataset = [], None
    for _ in range(SETUP_REPEATS):
        dataset = None
        gc.collect()
        run.speed.mark()
        with run.speed.probing() as paused:
            start = time.perf_counter()
            dataset = synth.generate(run.params)
            if trace_path is not None:
                trace.write_trace(dataset, trace_path)
            elapsed = time.perf_counter() - start
        elapsed -= paused[0]
        times.append(elapsed * run.speed.scale())
        run.raw.setdefault("setup_s", []).append(elapsed)
        if trace_path is not None:
            run.repeat_digests("gen", {"trace.csv": checks.sha256_file(trace_path)})
    return statistics.median(times), dataset


class Launcher:
    """The small process that starts the CLI commands (see launcher.py)."""

    def __init__(self):
        self.process = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), self.env.get("PYTHONPATH")]))

    def run(self, argv, errpath, speed):
        """One CLI command: (wall seconds, exit code, peak RSS in MB).

        The seconds are the command's own, without the probes ``speed``
        takes while it runs; ``speed.scale()`` normalises them.
        """
        request = {"argv": [sys.executable, "-m", "prepush.cli", *argv],
                   "env": self.env, "stderr": str(errpath)}
        child = Child()
        with speed.probing(child) as paused:
            self.process.stdin.write(json.dumps(request) + "\n")
            self.process.stdin.flush()
            child.attach(json.loads(self.process.stdout.readline())["pid"])
            reply = json.loads(self.process.stdout.readline())
        child.close()
        return (reply["seconds"] - paused[0], reply["code"],
                reply["maxrss_kb"] / 1024)

    def close(self):
        self.process.stdin.close()
        self.process.wait()
        self.process.stdout.close()


class Budget:
    """Repeats passes while the next one, as long as the last, still ends
    within the run's measuring time; the first pass always runs."""

    def __init__(self, seconds):
        self.seconds = seconds
        self.start = self.last = None

    def another_pass(self):
        now = time.perf_counter()
        if self.start is None:
            self.start = self.last = now
            return True
        elapsed, pass_s = now - self.start, now - self.last
        self.last = now
        return elapsed + pass_s <= self.seconds


def raw_counts(run):
    """Medians of the raw timings and of the speed probes, for the record."""
    counts = {f"raw {k}": statistics.median(v) for k, v in run.raw.items()
              if k != "title_query_s"}
    if run.raw.get("title_query_s"):
        counts["raw title_query_p50_ms"] = percentile(run.raw["title_query_s"], 50) * 1e3
    for name, speed in (("cpu", run.speed), ("memory", run.child_speed)):
        if speed is not None:
            counts[f"{name} probes"] = len(speed.probes)
            counts[f"{name} probe median s"] = statistics.median(speed.probes)
    return counts


def percentile(values, q):
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


def query_metrics(cost_lat, sweep_lat):
    lat = cost_lat + sweep_lat
    return {
        "title_query_p50_ms": percentile(lat, 50) * 1e3,
        "title_query_p99_ms": percentile(lat, 99) * 1e3,
        "title_queries_per_s": len(lat) / sum(lat),
    }


def measure(run):
    """Untraced run: the end-to-end metrics and the samples behind them."""
    run.workdir.mkdir(parents=True, exist_ok=True)
    if run.workload.cli:
        return _measure_cli(run)
    return _measure_planner(run)


def _measure_cli(run):
    launcher = Launcher()
    try:
        return _measure_cli_with(run, launcher)
    finally:
        launcher.close()


def _measure_cli_with(run, launcher):
    run.child_speed = Speed(MemoryProbe(), MEMORY_PROBE_S)
    trace_path = run.workdir / "trace.csv"
    setup_s, dataset = setup(run, trace_path)
    visits = dataset.total_visits
    steps = {step: [] for step in STEPS}
    rss = []
    budget = Budget(run.seconds)
    while budget.another_pass():
        outdir = run.workdir / f"pass{len(steps['sweep'])}"
        run.child_speed.mark()
        for step, argv in cli_commands(trace_path, outdir):
            elapsed, code, peak = launcher.run(argv, run.workdir / f"{step}.err",
                                               run.child_speed)
            steps[step].append(elapsed * run.child_speed.scale())
            run.raw.setdefault(f"{step}_s", []).append(elapsed)
            run.ledger.check(f"prepush {step} exits 0", code == 0,
                             (run.workdir / f"{step}.err").read_text()[-2000:])
            rss.append(peak)
        run.repeat_digests("cli", checks.digest_dir(outdir))

    titles = query_titles(run, dataset)
    phase = resident_phase(run, dataset, titles)
    curve_times = [phase["curve_s"]]
    while len(curve_times) < CLI_CURVES:
        curve_s, curves = traffic_curves(run, dataset)
        run.ledger.check("traffic curves repeat identically",
                         curves == phase["curves"])
        curve_times.append(curve_s)
    run.repeat_digests("resident", resident_digest(
        phase["curves"], phase["costs"], phase["sweeps"]))

    sample = run.sample(dataset, titles)
    check_cli(run, run.workdir / "pass0", dataset, sample)
    check_phase(run, dataset, phase, sample)

    medians = {step: statistics.median(v) for step, v in steps.items()}
    metrics = {
        "setup_s": setup_s,
        **{f"{step}_s": medians[step] for step in STEPS},
        "pipeline_visits_per_s": visits / sum(medians.values()),
        "peak_rss_mb": max(rss),
        "traffic_curve_s": statistics.median(curve_times),
        **query_metrics(phase["cost_lat"], phase["sweep_lat"]),
    }
    counts = {"pipeline passes": len(steps["sweep"]),
              "title query samples": len(phase["cost_lat"]) + len(phase["sweep_lat"]),
              **raw_counts(run)}
    return metrics, counts


def _measure_planner(run):
    setup_s, dataset = setup(run)
    visits = dataset.total_visits
    titles = query_titles(run, dataset)
    passes = []
    cost_lat, sweep_lat = [], []
    budget = Budget(run.seconds)
    while budget.another_pass():
        run.speed.mark()
        stats, stats_s = run.timed("stats step", stats_step, dataset)
        run.raw.setdefault("stats_s", []).append(stats_s)
        stats_s *= run.speed.scale()
        phase = resident_phase(run, dataset, titles)
        curve_s, curves = traffic_curves(run, dataset)
        run.ledger.check("traffic curves repeat identically",
                         curves == phase["curves"])
        curve_s = statistics.median([phase["curve_s"], curve_s])
        cost_lat += phase["cost_lat"]
        sweep_lat += phase["sweep_lat"]
        passes.append({
            "stats": stats_s,
            "plan": curve_s + sum(phase["cost_lat"]),
            "sweep": sum(phase["sweep_lat"]),
            "curve": curve_s,
        })
        run.repeat_digests("resident", resident_digest(
            phase["curves"], phase["costs"], phase["sweeps"], stats))

    check_phase(run, dataset, phase, run.sample(dataset, titles))

    medians = {k: statistics.median(p[k] for p in passes) for k in passes[0]}
    metrics = {
        "setup_s": setup_s,
        **{f"{step}_s": medians[step] for step in STEPS},
        "pipeline_visits_per_s": visits / sum(medians[s] for s in STEPS),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "traffic_curve_s": medians["curve"],
        **query_metrics(cost_lat, sweep_lat),
    }
    counts = {"planner passes": len(passes),
              "title query samples": len(cost_lat) + len(sweep_lat),
              **raw_counts(run)}
    return metrics, counts


# --- traced run -------------------------------------------------------------

def _build_memory(run):
    """tracemalloc MB held by a freshly generated dataset, and the peak."""
    gc.collect()
    tracemalloc.start()
    try:
        dataset = synth.generate(run.params)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del dataset
    gc.collect()
    return current / 2**20, peak / 2**20


def measure_traced(run):
    """Traced run: per-layer metrics from spans, plus the tracing overhead."""
    run.workdir.mkdir(parents=True, exist_ok=True)
    dataset_mb, build_peak_mb = _build_memory(run)
    trace_path = run.workdir / "trace.csv" if run.workload.cli else None
    outdir = run.workdir / "traced"
    tracer = Tracer(run.run_id)
    stats = None
    with tracer.installed():
        dataset = synth.generate(run.params)
        if trace_path is not None:
            trace.write_trace(dataset, trace_path)
        n_setup_spans = len(tracer.starts)
        titles = query_titles(run, dataset)
        if run.workload.cli:
            for step, argv in cli_commands(trace_path, outdir):
                with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                    code, _ = run.timed(f"prepush {step}",
                                        tracer.wrap(cli.main, f"cli.{step}"),
                                        argv)
                run.ledger.check(f"prepush {step} returns 0", code == 0)
        else:
            stats, _ = run.timed("stats step",
                                 tracer.wrap(stats_step, "bench.stats"), dataset)
        phase = tracer.wrap(resident_phase, "bench.resident")(run, dataset,
                                                              titles)
    if trace_path is not None:
        run.repeat_digests("gen", {"trace.csv": checks.sha256_file(trace_path)})
        run.repeat_digests("cli", checks.digest_dir(outdir))
    run.repeat_digests("resident", resident_digest(
        phase["curves"], phase["costs"], phase["sweeps"], stats))

    sample = run.sample(dataset, titles)
    if run.workload.cli:
        check_cli(run, outdir, dataset, sample)
    check_phase(run, dataset, phase, sample)

    spans_dir = ROOT / ".bench_work" / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    tracer.write(spans_dir / f"{run.workload.name}.npz")

    summary = tracer.summary()
    span_cost = span_cost_s()

    def total(name):
        return summary.get(name, (0, 0.0, 0.0))

    parse_calls, parse_s, _ = total("trace.parse_trace")
    curve_names = [f"planning.traffic_vs_broadcast_ratio.{m}"
                   for m in planning.TRAFFIC_MODES]
    costed, _ = tracer.children("planning.coverage_cost", curve_names[1:])
    _, parse_in_stats = tracer.children("trace.parse_trace", ["cli.stats"])
    mac_calls, mac_s, _ = total("placement.most_active_cell")
    rank_calls, rank_s, _ = total("placement.rank_title_visitors")
    n_spans = len(tracer.starts) - n_setup_spans
    metrics = {
        "trace.parse_trace.s": parse_s,
        "trace.parse_trace.rows_per_s":
            parse_calls * dataset.total_visits / parse_s if parse_s else 0.0,
        "trace.write_trace.s": total("trace.write_trace")[1],
        "trace.build_indexes.s": total("trace.build_indexes")[1],
        "trace.dataset_mb": dataset_mb,
        "trace.build_peak_mb": build_peak_mb,
        "synth.generate.s": total("synth.generate")[1],
        "synth.generate.self_s": total("synth.generate")[2],
        "concentration.concentration_curve.s":
            total("concentration.concentration_curve")[1],
        "concentration.geo_concentration_profile.s":
            total("concentration.geo_concentration_profile")[1],
        "placement.most_active_cell.calls": mac_calls,
        "placement.most_active_cell.s": mac_s,
        "placement.most_active_cell.calls_per_user":
            mac_calls / (dataset.n_users
                         * max(1, tracer.roots_with("placement.most_active_cell"))),
        "placement.rank_title_visitors.calls": rank_calls,
        "placement.rank_title_visitors.s": rank_s,
        "placement.estimate_target_cells.s":
            total("placement.estimate_target_cells")[1],
        "placement.partition_cells.s": total("placement.partition_cells")[1],
        **{f"{name}.s": total(name)[1] for name in curve_names},
        "planning.traffic_vs_broadcast_ratio.titles_costed_per_needed":
            costed / tracer.titles_needed if tracer.titles_needed else 0.0,
        "planning.coverage_cost.s": total("planning.coverage_cost")[1],
        "planning.sweep_coverage.s": total("planning.sweep_coverage")[1],
        "planning.titles_by_popularity.s":
            total("planning.titles_by_popularity")[1],
        **{f"cli.{step}.self_s": total(f"cli.{step}")[2] for step in STEPS},
        "cli.stats.parse_trace_share":
            parse_in_stats / total("cli.stats")[1] if total("cli.stats")[1] else 0.0,
        "cli.output_bytes": (sum(p.stat().st_size for p in outdir.iterdir())
                             if run.workload.cli else 0),
        "tracing.overhead_s": n_spans * span_cost,
        "tracing.spans": n_spans,
    }
    counts = {"spans": len(tracer.starts), "span cost us": span_cost * 1e6}
    return metrics, counts


def cleanup(run):
    shutil.rmtree(run.workdir, ignore_errors=True)
