"""Output checks that feed the benchmark's error rate.

Every check counts as one attempted operation; a check that does not hold
is a failed one.  The brute-force oracle of the test suite
(``tests/oracle.py``) is loaded read-only and only ever run outside the
timed regions, on the records of a few sampled titles and users.
"""

import csv
import hashlib
import importlib.util
import traceback
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_oracle():
    spec = importlib.util.spec_from_file_location(
        "prepush_oracle", ROOT / "tests" / "oracle.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle = load_oracle()


class Ledger:
    """Operations attempted and the failures among them."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, label, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{label}: {detail}" if detail else label)
        return ok

    def fail(self, label):
        """Record the exception being handled as a failed operation."""
        self.failures.append(f"{label}: {traceback.format_exc(limit=4)}")


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def digest_dir(outdir):
    """sha256 of every file in a CLI output directory, by file name."""
    return {p.name: sha256_file(p) for p in sorted(Path(outdir).iterdir())}


def check_same(ledger, label, got, want):
    """Digests of a repeat (or of the pinned reference) must be identical."""
    if got == want:
        return ledger.check(label, True)
    differ = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
    return ledger.check(label, False, f"differs in {differ}")


def _rows(path):
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


class OracleSample:
    """The records the oracle needs for a few sampled titles and users.

    ``records[title]`` holds every visit of every visitor of the title,
    which is all the oracle reads to rank those visitors and find their
    most active cells, so its answers equal those over the full record
    list.  ``by_user[user]`` holds a visitor's or sampled user's own visits.
    """

    def __init__(self, records, titles, users):
        self.titles = tuple(titles)
        self.users = tuple(users)
        visitors = {title: set() for title in self.titles}
        for r in records:
            if r.title_id in visitors:
                visitors[r.title_id].add(r.user_id)
        self.by_user = {user: [] for user in
                        set(self.users).union(*visitors.values())}
        for r in records:
            own = self.by_user.get(r.user_id)
            if own is not None:
                own.append(r)
        self.records = {title: [r for user in sorted(visitors[title])
                                for r in self.by_user[user]]
                        for title in self.titles}
        self.activity = oracle.user_activity(records)
        self.total_visits = len(records)

    def target_cells(self, title, coverage):
        """``oracle.target_cells``, each visitor's most active cell taken
        from the visitor's own records.

        ``oracle.most_active_cell`` only reads the given user's records, so
        the answer is the same, in time linear in the title's records
        rather than quadratic: the popular titles cost seconds, not hours.
        """
        ranked = oracle.ranked_visitors(self.records[title], title)
        k = max(1, oracle.exact_ceil(coverage, len(ranked)))
        return {oracle.most_active_cell(self.by_user[user], user)
                for user in ranked[:k]}

    def breakdown(self, title, coverage):
        """``oracle.coverage_breakdown`` over :meth:`target_cells`."""
        estimated = self.target_cells(title, coverage)
        _, _, _, missed = oracle.partition(self.records[title], title,
                                           estimated)
        return len(estimated), missed, len(estimated) + missed


def check_cli_outputs(ledger, outdir, total_visits, sample):
    """Invariants and oracle agreement of one stats/plan/sweep output set."""
    outdir = Path(outdir)
    try:
        breakdowns = {r["title_id"]: r for r in _rows(outdir / "breakdowns.csv")}
        partitions = {r["title_id"]: r for r in _rows(outdir / "partitions.csv")}
        curve = _rows(outdir / "traffic_curve.csv")
        optima = _rows(outdir / "sweep_optima.csv")
        user_curve = _rows(outdir / "user_curve.csv")
        sweeps = {row["title_id"]: _rows(outdir / f"sweep_{row['title_id']}.csv")
                  for row in optima}
    except (OSError, KeyError):
        ledger.attempted += 1
        ledger.fail(f"read outputs in {outdir.name}")
        return

    bad = [t for t, r in breakdowns.items()
           if int(r["total_transmissions"])
           != int(r["broadcast_transmissions"]) + int(r["missed_visits"])]
    ledger.check("breakdowns: total = broadcast + missed", not bad,
                 f"titles {bad[:5]}")
    first = curve[0] if curve else {}
    ledger.check(
        "traffic curve at ratio 0 is the visit count",
        first.get("broadcast_ratio") == "0.0"
        and int(first["total_transmissions"]) == total_visits,
        f"first row {first}",
    )
    for row in optima:
        title = row["title_id"]
        costs = [int(r["total_transmissions"]) for r in sweeps[title]]
        grid = [r["coverage"] for r in sweeps[title]]
        best = costs.index(min(costs)) if costs else None
        ledger.check(
            f"sweep {title}: optimum is the first minimum of its curve",
            best is not None and int(row["optimal_cost"]) == costs[best]
            and row["optimal_coverage"] == grid[best], str(row))
        full = [r for r in sweeps[title] if float(r["coverage"]) == 1.0]
        ledger.check(
            f"sweep {title}: perfect cost <= optimum <= cost at coverage 1.0, "
            "which equals its breakdown",
            len(full) == 1 and title in breakdowns and title in partitions
            and int(partitions[title]["actual"]) <= int(row["optimal_cost"])
            <= int(full[0]["total_transmissions"])
            and full[0]["total_transmissions"]
            == breakdowns[title]["total_transmissions"], str(row))

    for title in sample.titles:
        records = sample.records[title]
        estimated = sample.target_cells(title, 1)
        hit, missing, mistaken, missed = oracle.partition(
            records, title, estimated)
        actual = len(oracle.title_cell_counts(records, title))
        want_b = (len(estimated), missed, len(estimated) + missed)
        want_p = (len(estimated), actual, len(hit), len(missing),
                  len(mistaken), missed)
        row_b, row_p = breakdowns.get(title), partitions.get(title)
        got_b = row_b and tuple(int(row_b[k]) for k in (
            "broadcast_transmissions", "missed_visits", "total_transmissions"))
        got_p = row_p and tuple(int(row_p[k]) for k in (
            "estimated", "actual", "hit", "missing", "mistaken",
            "missed_visits"))
        ledger.check(f"breakdown {title} matches the oracle", got_b == want_b,
                     f"{got_b} != {want_b}")
        ledger.check(f"partition {title} matches the oracle", got_p == want_p,
                     f"{got_p} != {want_p}")

    counts = list(sample.activity.values())
    ledger.check("user curve has one point per user",
                 len(user_curve) == len(counts),
                 f"{len(user_curve)} != {len(counts)}")
    for rank in (1, len(counts) // 2, len(counts)):
        if not 1 <= rank <= len(user_curve):
            continue
        want = oracle.top_fraction_count_sum(
            counts, Fraction(rank, len(counts)))
        got = float(user_curve[rank - 1]["share"]) * sample.total_visits
        ledger.check(f"user curve at rank {rank} matches the oracle",
                     abs(got - want) <= 1e-6 * sample.total_visits,
                     f"{got} != {want}")


def check_resident(ledger, results, total_visits, sample, most_active_cell,
                   dataset):
    """Invariants and oracle agreement of in-process planning results.

    ``results`` holds ``curves`` (mode -> [(ratio, total)]), ``costs``
    ((title, coverage) -> CostBreakdown) and ``sweeps`` (title ->
    CoverageSweep), as produced by the workload's resident phase.  The
    oracle gets each coverage as the exact decimal it was written as.
    """
    for mode, curve in results["curves"].items():
        ledger.check(f"{mode} traffic curve at ratio 0 is the visit count",
                     curve[0] == (0.0, total_visits), f"first point {curve[0]}")
    bad = [k for k, b in results["costs"].items()
           if b.total_transmissions
           != b.broadcast_transmissions + b.missed_visits]
    ledger.check("coverage costs: total = broadcast + missed", not bad,
                 f"{bad[:5]}")
    bad = [t for t, s in results["sweeps"].items() if not (
        s.optimal_cost == min(s.costs)
        and s.optimal_coverage == s.grid[s.costs.index(s.optimal_cost)]
        and len(dataset.title_cell_visits[t]) <= s.optimal_cost
        <= results["costs"][t, 1.0].total_transmissions == s.costs[-1])]
    ledger.check("sweeps: optimum is the first minimum, between the perfect "
                 "cost and the cost at coverage 1.0", not bad, f"{bad[:5]}")

    for title in sample.titles:
        for coverage in sorted({c for t, c in results["costs"] if t == title}):
            b = results["costs"][title, coverage]
            got = (b.broadcast_transmissions, b.missed_visits,
                   b.total_transmissions)
            want = sample.breakdown(title, Fraction(str(coverage)))
            ledger.check(f"coverage_cost {title} at {coverage} matches the "
                         "oracle", got == want, f"{got} != {want}")
            sweep = results["sweeps"].get(title)
            if sweep is not None and coverage in sweep.grid:
                ledger.check(
                    f"sweep_coverage {title} at {coverage} matches the oracle",
                    sweep.costs[sweep.grid.index(coverage)] == want[2],
                    f"{sweep.costs} has no {want[2]}")
    for user in sample.users:
        want = oracle.most_active_cell(sample.by_user[user], user)
        got = most_active_cell(dataset, user)
        ledger.check(f"most_active_cell {user} matches the oracle",
                     got == want, f"{got} != {want}")
