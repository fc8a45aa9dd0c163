"""Command-line front end: generate, stats, plan, and sweep workflows.

All commands are file-based and deterministic: identical flags, config,
and input produce byte-identical output files.  Outputs are plot-ready
CSV (or JSON mirroring the CSV columns); nothing is rendered here.
"""

import argparse
import csv
import json
import sys
from operator import attrgetter
from pathlib import Path

from .concentration import concentration_curve, geo_concentration_profile
from .errors import UnknownIdError
from .planning import (
    CASE_ASSUMED_LOCATION,
    CASE_LIMITED_COVERAGE,
    CASE_PERFECT,
    DEFAULT_COVERAGE_GRID,
    DEFAULT_LIMITED_COVERAGE,
    _cost,
    _curve_ratios,
    _traffic_curve,
    sweep_coverage,
    titles_by_popularity,
)
from .synth import SynthParams, generate
from .trace import load_trace, write_trace

MODE_CASES = {
    "perfect": CASE_PERFECT,
    "assumed": CASE_ASSUMED_LOCATION,
    "limited": CASE_LIMITED_COVERAGE,
}

DEFAULT_RATIO_GRID = tuple(round(0.05 * k, 2) for k in range(0, 21))
DEFAULT_SWEEP_RANKS = (1, 10, 100, 1000)

_GEN_INT_KEYS = ("n_users", "n_titles", "n_cells", "n_visits",
                 "max_cells_per_user", "seed")
_GEN_FLOAT_KEYS = ("title_zipf_exponent", "user_zipf_exponent")
_GEN_REQUIRED_KEYS = ("n_users", "n_titles", "n_cells", "n_visits")
# Columns of breakdowns.csv, named as the CostBreakdown fields they hold.
_BREAKDOWN_COLUMNS = ("title_id", "case", "coverage",
                      "broadcast_transmissions", "missed_visits",
                      "total_transmissions")


def _float_list(text):
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}"
        ) from None


def build_parser():
    parser = argparse.ArgumentParser(
        prog="prepush",
        description="Trace-driven planning for content pre-push broadcasting.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    gen = sub.add_parser(
        "gen", help="generate a synthetic trace file from workload parameters"
    )
    gen.add_argument("--output", required=True, help="trace CSV to write")
    gen.add_argument(
        "--config",
        help="key=value file with SynthParams fields; flags override it",
    )
    gen.add_argument("--n-users", type=int)
    gen.add_argument("--n-titles", type=int)
    gen.add_argument("--n-cells", type=int)
    gen.add_argument("--n-visits", type=int)
    gen.add_argument("--title-zipf-exponent", type=float)
    gen.add_argument("--user-zipf-exponent", type=float)
    gen.add_argument(
        "--geo-profile", type=_float_list,
        help="comma-separated per-rank cell shares, e.g. 0.58,0.22,0.09",
    )
    gen.add_argument("--max-cells-per-user", type=int)
    gen.add_argument("--seed", type=int)
    gen.set_defaults(handler=_handle_gen)

    stats = sub.add_parser(
        "stats",
        help="write user/title/cell concentration curves and the geo profile",
    )
    stats.add_argument("--input", required=True, help="trace CSV to read")
    stats.add_argument("--output", required=True, help="output directory")
    stats.add_argument("--format", choices=("csv", "json"), default="csv")
    stats.add_argument(
        "--max-rank", type=int, default=10,
        help="cell ranks reported in the geo profile (default 10)",
    )
    stats.set_defaults(handler=_handle_stats)

    plan = sub.add_parser(
        "plan",
        help="write per-title cost breakdowns and the traffic-vs-ratio curve",
    )
    plan.add_argument("--input", required=True, help="trace CSV to read")
    plan.add_argument("--output", required=True, help="output directory")
    plan.add_argument("--mode", choices=sorted(MODE_CASES), default="perfect")
    plan.add_argument(
        "--coverage", type=float, default=DEFAULT_LIMITED_COVERAGE,
        help="oracle coverage for mode limited (default 0.2)",
    )
    plan.add_argument(
        "--ratio-grid", type=_float_list,
        default=DEFAULT_RATIO_GRID,
        help="broadcast ratios for the traffic curve (default 0,0.05,...,1)",
    )
    plan.add_argument("--format", choices=("csv", "json"), default="csv")
    plan.set_defaults(handler=_handle_plan)

    sweep = sub.add_parser(
        "sweep", help="write per-title cost-vs-coverage sweeps with optima"
    )
    sweep.add_argument("--input", required=True, help="trace CSV to read")
    sweep.add_argument("--output", required=True, help="output directory")
    sweep.add_argument(
        "--coverage-grid", type=_float_list, default=DEFAULT_COVERAGE_GRID,
        help="coverage fractions to evaluate (default 0.05,0.10,...,1.0)",
    )
    sweep.add_argument(
        "--titles",
        help="comma-separated popularity ranks (all-numeric tokens) or "
        "title ids; default ranks 1,10,100,1000 where available",
    )
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    sweep.set_defaults(handler=_handle_sweep)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (OSError, ValueError, UnknownIdError) as exc:
        message = exc.args[0] if isinstance(exc, UnknownIdError) else exc
        print(f"prepush: error: {message}", file=sys.stderr)
        return 1


def _read_config(path):
    values = {}
    for line_no, raw in enumerate(
        Path(path).read_text(encoding="utf-8").splitlines(), start=1
    ):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}: line {line_no}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        values[key] = value
    return values


def _gen_params(args, parser_error):
    merged = {}
    if args.config:
        for key, text in _read_config(args.config).items():
            if key in _GEN_INT_KEYS:
                merged[key] = int(text)
            elif key in _GEN_FLOAT_KEYS:
                merged[key] = float(text)
            elif key == "geo_profile":
                merged[key] = tuple(float(t) for t in text.split(","))
            else:
                raise ValueError(f"{args.config}: unknown key {key!r}")
    for key in _GEN_INT_KEYS + _GEN_FLOAT_KEYS + ("geo_profile",):
        value = getattr(args, key)
        if value is not None:
            merged[key] = value
    missing = [k for k in _GEN_REQUIRED_KEYS if k not in merged]
    if missing:
        parser_error(f"gen requires {', '.join(missing)} via flags or --config")
    return SynthParams(**merged)


def _handle_gen(args):
    params = _gen_params(args, build_parser().error)
    dataset = generate(params)
    write_trace(dataset, args.output)
    print(
        f"wrote {dataset.total_visits} visits "
        f"({dataset.n_users} users, {dataset.n_titles} titles) "
        f"to {args.output}"
    )
    return 0


def _write_rows(outdir, stem, fmt, header, rows):
    """Write one table as CSV or as JSON rows mirroring the CSV columns."""
    path = outdir / f"{stem}.{fmt}"
    if fmt == "csv":
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
    else:
        payload = [dict(zip(header, row)) for row in rows]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    return path


def _handle_stats(args):
    dataset = load_trace(args.input)
    curves = {kind: concentration_curve(dataset, kind)
              for kind in ("user", "title", "cell")}
    profile = geo_concentration_profile(dataset, args.max_rank)
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)

    for kind, curve in curves.items():
        path = _write_rows(
            outdir, f"{kind}_curve", args.format,
            ("fraction", "share"), curve.points,
        )
        print(f"wrote {path}")

    rows = [
        (rank, mean, cum)
        for rank, (mean, cum) in enumerate(
            zip(profile.mean_share_by_rank, profile.cumulative_by_rank),
            start=1,
        )
    ]
    path = _write_rows(
        outdir, "geo_profile", args.format,
        ("rank", "mean_share", "cumulative"), rows,
    )
    print(f"wrote {path}")
    print(f"mean_active_cells={profile.mean_active_cells!r}")
    return 0


def _plan_rows(dataset, case, coverage):
    """Cost breakdown and partition-size rows for every title.

    The partition sizes follow from the counts: the estimated cells hit
    or were mistaken, the actual cells hit or were missing.
    """
    breakdown_row = attrgetter(*_BREAKDOWN_COLUMNS)
    breakdown_rows = []
    partition_rows = []
    for title in titles_by_popularity(dataset):
        breakdown, hits = _cost(dataset, title, case, coverage)
        estimated = breakdown.broadcast_transmissions
        actual = dataset._planning[2][dataset._title_code(title)]
        breakdown_rows.append(breakdown_row(breakdown))
        partition_rows.append((title, estimated, actual, hits, actual - hits,
                               estimated - hits, breakdown.missed_visits))
    return breakdown_rows, partition_rows


def _handle_plan(args):
    dataset = load_trace(args.input)
    case = MODE_CASES[args.mode]
    ratios = _curve_ratios(case, args.ratio_grid, args.coverage)
    breakdown_rows, partition_rows = _plan_rows(dataset, case, args.coverage)
    # The rows are in popularity order, so their totals give the curve.
    titles, *_, totals = zip(*breakdown_rows)
    curve = _traffic_curve(dataset, titles, totals, ratios)
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)

    path = _write_rows(
        outdir, "breakdowns", args.format, _BREAKDOWN_COLUMNS, breakdown_rows
    )
    print(f"wrote {path}")
    path = _write_rows(
        outdir, "partitions", args.format,
        ("title_id", "estimated", "actual", "hit", "missing", "mistaken",
         "missed_visits"),
        partition_rows,
    )
    print(f"wrote {path}")

    baseline = dataset.total_visits
    rows = [(p, total, total / baseline) for p, total in curve]
    path = _write_rows(
        outdir, "traffic_curve", args.format,
        ("broadcast_ratio", "total_transmissions", "fraction_of_baseline"),
        rows,
    )
    print(f"wrote {path}")
    return 0


def _select_sweep_titles(dataset, titles_arg):
    ordered = titles_by_popularity(dataset)
    if titles_arg is None:
        chosen = []
        for rank in DEFAULT_SWEEP_RANKS:
            if rank <= len(ordered):
                chosen.append(ordered[rank - 1])
            else:
                print(
                    f"skipping default rank {rank}: trace has only "
                    f"{len(ordered)} titles",
                    file=sys.stderr,
                )
        return chosen
    tokens = [tok.strip() for tok in titles_arg.split(",") if tok.strip()]
    if not tokens:
        raise ValueError("--titles must name at least one rank or title id")
    if all(tok.isdigit() for tok in tokens):
        chosen = []
        for tok in tokens:
            rank = int(tok)
            if not 1 <= rank <= len(ordered):
                raise ValueError(
                    f"rank {rank} out of range (trace has {len(ordered)} titles)"
                )
            chosen.append(ordered[rank - 1])
        return chosen
    for tok in tokens:
        if tok not in dataset.title_visits:
            raise UnknownIdError("title", tok)
    return tokens


def _handle_sweep(args):
    dataset = load_trace(args.input)
    sweeps = [
        sweep_coverage(dataset, title, args.coverage_grid)
        for title in _select_sweep_titles(dataset, args.titles)
    ]
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)

    for sweep in sweeps:
        path = _write_rows(
            outdir, f"sweep_{sweep.title_id}", args.format,
            ("coverage", "total_transmissions"),
            list(zip(sweep.grid, sweep.costs)),
        )
        print(f"wrote {path}")
    path = _write_rows(
        outdir, "sweep_optima", args.format,
        ("title_id", "optimal_coverage", "optimal_cost", "unicast_baseline"),
        [(s.title_id, s.optimal_coverage, s.optimal_cost, s.unicast_baseline)
         for s in sweeps],
    )
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
