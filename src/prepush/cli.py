"""Command-line front end: generate, stats, plan, and sweep workflows.

All commands are file-based and deterministic: identical flags, config,
and input produce byte-identical output files.  Outputs are plot-ready
CSV (or JSON mirroring the CSV columns); nothing is rendered here.
"""

import argparse
import csv
import json
import sys
from dataclasses import MISSING, fields
from itertools import count, repeat
from operator import add, sub
from pathlib import Path

from .concentration import (
    CURVE_KINDS,
    _checked_max_rank,
    concentration_curve,
    geo_concentration_profile,
)
from .errors import UnknownIdError
from .planning import (
    CASE_ASSUMED_LOCATION,
    CASE_LIMITED_COVERAGE,
    CASE_PERFECT,
    DEFAULT_COVERAGE_GRID,
    DEFAULT_LIMITED_COVERAGE,
    CostBreakdown,
    _case_coverage,
    _curve,
    _title_costs,
    _validate_fraction_grid,
    sweep_coverage,
    titles_by_popularity,
)
from .synth import SynthParams, generate
from .trace import _replacing, _write_rows, _write_sidecar, load_trace

MODE_CASES = {
    "perfect": CASE_PERFECT,
    "assumed": CASE_ASSUMED_LOCATION,
    "limited": CASE_LIMITED_COVERAGE,
}

DEFAULT_RATIO_GRID = (0.0, *DEFAULT_COVERAGE_GRID)
DEFAULT_SWEEP_RANKS = (1, 10, 100, 1000)

# Columns of breakdowns.csv, named as the CostBreakdown fields they hold.
_BREAKDOWN_COLUMNS = CostBreakdown._fields


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
    # One flag per SynthParams field, in field order; the one tuple field,
    # geo_profile, takes a comma-separated list.
    for f in fields(SynthParams):
        flag = "--" + f.name.replace("_", "-")
        if f.type is not tuple:
            gen.add_argument(flag, type=f.type)
        else:
            gen.add_argument(flag, type=_float_list, help="comma-separated "
                             "per-rank cell shares, e.g. 0.58,0.22,0.09")
    gen.set_defaults(handler=_handle_gen)

    # The trace and output flags every analysis command shares.
    files = argparse.ArgumentParser(add_help=False)
    files.add_argument("--input", required=True, help="trace CSV to read")
    files.add_argument("--output", required=True, help="output directory")
    files.add_argument("--format", choices=("csv", "json"), default="csv")

    stats = sub.add_parser(
        "stats", parents=[files],
        help="write user/title/cell concentration curves and the geo profile",
    )
    stats.add_argument(
        "--max-rank", type=int, default=10,
        help="cell ranks reported in the geo profile (default 10)",
    )
    stats.set_defaults(handler=_handle_stats)

    plan = sub.add_parser(
        "plan", parents=[files],
        help="write per-title cost breakdowns and the traffic-vs-ratio curve",
    )
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
    plan.set_defaults(handler=_handle_plan)

    sweep = sub.add_parser(
        "sweep", parents=[files],
        help="write per-title cost-vs-coverage sweeps with optima",
    )
    sweep.add_argument(
        "--coverage-grid", type=_float_list, default=DEFAULT_COVERAGE_GRID,
        help="coverage fractions to evaluate (default 0.05,0.10,...,1.0)",
    )
    sweep.add_argument(
        "--titles",
        help="comma-separated popularity ranks (all-numeric tokens) or "
        "title ids; default ranks 1,10,100,1000 where available",
    )
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
    params = {f.name: f for f in fields(SynthParams)}
    merged = {}
    if args.config:
        for key, text in _read_config(args.config).items():
            if key not in params:
                raise ValueError(f"{args.config}: unknown key {key!r}")
            # A bad value raises ValueError, reported with exit status 1.
            if params[key].type is tuple:
                merged[key] = tuple(float(t) for t in text.split(","))
            else:
                merged[key] = params[key].type(text)
    for key in params:
        value = getattr(args, key)
        if value is not None:
            merged[key] = value
    missing = [key for key, f in params.items()
               if f.default is MISSING and key not in merged]
    if missing:
        parser_error(f"gen requires {', '.join(missing)} via flags or --config")
    return SynthParams(**merged)


def _handle_gen(args):
    params = _gen_params(args, build_parser().error)
    dataset = generate(params)
    with _replacing([Path(args.output)]) as (temp,):
        digest = _write_rows(dataset, temp)
    _write_sidecar(dataset, Path(args.output), digest)
    print(
        f"wrote {dataset.total_visits} visits "
        f"({dataset.n_users} users, {dataset.n_titles} titles) "
        f"to {args.output}"
    )
    return 0


def _write_tables(args, tables):
    """Write each ``(stem, header, rows)`` table into the output directory,
    as CSV or as JSON rows mirroring the CSV columns, and name each file
    on stdout.  Commands compute every table first."""
    paths = [Path(args.output, f"{stem}.{args.format}") for stem, *_ in tables]
    for path in paths:
        if path.exists() and path.samefile(args.input):
            raise ValueError(f"{path}: output would replace the input trace")
    with _replacing(paths) as temps:
        for temp, (_, header, rows) in zip(temps, tables):
            if args.format == "csv":
                with open(temp, "w", encoding="utf-8", newline="") as handle:
                    writer = csv.writer(handle, lineterminator="\n")
                    writer.writerow(header)
                    writer.writerows(rows)
            else:
                payload = [dict(zip(header, row)) for row in rows]
                with open(temp, "w", encoding="utf-8") as handle:
                    json.dump(payload, handle, indent=2)
                    handle.write("\n")
    for path in paths:
        print(f"wrote {path}")


def _handle_stats(args):
    _checked_max_rank(args.max_rank)
    dataset = load_trace(args.input)
    tables = [(f"{kind}_curve", ("fraction", "share"),
               concentration_curve(dataset, kind).points)
              for kind in CURVE_KINDS]
    profile = geo_concentration_profile(dataset, args.max_rank)
    rows = list(zip(count(1), profile.mean_share_by_rank,
                    profile.cumulative_by_rank))
    tables.append(("geo_profile", ("rank", "mean_share", "cumulative"), rows))
    _write_tables(args, tables)
    print(f"mean_active_cells={profile.mean_active_cells!r}")
    return 0


def _plan_rows(dataset, case, costs):
    """Cost breakdown and partition-size rows for every title, in
    popularity order, from the columns of one costing pass
    (:func:`~prepush.planning._title_costs`).

    The partition sizes follow from the counts: the estimated cells hit
    or were mistaken, the actual cells hit or were missing.
    """
    titles = titles_by_popularity(dataset)
    coverage, estimated, hits, missed, actual, _ = costs
    breakdown_rows = list(zip(titles, repeat(case), repeat(coverage),
                              estimated, missed, map(add, estimated, missed)))
    partition_rows = list(zip(titles, estimated, actual, hits,
                              map(sub, actual, hits), map(sub, estimated, hits),
                              missed))
    return breakdown_rows, partition_rows


def _handle_plan(args):
    case = MODE_CASES[args.mode]
    # Checked before the trace is read, the ratio grid before the coverage.
    _validate_fraction_grid(args.ratio_grid, "ratio grid", low_open=False)
    _case_coverage(case, args.coverage)
    dataset = load_trace(args.input)
    costs = _title_costs(dataset, case, args.coverage)
    curve = _curve(dataset, args.ratio_grid, costs)
    breakdown_rows, partition_rows = _plan_rows(dataset, case, costs)
    baseline = dataset.total_visits
    _write_tables(args, [
        ("breakdowns", _BREAKDOWN_COLUMNS, breakdown_rows),
        ("partitions", ("title_id", "estimated", "actual", "hit", "missing",
                        "mistaken", "missed_visits"), partition_rows),
        ("traffic_curve",
         ("broadcast_ratio", "total_transmissions", "fraction_of_baseline"),
         [(p, total, total / baseline) for p, total in curve]),
    ])
    return 0


def _select_sweep_titles(dataset, tokens):
    ordered = titles_by_popularity(dataset)
    if tokens is not None and not all(tok.isdigit() for tok in tokens):
        return tokens
    ranks = DEFAULT_SWEEP_RANKS if tokens is None else map(int, tokens)
    chosen = []
    for rank in ranks:
        if 1 <= rank <= len(ordered):
            chosen.append(ordered[rank - 1])
        elif tokens is None:
            print(f"skipping default rank {rank}: trace has only "
                  f"{len(ordered)} titles", file=sys.stderr)
        else:
            raise ValueError(f"rank {rank} out of range "
                             f"(trace has {len(ordered)} titles)")
    return chosen


def _handle_sweep(args):
    _validate_fraction_grid(args.coverage_grid, "coverage grid", low_open=True)
    tokens = None
    if args.titles is not None:
        tokens = [tok.strip() for tok in args.titles.split(",") if tok.strip()]
        if not tokens:
            raise ValueError("--titles must name at least one rank or title id")
    dataset = load_trace(args.input)
    sweeps = [
        sweep_coverage(dataset, title, args.coverage_grid)
        for title in dict.fromkeys(_select_sweep_titles(dataset, tokens))
    ]
    tables = [(f"sweep_{s.title_id}", ("coverage", "total_transmissions"),
               list(zip(s.grid, s.costs))) for s in sweeps]
    tables.append((
        "sweep_optima",
        ("title_id", "optimal_coverage", "optimal_cost", "unicast_baseline"),
        [(s.title_id, s.optimal_coverage, s.optimal_cost, s.unicast_baseline)
         for s in sweeps],
    ))
    _write_tables(args, tables)
    return 0


if __name__ == "__main__":
    sys.exit(main())
