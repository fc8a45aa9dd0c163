import errno
import json
import os
import shutil
import sys
from dataclasses import fields
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

import oracle
from helpers import sidecar_of
from prepush import (
    SynthParams,
    TraceDataset,
    cli,
    geo_concentration_profile,
    parse_trace,
    planning,
    titles_by_popularity,
    trace,
)
from prepush.cli import main


def run(argv):
    return main(argv)


def gen_trace(tmp_path, n_visits=1000, seed=42, name="trace.csv"):
    path = tmp_path / name
    code = run(
        [
            "gen", "--output", str(path),
            "--n-users", "60", "--n-titles", "30", "--n-cells", "25",
            "--n-visits", str(n_visits), "--seed", str(seed),
        ]
    )
    assert code == 0
    return path


def read_csv_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


class TestGen:
    def test_writes_parseable_trace(self, tmp_path):
        path = gen_trace(tmp_path, n_visits=500)
        ds = parse_trace(path)
        assert ds.total_visits == 500

    def test_missing_required_sizes_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["gen", "--output", str(tmp_path / "t.csv"), "--n-users", "5"])
        assert exc.value.code == 2

    def test_bad_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run(["gen", "--frobnicate"])
        assert exc.value.code == 2

    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run([])
        assert exc.value.code == 2

    def test_config_file(self, tmp_path):
        config = tmp_path / "params.conf"
        config.write_text(
            "# workload\n"
            "n_users = 40\n"
            "n_titles = 20\n"
            "n_cells = 30\n"
            "n_visits = 300\n"
            "seed = 9\n"
            "geo_profile = 0.6,0.4\n",
            encoding="utf-8",
        )
        out = tmp_path / "t.csv"
        assert run(["gen", "--output", str(out), "--config", str(config)]) == 0
        assert parse_trace(out).total_visits == 300

    def test_flags_override_config(self, tmp_path):
        config = tmp_path / "params.conf"
        config.write_text(
            "n_users=40\nn_titles=20\nn_cells=30\nn_visits=300\nseed=9\n",
            encoding="utf-8",
        )
        out = tmp_path / "t.csv"
        code = run(
            ["gen", "--output", str(out), "--config", str(config),
             "--n-visits", "120"]
        )
        assert code == 0
        assert parse_trace(out).total_visits == 120

    def test_unknown_config_key_fails(self, tmp_path, capsys):
        config = tmp_path / "params.conf"
        config.write_text("n_userz=40\n", encoding="utf-8")
        code = run(["gen", "--output", str(tmp_path / "t.csv"),
                    "--config", str(config)])
        assert code == 1
        assert "n_userz" in capsys.readouterr().err

    def test_invalid_params_exit_1(self, tmp_path, capsys):
        code = run(
            ["gen", "--output", str(tmp_path / "t.csv"),
             "--n-users", "5", "--n-titles", "5", "--n-cells", "3",
             "--n-visits", "10"]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--geo-profile", "nan", "geo_profile entries must be finite"),
        ("--geo-profile", "0.5,inf", "geo_profile entries must be finite"),
        ("--title-zipf-exponent", "nan", "title_zipf_exponent must be finite"),
        ("--user-zipf-exponent", "inf", "user_zipf_exponent must be finite"),
    ])
    def test_non_finite_params_exit_1(self, tmp_path, capsys, flag, value,
                                      message):
        output = tmp_path / "out" / "t.csv"
        code = run(["gen", "--output", str(output), "--n-users", "20",
                    "--n-titles", "20", "--n-cells", "20", "--n-visits", "50",
                    flag, value])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not output.parent.exists()

    def test_failed_write_leaves_no_partial_trace(self, tmp_path,
                                                  monkeypatch, capsys):
        def failing_open(*args, **kwargs):
            handle = open(*args, **kwargs)
            write = handle.write

            def fail_fourth(text):
                writes.append(text)
                if len(writes) == 4:  # the second block of rows
                    raise OSError(28, "No space left on device")
                return write(text)

            handle.write = fail_fourth
            return handle

        def gen(output):
            return run(["gen", "--output", str(output), "--n-users", "60",
                        "--n-titles", "30", "--n-cells", "25",
                        "--n-visits", "5000", "--seed", "7"])

        existing = gen_trace(tmp_path)
        before = existing.read_bytes()
        new = tmp_path / "new" / "deeper" / "new.csv"
        monkeypatch.setattr(trace, "_CHUNK_ROWS", 1000)
        monkeypatch.setattr(trace, "open", failing_open, raising=False)
        for output in (existing, new):
            writes = []
            capsys.readouterr()
            assert gen(output) == 1
            assert len(writes) == 4
            assert capsys.readouterr() == (
                "", "prepush: error: [Errno 28] No space left on device\n")
        assert existing.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["trace.csv"]
        # The directories it makes stay once the write succeeds.
        monkeypatch.undo()
        assert gen(new) == 0
        assert parse_trace(new).total_visits == 5000

    def test_determinism_byte_identical(self, tmp_path):
        a = gen_trace(tmp_path, seed=7, name="a.csv")
        b = gen_trace(tmp_path, seed=7, name="b.csv")
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("field", fields(SynthParams),
                             ids=lambda f: f.name)
    def test_every_field_by_flag_and_by_config(self, tmp_path, field):
        def gen(name, values, *extra):
            out = tmp_path / f"{name}.csv"
            flags = [arg for key, value in values.items()
                     for arg in ("--" + key.replace("_", "-"), str(value))]
            assert run(["gen", "--output", str(out), *flags, *extra]) == 0
            return out.read_bytes()

        base = {"n_users": 60, "n_titles": 30, "n_cells": 25,
                "n_visits": 1000}
        # A value for each field other than the base workload's.
        value = {"n_users": 70, "n_titles": 40, "n_cells": 30,
                 "n_visits": 1200, "title_zipf_exponent": 1.4,
                 "user_zipf_exponent": 0.5, "geo_profile": (0.7, 0.2, 0.05),
                 "max_cells_per_user": 12, "seed": 9}[field.name]
        text = (",".join(map(str, value)) if isinstance(value, tuple)
                else str(value))
        rest = {key: v for key, v in base.items() if key != field.name}
        config = tmp_path / "params.conf"
        config.write_text(f"{field.name} = {text}\n", encoding="utf-8")
        by_flag = gen("flag", {**rest, field.name: text})
        by_config = gen("config", rest, "--config", str(config))
        assert by_flag == by_config != gen("default", base)


class TestStats:
    def test_user_curve_final_row(self, tmp_path):
        trace = gen_trace(tmp_path)
        outdir = tmp_path / "stats"
        assert run(["stats", "--input", str(trace), "--output", str(outdir)]) == 0
        header, rows = read_csv_rows(outdir / "user_curve.csv")
        assert header == ["fraction", "share"]
        assert rows[-1] == ["1.0", "1.0"]

    def test_all_outputs_present(self, tmp_path):
        trace = gen_trace(tmp_path)
        outdir = tmp_path / "stats"
        run(["stats", "--input", str(trace), "--output", str(outdir)])
        for name in ("user_curve", "title_curve", "cell_curve", "geo_profile"):
            assert (outdir / f"{name}.csv").exists()

    def test_geo_profile_columns(self, tmp_path):
        trace = gen_trace(tmp_path)
        outdir = tmp_path / "stats"
        run(["stats", "--input", str(trace), "--output", str(outdir),
             "--max-rank", "4"])
        header, rows = read_csv_rows(outdir / "geo_profile.csv")
        assert header == ["rank", "mean_share", "cumulative"]
        assert len(rows) == 4
        assert [r[0] for r in rows] == ["1", "2", "3", "4"]

    def test_output_that_is_the_input_is_refused(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = gen_trace(out, name="geo_profile.csv")
        trace_bytes = path.read_bytes()
        capsys.readouterr()
        assert run(["stats", "--input", str(path), "--output", str(out)]) == 1
        assert capsys.readouterr() == ("", f"prepush: error: {path}: output "
                                       "would replace the input trace\n")
        assert path.read_bytes() == trace_bytes
        assert sorted(p.name for p in out.iterdir()) == [
            ".geo_profile.csv.prepush.npz", "geo_profile.csv"]

    def test_json_format(self, tmp_path):
        trace = gen_trace(tmp_path)
        outdir = tmp_path / "stats"
        run(["stats", "--input", str(trace), "--output", str(outdir),
             "--format", "json"])
        payload = json.loads((outdir / "user_curve.json").read_text())
        assert payload[-1] == {"fraction": 1.0, "share": 1.0}

    def test_missing_input_exit_1(self, tmp_path, capsys):
        code = run(["stats", "--input", str(tmp_path / "nope.csv"),
                    "--output", str(tmp_path / "out")])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestPlan:
    def test_ratio_zero_row_is_baseline(self, tmp_path):
        trace = gen_trace(tmp_path, n_visits=800)
        outdir = tmp_path / "plan"
        code = run(
            ["plan", "--input", str(trace), "--output", str(outdir),
             "--mode", "perfect", "--ratio-grid", "0,0.5,1.0"]
        )
        assert code == 0
        header, rows = read_csv_rows(outdir / "traffic_curve.csv")
        assert header == ["broadcast_ratio", "total_transmissions",
                          "fraction_of_baseline"]
        assert rows[0] == ["0.0", "800", "1.0"]

    @pytest.mark.parametrize("mode", ["perfect", "assumed", "limited"])
    def test_modes_write_breakdowns(self, tmp_path, mode):
        trace = gen_trace(tmp_path)
        outdir = tmp_path / f"plan_{mode}"
        code = run(["plan", "--input", str(trace), "--output", str(outdir),
                    "--mode", mode])
        assert code == 0
        header, rows = read_csv_rows(outdir / "breakdowns.csv")
        assert header == ["title_id", "case", "coverage",
                          "broadcast_transmissions", "missed_visits",
                          "total_transmissions"]
        records = parse_trace(trace).records
        _, partitions = read_csv_rows(outdir / "partitions.csv")
        assert len(rows) == len(partitions) == len(
            oracle.titles_by_popularity(records))
        case, coverage = {
            "perfect": ("perfect", "1.0"),
            "assumed": ("assumed_location", "1.0"),
            "limited": ("limited_coverage", "0.2"),
        }[mode]
        for row, part_row in zip(rows, partitions):
            title = row[0]
            if mode == "perfect":
                estimated = oracle.title_cell_counts(records, title)
            else:
                estimated = oracle.target_cells(records, title,
                                                Fraction(coverage))
            hit, missing, mistaken, missed = oracle.partition(
                records, title, estimated)
            actual = len(oracle.title_cell_counts(records, title))
            assert row == [title, case, coverage, str(len(estimated)),
                           str(missed), str(len(estimated) + missed)]
            assert part_row == [title, str(len(estimated)), str(actual),
                                str(len(hit)), str(len(missing)),
                                str(len(mistaken)), str(missed)]

    @pytest.mark.parametrize("mode", ["perfect", "assumed", "limited"])
    def test_traffic_curve_matches_oracle(self, tmp_path, mode):
        trace = gen_trace(tmp_path)
        outdir = tmp_path / f"plan_{mode}"
        grid = "0,0.1,0.25,0.5,0.9,1.0"
        code = run(["plan", "--input", str(trace), "--output", str(outdir),
                    "--mode", mode, "--ratio-grid", grid])
        assert code == 0
        _, rows = read_csv_rows(outdir / "traffic_curve.csv")
        records = parse_trace(trace).records
        case = {"perfect": "perfect", "assumed": "assumed_location",
                "limited": "limited_coverage"}[mode]
        want = [oracle.traffic_total(records, case, Fraction(p),
                                     Fraction("0.2"))
                for p in grid.split(",")]
        assert [int(row[1]) for row in rows] == want
        assert [row[0] for row in rows] == [repr(float(p))
                                            for p in grid.split(",")]

    def test_partition_identities_in_output(self, tmp_path):
        trace = gen_trace(tmp_path)
        outdir = tmp_path / "plan"
        run(["plan", "--input", str(trace), "--output", str(outdir),
             "--mode", "limited", "--coverage", "0.3"])
        header, rows = read_csv_rows(outdir / "partitions.csv")
        assert header == ["title_id", "estimated", "actual", "hit",
                          "missing", "mistaken", "missed_visits"]
        for row in rows:
            estimated, actual, hit, missing, mistaken = map(int, row[1:6])
            assert hit + missing == actual
            assert hit + mistaken == estimated

    def test_bad_ratio_grid_exit_1(self, tmp_path, capsys):
        # Arguments are checked before anything is written: a failing
        # command leaves no output directory behind.
        trace = gen_trace(tmp_path)
        for argv, message in (
            (["plan", "--ratio-grid", "0.9,0.1"], "increasing"),
            (["sweep", "--coverage-grid", "0.5,0.2"], "increasing"),
            (["plan", "--mode", "limited", "--coverage", "1.5"], "coverage"),
            (["plan", "--ratio-grid", "0,nan"],
             "ratio grid must be strictly increasing"),
            # The ratio grid is checked before the coverage.
            (["plan", "--mode", "limited", "--coverage", "1.5",
              "--ratio-grid", "0.9,0.1"],
             "ratio grid must be strictly increasing"),
            (["sweep", "--coverage-grid", "0.1,nan"],
             "coverage grid must be strictly increasing"),
        ):
            outdir = tmp_path / "out"
            code = run([*argv, "--input", str(trace), "--output", str(outdir)])
            assert code == 1
            assert message in capsys.readouterr().err
            assert not outdir.exists()


class TestSweep:
    def test_argmin_matches_independent_rerun(self, tmp_path):
        from prepush import coverage_cost, unicast_cost

        trace = gen_trace(tmp_path, n_visits=2000)
        dataset = parse_trace(trace)
        outdir = tmp_path / "sweep"
        code = run(["sweep", "--input", str(trace), "--output", str(outdir),
                    "--titles", "1,3,7"])
        assert code == 0
        _, optima = read_csv_rows(outdir / "sweep_optima.csv")
        assert len(optima) == 3
        for title, opt_cov, opt_cost, baseline in optima:
            header, rows = read_csv_rows(outdir / f"sweep_{title}.csv")
            assert header == ["coverage", "total_transmissions"]
            # Re-evaluate every grid point independently of the sweep path.
            rerun = [
                (float(c), coverage_cost(dataset, title, float(c)).total_transmissions)
                for c, _ in rows
            ]
            assert [(float(c), int(n)) for c, n in rows] == rerun
            best = min(rerun, key=lambda cn: (cn[1], cn[0]))
            assert (float(opt_cov), int(opt_cost)) == best
            assert int(baseline) == unicast_cost(dataset, title)

    def test_titles_by_id(self, tmp_path):
        trace = gen_trace(tmp_path)
        ds = parse_trace(trace)
        some_title = sorted(ds.title_visits)[0]
        outdir = tmp_path / "sweep"
        code = run(["sweep", "--input", str(trace), "--output", str(outdir),
                    "--titles", some_title])
        assert code == 0
        assert (outdir / f"sweep_{some_title}.csv").exists()

    def test_unknown_title_exit_1(self, tmp_path, capsys):
        trace = gen_trace(tmp_path)
        code = run(["sweep", "--input", str(trace),
                    "--output", str(tmp_path / "sweep"),
                    "--titles", "t_missing"])
        assert code == 1
        assert "t_missing" in capsys.readouterr().err

    def test_rank_out_of_range_exit_1(self, tmp_path, capsys):
        trace = gen_trace(tmp_path)
        code = run(["sweep", "--input", str(trace),
                    "--output", str(tmp_path / "sweep"),
                    "--titles", "99999"])
        assert code == 1

    @pytest.mark.parametrize("existing", [False, True],
                             ids=["new_dir", "existing_dir"])
    def test_repeated_title_is_swept_once(self, tmp_path, capsys, existing):
        # Two tables of one title would share one file and its temporary
        # name.
        trace = gen_trace(tmp_path, n_visits=2000)
        first, second = titles_by_popularity(parse_trace(trace))[:2]
        once = tmp_path / "once"
        assert run(["sweep", "--input", str(trace), "--output", str(once),
                    "--titles", "1,2"]) == 0
        want = {p.name: p.read_bytes() for p in once.iterdir()}
        for titles in ("1,2,1,2", f"{first},{second},{first}"):
            outdir = tmp_path / "twice" / titles
            if existing:
                outdir.mkdir(parents=True)
                for name in want:
                    (outdir / name).write_text("stale\n", encoding="utf-8")
            capsys.readouterr()
            assert run(["sweep", "--input", str(trace), "--output",
                        str(outdir), "--titles", titles]) == 0
            assert capsys.readouterr().out.splitlines() == [
                f"wrote {outdir / f'{stem}.csv'}"
                for stem in (f"sweep_{first}", f"sweep_{second}",
                             "sweep_optima")]
            assert {p.name: p.read_bytes() for p in outdir.iterdir()} == want

    @pytest.mark.parametrize("titles", ["2,1", "optima,t2"],
                             ids=["ranks", "ids"])
    def test_title_named_optima_is_refused(self, tmp_path, capsys, titles):
        # Its sweep table and the optima table would share one path.
        path = tmp_path / "trace.csv"
        path.write_text("user_id,title_id,cell_id,timestamp\n"
                        "u1,optima,c1,\nu2,t2,c1,\nu3,t2,c2,\n",
                        encoding="utf-8")
        out = tmp_path / "out"
        assert run(["sweep", "--input", str(path), "--output", str(out),
                    "--titles", titles]) == 1
        assert capsys.readouterr() == ("", "prepush: error: two outputs "
                                       f"would be written to {out}/"
                                       "sweep_optima.csv\n")
        assert not out.exists()

    def test_unremovable_temporary_file_leaves_no_directory(self, tmp_path,
                                                            capsys):
        # The table's name is as long as a name can be, so its temporary
        # name is too long to create or to remove.
        name_max = os.pathconf(tmp_path, "PC_NAME_MAX")
        title = "t" * (name_max - len("sweep_.csv"))
        path = tmp_path / "trace.csv"
        path.write_text("user_id,title_id,cell_id,timestamp\n"
                        f"u1,{title},c1,\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run(["sweep", "--input", str(path), "--output", str(out),
                    "--titles", title]) == 1
        assert capsys.readouterr().err.startswith(
            f"prepush: error: [Errno {errno.ENAMETOOLONG}] ")
        assert not out.exists()

    def test_default_ranks_filtered_to_available(self, tmp_path, capsys):
        trace = gen_trace(tmp_path)  # 30 titles: ranks 100/1000 unavailable
        outdir = tmp_path / "sweep"
        code = run(["sweep", "--input", str(trace), "--output", str(outdir)])
        assert code == 0
        _, optima = read_csv_rows(outdir / "sweep_optima.csv")
        assert len(optima) == 2
        assert "skipping default rank" in capsys.readouterr().err


class TestStdout:
    """Each analysis command names every file it writes, in write order."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_stats(self, tmp_path, capsys, fmt):
        path, out = gen_trace(tmp_path), tmp_path / "out"
        capsys.readouterr()
        assert run(["stats", "--input", str(path), "--output", str(out),
                    "--format", fmt]) == 0
        profile = geo_concentration_profile(parse_trace(path), 10)
        stems = ["user_curve", "title_curve", "cell_curve", "geo_profile"]
        assert capsys.readouterr().out.splitlines() == [
            *(f"wrote {out / f'{stem}.{fmt}'}" for stem in stems),
            f"mean_active_cells={profile.mean_active_cells!r}",
        ]
        assert sorted(p.name for p in out.iterdir()) == sorted(
            f"{stem}.{fmt}" for stem in stems)

    def test_plan(self, tmp_path, capsys):
        path, out = gen_trace(tmp_path), tmp_path / "out"
        capsys.readouterr()
        assert run(["plan", "--input", str(path), "--output", str(out)]) == 0
        stems = ["breakdowns", "partitions", "traffic_curve"]
        assert capsys.readouterr().out.splitlines() == [
            f"wrote {out / f'{stem}.csv'}" for stem in stems]
        assert sorted(p.name for p in out.iterdir()) == [
            f"{stem}.csv" for stem in stems]

    def test_sweep(self, tmp_path, capsys):
        path, out = gen_trace(tmp_path), tmp_path / "out"
        capsys.readouterr()
        assert run(["sweep", "--input", str(path), "--output", str(out),
                    "--titles", "3,1", "--format", "json"]) == 0
        ordered = titles_by_popularity(parse_trace(path))
        stems = [f"sweep_{ordered[2]}", f"sweep_{ordered[0]}", "sweep_optima"]
        assert capsys.readouterr().out.splitlines() == [
            f"wrote {out / f'{stem}.json'}" for stem in stems]
        assert sorted(p.name for p in out.iterdir()) == sorted(
            f"{stem}.json" for stem in stems)


class TestDeterminism:
    def test_byte_identical_outputs_across_runs(self, tmp_path):
        trace = gen_trace(tmp_path, n_visits=1500)
        for command, extra in (
            ("stats", []),
            ("plan", ["--mode", "limited", "--coverage", "0.2"]),
            ("sweep", ["--titles", "1,2,5"]),
        ):
            out_a = tmp_path / f"{command}_a"
            out_b = tmp_path / f"{command}_b"
            for outdir in (out_a, out_b):
                code = run([command, "--input", str(trace),
                            "--output", str(outdir), *extra])
                assert code == 0
            files_a = sorted(p.name for p in out_a.iterdir())
            files_b = sorted(p.name for p in out_b.iterdir())
            assert files_a == files_b
            for name in files_a:
                assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_gen_stats_composability(self, tmp_path):
        trace = gen_trace(tmp_path)
        outdir = tmp_path / "stats"
        assert run(["stats", "--input", str(trace), "--output", str(outdir)]) == 0
        assert run(["plan", "--input", str(trace),
                    "--output", str(tmp_path / "plan")]) == 0
        assert run(["sweep", "--input", str(trace),
                    "--output", str(tmp_path / "sweep"), "--titles", "1"]) == 0


#: The dataset's maps built on first use: no command needs them.
VIEWS = ("title_cell_visits", "user_cell_visits", "user_top_cell",
         "user_rank", "title_users", "records")

#: One run of each command, each mode of plan once.
COMMANDS = (
    ("stats", []),
    ("plan", ["--mode", "perfect"]),
    ("plan", ["--mode", "assumed"]),
    ("plan", ["--mode", "limited"]),
    ("sweep", []),
)


def refuse_views(monkeypatch, builder=None):
    """Refuse every view, and a build of the planning tables anywhere but
    in the function ``builder``; built tables are read as before."""
    def refuse(self):
        raise AssertionError("a command built a view")

    built = TraceDataset._planning

    def planning(self):
        if ("title_cells" not in self._arrays and sys._getframe(1).f_code
                is not getattr(builder, "__code__", None)):
            raise AssertionError("a command built the planning tables")
        return built.func(self)

    for view in VIEWS:
        monkeypatch.setattr(TraceDataset, view, property(refuse))
    monkeypatch.setattr(TraceDataset, "_planning", property(planning))


def run_commands(tmp_path, path, state):
    """Every command's output files, each run after a sidecar miss or a
    hit (``state``)."""
    outputs = []
    for i, (command, extra) in enumerate(COMMANDS):
        if state == "miss":
            sidecar_of(path).unlink(missing_ok=True)
        else:
            assert sidecar_of(path).exists()
        outdir = tmp_path / f"{command}{i}_{state}"
        assert run([command, "--input", str(path),
                    "--output", str(outdir), *extra]) == 0
        outputs.append({p.name: p.read_bytes() for p in outdir.iterdir()})
    return outputs


def test_commands_build_no_view(tmp_path, monkeypatch):
    # On a miss, the sidecar write alone builds the planning tables: for
    # stats too, which stores them though it plans nothing.
    refuse_views(monkeypatch, builder=trace.load_trace)
    path = gen_trace(tmp_path)  # runs `gen` under the same patch
    run_commands(tmp_path, path, "miss")


def test_commands_build_no_view_on_a_hit(tmp_path, monkeypatch):
    def refuse_build(*args):
        raise AssertionError("built a dataset its sidecar holds")

    path = gen_trace(tmp_path)
    misses = run_commands(tmp_path, path, "miss")
    refuse_views(monkeypatch)
    monkeypatch.setattr(trace, "_from_columns", refuse_build)
    assert run_commands(tmp_path, path, "hit") == misses


def test_plan_costs_every_title_in_one_pass(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("plan costed one title at a time")

    def counted(*args, **kwargs):
        passes.append(args)
        return title_costs(*args, **kwargs)

    path = gen_trace(tmp_path)
    title_costs = planning._title_costs
    monkeypatch.setattr(planning, "_cost", refuse)
    monkeypatch.setattr(TraceDataset, "_targeting", refuse)
    # Wherever it is called from.
    monkeypatch.setattr(planning, "_title_costs", counted)
    monkeypatch.setattr(cli, "_title_costs", counted, raising=False)
    for mode in ("perfect", "assumed", "limited"):
        passes = []
        assert run(["plan", "--input", str(path),
                    "--output", str(tmp_path / mode), "--mode", mode]) == 0
        # The curve's prefix and the rows come from the same pass.
        assert len(passes) == 1


@pytest.mark.parametrize("command", ["gen", "plan"])
def test_output_path_that_is_a_directory(tmp_path, monkeypatch, capsys,
                                         command):
    trace_path = gen_trace(tmp_path)
    monkeypatch.chdir(tmp_path)
    if command == "gen":
        target = "isdir"
        argv = ["gen", "--output", target, "--n-users", "60",
                "--n-titles", "30", "--n-cells", "25", "--n-visits", "100"]
    else:
        target = os.path.join("plan", "breakdowns.csv")
        argv = ["plan", "--input", str(trace_path), "--output", "plan"]
    os.makedirs(target)
    trace.load_trace(trace_path)  # the sidecar plan would write
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert run(argv) == 1
    assert capsys.readouterr() == (
        "", f"prepush: error: [Errno 21] Is a directory: '{target}'\n")
    assert sorted(tmp_path.rglob("*")) == before


class TestWriteTables:
    def test_failed_write_leaves_no_partial_output(self, tmp_path,
                                                    monkeypatch, capsys):
        def fail_second(file, *args, **kwargs):
            opened.append(file)
            if len(opened) == 2:
                raise OSError(28, "No space left on device")
            return open(file, *args, **kwargs)

        out = tmp_path / "stats"
        assert run(["stats", "--input", str(gen_trace(tmp_path)),
                    "--output", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        other = gen_trace(tmp_path, seed=7, name="other.csv")
        monkeypatch.setattr(cli, "open", fail_second, raising=False)
        for outdir in (out, tmp_path / "new" / "deeper"):
            opened = []
            capsys.readouterr()
            assert run(["stats", "--input", str(other),
                        "--output", str(outdir)]) == 1
            assert capsys.readouterr() == (
                "", "prepush: error: [Errno 28] No space left on device\n")
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            ".other.csv.prepush.npz", ".trace.csv.prepush.npz", "other.csv",
            "stats", "trace.csv"]

    def test_failed_rename_reports_its_own_error(self, tmp_path,
                                                  monkeypatch, capsys):
        # The first table is renamed into the directory the command made,
        # so that directory stays, and the error shown is the rename's.
        def fail_second(src, dst):
            renamed.append(dst)
            if len(renamed) == 2:
                raise OSError(28, "No space left on device")
            return replace(src, dst)

        path = gen_trace(tmp_path)
        trace.load_trace(path)  # the sidecar, renamed before the tables
        replace, renamed = os.replace, []
        monkeypatch.setattr(os, "replace", fail_second)
        outdir = tmp_path / "new" / "deeper"
        capsys.readouterr()
        assert run(["stats", "--input", str(path),
                    "--output", str(outdir)]) == 1
        assert capsys.readouterr() == (
            "", "prepush: error: [Errno 28] No space left on device\n")
        assert [p.name for p in outdir.iterdir()] == ["user_curve.csv"]


class TestSidecar:
    COMMANDS = (
        ("stats", ["--format", "json"]),
        ("plan", ["--mode", "assumed"]),
        ("plan", ["--mode", "limited", "--coverage", "0.3"]),
        ("sweep", ["--titles", "1,2,5"]),
    )

    def test_cold_and_warm_outputs_byte_identical(self, tmp_path,
                                                   monkeypatch):
        def refuse_parse(*args):
            raise AssertionError("parsed a trace its sidecar holds")

        path = gen_trace(tmp_path, n_visits=1500)
        for i, (command, extra) in enumerate(self.COMMANDS):
            outputs = {}
            for state in ("cold", "warm"):
                with monkeypatch.context() as patch:
                    if state == "cold":
                        sidecar_of(path).unlink(missing_ok=True)
                    else:
                        assert sidecar_of(path).exists()
                        patch.setattr(trace, "_parse", refuse_parse)
                    outdir = tmp_path / f"{command}{i}_{state}"
                    assert run([command, "--input", str(path),
                                "--output", str(outdir), *extra]) == 0
                outputs[state] = {p.name: p.read_bytes()
                                  for p in outdir.iterdir()}
            assert outputs["cold"] == outputs["warm"]
            assert outputs["cold"]
            # The sidecar goes next to the input, never into the output.
            assert not any(".prepush" in name for name in outputs["cold"])

    def test_write_failure_is_ignored(self, tmp_path, monkeypatch, capsys):
        def fail(src, dst):
            if ".prepush.npz" in os.fspath(dst):
                raise OSError(28, "No space left on device")
            return replace(src, dst)

        path = gen_trace(tmp_path)
        replace = os.replace
        monkeypatch.setattr(os, "replace", fail)
        assert run(["stats", "--input", str(path),
                    "--output", str(tmp_path / "stats")]) == 0
        assert "error" not in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "stats", "trace.csv"]

    def test_failed_parse_writes_no_sidecar(self, tmp_path, capsys):
        path = tmp_path / "trace.csv"
        path.write_text("user_id,title_id,cell_id,timestamp\nu1,t1,,\n",
                        encoding="utf-8")
        assert run(["stats", "--input", str(path),
                    "--output", str(tmp_path / "stats")]) == 1
        assert "line 2: empty cell_id field" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["trace.csv"]


#: The name :class:`Faults` records for the trace's sidecar and its
#: temporary file.
SIDECAR = "<sidecar>"


class Faults:
    """Counts one run's ``open`` calls in :mod:`prepush.cli` and
    :mod:`prepush.trace`, the writes to the files they open and its
    ``os.replace`` calls, and fails the call numbered ``fail`` (from 0)
    with an ``OSError``.

    A write is counted on the raw file beneath any buffer, where the
    operating system reports a full disk.  A failing ``open`` closes the
    file it opened before it raises, and leaves a file it created for the
    command to remove.  Each call is recorded with its file: the path, or
    :data:`SIDECAR` for the sidecar and its temporary file, which is named
    after it.
    """

    def __init__(self, patch, fail=None):
        self.calls, self.fail = [], fail
        replace = os.replace

        def hooked_open(file, *args, **kwargs):
            handle = open(file, *args, **kwargs)
            raw = getattr(getattr(handle, "buffer", handle), "raw", handle)
            write = raw.write

            def hooked_write(data):
                self.call("write", file)
                return write(data)

            raw.write = hooked_write
            try:
                self.call("open", file)
            except OSError:
                handle.close()
                raise
            return handle

        def hooked_replace(src, dst):
            self.call("replace", dst)
            return replace(src, dst)

        for module in (cli, trace):
            patch.setattr(module, "open", hooked_open, raising=False)
        patch.setattr(os, "replace", hooked_replace)

    def call(self, kind, file):
        if ".prepush.npz" in os.fspath(file):
            file = SIDECAR
        self.calls.append((kind, os.fspath(file)))
        if len(self.calls) - 1 == self.fail:
            raise OSError(errno.EIO, "injected fault")


#: gen, then every analysis command in each format, after a sidecar miss
#: and on a hit.
FAULT_RUNS = [(["gen", "--n-users", "60", "--n-titles", "30",
                "--n-cells", "25", "--n-visits", "1000"], None)] + [
    ([*argv, "--format", fmt], state)
    for argv in (["stats"], ["plan", "--mode", "perfect"],
                 ["plan", "--mode", "assumed"], ["plan", "--mode", "limited"],
                 ["sweep", "--titles", "2,1"])
    for fmt in ("csv", "json") for state in ("miss", "hit")]


@pytest.mark.parametrize("argv, state", FAULT_RUNS, ids=[
    "-".join(arg for arg in (*argv[::2], state) if arg and arg[0].isalpha())
    for argv, state in FAULT_RUNS])
def test_every_fault_fails_cleanly(tmp_path, monkeypatch, capsys, argv,
                                   state):
    """Each open, write and rename of a clean run fails in turn, into a
    new and into an existing output directory.  A fault in the sidecar
    costs only the time it saves.  Any other fails the command with the
    fault's error and no traceback, and changes no output but the files
    renamed before it; no run leaves a temporary file, or a sidecar that
    loads to another dataset."""
    def refuse_parse(*args):
        raise AssertionError("parsed a trace its sidecar holds")

    def attempt(fail, stale):
        shutil.rmtree(made, ignore_errors=True)
        for file in stale:
            file.parent.mkdir(parents=True, exist_ok=True)
            file.write_bytes(b"stale\n")
        if state == "miss":
            sidecar.unlink(missing_ok=True)
        elif state == "hit":
            sidecar.write_bytes(stored)
        with monkeypatch.context() as patch:
            faults = Faults(patch, fail)
            code = run(argv)
        files = {p: p.read_bytes() for p in made.rglob("*") if p.is_file()}
        return code, capsys.readouterr(), faults.calls, files

    path, made = gen_trace(tmp_path), tmp_path / "made"
    parsed, sidecar = parse_trace(path), sidecar_of(path)
    trace.load_trace(path)
    stored = sidecar.read_bytes()
    capsys.readouterr()
    if argv[0] == "gen":
        argv = [*argv, "--output", str(made / "out" / "t.csv")]
    else:
        argv = [*argv, "--input", str(path), "--output", str(made / "out")]
    code, clean, calls, files = attempt(None, ())
    assert (code, clean.err) == (0, "")
    for fail, (_, file) in enumerate(calls):
        # A fault in the sidecar leaves a clean run's outputs, which one
        # output directory shows.
        for stale in [()] if file == SIDECAR else [(), list(files)]:
            code, printed, seen, got = attempt(fail, stale)
            # Up to the fault, the run made the clean run's calls.
            assert seen[:fail + 1] == calls[:fail + 1]
            assert not list(tmp_path.rglob("*.tmp"))
            if sidecar.exists():
                with mock.patch.object(trace, "_parse", refuse_parse):
                    assert trace.load_trace(path) == parsed
            if file == SIDECAR:
                assert (code, printed, got) == (0, clean, files)
                continue
            assert (code, printed) == (
                1, ("", "prepush: error: [Errno 5] injected fault\n"))
            renamed = {Path(file) for kind, file in calls[:fail]
                       if kind == "replace" and file != SIDECAR}
            assert got == {**dict.fromkeys(stale, b"stale\n"),
                           **{file: files[file] for file in renamed}}
