import errno
import hashlib
import json
import os
import resource
import shutil
import signal
import stat
import sys
import threading
from contextlib import contextmanager
from dataclasses import fields
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import oracle
from helpers import run_python, sidecar_of
from prepush import (
    SynthParams,
    TraceDataset,
    cli,
    estimate_target_cells,
    geo_concentration_profile,
    parse_trace,
    planning,
    titles_by_popularity,
    trace,
)
from prepush.cli import main


def run(argv):
    return main(argv)


def refuse_parse(*args):
    raise AssertionError("parsed a trace")


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

    def test_config_line_without_equals_fails(self, tmp_path, capsys):
        config = tmp_path / "params.conf"
        config.write_text("n_users=40\nn_titles 20\n", encoding="utf-8")
        assert run(["gen", "--output", str(tmp_path / "t.csv"),
                    "--config", str(config)]) == 1
        assert capsys.readouterr().err == (
            f"prepush: error: {config}: line 2: expected key=value\n")
        assert not (tmp_path / "t.csv").exists()

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

            def fail_third(text):
                writes.append(text)
                if len(writes) == 3:  # the second block of rows
                    raise OSError(28, "No space left on device")
                return write(text)

            handle.write = fail_third
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
            assert len(writes) == 3
            assert capsys.readouterr() == (
                "", "prepush: error: [Errno 28] No space left on device\n")
        assert existing.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            ".trace.csv.prepush.npz", "trace.csv"]
        # The directories it makes stay once the write succeeds.
        monkeypatch.undo()
        assert gen(new) == 0
        assert parse_trace(new).total_visits == 5000

    def test_trace_bytes_are_pinned(self, tmp_path):
        # The trace's sha256 when rows were formatted one at a time in
        # Python: a writer change must not change a byte.
        path = gen_trace(tmp_path, n_visits=5000, seed=7)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "cd51764a2e381c081814b9f0f30918774c1ea1cfd946a0666d7fefdc4aa3d1df")

    def test_trace_is_born_with_its_sidecar(self, tmp_path, monkeypatch):
        def refuse_parse(*args):
            raise AssertionError("parsed a trace gen left a sidecar for")

        path = gen_trace(tmp_path)
        with monkeypatch.context() as patch:
            patch.setattr(trace, "_parse", refuse_parse)
            born = trace.load_trace(path)._arrays
        sidecar_of(path).unlink()
        parsed = trace.load_trace(path)._arrays
        assert list(born) == list(parsed) == [
            name for name, *_ in trace._SIDECAR]
        for name, array in parsed.items():
            assert born[name].dtype == array.dtype, name
            assert np.array_equal(born[name], array), name

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

    def test_field_csv_refuses_exits_1(self, tmp_path, capsys):
        path = tmp_path / "trace.csv"
        path.write_text("user_id,title_id,cell_id,timestamp\n"
                        f'"{"a" * 200_000}",t,c,\n', encoding="utf-8")
        out = tmp_path / "stats"
        assert run(["stats", "--input", str(path), "--output", str(out)]) == 1
        assert capsys.readouterr() == ("", "prepush: error: line 2: field "
                                       "larger than field limit (131072)\n")
        assert not out.exists()

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


#: Arguments a command refuses with exit 1, and part of its message.
BAD_ARGUMENTS = [
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
    (["stats", "--max-rank", "0"], "max_rank must be at least 1"),
    (["sweep", "--titles", ","], "--titles must name at least one"),
]


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

    def test_ratio_grid_that_is_not_numbers_is_usage_error(self, tmp_path,
                                                           capsys):
        path = gen_trace(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run(["plan", "--input", str(path), "--output",
                 str(tmp_path / "out"), "--ratio-grid", "0,x"])
        assert exc.value.code == 2
        assert ("expected comma-separated numbers, got '0,x'"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_bad_ratio_grid_exit_1(self, tmp_path, capsys):
        # Arguments are checked before anything is written: a failing
        # command leaves no output directory behind.
        trace = gen_trace(tmp_path)
        for argv, message in BAD_ARGUMENTS:
            outdir = tmp_path / "out"
            code = run([*argv, "--input", str(trace), "--output", str(outdir)])
            assert code == 1
            assert message in capsys.readouterr().err
            assert not outdir.exists()

    @pytest.mark.parametrize("argv, message", BAD_ARGUMENTS)
    def test_bad_argument_is_reported_before_the_trace_is_read(
            self, tmp_path, capsys, monkeypatch, argv, message):
        # On a trace without a sidecar, a bad argument costs no parse and
        # writes no sidecar.
        path = gen_trace(tmp_path)
        sidecar_of(path).unlink()
        monkeypatch.setattr(trace, "_parse", refuse_parse)
        outdir = tmp_path / "out"
        assert run([*argv, "--input", str(path), "--output", str(outdir)]) == 1
        assert message in capsys.readouterr().err
        assert not outdir.exists() and not sidecar_of(path).exists()


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
                                                            monkeypatch,
                                                            capsys):
        # The table cannot be written, and removing its temporary file
        # fails too.
        def fail_open(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        def fail_unlink(*args, **kwargs):
            raise PermissionError(errno.EACCES, "Permission denied")

        path = gen_trace(tmp_path)
        out = tmp_path / "out"
        monkeypatch.setattr(cli, "open", fail_open, raising=False)
        monkeypatch.setattr(Path, "unlink", fail_unlink)
        capsys.readouterr()
        assert run(["sweep", "--input", str(path), "--output", str(out),
                    "--titles", "1"]) == 1
        assert capsys.readouterr() == (
            "", "prepush: error: [Errno 28] No space left on device\n")
        assert not out.exists()

    def test_long_title_id_is_swept(self, tmp_path):
        # A temporary name does not grow with its table's name, so a table
        # whose name fits is written.
        title = "t" * 240
        path = tmp_path / "trace.csv"
        path.write_text("user_id,title_id,cell_id,timestamp\n"
                        f"u1,{title},c1,\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run(["sweep", "--input", str(path), "--output", str(out),
                    "--titles", title]) == 0
        header, rows = read_csv_rows(out / f"sweep_{title}.csv")
        assert header == ["coverage", "total_transmissions"]
        assert len(rows) == len(cli.DEFAULT_COVERAGE_GRID)

    def test_titles_naming_nothing_exit_1(self, tmp_path, capsys):
        path = gen_trace(tmp_path)
        out = tmp_path / "out"
        capsys.readouterr()
        assert run(["sweep", "--input", str(path), "--output", str(out),
                    "--titles", " , "]) == 1
        assert capsys.readouterr() == ("", "prepush: error: --titles must "
                                       "name at least one rank or title id\n")
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


#: The dataset's maps built on first use: no command needs them, not even
#: a map of visit counts.
VIEWS = ("title_visits", "user_visits", "title_cell_visits",
         "user_cell_visits", "user_top_cell", "user_rank", "title_users",
         "records")

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
    under the function ``builder``; built tables are read as before."""
    def refuse(self):
        raise AssertionError("a command built a view")

    built = trace._planning

    def planning(a):
        frame = sys._getframe(1)
        while frame.f_code is not getattr(builder, "__code__", None):
            frame = frame.f_back
            if frame is None:
                raise AssertionError("a command built the planning tables")
        return built(a)

    for view in VIEWS:
        monkeypatch.setattr(TraceDataset, view, property(refuse))
    monkeypatch.setattr(trace, "_planning", planning)


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
    # The sidecar write alone builds the planning tables: on a miss, for
    # stats too, which stores them though it plans nothing, and in gen.
    refuse_views(monkeypatch, builder=trace._write_sidecar)
    path = gen_trace(tmp_path)  # runs `gen` under the same patch
    run_commands(tmp_path, path, "miss")


#: The sidecar members a hit reads before any use: none, since the key
#: and the sizes are read without ``_read_member``.
UP_FRONT = set()
CODES = {"codes0", "codes1", "codes2"}
MEMBERS = [name for name, *_ in trace._SIDECAR]
TABLES = set(MEMBERS[MEMBERS.index("ranked_bounds"):])


@pytest.mark.parametrize("argv, unread", [
    (["stats"], CODES | TABLES - UP_FRONT | {"ids0", "ids1", "ids2"}),
    (["plan", "--mode", "perfect"], CODES | {"ids0", "ids2"}),
    (["plan", "--mode", "assumed"], CODES | {"ids0", "ids2"}),
    (["plan", "--mode", "limited"], CODES | {"ids0", "ids2"}),
    (["sweep"], CODES | {"ids0", "ids2", "target_cells"}),
])
def test_a_hit_reads_only_the_members_its_command_uses(
        tmp_path, monkeypatch, argv, unread):
    def spy(npz, name, sizes):
        reads.append(name)
        return read_member(npz, name, sizes)

    path = gen_trace(tmp_path)
    reads, read_member = [], trace._read_member
    monkeypatch.setattr(trace, "_read_member", spy)
    monkeypatch.setattr(trace, "_parse", refuse_parse)
    assert run([*argv, "--input", str(path),
                "--output", str(tmp_path / "out")]) == 0
    assert UP_FRONT <= set(reads) and not unread & set(reads)
    assert len(reads) == len(set(reads))


def hit_outputs(tmp_path, path, name):
    """The output files of plan and then sweep, each run on ``path``."""
    outputs = {}
    for command, extra in (("plan", ["--mode", "assumed"]), ("sweep", [])):
        outdir = tmp_path / f"{name}_{command}"
        assert run([command, "--input", str(path), "--output", str(outdir),
                    *extra]) == 0
        outputs.update({(command, p.name): p.read_bytes()
                        for p in outdir.iterdir()})
    return outputs


@pytest.mark.parametrize("damage", ["ranked_targets", "target_cells", "crc"])
def test_damage_found_on_first_use_is_parsed_over(tmp_path, damage):
    path = gen_trace(tmp_path, n_visits=5000)
    sidecar = sidecar_of(path)
    good = sidecar.read_bytes()
    clean = hit_outputs(tmp_path, path, "clean")
    with np.load(sidecar) as npz:
        stored = {name: npz[name] for name in npz.files}
    if damage == "crc":
        # One bit inside a member that no value check reads and that is
        # larger than one read of the zip: only its CRC can tell.
        data = stored["ranked_covered"].tobytes()
        assert len(data) > 4096 and good.count(data) == 1
        at = good.index(data) + len(data) // 2
        sidecar.write_bytes(good[:at] + bytes([good[at] ^ 1]) + good[at + 1:])
    else:
        array = stored[damage].copy()
        if damage == "ranked_targets":
            array[-1] += 1  # counts past the table's entries
        else:
            array[0] = len(stored["ids2"])  # a cell out of range
        with open(sidecar, "wb") as handle:
            np.savez(handle, **{**stored, damage: array})
    assert sidecar.read_bytes() != good
    with mock.patch.object(trace, "_parse", refuse_parse):
        hit = trace.load_trace(path)  # a hit: the damage shows on first use
    if damage == "target_cells":  # which no command reads
        title = titles_by_popularity(hit)[0]
        assert estimate_target_cells(hit, title, 1.0) == (
            estimate_target_cells(trace.parse_trace(path), title, 1.0))
    assert hit_outputs(tmp_path, path, "damaged") == clean
    assert sidecar.read_bytes() == good


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


@pytest.mark.parametrize("command", ["gen", "stats"])
def test_output_path_that_is_a_fifo(tmp_path, monkeypatch, capsys, command):
    # Renaming a file over it would leave a regular file in its place.
    trace_path = gen_trace(tmp_path)
    monkeypatch.chdir(tmp_path)
    if command == "gen":
        target = "pipe"
        argv = ["gen", "--output", target, "--n-users", "60",
                "--n-titles", "30", "--n-cells", "25", "--n-visits", "100"]
    else:
        os.mkdir("stats")
        target = os.path.join("stats", "user_curve.csv")
        argv = ["stats", "--input", str(trace_path), "--output", "stats"]
    os.mkfifo(target)
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert run(argv) == 1
    assert capsys.readouterr() == (
        "", f"prepush: error: [Errno 22] Not a regular file: '{target}'\n")
    assert sorted(tmp_path.rglob("*")) == before
    assert stat.S_ISFIFO(os.stat(target).st_mode)


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
        sidecar_of(path).unlink()  # gen's: the stats below is a miss
        replace = os.replace
        monkeypatch.setattr(os, "replace", fail)
        assert run(["stats", "--input", str(path),
                    "--output", str(tmp_path / "stats")]) == 0
        assert "error" not in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "stats", "trace.csv"]

    def test_fifo_at_the_sidecar_path_is_a_miss(self, tmp_path, capsys):
        # Anyone who may create files beside the trace can put one there;
        # a blocking open would wait for a writer forever.
        def hung(*args):
            pytest.fail("blocked opening the sidecar")

        path = gen_trace(tmp_path)
        outputs = []
        for state in ("clean", "fifo"):
            if state == "fifo":
                sidecar_of(path).unlink()
                os.mkfifo(sidecar_of(path))
            capsys.readouterr()
            previous = signal.signal(signal.SIGALRM, hung)
            signal.alarm(10)
            try:
                assert run(["stats", "--input", str(path),
                            "--output", str(tmp_path / state)]) == 0
            finally:
                signal.alarm(0)
                signal.signal(signal.SIGALRM, previous)
            printed = capsys.readouterr()
            outputs.append((printed.out.replace(str(tmp_path / state), ""),
                            printed.err,
                            {p.name: p.read_bytes()
                             for p in (tmp_path / state).iterdir()}))
        assert outputs[0] == outputs[1]
        assert stat.S_ISFIFO(sidecar_of(path).stat().st_mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            ".trace.csv.prepush.npz", "clean", "fifo", "trace.csv"]

    def test_trace_that_is_a_fifo_is_parsed_and_gets_no_sidecar(
            self, tmp_path):
        # A path that is not a regular file has no ctime to bind a sidecar
        # to, and may not give the same bytes twice.
        @contextmanager
        def fed(fifo, data):
            def hung(*args):
                pytest.fail("blocked on the FIFO")

            def write():
                with open(fifo, "wb") as handle:
                    handle.write(data)

            writer = threading.Thread(target=write, daemon=True)
            writer.start()
            previous = signal.signal(signal.SIGALRM, hung)
            signal.alarm(10)
            try:
                yield
            finally:
                signal.alarm(0)
                signal.signal(signal.SIGALRM, previous)
            writer.join(timeout=10)
            assert not writer.is_alive()

        path = gen_trace(tmp_path)
        fifo = tmp_path / "pipe.csv"
        os.mkfifo(fifo)
        with fed(fifo, path.read_bytes()):
            assert trace.load_trace(fifo) == parse_trace(path)
        assert run(["stats", "--input", str(path),
                    "--output", str(tmp_path / "regular")]) == 0
        with fed(fifo, path.read_bytes()):
            assert run(["stats", "--input", str(fifo),
                        "--output", str(tmp_path / "fifo")]) == 0
        outputs = [{p.name: p.read_bytes()
                    for p in (tmp_path / name).iterdir()}
                   for name in ("regular", "fifo")]
        assert outputs[0] == outputs[1] and outputs[0]
        assert not sidecar_of(fifo).exists()
        assert stat.S_ISFIFO(fifo.stat().st_mode)

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
    command to remove.  Each call is recorded with its file: the path, a
    temporary file's by the path ``trace._replacing`` renames it to, or
    :data:`SIDECAR` for a sidecar and its temporary file.
    """

    def __init__(self, patch, fail=None):
        self.calls, self.fail, self.finals = [], fail, {}
        replace, replacing = os.replace, trace._replacing

        @contextmanager
        def hooked_replacing(paths):
            with replacing(paths) as temps:
                self.finals.update(zip(map(os.fspath, temps), paths))
                yield temps

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
            patch.setattr(module, "_replacing", hooked_replacing)
        patch.setattr(os, "replace", hooked_replace)

    def call(self, kind, file):
        file = self.finals.get(os.fspath(file), file)
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
    new and into an existing output directory.  A fault in a sidecar, the
    input's or gen's, costs only the time it saves.  Any other fails the
    command with the fault's error and no traceback, and changes no output
    but the files renamed before it; no run leaves a temporary file, or a
    sidecar that loads to another dataset."""
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
    written = made / "out" / "t.csv"
    if argv[0] == "gen":
        argv = [*argv, "--output", str(written)]
    else:
        argv = [*argv, "--input", str(path), "--output", str(made / "out")]
    code, clean, calls, files = attempt(None, ())
    assert (code, clean.err) == (0, "")
    # What a run must leave after a fault in a sidecar: gen's may be gone.
    kept = {file: data for file, data in files.items()
            if file != sidecar_of(written)}
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
                if sidecar_of(written).exists():
                    with mock.patch.object(trace, "_parse", refuse_parse):
                        assert (trace.load_trace(written)
                                == parse_trace(written))
                    del got[sidecar_of(written)]
                assert (code, printed, got) == (0, clean, kept)
                continue
            assert (code, printed) == (
                1, ("", "prepush: error: [Errno 5] injected fault\n"))
            renamed = {Path(file) for kind, file in calls[:fail]
                       if kind == "replace" and file != SIDECAR}
            assert got == {**dict.fromkeys(stale, b"stale\n"),
                           **{file: files[file] for file in renamed}}


#: gen in a child process whose row write signals the child once written.
SIGNALLED_GEN = """
import os, signal, sys
from prepush import cli, trace

write = trace._write_rows

def write_then_signal(dataset, path):
    digest = write(dataset, path)
    os.kill(os.getpid(), signal.{})
    return digest

trace._write_rows = write_then_signal
sys.exit(cli.main(sys.argv[1:]))
"""

#: gen's workload flags, as in :func:`gen_trace`.
GEN_FLAGS = ["--n-users", "60", "--n-titles", "30", "--n-cells", "25"]


@pytest.mark.parametrize("name, code, err", [
    ("SIGTERM", 143, ""),
    ("SIGINT", 130, "prepush: interrupted\n"),
])
def test_a_signal_during_a_write_leaves_nothing(tmp_path, name, code, err):
    out = tmp_path / "out" / "trace.csv"
    proc = run_python(["-c", SIGNALLED_GEN.format(name), "gen", "--output",
                       str(out), *GEN_FLAGS, "--n-visits", "1000"],
                      cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (code, err)
    # No temporary file, and not the directory the command made.
    assert not any(tmp_path.iterdir())


def test_a_file_size_limit_fails_cleanly(tmp_path):
    """Under ``RLIMIT_FSIZE``, set in the child alone, a write past the
    limit fails with EFBIG (Python ignores SIGXFSZ), as on a full disk."""
    def prepush(*argv, limit=None):
        def cap():
            resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))
        return run_python(["-m", "prepush.cli", *argv], cwd=tmp_path,
                          preexec_fn=cap if limit else None)

    def files(directory):
        return {p.name: p.read_bytes() for p in directory.iterdir()}

    too_large = (f"prepush: error: [Errno {errno.EFBIG}] "
                 f"{os.strerror(errno.EFBIG)}\n")
    gen = ["gen", *GEN_FLAGS, "--n-visits", "20000", "--output"]
    full = tmp_path / "full" / "trace.csv"
    assert prepush(*gen, str(full)).returncode == 0
    rows, sidecar = full.stat().st_size, sidecar_of(full).stat().st_size
    assert rows < sidecar

    # Capped below the trace: nothing is left, not the directory made.
    proc = prepush(*gen, str(tmp_path / "a" / "trace.csv"), limit=rows // 2)
    assert (proc.returncode, proc.stderr) == (1, too_large)
    assert not (tmp_path / "a").exists()

    # Capped between the trace and its sidecar: the trace, and no sidecar.
    capped = tmp_path / "b" / "trace.csv"
    proc = prepush(*gen, str(capped), limit=(rows + sidecar) // 2)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert files(capped.parent) == {"trace.csv": full.read_bytes()}

    # A plan that cannot write its tables leaves the earlier ones.
    out = tmp_path / "plan"
    plan = ["plan", "--input", str(full), "--output", str(out), "--format",
            "json"]
    assert prepush(*plan).returncode == 0
    before = files(out)
    assert max(map(len, before.values())) > 1000
    proc = prepush(*plan, limit=1000)
    assert (proc.returncode, proc.stderr) == (1, too_large)
    assert files(out) == before


def test_gen_binds_its_sidecar_to_the_trace_it_renamed(tmp_path,
                                                       monkeypatch):
    path = gen_trace(tmp_path)
    assert sidecar_of(path).stat().st_mtime_ns == path.stat().st_ctime_ns
    # A trace changed between its rename and gen's stat of it is not the
    # file gen wrote and hashed: the sidecar is not bound to it.
    def replace_then_append(src, dst):
        replace(src, dst)
        if Path(dst).name == "other.csv":
            with open(dst, "a", encoding="utf-8") as handle:
                handle.write("u1,t1,c1,\n")

    replace = os.replace
    monkeypatch.setattr(os, "replace", replace_then_append)
    other = gen_trace(tmp_path, name="other.csv")
    monkeypatch.undo()
    assert sidecar_of(other).stat().st_mtime_ns != other.stat().st_ctime_ns
    assert trace.load_trace(other) == parse_trace(other)


#: Runs ``prepush`` in a child, then prints the modules it left loaded
#: among hashlib's, OpenSSL's and json.
IMPORTS_AFTER = """
import sys
from prepush import cli
code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(code, sorted({"hashlib", "_hashlib", "json"} & set(sys.modules)))
"""


def test_a_bound_hit_imports_no_hash_or_json(tmp_path):
    def loaded(*argv):
        proc = run_python(["-c", IMPORTS_AFTER, *argv], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()[-1]

    path = gen_trace(tmp_path)
    stats = ["stats", "--input", str(path), "--output", "out"]
    assert loaded() == "0 []"
    assert loaded(*stats) == "0 []"
    assert loaded(*stats, "--format", "json") == "0 ['json']"
    path.chmod(0o640)  # unbound: this hit hashes
    assert loaded(*stats) == "0 ['_hashlib', 'hashlib']"
