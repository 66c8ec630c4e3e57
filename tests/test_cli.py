import argparse
import hashlib
import math
import os
import re
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
import warnings
from collections.abc import Callable
from pathlib import Path

import pytest

import aoi_erasure
from aoi_erasure import cli, simulator, stats
from aoi_erasure.analytic import optimize_gamma
from aoi_erasure.cli import main
from aoi_erasure.model import Feedback, SimConfig
from aoi_erasure.simulator import _run_loop, run_simulation
from aoi_erasure.stats import ValidationRecord

CSV_HEADER = "q,M,setting,gamma,analytic_aoi,gamma_star,baseline_inf_battery,sim_mean,sim_ci,verdict"


def _assert_flag_refused(capsys, extra):
    """argparse refused the flags in extra: the command does not take them."""
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.endswith(f"error: unrecognized arguments: {' '.join(extra)}\n")


def _assert_key_refused(capsys, cfg, key, command):
    """The first line of the config file cfg was refused: command does not take key."""
    assert capsys.readouterr() == ("", f"error: {cfg}:1: unknown config key {key!r} for {command}\n")


def _assert_out_refused(command, args, tmp_path, capsys):
    """--out, as a flag or as `out =` in a config file, is a usage error: the command prints one line."""
    out_path = tmp_path / "out.txt"
    assert main([command, *args, "--out", str(out_path)]) == 2
    _assert_flag_refused(capsys, ["--out", str(out_path)])
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"out = {out_path}\n")
    assert main([command, *args, "--config", str(cfg)]) == 2
    _assert_key_refused(capsys, cfg, "out", command)
    assert not out_path.exists()


# flag: (its command-line forms, its config values)
_SINGLE_RUN_FLAGS = {
    "trace": ([["--trace"]], ("true", "false")),
    "replications": ([["--replications", n] for n in ("3", "0", "1")], ("3", "0", "1")),
}


def _assert_single_run_flags_refused(command, args, tmp_path, capsys, flags=("trace", "replications")):
    """Each of flags, as a flag or in a config file, is a usage error whatever its value."""
    cfg = tmp_path / "run.cfg"
    for key in flags:
        forms, values = _SINGLE_RUN_FLAGS[key]
        for extra in forms:
            assert main([command, *args, *extra]) == 2
            _assert_flag_refused(capsys, extra)
        for val in values:
            cfg.write_text(f"{key} = {val}\n")
            assert main([command, *args, "--config", str(cfg)]) == 2
            _assert_key_refused(capsys, cfg, key, command)


class TestSolve:
    def test_greedy_regime(self, capsys):
        assert main(["solve", "--q", "0.6", "--setting", "nofb"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "regime=greedy lambda_star=2.500000 threshold=0.000000 q=0.600000 setting=nofb"

    def test_threshold_regime_feedback(self, capsys):
        assert main(["solve", "--q", "0", "--setting", "wfb"]) == 0
        out = capsys.readouterr().out.strip()
        assert "regime=threshold" in out
        assert "lambda_star=0.901201" in out
        assert "threshold=0.901201" in out

    def test_feedback_root_beyond_a_large_breakpoint(self, capsys):
        # the breakpoint q/(1-q) = 99 lies past any fixed bracket of [0, 50]
        assert main(["solve", "--q", "0.99", "--setting", "wfb"]) == 0
        assert "lambda_star=99.998684" in capsys.readouterr().out

    def test_threshold_next_to_the_greedy_boundary(self, capsys):
        assert main(["solve", "--q", "0.4999999", "--setting", "nofb"]) == 0
        assert "regime=threshold" in capsys.readouterr().out

    @pytest.mark.filterwarnings("ignore:q = .* is close to 1:RuntimeWarning")
    def test_feedback_threshold_next_to_q_one(self, capsys):
        # the root is bisected in gamma, so no d = q/(1-q)-sized terms cancel
        assert main(["solve", "--q", "0.9999999999999994", "--setting", "wfb"]) == 0
        threshold = float(re.search(r"threshold=(\S+)", capsys.readouterr().out).group(1))
        assert 0.99 < threshold <= 1.0

    @pytest.mark.filterwarnings("ignore:q = .* is close to 1:RuntimeWarning")
    def test_q_that_six_decimals_would_round_prints_in_full(self, capsys):
        # six decimals read 1.000000, a q that solve refuses; the line keeps the q it solved
        assert main(["solve", "--q", "0.9999999999999994", "--setting", "wfb"]) == 0
        assert re.search(r" q=(\S+) ", capsys.readouterr().out).group(1) == "0.9999999999999994"
        assert main(["solve", "--q", "0.3", "--setting", "wfb"]) == 0
        assert " q=0.300000 " in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["eval", "optimize", "simulate", "sweep"])
    def test_every_line_prints_q_that_reads_back(self, capsys, command):
        args = [command, "--q", "0.1234567,0.25" if command == "sweep" else "0.1234567", "--setting", "nofb"]
        assert main(args + (["--epochs", "10"] if command == "simulate" else [])) == 0
        out = capsys.readouterr().out
        if command == "sweep":
            assert [row.split(",")[0] for row in out.splitlines()[1:]] == ["0.1234567", "0.250000"]
        else:
            assert out.startswith("q=0.1234567 M=1 ")

    def test_q_out_of_range(self, capsys):
        assert main(["solve", "--q", "1.0", "--setting", "nofb"]) == 2
        err = capsys.readouterr().err
        assert "q must be < 1" in err

    def test_missing_required_flag(self, capsys):
        assert main(["solve", "--setting", "nofb"]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_bad_setting_token(self, capsys):
        assert main(["solve", "--q", "0.3", "--setting", "psychic"]) == 2

    def test_malformed_m_is_usage_error(self, capsys):
        # a single-source problem: solve takes no --m, well-formed or not
        for m in ("two", "2"):
            assert main(["solve", "--q", "0.3", "--m", m, "--setting", "nofb"]) == 2
            _assert_flag_refused(capsys, ["--m", m])

    def test_out_is_usage_error(self, tmp_path, capsys):
        _assert_out_refused("solve", ["--q", "0.3", "--setting", "nofb"], tmp_path, capsys)


class TestEval:
    def test_known_cell(self, capsys):
        assert main(["eval", "--q", "0.3", "--m", "2", "--setting", "nofb", "--gamma", "0"]) == 0
        out = capsys.readouterr().out
        assert "analytic_aoi=2.357143" in out
        assert "baseline_inf_battery=0.928571" in out

    def test_m_defaults_to_one(self, capsys):
        assert main(["eval", "--q", "0.3", "--setting", "nofb", "--gamma", "0"]) == 0
        assert "M=1" in capsys.readouterr().out

    def test_gamma_defaults_to_optimal(self, capsys):
        assert main(["eval", "--q", "0.3", "--setting", "nofb"]) == 0
        out = capsys.readouterr().out
        assert "gamma=0.470471" in out
        assert "analytic_aoi=1.409196" in out

    @pytest.mark.parametrize("gamma", ["nan", "inf"])
    def test_non_finite_gamma_is_usage_error(self, capsys, gamma):
        assert main(["eval", "--q", "0.3", "--setting", "wfb", "--gamma", gamma]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "gamma must be finite" in captured.err

    @pytest.mark.parametrize("gamma", ["1.3407807929942597e154", "1e200", "1e308"])
    def test_gamma_whose_square_overflows_is_usage_error(self, capsys, gamma):
        for setting in ("nofb", "wfb"):
            assert main(["eval", "--q", "0.3", "--m", "2", "--setting", setting, "--gamma", gamma]) == 2
            assert capsys.readouterr() == (
                "", f"error: gamma must be small enough that gamma^2 is finite, got {float(gamma)!r}\n"
            )

    def test_out_is_usage_error(self, tmp_path, capsys):
        _assert_out_refused("eval", ["--q", "0.3", "--setting", "nofb", "--gamma", "0"], tmp_path, capsys)


class TestOptimize:
    def test_interior_optimum(self, capsys):
        assert main(["optimize", "--q", "0.3", "--setting", "nofb"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "q=0.300000 M=1 setting=nofb gamma_star=0.470471 aoi=1.409196"

    def test_boundary_optimum(self, capsys):
        assert main(["optimize", "--q", "0.3", "--m", "3", "--setting", "nofb"]) == 0
        assert "gamma_star=0.000000" in capsys.readouterr().out

    def test_out_is_usage_error(self, tmp_path, capsys):
        _assert_out_refused("optimize", ["--q", "0.3", "--setting", "wfb"], tmp_path, capsys)


class TestSimulate:
    def test_prints_estimate_and_counters(self, capsys):
        rc = main(
            ["simulate", "--q", "0.3", "--setting", "nofb", "--gamma", "0.2",
             "--epochs", "5000", "--seed", "7"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        for token in ("sim_mean=", "sim_ci=", "arrivals=", "overflows=", "successes=5001"):
            assert token in out

    def test_replications_are_usage_errors(self, tmp_path, capsys):
        # one run's batch-means interval holds for any M, so simulate pools no replications
        args = ["--q", "0.3", "--setting", "nofb", "--epochs", "100"]
        _assert_single_run_flags_refused("simulate", args, tmp_path, capsys, flags=("replications",))

    def test_fewer_epochs_than_batches_still_give_an_interval(self, capsys):
        # 3 epochs per source make 3 batches, with Student's t at 2 df
        assert main(["simulate", "--q", "0.3", "--m", "2", "--setting", "nofb", "--epochs", "3"]) == 0
        ci = float(re.search(r"sim_ci=(\S+)", capsys.readouterr().out).group(1))
        assert math.isfinite(ci) and ci > 0.0

    def test_trace_writes_event_log(self, tmp_path, capsys):
        out_path = tmp_path / "run.log"
        args = ["simulate", "--q", "0.3", "--setting", "nofb", "--gamma", "0.2",
                "--epochs", "200", "--seed", "11", "--trace", "--out", str(out_path)]
        assert main(args) == 0
        capsys.readouterr()
        first = out_path.read_text()
        pat = re.compile(r"^\d+\.\d{9}\t\w+\t\d+$")
        assert all(pat.match(line) for line in first.splitlines())
        assert main(args) == 0
        capsys.readouterr()
        assert out_path.read_text() == first

    @pytest.mark.parametrize("cell", [
        ["--q", "0.3", "--m", "2", "--setting", "wfb", "--epochs", "3000"],
        ["--q", "0.5", "--m", "3", "--setting", "nofb", "--gamma", "0.4", "--epochs", "2000"],
        ["--q", "0", "--m", "1", "--setting", "nofb", "--gamma", "0", "--epochs", "500"],
        ["--q", "0.9", "--m", "1", "--setting", "wfb", "--gamma", "2", "--epochs", "500"],
    ], ids=["wfb-M2", "nofb-M3", "nofb-q0", "wfb-q0.9"])
    def test_trace_without_out_lays_out_no_line(self, tmp_path, capsys, monkeypatch, cell):
        # each window's log goes to a sink that never starts dump's generator of lines:
        # the command prints what it prints with --out, and no line is laid out or formatted
        args = ["simulate", *cell, "--seed", "3", "--trace"]
        assert main([*args, "--out", str(tmp_path / "run.log")]) == 0
        want = capsys.readouterr().out

        def refuse(*args):
            raise AssertionError("a line of the log was laid out")

        for name in ("_pair_slots", "_lay_out", "_format_lines"):
            monkeypatch.setattr(simulator, name, refuse)
        assert main(args) == 0
        assert capsys.readouterr().out == want

    def test_zero_epochs_is_usage_error(self, capsys):
        assert main(["simulate", "--q", "0.3", "--setting", "nofb", "--gamma", "0", "--epochs", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "target_epochs must be at least 1" in captured.err

    def test_out_without_trace_is_usage_error(self, tmp_path, capsys):
        out_path = tmp_path / "run.log"
        args = ["simulate", "--q", "0.3", "--setting", "nofb", "--gamma", "0", "--epochs", "100"]
        assert main(args + ["--out", str(out_path)]) == 2
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"out = {out_path}\n")
        assert main(args + ["--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("--out on simulate needs --trace") == 2
        assert not out_path.exists()

    def test_negative_seed_is_usage_error(self, capsys):
        assert main(["simulate", "--q", "0.3", "--setting", "nofb", "--gamma", "0", "--epochs", "100",
                     "--seed", "-2"]) == 2
        assert "seed must be a nonnegative integer, got -2" in capsys.readouterr().err

    def test_gamma_numpy_cannot_draw_is_usage_error(self, capsys):
        assert main(["simulate", "--q", "0.3", "--setting", "nofb", "--gamma", "1e19", "--epochs", "10"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: gamma must be at most 9.223372006484771e+18")

    def test_allocation_failure_is_an_error_line(self, capsys, monkeypatch):
        def out_of_memory(cfg, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(simulator, "run_simulation", out_of_memory)
        assert main(["simulate", "--q", "0.3", "--setting", "nofb", "--epochs", "1000000000000"]) == 1
        assert capsys.readouterr() == ("", "error: Unable to allocate 7.28 TiB for an array\n")

    def test_hopeless_q_is_refused_without_a_warning(self, capsys):
        # refused before the optimizer resolves --gamma optimal and warns that q is close to 1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["simulate", "--q", "0.99995", "--setting", "nofb"]) == 2
        assert caught == []
        assert capsys.readouterr() == ("", "error: q = 0.99995 implies over 1e4 attempts per epoch; refusing\n")


class TestSweep:
    ARGS = ["sweep", "--q", "0.3,0.1", "--m", "2,1", "--setting", "nofb",
            "--gamma", "0,optimal"]

    def test_csv_shape_without_simulation(self, capsys):
        assert main(self.ARGS) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == CSV_HEADER
        rows = [line.split(",") for line in lines[1:]]
        # optimal == 0 for (0.3, 2, nofb), so that pair dedupes to one row
        assert len(rows) == 7
        keys = [(float(r[0]), int(r[1]), r[2], float(r[3])) for r in rows]
        assert keys == sorted(keys)
        num = re.compile(r"^\d+\.\d{6}$")
        for r in rows:
            assert num.match(r[0]) and num.match(r[3]) and num.match(r[4])
            assert r[1] in ("1", "2")
            assert (r[7], r[8], r[9]) == ("", "", "")

    def test_exact_known_row(self, capsys):
        assert main(self.ARGS) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert "0.300000,1,nofb,0.470471,1.409196,0.470471,0.928571,,," in lines

    def test_epochs_fill_sim_columns(self, capsys):
        assert main(["sweep", "--q", "0.3", "--m", "1", "--setting", "nofb",
                     "--gamma", "0", "--epochs", "20000", "--seed", "5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        row = lines[1].split(",")
        assert row[9] == "PASS"
        assert float(row[7]) == pytest.approx(1.428571, rel=0.05)
        assert float(row[8]) > 0.0

    def test_unwritable_out_exits_one(self, tmp_path, capsys):
        out_path = tmp_path / "missing" / "x.csv"
        assert main(["sweep", "--q", "0.3", "--setting", "nofb", "--gamma", "0", "--out", str(out_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "No such file or directory" in captured.err
        assert not out_path.parent.exists()

    def test_reruns_are_byte_identical(self, capsys):
        args = ["sweep", "--q", "0.2,0.4", "--m", "1,2", "--setting", "nofb,wfb",
                "--gamma", "optimal", "--epochs", "2000", "--seed", "9"]
        assert main(args) == 0
        a = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == a

    def test_out_flag_writes_file(self, tmp_path, capsys):
        dest = tmp_path / "grid.csv"
        assert main(self.ARGS + ["--out", str(dest)]) == 0
        assert capsys.readouterr().out == ""
        assert dest.read_text().splitlines()[0] == CSV_HEADER

    def test_zero_epochs_is_usage_error(self, capsys):
        assert main(self.ARGS + ["--epochs", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "target_epochs must be at least 1" in captured.err

    def test_single_run_flags_are_usage_errors(self, tmp_path, capsys):
        _assert_single_run_flags_refused("sweep", ["--q", "0.3", "--setting", "nofb"], tmp_path, capsys)

    def test_hopeless_q_is_refused_without_a_warning_when_simulating(self, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["sweep", "--q", "0.99995", "--setting", "nofb", "--epochs", "10"]) == 2
        assert caught == []
        assert capsys.readouterr() == ("", "error: q = 0.99995 implies over 1e4 attempts per epoch; refusing\n")
        # without --epochs nothing is simulated: the closed forms hold there, and warn
        with pytest.warns(RuntimeWarning, match="q = 0.99995 is close to 1"):
            assert main(["sweep", "--q", "0.99995", "--setting", "nofb"]) == 0

    def test_non_finite_gamma_is_usage_error(self, capsys):
        assert main(["sweep", "--q", "0.3", "--setting", "nofb", "--gamma", "nan"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "gamma must be finite" in captured.err

    def test_gamma_whose_square_overflows_is_usage_error(self, capsys):
        # no row is written: the grid fails before the CSV is emitted
        assert main(["sweep", "--q", "0.3", "--setting", "nofb,wfb", "--gamma", "0,1e308"]) == 2
        assert capsys.readouterr() == ("", "error: gamma must be small enough that gamma^2 is finite, got 1e+308\n")


class TestValidate:
    def test_small_grid_passes(self, capsys):
        rc = main(["validate", "--q", "0.3", "--m", "1", "--setting", "nofb",
                   "--gamma", "0", "--epochs", "20000", "--seed", "5"])
        assert rc == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == CSV_HEADER
        assert out[1].endswith("PASS")

    def test_wide_ci_warns_on_stderr(self, capsys):
        rc = main(["validate", "--q", "0.3", "--m", "1", "--setting", "wfb",
                   "--gamma", "0", "--epochs", "100", "--seed", "5"])
        captured = capsys.readouterr()
        assert "CI too wide" in captured.err
        assert rc in (0, 3)

    def test_default_gammas_are_zero_and_optimal(self, capsys):
        assert main(["validate", "--q", "0.3", "--m", "1", "--setting", "nofb",
                     "--epochs", "2000", "--seed", "5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        gammas = sorted(line.split(",")[3] for line in lines[1:])
        assert gammas == ["0.000000", "0.470471"]

    def test_failing_cell_exits_three(self, capsys, monkeypatch):
        def fake_validate(q, M, setting, gamma, n_epochs, seed, rel_tol=0.01):
            return ValidationRecord(
                q=q, M=M, setting=Feedback(setting) if isinstance(setting, str) else setting,
                gamma=gamma, analytic=1.0, sim_mean=9.0, sim_ci=0.001,
                n_epochs=n_epochs, seed=seed, rel_tol=rel_tol, passed=False,
            )

        monkeypatch.setattr(stats, "validate", fake_validate)
        rc = main(["validate", "--q", "0.3", "--m", "1", "--setting", "nofb",
                   "--gamma", "0", "--epochs", "100"])
        assert rc == 3
        assert capsys.readouterr().out.strip().splitlines()[1].endswith("FAIL")

    def test_hopeless_q_is_refused_without_a_warning(self, capsys):
        # refused before the optimizer resolves gamma_star and warns that q is close to 1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["validate", "--q", "0.99995", "--m", "1", "--setting", "wfb", "--gamma", "0",
                         "--epochs", "10"]) == 2
        assert caught == []
        assert capsys.readouterr() == ("", "error: q = 0.99995 implies over 1e4 attempts per epoch; refusing\n")

    def test_negative_seed_is_usage_error(self, capsys):
        assert main(["validate", "--q", "0.3", "--m", "1", "--setting", "nofb", "--epochs", "100",
                     "--seed", "-2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "seed must be a nonnegative integer, got -2" in captured.err

    def test_zero_epochs_is_usage_error(self, capsys):
        assert main(["validate", "--q", "0.3", "--m", "1", "--setting", "nofb", "--epochs", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "target_epochs must be at least 1" in captured.err

    def test_single_run_flags_are_usage_errors(self, tmp_path, capsys):
        args = ["--q", "0.3", "--m", "2", "--setting", "wfb", "--epochs", "20000"]
        _assert_single_run_flags_refused("validate", args, tmp_path, capsys)


class TestGridCells:
    def test_gamma_star_optimized_once_per_q_m_setting(self, capsys, monkeypatch):
        calls = []

        def counting(q, M, setting, *args):
            calls.append((q, M, setting))
            return optimize_gamma(q, M, setting, *args)

        monkeypatch.setattr(cli, "optimize_gamma", counting)
        assert main(["validate", "--q", "0.3,0.6", "--m", "1,2", "--setting", "nofb,wfb",
                     "--gamma", "0,0.2,optimal", "--epochs", "500", "--seed", "5"]) in (0, 3)
        assert len(calls) == len(set(calls)) == 8
        lines = capsys.readouterr().out.strip().splitlines()
        for line in lines[1:]:
            q, M, setting, _, _, gamma_star = line.split(",")[:6]
            expected, _ = optimize_gamma(float(q), int(M), setting)
            assert gamma_star == f"{expected:.6f}"


def _on_cpus(monkeypatch, n):
    """Make the grid commands see n usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


class TestGridThreads:
    """On two CPUs the grid commands share their cells with one helper thread."""

    GRIDS = [
        # gamma_star > 0 at q = 0.3, M = 1, in both settings
        ["validate", "--q", "0.3,0.7", "--m", "1,3,8", "--setting", "nofb,wfb", "--epochs", "3000",
         "--seed", "4"],
        ["sweep", "--q", "0.1,0.3,0.5", "--m", "1,2", "--setting", "nofb,wfb", "--epochs", "3000"],
    ]

    @pytest.mark.parametrize("args", GRIDS, ids=["validate", "sweep"])
    def test_threads_change_no_byte(self, args, tmp_path, monkeypatch, capsys):
        threads = set()
        real = stats.validate

        def watched(*a):
            threads.add(threading.get_ident())
            return real(*a)

        monkeypatch.setattr(stats, "validate", watched)
        runs = []
        for n in (1, 2):
            _on_cpus(monkeypatch, n)
            threads.clear()
            out = tmp_path / f"{n}.csv"
            rc = main([*args, "--out", str(out)])
            runs.append((rc, capsys.readouterr(), out.read_bytes(), len(threads)))
            assert main(args) == rc
            assert capsys.readouterr().out.encode() == out.read_bytes()
        (rc1, cap1, csv1, used1), (rc2, cap2, csv2, used2) = runs
        assert (rc1, cap1, csv1) == (rc2, cap2, csv2)
        assert (used1, used2) == (1, 2)
        if args[0] == "validate":
            assert any(float(row.split(",")[5]) > 0 for row in csv1.decode().splitlines()[1:])

    @pytest.mark.parametrize("cpu_count, used", [(2, 2), (None, 1)])
    def test_cpu_count_where_affinity_is_missing(self, cpu_count, used, monkeypatch, capsys):
        # Windows and macOS builds of CPython have no os.sched_getaffinity
        args = self.GRIDS[0]
        _on_cpus(monkeypatch, 1)
        rc = main(args)
        one_thread = capsys.readouterr()
        threads = set()
        real = stats.validate

        def watched(*a):
            threads.add(threading.get_ident())
            return real(*a)

        monkeypatch.setattr(stats, "validate", watched)
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        assert (main(args), capsys.readouterr()) == (rc, one_thread)
        assert len(threads) == used

    def test_threads_keep_the_records(self, monkeypatch):
        opts = argparse.Namespace(
            command="validate", q="0.3,0.7", m="1,3,8", setting="nofb,wfb", gamma="0,optimal",
            epochs=2000, seed=7,
        )
        cells = cli._grid_cells(opts)
        records = []
        for n in (1, 2):
            _on_cpus(monkeypatch, n)
            records.append(cli._grid_rows(cells, opts.epochs, opts.seed))
        assert records[0] == records[1]
        assert [(r.q, r.M, r.setting, r.gamma) for r in records[0][1]] == [c[:4] for c in cells]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_failing_helper_cell_stops_the_grid(self, cpus, monkeypatch, capsys):
        # the helper takes the cells with the smallest M first, the caller the largest
        started = []

        def fake_validate(q, M, setting, gamma, n_epochs, seed, rel_tol=0.01):
            started.append((q, M))
            if (q, M) == (0.3, 1):
                raise MemoryError("Unable to allocate 6.10 MiB for an array")
            time.sleep(0.2)
            return ValidationRecord(q, M, setting, gamma, 1.0, 1.0, 0.0, n_epochs, seed, rel_tol, True)

        monkeypatch.setattr(stats, "validate", fake_validate)
        _on_cpus(monkeypatch, cpus)
        before = threading.active_count()
        rc = main(["validate", "--q", "0.3,0.5", "--m", "1,4", "--setting", "nofb", "--gamma", "0",
                   "--epochs", "100"])
        assert (rc, capsys.readouterr()) == (1, ("", "error: Unable to allocate 6.10 MiB for an array\n"))
        assert threading.active_count() == before
        if cpus == 1:  # one thread takes the cells from the largest M down
            assert started == [(0.5, 4), (0.3, 4), (0.5, 1), (0.3, 1)]
        else:  # the helper fails at once; the caller ends the cell it may be in and starts no other
            assert (0.3, 1) in started[:2]
            assert set(started) <= {(0.3, 1), (0.5, 4)}

    def test_every_cell_runs_once_under_fast_switching(self, monkeypatch):
        # a lost or doubled take from the shared queue would skip or repeat a cell
        runs = []

        def fake_validate(q, M, setting, gamma, n_epochs, seed, rel_tol=0.01):
            runs.append((q, M, setting, gamma))
            return ValidationRecord(q, M, setting, gamma, 1.0, 1.0, 0.0, n_epochs, seed, rel_tol, True)

        monkeypatch.setattr(stats, "validate", fake_validate)
        _on_cpus(monkeypatch, 2)
        cells = [(q / 100, M, Feedback.NOFB, 0.0, 0.0) for q in range(90) for M in range(1, 9)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _, records = cli._grid_rows(cells, 10, 1)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(runs) == sorted(c[:4] for c in cells)
        assert [(r.q, r.M, r.setting, r.gamma) for r in records] == [c[:4] for c in cells]

    def test_near_one_q_warns_once(self):
        # numpy's import resets the once-per-location registry: the grid imports it before
        # its first check, so neither the checks, the helper nor the rows warn again
        src = str(Path(aoi_erasure.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        for args in (
            ["validate", "--q", "0.9995", "--m", "1", "--setting", "wfb", "--epochs", "100"],
            ["sweep", "--q", "0.3,0.9995", "--m", "1,2", "--setting", "wfb,nofb", "--epochs", "100"],
        ):
            proc = subprocess.run([sys.executable, "-m", "aoi_erasure.cli", *args], capture_output=True,
                                  text=True, timeout=120, env=env)
            assert proc.returncode == 0, proc.stderr
            assert proc.stderr.count("RuntimeWarning: q = 0.9995 is close to 1") == 1, proc.stderr


class TestUsageErrors:
    @pytest.mark.parametrize(
        "args,message",
        [
            ("sweep --q 0.3 --setting ,", "--setting is empty"),
            ("sweep --q 0.3 --setting nofb --gamma ,", "--gamma is empty"),
            ("eval --q 0.3 --setting nofb --gamma abc", "--gamma expects numbers or 'optimal', got 'abc'"),
            ("eval --q 0.3 --setting nofb --gamma -1", "gamma must be finite and >= 0, got -1.0"),
            ("solve --q 0.3 --setting nofb,wfb", "--setting expects a single value for this command"),
            ("sweep --setting nofb", "sweep requires --q and --setting (comma lists allowed)"),
        ],
    )
    def test_message_and_exit_code(self, capsys, args, message):
        assert main(args.split()) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")

    @pytest.mark.parametrize(
        "flag,args",
        [
            ("--q", ["validate", "--q", ""]),
            ("--m", ["validate", "--m", ","]),
            ("--setting", ["validate", "--setting", " , "]),
            ("--gamma", ["validate", "--gamma", ""]),
            ("--m", ["sweep", "--q", "0.3", "--m", ",", "--setting", "nofb"]),
            ("--q", ["solve", "--q", "", "--setting", "nofb"]),
            ("--m", ["eval", "--q", "0.3", "--m", "", "--setting", "nofb"]),
            ("--gamma", ["simulate", "--q", "0.3", "--setting", "nofb", "--gamma", ""]),
        ],
    )
    def test_empty_list_is_refused(self, capsys, flag, args):
        # an empty grid would print only the CSV header and pass validation
        assert main(args) == 2
        assert capsys.readouterr() == ("", f"error: {flag} is empty\n")

    def test_help_shows_each_commands_defaults(self, capsys):
        assert main(["validate", "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        for default in ("0.1,0.3,0.5,0.7", "1,2,4,8", "nofb,wfb", "0,optimal", "100000"):
            assert f"(default {default})" in text
        assert main(["simulate", "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "(default 1)" in text and "(default optimal)" in text and "(default 10000)" in text


# the flags each command reads, besides --config; every one is also a config key of the command
READS = {
    "solve": ("q", "setting"),
    "eval": ("q", "m", "setting", "gamma"),
    "optimize": ("q", "m", "setting"),
    "simulate": ("q", "m", "setting", "gamma", "epochs", "seed", "out", "trace"),
    "sweep": ("q", "m", "setting", "gamma", "epochs", "seed", "out"),
    "validate": ("q", "m", "setting", "gamma", "epochs", "seed", "out"),
}
# every flag some command reads, and --replications, which every command refuses
FLAGS = (*READS["simulate"], "replications")


class TestFlagSets:
    """Each command takes the flags it reads and --config; it refuses every other flag and config key."""

    BASE = {
        "solve": ["--q", "0.3", "--setting", "nofb"],
        "eval": ["--q", "0.3", "--setting", "nofb"],
        "optimize": ["--q", "0.3", "--setting", "nofb"],
        "simulate": ["--q", "0.3", "--setting", "nofb", "--epochs", "200"],
        "sweep": ["--q", "0.3", "--setting", "nofb", "--epochs", "200"],
        "validate": ["--q", "0.3", "--m", "1", "--setting", "nofb", "--gamma", "0", "--epochs", "200"],
    }
    # values that differ from every command's default and from BASE
    VALUES = {"q": "0.4", "m": "2", "setting": "wfb", "gamma": "0.1", "epochs": "300", "seed": "2",
              "replications": "2", "trace": "true"}

    def _value(self, flag, tmp_path):
        return str(tmp_path / "out.txt") if flag == "out" else self.VALUES[flag]

    def _flag(self, flag, tmp_path):
        if flag == "trace":
            return ["--trace"]
        if flag == "config":
            cfg = tmp_path / "q.cfg"
            cfg.write_text("q = 0.4\n")
            return ["--config", str(cfg)]
        return [f"--{flag}", self._value(flag, tmp_path)]

    @pytest.mark.parametrize("command,flag", [(c, f) for c, fs in READS.items() for f in (*fs, "config")])
    def test_read_flag_changes_the_output(self, tmp_path, capsys, command, flag):
        args = [command, *self.BASE[command]]
        assert main(args) in (0, 3)
        before = capsys.readouterr().out
        if flag == "config":  # its q = 0.4 stands in for --q 0.3, which would override it
            assert args[1:3] == ["--q", "0.3"]
            del args[1:3]
        rc = main(args + self._flag(flag, tmp_path))
        captured = capsys.readouterr()
        if (command, flag) == ("simulate", "out"):  # the event log needs --trace
            assert rc == 2 and captured.out == "" and "--out" in captured.err
        else:
            assert rc in (0, 3)
            assert captured.out != before or (tmp_path / "out.txt").exists()

    @pytest.mark.parametrize("command,flag", [(c, f) for c, fs in READS.items() for f in FLAGS if f not in fs])
    def test_unread_flag_is_refused(self, tmp_path, capsys, command, flag):
        args = [command, *self.BASE[command]]
        extra = self._flag(flag, tmp_path)
        assert main(args + extra) == 2
        _assert_flag_refused(capsys, extra)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{flag} = {self._value(flag, tmp_path)}\n")
        assert main(args + ["--config", str(cfg)]) == 2
        _assert_key_refused(capsys, cfg, flag, command)
        assert not (tmp_path / "out.txt").exists()

    @pytest.mark.parametrize("command", list(READS))
    def test_unread_flag_is_refused_with_the_commands_usage(self, capsys, command):
        extra = ["--bogus", "1"]
        assert main([command, *self.BASE[command], *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: aoi-erasure {command} [-h]")
        assert err.endswith(f"aoi-erasure {command}: error: unrecognized arguments: {' '.join(extra)}\n")

    @pytest.mark.parametrize(
        "args",
        ["solve --q 0.3 --set wfb", "solve --q 0.3 --setting=wfb --con x.cfg",
         "simulate --q 0.3 --set nofb --ep 100 --rep 2 --g 0", "validate --epoch 100 --m 1 --q 0.3"],
    )
    def test_abbreviated_flags_are_refused(self, capsys, args):
        assert main(args.split()) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "error: unrecognized arguments: --" in captured.err

    def test_full_spellings_and_config_keys_still_work(self, tmp_path, capsys):
        assert main(["solve", "--q", "0.3", "--setting", "wfb"]) == 0
        line = capsys.readouterr().out
        assert main(["solve", "--q=0.3", "--setting=wfb"]) == 0
        assert capsys.readouterr().out == line
        cfg = tmp_path / "run.cfg"
        cfg.write_text("q = 0.3\nsetting = wfb\n")
        assert main(["solve", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == line
        cfg.write_text("q = 0.3\nset = wfb\n")
        assert main(["solve", "--config", str(cfg)]) == 2
        assert capsys.readouterr() == ("", f"error: {cfg}:2: unknown config key 'set' for solve\n")

    @pytest.mark.parametrize("command", list(READS))
    def test_help_names_comma_lists_and_defaults_only_where_they_hold(self, capsys, command):
        assert main([command, "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "None" not in text
        lists = re.findall(r"--(\w+) \w+ [^-]*?; comma list", text)
        assert lists == (["q", "m", "setting", "gamma"] if command in ("sweep", "validate") else [])

    @pytest.mark.parametrize("command", list(READS))
    def test_help_lists_exactly_the_flags_read(self, capsys, command):
        assert main([command, "--help"]) == 0
        listed = set(re.findall(r"--\w+", capsys.readouterr().out)) - {"--help"}
        assert listed == {f"--{flag}" for flag in (*READS[command], "config")}


class TestPinnedOutputs:
    """Outputs recorded before validation was routed through run_simulation.

    The sim_ci fields (and so the CSV digest) were re-recorded when the
    interval became batch means; every other field kept its bytes.
    """

    def test_validate_csv(self, tmp_path):
        out = tmp_path / "validate.csv"
        args = ["validate", "--q", "0.1,0.5", "--m", "1,4", "--setting", "nofb,wfb",
                "--epochs", "20000", "--seed", "1", "--out", str(out)]
        assert main(args) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "8581da53fb94dee6c0384497dc2e0a8f0fccff0037803bb3503c7056dd2b78b4"

    @pytest.mark.parametrize(
        "args,line",
        [
            (
                "--q 0.3 --m 2 --setting nofb --gamma 0.2 --epochs 40000 --seed 5",
                "q=0.300000 M=2 setting=nofb gamma=0.200000 sim_mean=2.346973 sim_ci=0.024433 "
                "epochs_per_source=40000 arrivals=115998 overflows=2165 "
                "attempts=113833 successes=80068 seed=5",
            ),
            (
                "--q 0.5 --m 3 --setting wfb --epochs 20000 --seed 9",
                "q=0.500000 M=3 setting=wfb gamma=0.000000 sim_mean=4.014331 sim_ci=0.048940 "
                "epochs_per_source=20000 arrivals=120229 overflows=0 "
                "attempts=120229 successes=60003 seed=9",
            ),
        ],
    )
    def test_untraced_simulate_line(self, capsys, args, line):
        assert main(["simulate", *args.split()]) == 0
        assert capsys.readouterr().out == line + "\n"


class TestColdStart:
    def test_cli_paths_never_import_scipy(self, tmp_path):
        # scipy is a second of import time; no CLI command and no horizon run may pull it in
        script = textwrap.dedent(
            f"""
            import sys
            from aoi_erasure import SimConfig, run_simulation
            from aoi_erasure.cli import main
            main(["validate", "--q", "0.3", "--m", "2", "--epochs", "2000"])
            rc = main(["simulate", "--q", "0.3", "--m", "2", "--setting", "wfb", "--epochs", "2000",
                       "--trace", "--out", {str(tmp_path / "events.log")!r}])
            assert rc == 0, rc
            res, _, _ = run_simulation(SimConfig(0.3, 2, "wfb", 0.4, horizon=500.0, seed=1))
            assert res.ci_half_width > 0.0
            print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
            """
        )
        src = str(Path(aoi_erasure.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "events.log").stat().st_size > 0
        assert proc.stdout.strip().splitlines()[-1] == "[]"


    @pytest.mark.parametrize(
        "simulating",
        [["simulate", "--q", "0.3", "--setting", "nofb", "--epochs", "100"],
         ["validate", "--q", "0.3", "--m", "1", "--setting", "nofb", "--gamma", "0", "--epochs", "100"]],
    )
    def test_analytic_commands_never_import_numpy(self, simulating):
        # solve, eval, optimize and an epoch-less sweep need only math; the simulating commands load numpy
        script = textwrap.dedent(
            f"""
            import sys
            import aoi_erasure
            from aoi_erasure.cli import main
            for args in (["solve", "--q", "0.3", "--setting", "wfb"],
                         ["eval", "--q", "0.3", "--m", "2", "--setting", "nofb", "--gamma", "0.4"],
                         ["optimize", "--q", "0.3", "--m", "4", "--setting", "wfb"],
                         ["sweep", "--q", "0.1,0.5", "--m", "1,2", "--setting", "nofb,wfb", "--gamma", "0,optimal"]):
                assert main(args) == 0, args
            loaded = ["numpy" in sys.modules]
            assert main({simulating!r}) in (0, 3)
            loaded.append("numpy" in sys.modules)
            print(loaded)
            """
        )
        src = str(Path(aoi_erasure.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "[False, True]"


# Run in a small interpreter: exec carries the spawning process's own peak
# RSS into the child's ru_maxrss, so a child of the test process would
# report at least the test process's peak.
_SPAWN_AND_REAP = """
import os, sys
devnull = os.open(os.devnull, os.O_WRONLY)
pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "aoi_erasure.cli", *sys.argv[1:]],
                     os.environ, file_actions=[(os.POSIX_SPAWN_DUP2, devnull, 1)])
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024.0)
"""


def _peak_rss_mb(args: list[str]) -> float:
    """ru_maxrss of one fresh CLI process, reaped with os.wait4."""
    src = str(Path(aoi_erasure.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _SPAWN_AND_REAP, *args],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
    )
    code, peak = proc.stdout.split()
    assert code == "0", proc.stderr
    return float(peak)


def _tracemalloc_peak_mb(run: Callable[[], object]) -> float:
    """tracemalloc's peak over a second call of run, once the first has made its imports and caches."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


class TestMemory:
    def test_attempt_buffers_do_not_grow_with_the_run(self):
        # 1e4 -> 1e5 epochs is 2e6 -> 2e7 attempts; the command keeps no epochs, so nothing need grow
        args = ["simulate", "--q", "0.99", "--m", "2", "--setting", "nofb", "--epochs"]
        small = _peak_rss_mb([*args, "10000"])
        large = _peak_rss_mb([*args, "100000"])
        assert large - small < 30.0, (small, large)
        assert large < 100.0, large

    def test_trace_engine_holds_typed_buffers(self, tmp_path):
        # 5e4 -> 2e5 traced epochs is about 430k -> 1.7M log events; the command writes
        # its log a window of attempts at a time and holds one window: 37.2 and 37.1 MB
        # measured (40.3 and 53.8 MB holding the engine's 8 B per arrival and 18 B per
        # attempt for the whole run); 8 B an attempt (3.4 MB) breaks both
        args = ["simulate", "--q", "0.3", "--m", "2", "--setting", "wfb", "--trace",
                "--out", str(tmp_path / "events.log"), "--epochs"]
        small = _peak_rss_mb([*args, "50000"])
        large = _peak_rss_mb([*args, "200000"])
        assert large - small < 1.0, (small, large)
        assert large < 39.0, large

    def test_trace_engine_peak_in_process(self):
        # the traced-run cell: 4.70 MB measured by tracemalloc on a second run (5.19 MB with
        # the estimator's leaves sized by 16,384 epochs over M, not the window; 5.69 MB holding
        # every attempt to the end of the run, 6.02 MB with a second array of the successes
        # for the feedback turns, 6.63 MB with the outcomes, sources and epochs built from
        # run-length temporaries, 12.5 MB with the log laid out as columns); the old leaves'
        # 0.5 MB break the bound
        gamma, _ = optimize_gamma(0.3, 2, "wfb")
        cfg = SimConfig(0.3, 2, "wfb", gamma, target_epochs=50_000, seed=1, trace=True)
        peak = _tracemalloc_peak_mb(lambda: _run_loop(cfg, True))
        assert peak < 5.1, peak

    def test_traced_command_peak_in_process(self, tmp_path):
        # a library run's log, dumped: no attempts column, and the log laid out and written
        # a chunk at a time; 3.57 MB measured by tracemalloc once the imports are made (4.36
        # on a cold first call; 4.64 MB keeping each attempt's position in the log, 5.12 MB
        # with a mask beside each chunk's line buffer, 6.29 MB with run-length temporaries on
        # the traced path, 11.7 MB with the log laid out whole); one more time column (3.4 MB)
        # breaks the bound
        gamma, _ = optimize_gamma(0.3, 2, "wfb")
        cfg = SimConfig(0.3, 2, "wfb", gamma, target_epochs=50_000, seed=1, trace=True)
        tracemalloc.start()
        try:
            _, _, log = run_simulation(cfg, _with_epochs=False)
            log.dump(str(tmp_path / "events.log"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / 1e6 < 6.0, peak

    def test_streamed_command_peak_is_flat_in_the_epochs(self, tmp_path):
        # what the traced simulate command runs: the log written to --out a window of
        # attempts at a time, or without --out handed to the sink that formats nothing;
        # 1.29 and 1.31 MB measured by tracemalloc at 1e4 and 5e4 epochs with --out, 0.59
        # and 0.61 MB without (1.75 and 1.79, 1.04 and 1.15 MB with the estimator's leaves
        # sized by 16,384 epochs over M; 1.57 and 4.64 MB with the run's arrays held and
        # dumped at the end); 8 B an epoch breaks the bound
        gamma, _ = optimize_gamma(0.3, 2, "wfb")

        def run(n, to_file):
            cfg = SimConfig(0.3, 2, "wfb", gamma, target_epochs=n, seed=1, trace=True)
            if not to_file:
                return run_simulation(cfg, _with_epochs=False, _out=cli._Discard())
            with open(tmp_path / "events.log", "wb") as out:
                return run_simulation(cfg, _with_epochs=False, _out=out)

        for to_file in (True, False):
            peaks = [_tracemalloc_peak_mb(lambda: run(n, to_file)) for n in (10_000, 50_000)]
            assert abs(peaks[1] - peaks[0]) < 0.25, (to_file, peaks)
            assert max(peaks) < 1.7, (to_file, peaks)

    def test_horizon_run_keeps_no_attempts(self):
        # an untraced horizon run draws its arrivals a window's worth at a time and keeps
        # only its success times: 3.62 MB measured by tracemalloc at a horizon of 3e5 (5.83
        # MB drawing every arrival up front, 8.37 MB holding every attempt's time and
        # outcome); one more copy of the success times (1.6 MB) breaks the bound
        cfg = SimConfig(0.3, 4, "wfb", 0.4, horizon=3e5, seed=1)
        peak = _tracemalloc_peak_mb(lambda: run_simulation(cfg, _with_epochs=False))
        assert peak < 4.3, peak

    @pytest.mark.parametrize("setting,bound_mb", [("wfb", 3.3), ("nofb", 2.4)])
    def test_epoch_engine_peak_in_process(self, setting, bound_mb):
        # one untraced 1e5-epoch cell at M = 8 holds no epoch block: the estimator's window
        # and leaves, the engine's block buffers and, with feedback, a block's retry draws:
        # 3.02 (wfb) and 2.10 MB (nofb) measured by tracemalloc, where a 6.4 MB y block read
        # 7.21 and 7.20 MB; one (M, target) float32 block (3.2 MB) breaks either bound
        cfg = SimConfig(0.7, 8, setting, 0.0, target_epochs=100_000, seed=1)
        peak = _tracemalloc_peak_mb(lambda: run_simulation(cfg, _with_epochs=False))
        assert peak < bound_mb, peak

    @pytest.mark.parametrize("setting", ["nofb", "wfb"])
    def test_epoch_engine_peak_is_flat_in_the_epochs(self, setting):
        # 1e5 -> 1e6 epochs at M = 1: 2.11 -> 2.24 (nofb) and 1.91 -> 1.98 MB (wfb) measured by
        # tracemalloc, where an epoch block read 1.6 -> 16.0 MB; 8 B an epoch breaks the bound
        peaks = [
            _tracemalloc_peak_mb(lambda: run_simulation(SimConfig(0.3, 1, setting, 0.0, target_epochs=n, seed=1),
                                                        _with_epochs=False))
            for n in (100_000, 1_000_000)
        ]
        assert abs(peaks[1] - peaks[0]) < 1.0, peaks

    def test_validate_cell_keeps_no_attempts_column(self):
        # a validate cell holds no epoch block and no attempts column in either engine:
        # 39.4-39.6 MB measured with both cells in flight on two CPUs, the import included,
        # where 8 B per epoch and source of y read 48.8-51.4 MB and the attempts column 58 MB
        args = ["validate", "--q", "0.7", "--m", "8", "--setting", "nofb,wfb", "--epochs", "100000"]
        peak = _peak_rss_mb(args)
        assert peak < 44.0, peak


class TestConfigFile:
    BODY = "q = 0.3\nsetting = nofb\ngamma = 0.2\nepochs = 5000\nseed = 7\n# trailing comment\n"

    def test_round_trip_matches_flags(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(self.BODY)
        assert main(["simulate", "--config", str(cfg)]) == 0
        via_config = capsys.readouterr().out
        assert main(["simulate", "--q", "0.3", "--setting", "nofb", "--gamma", "0.2",
                     "--epochs", "5000", "--seed", "7"]) == 0
        assert capsys.readouterr().out == via_config

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(self.BODY)
        assert main(["simulate", "--config", str(cfg), "--gamma", "0.3"]) == 0
        assert "gamma=0.300000" in capsys.readouterr().out

    def test_unknown_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("q = 0.3\nbogus = 1\n")
        assert main(["solve", "--config", str(cfg), "--setting", "nofb"]) == 2
        assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize("word,traced", [("ON", True), ("Yes", True), ("true", True), ("1", True),
                                             ("OFF", False), ("No", False), ("false", False), ("0", False)])
    def test_trace_words(self, tmp_path, capsys, monkeypatch, word, traced):
        seen = []

        def capture(cfg, **kw):
            seen.append(cfg.trace)
            return run_simulation(cfg, **kw)

        monkeypatch.setattr(simulator, "run_simulation", capture)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{self.BODY}trace = {word}\n")
        assert main(["simulate", "--config", str(cfg)]) == 0
        assert seen == [traced]

    @pytest.mark.parametrize("word", ["ture", "", "2", "enabled"])
    def test_other_trace_words_are_usage_errors(self, tmp_path, capsys, word):
        # refused also where --trace would override the word
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{self.BODY}trace = {word}\nout = {tmp_path / 'events.log'}\n")
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert main(["simulate", "--config", str(cfg), "--trace"]) == 2
        captured = capsys.readouterr()
        message = f"trace must be one of 1/true/yes/on or 0/false/no/off, got {word!r}"
        assert captured.out == "" and captured.err.count(message) == 2
        assert not (tmp_path / "events.log").exists()

    def test_empty_value_is_an_empty_list(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("q =\n")
        assert main(["validate", "--config", str(cfg)]) == 2
        assert capsys.readouterr() == ("", "error: --q is empty\n")

    def test_non_integer_value_is_usage_error(self, tmp_path, capsys):
        # config lines are parsed as flags, so a flag overriding the value does not hide it
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{self.BODY}epochs = abc\n")
        for extra in ([], ["--epochs", "5000"]):
            assert main(["simulate", "--config", str(cfg), *extra]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.endswith("error: argument --epochs: invalid int value: 'abc'\n")

    def test_malformed_line_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("q 0.3\n")
        assert main(["solve", "--config", str(cfg), "--setting", "nofb"]) == 2

    def test_missing_config_file(self, capsys):
        assert main(["solve", "--config", "/nonexistent/x.cfg", "--setting", "nofb"]) in (1, 2)
