"""Tests for the CLI, timers and multi-seed aggregation."""

import time
from dataclasses import replace

import pytest

from repro.cli import main
from repro.utils import Ledger, Stopwatch, derive, set_seed, spawn


class TestCLI:
    def test_experiments_lists_all(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        for name in ("table1", "table2", "fig11"):
            assert name in out

    def test_stats_command(self, capsys):
        assert main(["stats", "nyc", "--scale", "0.12"]) == 0
        out = capsys.readouterr().out
        assert "checkins" in out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_serve_stateful_flags_parse(self):
        from repro.cli import _build_parser

        args = _build_parser().parse_args(
            ["serve", "nyc", "--stateful", "--shards", "8", "--max-sessions", "32"]
        )
        assert args.stateful and args.shards == 8 and args.max_sessions == 32
        assert args.gap_hours is None  # defaults to the paper's 72h

    def test_serve_stateful_bad_store_flags_exit_2(self, capsys):
        assert main(["serve", "nyc", "--stateful", "--shards", "0"]) == 2
        assert "num_shards" in capsys.readouterr().err
        assert main(["serve", "nyc", "--stateful", "--gap-hours", "-1"]) == 2

    def test_run_requires_valid_id(self):
        with pytest.raises(KeyError):
            main(["run", "table99"])


class TestTimers:
    def test_stopwatch_measures_time(self):
        with Stopwatch() as watch:
            time.sleep(0.02)
        assert watch.result.seconds >= 0.02
        assert watch.result.peak_bytes is None

    def test_stopwatch_memory(self):
        with Stopwatch(trace_memory=True) as watch:
            _ = [0] * 100_000
        assert watch.result.peak_bytes > 0
        assert watch.result.peak_megabytes > 0

    def test_pretty_time(self):
        from repro.utils import TimerResult

        assert TimerResult(seconds=75.0).pretty_time == "01:15.0"

    def test_ledger_accumulates(self):
        ledger = Ledger()
        ledger.add("train", 1.0)
        ledger.add("train", 2.0)
        assert ledger.get("train") == 3.0
        assert ledger.get("missing") == 0.0


class TestRNG:
    def test_spawn_deterministic(self):
        assert spawn(5).integers(0, 100) == spawn(5).integers(0, 100)

    def test_derive_independent(self):
        parent = spawn(1)
        a = derive(parent, 1)
        parent = spawn(1)
        b = derive(parent, 2)
        assert a.integers(0, 10**9) != b.integers(0, 10**9)

    def test_set_seed_resets_default(self):
        from repro.utils import default_rng

        set_seed(99)
        first = default_rng().integers(0, 10**9)
        set_seed(99)
        second = default_rng().integers(0, 10**9)
        assert first == second


class TestMultiseed:
    def test_aggregation(self):
        from repro.experiments import QUICK
        from repro.experiments.multiseed import run_multiseed

        tiny = replace(
            QUICK,
            dataset_scale=0.12,
            epochs=1,
            max_train_samples=16,
            eval_samples=15,
            imagery_resolution=16,
            dim=16,
        )
        agg = run_multiseed("MC", "nyc", tiny, seeds=(0, 1))
        assert set(agg.mean) == set(agg.std)
        assert agg.seeds == [0, 1]
        assert 0.0 <= agg.mean["Recall@5"] <= 1.0
        assert "Recall@5=" in agg.summary(("Recall@5",))
