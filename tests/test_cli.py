"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestTables:
    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "15,600" in out
        assert "GeForce GTX 280" in out


class TestAdvise:
    def test_advise_single_card(self, capsys):
        assert main(["advise", "--level", "1", "--card", "GTX280"]) == 0
        out = capsys.readouterr().out
        assert "Algorithm 4" in out

    def test_advise_all_cards(self, capsys):
        assert main(["advise", "--level", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("Algorithm") == 3

    def test_unknown_card_is_clean_error(self, capsys):
        assert main(["advise", "--card", "RTX9000"]) == 2
        assert "error:" in capsys.readouterr().err


class TestFigure:
    def test_fig8_coarse(self, capsys):
        assert main(["figure", "--id", "fig8", "--step", "128"]) == 0
        out = capsys.readouterr().out
        assert "Algorithm1 on Level2" in out
        assert "8800GTS512" in out


class TestCharacterize:
    def test_characterize_exits_zero_when_all_pass(self, capsys):
        # the coarse 64-step sweep still satisfies every expectation
        rc = main(["characterize", "--step", "32"])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert out.count("[PASS]") >= 8
        assert "[FAIL]" not in out


class TestMine:
    def test_mine_small(self, capsys):
        assert main(["mine", "--events", "4000", "--threshold", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "frequent" in out
        assert "simulated kernel time" in out

    def test_gpu_alias_converges_on_gpu_sim(self, capsys):
        """--engine gpu and --engine gpu-sim run the same registry path."""
        assert main(["mine", "--events", "3000", "--engine", "gpu"]) == 0
        gpu = capsys.readouterr().out
        assert main(["mine", "--events", "3000", "--engine", "gpu-sim"]) == 0
        gpu_sim = capsys.readouterr().out
        assert "engine=gpu-sim" in gpu
        assert gpu == gpu_sim  # identical output incl. simulated kernel time

    def test_mine_cpu_engine_reports_wall_time(self, capsys):
        assert main(["mine", "--events", "3000", "--engine", "auto"]) == 0
        out = capsys.readouterr().out
        assert "host mining wall time" in out
        assert "simulated kernel time" not in out

    def test_mine_expiring_policy_with_window(self, capsys):
        assert main([
            "mine", "--events", "3000", "--policy", "expiring",
            "--window", "6",
        ]) == 0
        out = capsys.readouterr().out
        assert "policy=expiring" in out
        assert "simulated kernel time" in out

    def test_mine_subsequence_policy_on_cpu_engine(self, capsys):
        assert main([
            "mine", "--events", "3000", "--engine", "position-hop",
            "--policy", "subsequence",
        ]) == 0
        assert "policy=subsequence" in capsys.readouterr().out

    def test_window_without_expiring_is_clean_error(self, capsys):
        assert main(["mine", "--events", "3000", "--window", "5"]) == 2
        assert "does not take a window" in capsys.readouterr().err

    def test_expiring_without_window_is_clean_error(self, capsys):
        assert main(["mine", "--events", "3000", "--policy", "expiring"]) == 2
        assert "requires a window" in capsys.readouterr().err

    def test_unknown_engine_is_clean_error(self, capsys):
        assert main(["mine", "--engine", "warp-drive"]) == 2
        assert "unknown engine" in capsys.readouterr().err

    def test_workers_shard_the_run(self, capsys):
        assert main([
            "mine", "--events", "3000", "--engine", "auto",
            "--workers", "2", "--min-shard-work", "0",
        ]) == 0
        out = capsys.readouterr().out
        assert "sharded over 2 workers" in out
        assert "pool spawn(s)" in out

    def test_sharded_engine_without_workers_uses_defaults(self, capsys):
        assert main(["mine", "--events", "3000", "--engine", "sharded"]) == 0
        assert "sharded over" in capsys.readouterr().out

    def test_workers_zero_is_clean_error(self, capsys):
        assert main(["mine", "--events", "100", "--workers", "0"]) == 2
        assert "workers must be >= 1" in capsys.readouterr().err

    def test_negative_min_shard_work_is_clean_error(self, capsys):
        assert main([
            "mine", "--events", "100", "--workers", "2",
            "--min-shard-work", "-5",
        ]) == 2
        assert "min_shard_work" in capsys.readouterr().err

    def test_min_shard_work_requires_sharding(self, capsys):
        assert main([
            "mine", "--events", "100", "--min-shard-work", "1024",
        ]) == 2
        assert "--min-shard-work requires" in capsys.readouterr().err

    def test_workers_compose_with_policy(self, capsys):
        assert main([
            "mine", "--events", "3000", "--engine", "position-hop",
            "--policy", "expiring", "--window", "4",
            "--workers", "2", "--min-shard-work", "0",
        ]) == 0
        out = capsys.readouterr().out
        assert "policy=expiring" in out
        assert "sharded over 2 workers" in out


class TestProbe:
    def test_probe(self, capsys):
        assert main(["probe", "--card", "8800GTS512"]) == 0
        out = capsys.readouterr().out
        assert "latency-hiding" in out
        assert "issue-ceiling" in out


class TestParser:
    def test_missing_command_raises_system_exit(self):
        with pytest.raises(SystemExit):
            main([])

    def test_bad_figure_id(self):
        with pytest.raises(SystemExit):
            main(["figure", "--id", "fig99"])
