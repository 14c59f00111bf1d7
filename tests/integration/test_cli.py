"""The command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["sort"])
        assert args.n == 100_000
        assert args.backend == "gpu"
        assert args.workload == "uniform"

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sort", "--workload", "tpch"])


class TestCommands:
    def test_sort_gpu(self, capsys):
        assert main(["sort", "--n", "2000"]) == 0
        out = capsys.readouterr().out
        assert "rendering passes" in out
        assert "modelled GeForce-6800 time" in out

    def test_sort_cpu(self, capsys):
        assert main(["sort", "--n", "2000", "--backend", "cpu"]) == 0
        assert "CPU" in capsys.readouterr().out

    def test_sort_bitonic(self, capsys):
        assert main(["sort", "--n", "1000", "--network", "bitonic"]) == 0
        assert "bitonic" in capsys.readouterr().out

    def test_quantiles(self, capsys):
        assert main(["quantiles", "--n", "20000", "--backend", "cpu",
                     "--eps", "0.05", "--window", "1000",
                     "--phi", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "phi=0.5" in out
        assert "modelled paper-hardware time" in out

    def test_frequent(self, capsys):
        assert main(["frequent", "--n", "20000", "--workload", "zipf",
                     "--backend", "cpu"]) == 0
        assert "frequent items" in capsys.readouterr().out

    def test_distinct(self, capsys):
        assert main(["distinct", "--n", "20000",
                     "--universe", "5000"]) == 0
        out = capsys.readouterr().out
        assert "KMV estimate" in out
        assert "exact" in out

    def test_serve_quantile(self, capsys):
        assert main(["serve", "--n", "20000", "--statistic", "quantile",
                     "--shards", "2", "--producers", "2"]) == 0
        out = capsys.readouterr().out
        assert "sharded quantile service" in out
        assert "[mid-stream]" in out and "[final]" in out
        assert "ingest rate" in out
        assert "shard 1:" in out

    def test_serve_refuses_a_setting_the_executor_drops(self, capsys):
        # the inline executor has no shedder; accepting --shed-capacity
        # would report the whole stream accepted, nothing shed
        assert main(["serve", "--executor", "inline", "--statistic",
                     "frequency", "--n", "20000", "--eps", "0.01",
                     "--shed-capacity", "50"]) == 2
        captured = capsys.readouterr()
        assert "shed_capacity" in captured.err
        assert "accepted" not in captured.out

    def test_serve_frequency(self, capsys):
        assert main(["serve", "--n", "20000", "--statistic", "frequency",
                     "--workload", "zipf", "--shards", "2",
                     "--eps", "0.005", "--support", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "sharded frequency service" in out
        assert "heavy@0.05" in out
