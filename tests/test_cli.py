"""Tests for the command-line interface."""

import json
import os

import pytest

from repro.cli import build_parser, main
from repro.kernels import backend_name, fusion_active, synthesis_workers


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_track_defaults(self):
        args = build_parser().parse_args(["track"])
        assert args.through_wall is True
        assert args.seed == 0

    def test_line_of_sight_flag(self):
        args = build_parser().parse_args(["fig8", "--line-of-sight"])
        assert args.through_wall is False

    def test_all_commands_parse(self):
        for command in ("track", "multi", "fig8", "fig9", "fig10",
                        "fall-table", "pointing"):
            args = build_parser().parse_args([command])
            assert callable(args.func)

    def test_multi_defaults(self):
        args = build_parser().parse_args(["multi"])
        assert args.people == 2
        assert args.through_wall is True


class TestExecution:
    def test_track_runs(self, capsys):
        code = main(["track", "--duration", "6", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "median" in out
        assert "cm" in out

    def test_multi_runs(self, capsys):
        code = main(["multi", "--people", "2", "--duration", "6",
                     "--seed", "8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "MOTA" in out
        assert "id switches" in out

    def test_pointing_runs(self, capsys):
        code = main(["pointing", "--trials", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "detected" in out

    def test_bench_runs(self, capsys, tmp_path):
        """``repro bench`` matches serial output and stamps its JSON
        with the configuration it measured."""
        path = tmp_path / "bench.json"
        code = main(["bench", "--workers", "1", "--duration", "3",
                     "--output", str(path)])
        assert code == 0
        assert "identical  : yes" in capsys.readouterr().out
        result = json.loads(path.read_text())
        assert result["identical"] is True
        assert result["cpu_count"] == os.cpu_count()
        assert result["synthesis_workers"] == synthesis_workers()
        assert result["backend"] == backend_name()
        assert result["fused"] == fusion_active()
