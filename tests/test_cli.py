"""Tests for the command-line interface."""

import json
import os

import pytest

from repro import cli
from repro.cli import build_parser, main
from repro.kernels import synthesis_workers


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


class TestBenchTrajectory:
    RESULT = {"serial_fps": 900.0, "sharded_fps": 1800.0,
              "p95_latency_ms": 0.3}

    def test_records_serial_fps_cores_and_dirty_flag(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "trajectory.json"
        monkeypatch.setenv("REPRO_BENCH_TRAJECTORY", str(path))
        cli._append_bench_record(dict(self.RESULT))
        cli._append_bench_record(dict(self.RESULT, serial_fps=950.0))
        records = json.loads(path.read_text())
        assert [r["serial_fps"] for r in records] == [900.0, 950.0]
        assert records[0]["frames_per_s"] == 1800.0
        assert records[0]["cpu_count"] == os.cpu_count()
        assert records[0]["synthesis_workers"] == synthesis_workers()
        assert records[0]["dirty"] in (True, False, None)

    @pytest.mark.parametrize(
        "status, dirty",
        [
            ("", False),
            (" M BENCH_serving.json\n", False),
            (" M BENCH_serving.json\n M src/repro/cli.py\n", True),
            ("?? notes.txt\n", True),
            (None, None),
        ],
    )
    def test_dirty_ignores_the_trajectory_file(
        self, monkeypatch, status, dirty
    ):
        monkeypatch.setattr(cli, "_git", lambda *args: status)
        assert cli._worktree_dirty() is dirty
