"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_solve_defaults(self):
        args = build_parser().parse_args(["solve"])
        assert args.loss_jam == 100.0
        assert args.jammer_mode == "max"

    def test_bad_jammer_mode(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "--jammer-mode", "sneaky"])

    def test_figure_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "99"])


class TestSolveCommand:
    def test_prints_policy(self, capsys):
        assert main(["solve"]) == 0
        out = capsys.readouterr().out
        assert "hop threshold" in out
        assert "V*(x)" in out
        for state in ("1", "2", "3", "TJ", "J"):
            assert state in out

    def test_random_mode(self, capsys):
        assert main(["solve", "--jammer-mode", "random"]) == 0
        assert "mode=random" in capsys.readouterr().out


class TestFigureCommand:
    def test_fig10(self, capsys):
        assert main(["figure", "10"]) == 0
        out = capsys.readouterr().out
        assert "goodput" in out
        assert "Fig. 10" in out

    def test_fig2b(self, capsys):
        assert main(["figure", "2b"]) == 0
        out = capsys.readouterr().out
        assert "PER EmuBee" in out

    def test_fig9a(self, capsys):
        assert main(["figure", "9a"]) == 0
        out = capsys.readouterr().out
        assert "DQN" in out and "Polling" in out

    def test_fig11b_small(self, capsys):
        assert main(["figure", "11b", "--slots", "30"]) == 0
        assert "Jx slot" in capsys.readouterr().out


class TestEmulateCommand:
    def test_emulates_hex(self, capsys):
        assert main(["emulate", "deadbeef"]) == 0
        out = capsys.readouterr().out
        assert "optimal alpha" in out
        assert "chip error rate" in out


class TestTrainCommand:
    def test_trains_and_saves(self, capsys, tmp_path):
        path = tmp_path / "weights.npz"
        code = main(
            [
                "train",
                "--episodes", "3",
                "--steps", "60",
                "--eval-slots", "300",
                "--save", str(path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "S_T" in out
        assert path.exists()
        with np.load(path) as data:
            assert data["flat"].size == 10_960


class TestCalibrateCommand:
    def test_generate_check_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "cal.json"
        code = main(
            [
                "calibrate",
                "--trials", "4",
                "--margins=-3,0,3",
                "--seed", "2",
                "--out", str(path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "corrected" in out
        assert path.exists()
        assert main(["calibrate", "--check", str(path)]) == 0
        assert "reproduced" in capsys.readouterr().out.lower()

    def test_check_rejects_tampered_artifact(self, capsys, tmp_path):
        import json

        path = tmp_path / "cal.json"
        assert main(
            ["calibrate", "--trials", "4", "--margins=-3,0,3", "--out", str(path)]
        ) == 0
        payload = json.loads(path.read_text())
        payload["entries"][0]["corrected"] = [
            0.0 for _ in payload["entries"][0]["corrected"]
        ]
        path.write_text(json.dumps(payload))
        assert main(["calibrate", "--check", str(path)]) == 1

    def test_channel_flag_exported(self, monkeypatch):
        import os

        from repro.channel.fidelity import CHANNEL_ENV

        monkeypatch.delenv(CHANNEL_ENV, raising=False)
        args = build_parser().parse_args(["train", "--channel", "hybrid"])
        assert args.channel == "hybrid"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--channel", "exact"])


class TestConfigKnobs:
    def test_config_lists_every_knob_once(self, capsys):
        from repro import config

        assert main(["config"]) == 0
        lines = capsys.readouterr().out.splitlines()
        for name in config.KNOBS:
            assert sum(line.split()[0] == name for line in lines if line) == 1

    def test_config_reports_source_and_value(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_SHARDS", " 3 ")
        assert main(["config"]) == 0
        row = next(
            line
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("REPRO_SHARDS ")
        )
        assert [cell.strip() for cell in row.split("|")][1:3] == ["3", "env"]

    def test_config_fails_on_invalid_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "many")
        assert main(["config"]) == 1

    def test_bad_exec_flag_fails_before_running(self, monkeypatch):
        import os

        monkeypatch.delenv("REPRO_SHARDS", raising=False)
        argv = ["field-scale", "--networks", "4", "--slots", "2", "--shards", "foo"]
        assert main(argv) == 1
        assert "REPRO_SHARDS" not in os.environ

    def test_blank_adversaries_env_selects_all(self, monkeypatch):
        # Blank means unset, i.e. all four adversaries.
        from repro import cli
        from repro.jamming.jammer import ADVERSARIES

        seen = []

        def fake_comparison(adversaries, **kwargs):
            seen.append(adversaries)
            return {}

        monkeypatch.setattr(
            cli.figures_mod, "adversary_scheme_comparison", fake_comparison
        )
        monkeypatch.setenv("REPRO_ADVERSARIES", "  ")
        assert main(["figure", "adv", "--slots", "10"]) == 0
        monkeypatch.setenv("REPRO_ADVERSARIES", " reactive , follower ")
        assert main(["figure", "adv", "--slots", "10"]) == 0
        monkeypatch.setenv("REPRO_ADVERSARIES", "reactive,nonesuch")
        assert main(["figure", "adv", "--slots", "10"]) == 1
        assert seen == [ADVERSARIES, ("reactive", "follower")]
