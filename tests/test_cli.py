"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frob"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "gc-collect" in out
        assert "unpatchable" in out

    def test_community_report(self, capsys):
        """The in-process community learns, is patched, and the report
        renders the patch-health summary."""
        assert main(["community", "--members", "2"]) == 0
        out = capsys.readouterr().out
        assert "patch health:      1 watched, 0 bad, 0 toxic, " \
            "0 blacklisted, 0 revocation(s)" in out.splitlines()

    def test_learn(self, capsys):
        assert main(["learn"]) == 0
        out = capsys.readouterr().out
        assert "invariants:" in out
        assert "one-of" in out

    def test_attack(self, capsys):
        assert main(["attack", "gc-collect"]) == 0
        out = capsys.readouterr().out
        assert "patched at:    4" in out
        assert "repair-succeeded" in out

    def test_attack_unknown_defect(self, capsys):
        assert main(["attack", "nope"]) == 2
        assert "unknown defect" in capsys.readouterr().err

    def test_attack_respects_presentation_budget(self, capsys):
        assert main(["attack", "soft-hyphen",
                     "--presentations", "5"]) == 0
        out = capsys.readouterr().out
        assert "patched at:    -" in out
        assert "all blocked:   True" in out


class TestSnapshotCommand:
    def test_save_then_info_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "cache.json"
        assert main(["snapshot", "save", str(path)]) == 0
        out = capsys.readouterr().out
        assert "cached blocks" in out
        assert path.exists()

        assert main(["snapshot", "info", str(path)]) == 0
        out = capsys.readouterr().out
        assert "schema:      3" in out
        assert "compatible:  yes" in out

    def test_info_rejects_stale_engine(self, capsys, tmp_path):
        import json

        path = tmp_path / "cache.json"
        assert main(["snapshot", "save", str(path)]) == 0
        capsys.readouterr()
        payload = json.loads(path.read_text())
        payload["engine"] = "ancient-kernel-0"
        path.write_text(json.dumps(payload))
        assert main(["snapshot", "info", str(path)]) == 1
        assert "compatible:  no" in capsys.readouterr().out

    def test_info_unreadable_file(self, capsys, tmp_path):
        assert main(["snapshot", "info",
                     str(tmp_path / "missing.json")]) == 1
        assert "unreadable snapshot" in capsys.readouterr().err


class TestLifecycleFlags:
    def test_heartbeat_interval_requires_channel_transport(self, capsys):
        assert main(["community", "--heartbeat-interval", "0.5"]) == 2
        err = capsys.readouterr().err
        assert "--heartbeat-interval requires" in err

    def test_lifecycle_flags_parse(self):
        args = build_parser().parse_args(
            ["community", "--transport", "process",
             "--heartbeat-interval", "0.5", "--min-members", "2",
             "--reconnect", "3"])
        assert args.heartbeat_interval == 0.5
        assert args.min_members == 2
        assert args.reconnect == 3

    def test_stamped_snapshot_info_shows_ledger_epoch(self, capsys,
                                                      tmp_path):
        import json

        path = tmp_path / "cache.json"
        assert main(["snapshot", "save", str(path)]) == 0
        capsys.readouterr()
        payload = json.loads(path.read_text())
        payload["ledger_epoch"] = 4
        path.write_text(json.dumps(payload))
        assert main(["snapshot", "info", str(path)]) == 0
        assert "ledger epoch: 4" in capsys.readouterr().out
