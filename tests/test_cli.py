"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_experiment_defaults(self):
        args = build_parser().parse_args(["experiment", "hop"])
        assert args.which == "hop"
        assert args.connections == 10

    def test_scenario_device_choices(self):
        args = build_parser().parse_args(
            ["scenario", "b", "--device", "keyfob"])
        assert args.which == "b" and args.device == "keyfob"

    def test_profile_defaults(self):
        args = build_parser().parse_args(["profile", "hop"])
        assert args.which == "hop"
        assert args.connections == 2
        assert args.top == 20

    def test_profile_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["profile", "frobnicate"])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_experiment_payload_small(self, capsys):
        code = main(["experiment", "payload", "--connections", "3",
                     "--seed", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PDU size" in out
        assert "worst-case success rate: 1.00" in out

    def test_scenario_a(self, capsys):
        code = main(["scenario", "a", "--device", "bulb", "--seed", "1100"])
        out = capsys.readouterr().out
        assert code == 0
        assert "OK" in out

    def test_capture(self, capsys):
        code = main(["capture", "--duration", "1.2", "--limit", "10"])
        out = capsys.readouterr().out
        assert code == 0
        assert "CONNECT_REQ" in out
        assert "frames captured" in out

    def test_capture_pcap_roundtrips(self, capsys, tmp_path):
        from repro.telemetry import pcap_bytes, read_pcap

        path = tmp_path / "out.pcap"
        code = main(["capture", "--duration", "1.2", "--format", "pcap",
                     "--output", str(path)])
        out = capsys.readouterr().out
        assert code == 0 and str(path) in out
        frames = read_pcap(path)
        assert frames and pcap_bytes(frames) == path.read_bytes()
        assert all(f.crc_ok for f in frames)

    def test_capture_jsonl(self, capsys, tmp_path):
        from repro.telemetry.sinks import read_jsonl

        path = tmp_path / "out.jsonl"
        code = main(["capture", "--duration", "1.2", "--format", "jsonl",
                     "--output", str(path)])
        assert code == 0
        rows = read_jsonl(path)
        assert rows and {"time_us", "channel", "pdu"} <= rows[0].keys()

    def test_capture_scenario_pcap(self, capsys, tmp_path):
        from repro.telemetry import pcap_bytes, read_pcap

        path = tmp_path / "scen.pcap"
        code = main(["capture", "--format", "pcap", "--scenario", "a",
                     "--seed", "1100", "--output", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "scenario A" in out
        frames = read_pcap(path)
        assert frames and pcap_bytes(frames) == path.read_bytes()

    def test_metrics_consistent_across_jobs(self, capsys):
        code = main(["metrics", "payload", "--connections", "2",
                     "--jobs", "1"])
        serial = capsys.readouterr().out
        assert code == 0
        code = main(["metrics", "payload", "--connections", "2",
                     "--jobs", "4"])
        pooled = capsys.readouterr().out
        assert code == 0
        assert pooled == serial
        assert "medium.tx" in serial
        assert "inject.attempts" in serial
        assert "medium.collisions" in serial or "medium.rx" in serial

    def test_profile_prints_cumulative_hot_paths(self, capsys):
        code = main(["profile", "hop", "--connections", "1", "--top", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Ordered by: cumulative time" in out
        # The trial-execution chain must dominate cumulative time; its
        # entry point is the campaign dispatcher, run in-process.
        assert "run_unit_trial" in out

    def test_crack(self, capsys):
        code = main(["crack", "--seed", "90"])
        out = capsys.readouterr().out
        assert code == 0
        assert "TK (PIN) : 0" in out
        assert "LL session key" in out
