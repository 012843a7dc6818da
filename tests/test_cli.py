"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure9000"])

    def test_fig6_model_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig6", "--models", "resnet"])

    def test_defaults(self):
        args = build_parser().parse_args(["fig6"])
        assert args.bandwidth == 30.0
        assert "googlenet" in args.models

    def test_walk_switch_and_plan_cache_flags_are_gone(self, monkeypatch):
        for argv in (
            ["fig7", "--models", "googlenet", "--no-optimize"],
            ["metrics", "--plan-cache-dir", "/tmp/x"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
        import numpy as np

        from repro.nn.zoo import smallnet

        monkeypatch.setenv("REPRO_NO_OPTIMIZE", "1")
        network = smallnet().network
        network.forward(np.zeros(network.input_shape, dtype=np.float32))
        assert network.plan_for().forwards == 1

    @pytest.mark.parametrize(
        "command",
        [
            "fig6", "fig7", "table1", "fig8", "fig-accuracy", "ablation gpu",
            "demo", "metrics", "fleet", "serve", "campaign",
        ],
    )
    def test_backend_flag_is_gone(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(command.split() + ["--backend", "reference"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --backend" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--jobs 2", "--cache-dir X", "--no-cache"])
    @pytest.mark.parametrize(
        "command",
        ["fig6", "fig7", "table1", "fig8", "fig-accuracy", "ablation gpu", "campaign"],
    )
    def test_exec_flags_are_gone(self, command, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(command.split() + flag.split())
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # nothing simulated
        assert f"unrecognized arguments: {flag}" in captured.err

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("fleet", "--edges", "0"),
            ("fleet", "--sessions", "0"),
            ("fleet", "--requests", "0"),
            ("fleet", "--rate", "0"),
            ("fleet", "--rate", "nan"),
            ("fleet", "--skew", "-1"),
            ("fleet", "--reply-timeout", "0"),
            ("fleet", "--edge-memory-budget", "0"),
            ("fig8", "--max-points", "0"),
            ("fig6", "--bandwidth", "0"),
            ("fig-accuracy", "--bandwidths", "0"),
            ("serve", "--max-batch", "0"),
            ("serve", "--batch-timeout", "-0.5"),
            ("serve", "--think", "0"),
            ("serve", "--deadline", "0"),
            ("fig8", "--max-points", "-1"),
        ],
    )
    def test_out_of_range_number_is_a_usage_error(
        self, command, flag, value, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            main([command, flag, value])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # nothing simulated
        assert "Traceback" not in captured.err
        (line,) = [text for text in captured.err.splitlines() if "error:" in text]
        assert f"argument {flag}: must be" in line and value in line

    def test_zero_batch_timeout_is_a_value(self):
        """``batch_timeout_s >= 0`` is the library's rule: 0 cuts a batch
        from whatever is already queued."""
        args = build_parser().parse_args(["serve", "--batch-timeout", "0"])
        assert args.batch_timeout == 0.0


class TestCommands:
    def test_fig1(self, capsys):
        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "64x56x56" in out

    def test_fig6_smallnet_runs(self, capsys):
        # smallnet violates the paper's DNN-scale shape claims (offloading
        # a tiny net does not pay), so the CLI must report violations.
        code = main(["fig6", "--models", "smallnet"])
        out = capsys.readouterr()
        assert "smallnet" in out.out
        assert code == 1
        assert "SHAPE VIOLATIONS" in out.err

    def test_fig6_agenet_holds(self, capsys):
        assert main(["fig6", "--models", "agenet"]) == 0
        assert "all shape claims hold" in capsys.readouterr().out

    def test_fig8_with_max_points(self, capsys):
        # input / 1st_conv / 1st_pool suffice for all Fig. 8 claims.
        assert main(["fig8", "--models", "agenet", "--max-points", "3"]) == 0
        out = capsys.readouterr().out
        assert "1st_conv" in out
        assert "2nd_conv" not in out

    def test_table1_agenet(self, capsys):
        assert main(["table1", "--models", "agenet"]) == 0
        assert "VM synthesis" in capsys.readouterr().out

    def test_ablation_partition(self, capsys):
        assert main(["ablation", "partition"]) == 0
        assert "1st_pool" in capsys.readouterr().out

    def test_ablation_contention(self, capsys):
        assert main(["ablation", "contention"]) == 0
        assert "clients" in capsys.readouterr().out

    def test_ablation_placement(self, capsys):
        assert main(["ablation", "placement"]) == 0
        out = capsys.readouterr().out
        assert "edge" in out and "cloud" in out

    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "correct: True" in out

    @pytest.mark.parametrize(
        "command, spec",
        [
            ("fleet", "edge-0@abc"),  # seconds not a number
            ("fleet", "nosuch@1"),  # no such edge
            ("serve", "edge-0@1:x"),  # revive time not a number
        ],
    )
    def test_malformed_kill_is_a_usage_error(self, command, spec, capsys):
        assert main([command, "--sessions", "2", "--kill", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # nothing simulated, no report
        (line,) = captured.err.splitlines()
        assert "--kill" in line and repr(spec) in line

    def test_serve_deadline_is_a_request_slo(self, capsys):
        # A 1 ms SLO is shorter than any rear half: every request misses it,
        # and a miss is accounting, not a failure.
        assert main(["serve", "--sessions", "2", "--deadline", "0.001"]) == 0
        (line,) = [
            text
            for text in capsys.readouterr().out.splitlines()
            if text.startswith("serving:")
        ]
        items = int(line.split(" items")[0].rsplit(" ", 1)[1])
        assert line.endswith(f"deadline misses {items}")

    def test_former_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--former", "size-timeout"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # nothing simulated
        assert "unrecognized arguments: --former" in captured.err

    @pytest.mark.parametrize("index", ["99", "-1"])
    def test_split_index_out_of_range_is_a_usage_error(self, index, capsys):
        assert main(["serve", "--sessions", "2", "--split-index", index]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # nothing simulated, no report
        (line,) = captured.err.splitlines()
        assert line.startswith("error: --split-index")
        assert f"index {index} out of range 0..16" in line  # resnet-mini: 18 layers


class TestMetricsCli:
    def test_metrics_prometheus_output_parses(self, capsys):
        from tests.prometheus import parse_prometheus_text

        assert main(["metrics"]) == 0
        parsed = parse_prometheus_text(capsys.readouterr().out)
        assert parsed["types"]["server_executions_total"] == "counter"
        key = ("server_executions_total", (("server", "edge-1"),))
        assert parsed["samples"][key] == 1

    def test_metrics_json_format(self, capsys):
        import json

        assert main(["metrics", "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["metrics"]["server_executions_total"]["kind"] == "counter"

    def test_metrics_trace_out(self, tmp_path, capsys):
        import json

        trace = tmp_path / "trace.json"
        assert main(["metrics", "--trace-out", str(trace)]) == 0
        with open(trace, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        assert any(e["ph"] == "X" for e in document["traceEvents"])

    def test_metrics_out_writes_prometheus_file(self, tmp_path, capsys):
        from tests.prometheus import parse_prometheus_text

        out_file = tmp_path / "telemetry.prom"
        assert main(["fig6", "--models", "agenet", "--metrics-out", str(out_file)]) == 0
        parsed = parse_prometheus_text(out_file.read_text(encoding="utf-8"))
        assert any(
            name == "sessions_total" for name, _ in parsed["samples"]
        )
        assert "metrics written to" in capsys.readouterr().out

    def test_metrics_out_json_extension(self, tmp_path, capsys):
        import json

        out_file = tmp_path / "telemetry.json"
        assert main(["demo", "--metrics-out", str(out_file)]) == 0
        document = json.loads(out_file.read_text(encoding="utf-8"))
        assert "sim_events_dispatched_total" in document["metrics"]
