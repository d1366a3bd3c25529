"""Tests for the ``learnedwmp`` command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.core.model import LearnedWMP
from repro.core.serialization import load_model


class TestParser:
    def test_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_benchmark(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "not-a-benchmark"])

    def test_train_requires_output(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "tpcc"])


class TestGenerate:
    def test_writes_json_summary(self, tmp_path, capsys):
        output = tmp_path / "log.json"
        exit_code = main(
            ["generate", "tpcc", "--queries", "120", "--seed", "3", "--output", str(output)]
        )
        assert exit_code == 0
        payload = json.loads(output.read_text())
        assert len(payload) == 120
        assert {"sql", "actual_memory_mb", "optimizer_estimate_mb", "partition"} <= set(
            payload[0]
        )
        partitions = {record["partition"] for record in payload}
        assert partitions == {"train", "test"}

    def test_prints_to_stdout_without_output(self, capsys):
        exit_code = main(["generate", "tpcc", "--queries", "40", "--seed", "3"])
        assert exit_code == 0
        captured = capsys.readouterr().out
        assert len(json.loads(captured)) == 40


class TestTrainAndEvaluate:
    def test_round_trip(self, tmp_path, capsys):
        model_path = tmp_path / "model.pkl"
        exit_code = main(
            [
                "train",
                "tpcc",
                "--queries",
                "400",
                "--regressor",
                "xgb",
                "--templates",
                "12",
                "--seed",
                "5",
                "--fast",
                "--output",
                str(model_path),
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "holdout RMSE" in out
        assert model_path.exists()
        assert isinstance(load_model(model_path), LearnedWMP)

        exit_code = main(
            [
                "evaluate",
                str(model_path),
                "tpcc",
                "--queries",
                "200",
                "--seed",
                "11",
                "--compare-dbms",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "MAPE" in out
        assert "DBMS heuristic RMSE" in out


class TestServeAndLoadtest:
    def test_serve_replays_traffic_and_prints_telemetry(self, capsys):
        exit_code = main(
            [
                "serve",
                "--benchmark",
                "tpcc",
                "--queries",
                "200",
                "--requests",
                "40",
                "--qps",
                "500",
                "--seed",
                "3",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "cache hit rate" in out

    def test_loadtest_reports_and_writes_json(self, tmp_path, capsys):
        output = tmp_path / "BENCH_serving.json"
        exit_code = main(
            [
                "loadtest",
                "--benchmark",
                "tpcc",
                "--queries",
                "200",
                "--requests",
                "60",
                "--qps",
                "400",
                "--seed",
                "3",
                "--compare-naive",
                "--output",
                str(output),
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "latency p99" in out
        assert "naive loop" in out
        payload = json.loads(output.read_text())
        assert payload["n_requests"] == 60
        assert payload["n_errors"] == 0
        assert "cache_hit_rate" in payload and "naive_qps" in payload
        assert "shards" not in payload
        # The parity check ran against the served model: served decisions
        # match the direct model exactly.
        assert payload["parity_max_delta_mb"] == 0.0

    def test_loadtest_with_deadline_reports_misses(self, tmp_path, capsys):
        output = tmp_path / "bench_deadline.json"
        exit_code = main(
            [
                "loadtest",
                "--benchmark",
                "tpcc",
                "--queries",
                "200",
                "--requests",
                "40",
                "--qps",
                "400",
                "--seed",
                "3",
                "--deadline-ms",
                "2000",
                "--output",
                str(output),
            ]
        )
        assert exit_code == 0
        payload = json.loads(output.read_text())
        # The report always carries the deadline counters; with a generous
        # 2 s budget on tiny traffic nothing should have been shed.
        assert payload["deadline_ms"] == 2000
        assert payload["shed_requests"] == 0
        assert "deadline_misses" in payload

    def test_loadtest_with_saved_model(self, tmp_path, capsys):
        model_path = tmp_path / "model.pkl"
        main(
            [
                "train",
                "tpcc",
                "--queries",
                "300",
                "--regressor",
                "ridge",
                "--templates",
                "8",
                "--seed",
                "5",
                "--fast",
                "--output",
                str(model_path),
            ]
        )
        capsys.readouterr()
        exit_code = main(
            [
                "loadtest",
                "--benchmark",
                "tpcc",
                "--model",
                str(model_path),
                "--queries",
                "200",
                "--requests",
                "30",
                "--qps",
                "300",
                "--seed",
                "5",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "loaded model" in out
        assert "throughput" in out


class TestLoadtestScenario:
    def test_missing_file_exits_2_with_one_line_error(self, capsys):
        exit_code = main(["loadtest", "--scenario", "/nonexistent/traffic.toml"])
        assert exit_code == 2
        err = capsys.readouterr().err
        assert "cannot read scenario file" in err
        # One actionable line on stderr, no traceback.
        assert err.strip().count("\n") == 0
        assert "Traceback" not in err

    def test_invalid_config_exits_2_with_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "bad.toml"
        path.write_text('[scenario]\nname = "broken"\nduration_s = 1.0\n')
        exit_code = main(["loadtest", "--scenario", str(path)])
        assert exit_code == 2
        err = capsys.readouterr().err
        assert "tenants" in err
        assert err.strip().count("\n") == 0
        assert "Traceback" not in err

    def test_scenario_run_writes_sectioned_json(self, tmp_path, capsys):
        path = tmp_path / "mini.toml"
        path.write_text(
            "[scenario]\n"
            'name = "mini"\n'
            "seed = 5\n"
            "duration_s = 0.5\n"
            "[sources.tpcc]\n"
            "n_queries = 40\n"
            "batch_size = 5\n"
            "[[tenants]]\n"
            'name = "solo"\n'
            "mix = { tpcc = 1.0 }\n"
            "deadline_ms = 2000.0\n"
            "[tenants.arrival]\n"
            'shape = "steady"\n'
            "qps = 20.0\n"
        )
        output = tmp_path / "bench.json"
        exit_code = main(
            [
                "loadtest",
                "--scenario",
                str(path),
                "--output",
                str(output),
                "--section",
                "scenario_mini",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "scenario 'mini' (seed 5)" in out
        assert "tenant solo" in out
        payload = json.loads(output.read_text())["scenario_mini"]
        assert payload["scenario"] == "mini"
        assert payload["seed"] == 5
        assert payload["n_requests"] == 10  # steady 20 qps for 0.5 s
        assert payload["tenants"]["solo"]["n_requests"] == 10
        assert payload["tenants"]["solo"]["deadline_misses"] == 0


class TestFigures:
    def test_lists_available_figures(self, capsys):
        exit_code = main(["figures"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "figure4" in out and "figure11" in out

    def test_rejects_unknown_figure(self, capsys):
        exit_code = main(["figures", "figure99"])
        assert exit_code == 2
        assert "unknown figures" in capsys.readouterr().err
