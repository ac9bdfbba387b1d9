"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiment_args(self):
        args = build_parser().parse_args(
            ["experiment", "fig9", "--scale", "0.01", "--queries", "2"]
        )
        assert args.id == "fig9"
        assert args.scale == 0.01
        assert args.queries == 2

    def test_query_args_defaults(self):
        args = build_parser().parse_args(["query"])
        assert args.dataset == "ca" and args.scheme == "NWC_STAR"

    def test_trace_args_defaults(self):
        args = build_parser().parse_args(["trace"])
        assert args.dataset == "ca" and args.scheme == "NWC_STAR"
        assert args.explain is False and args.jsonl is None
        assert args.metrics is None


class TestMain:
    def test_table3(self, capsys):
        assert main(["experiment", "table3"]) == 0
        out = capsys.readouterr().out
        assert "NWC*" in out and "SRR" in out

    def test_unknown_experiment(self, capsys):
        assert main(["experiment", "nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_table2_with_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "t2.csv"
        code = main(["experiment", "table2", "--scale", "0.004", "--csv", str(csv_path)])
        assert code == 0
        assert csv_path.exists()
        assert "cardinality" in csv_path.read_text()

    def test_single_query(self, capsys):
        code = main([
            "query", "--dataset", "gaussian", "--size", "2000",
            "--scheme", "NWC_PLUS", "-x", "5000", "-y", "5000",
            "--length", "500", "--width", "500", "-n", "4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "node accesses:" in out

    def test_single_knwc_query(self, capsys):
        code = main([
            "query", "--dataset", "gaussian", "--size", "2000",
            "-x", "5000", "-y", "5000", "--length", "500", "--width", "500",
            "-n", "3", "-k", "2", "-m", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "group" in out


class TestTrace:
    ARGS = [
        "trace", "--dataset", "uniform", "--size", "2000",
        "-x", "5000", "-y", "5000", "--length", "500", "--width", "500",
        "-n", "4",
    ]

    def test_trace_prints_span_tree(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "query:nwc" in out
        assert "search" in out
        assert "node_accesses=" in out

    def test_trace_explain_and_sinks(self, tmp_path, capsys):
        jsonl = tmp_path / "trace.jsonl"
        prom = tmp_path / "metrics.prom"
        code = main(self.ARGS + [
            "--explain", "--jsonl", str(jsonl), "--metrics", str(prom),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "optimization attribution" in out
        assert "srr_regions_shrunk" in out or "iwp_root_descents_avoided" in out
        import json
        record = json.loads(jsonl.read_text().splitlines()[0])
        assert record["name"] == "query:nwc"
        text = prom.read_text()
        assert 'nwc_queries_total{kind="nwc"} 1' in text

    def test_trace_metrics_json(self, tmp_path):
        out_json = tmp_path / "metrics.json"
        code = main(self.ARGS + ["--execution", "python",
                                 "--metrics", str(out_json)])
        assert code == 0
        import json
        data = json.loads(out_json.read_text())
        assert data["nwc_query_node_accesses"]["values"][""]["count"] == 1.0

    def test_trace_knwc(self, capsys):
        code = main(self.ARGS + ["-k", "2"])
        assert code == 0
        assert "query:knwc" in capsys.readouterr().out


class TestExperimentMetrics:
    def test_serial_experiment_writes_metrics(self, tmp_path, capsys):
        out_json = tmp_path / "exp.json"
        code = main(["experiment", "table2", "--scale", "0.004",
                     "--metrics", str(out_json)])
        assert code == 0
        import json
        data = json.loads(out_json.read_text())
        assert data["experiment_cells_total"]["values"][""] > 0


class TestErrorExitCodes:
    def test_invalid_query_parameters_exit_2(self, capsys):
        code = main([
            "query", "--dataset", "gaussian", "--size", "200", "-n", "0",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "\n" == err[err.index("\n"):]

    def test_corrupt_value_errors_exit_2(self, capsys):
        code = main([
            "query", "--dataset", "gaussian", "--size", "200",
            "--length", "-5",
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_deleted_execution_mode_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(TestTrace.ARGS + ["--execution", "numpy"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'numpy'" in err
        assert "python" in err and "columnar" in err


class TestResume:
    def test_resume_creates_checkpoint_and_skips_on_rerun(self, tmp_path, capsys):
        journal = tmp_path / "fig9.jsonl"
        argv = ["experiment", "fig9", "--scale", "0.002", "--queries", "1",
                "--resume", "--checkpoint", str(journal)]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert journal.exists()
        assert "(0 cells resumed)" in first.err
        cells = len(journal.read_text().splitlines())
        assert cells > 0

        assert main(argv) == 0
        second = capsys.readouterr()
        assert f"({cells} cells resumed)" in second.err
        # Resumed run prints the same table from journaled rows (only
        # the meta line mentioning resumed_cells may differ).
        def table(text):
            return [line for line in text.splitlines()
                    if "resumed_cells" not in line]

        assert table(second.out) == table(first.out)

    def test_resume_rejected_for_non_sweep_experiment(self, capsys):
        assert main(["experiment", "table3", "--resume"]) == 2
        assert "no parallel driver" in capsys.readouterr().err
