"""Tests for the command-line interface."""

from __future__ import annotations

import shutil

import pytest

from repro.cli import main
from repro.graph import load_dataset, write_edgelist


def test_datasets_command(capsys):
    assert main(["datasets", "--scale", "0.2"]) == 0
    output = capsys.readouterr().out
    assert "LastFM-Asia" in output
    assert "Synthetic" in output


def test_summarize_dataset(capsys):
    code = main(
        ["summarize", "--dataset", "caida", "--scale", "0.2", "--ratio", "0.5", "--targets", "0,1"]
    )
    assert code == 0
    output = capsys.readouterr().out
    assert "budget met      True" in output


def test_summarize_ssumm(capsys):
    assert main(["summarize", "--dataset", "caida", "--scale", "0.2", "--method", "ssumm"]) == 0
    assert "summary" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--targets", "99999"], "target node out of range"),
        (["--targets", "1,x"], "--targets must be comma-separated node ids"),
        (["--ratio", "0"], "compression_ratio must be positive"),
        (["--alpha", "0.5"], "alpha must be >= 1"),
    ],
)
def test_summarize_rejects_bad_input(capsys, flags, message):
    code = main(["summarize", "--dataset", "lastfm_asia", "--scale", "0.12", *flags])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_summarize_from_file_with_output(tmp_path, capsys):
    graph = load_dataset("lastfm_asia", scale=0.2, seed=0).graph
    edge_path = tmp_path / "graph.txt"
    write_edgelist(graph, edge_path)
    out_path = tmp_path / "summary.txt"
    code = main(
        ["summarize", "--input", str(edge_path), "--ratio", "0.6", "--output", str(out_path)]
    )
    assert code == 0
    assert out_path.exists()
    assert "saved" in capsys.readouterr().out


@pytest.mark.parametrize("query_type", ["rwr", "hop", "php"])
def test_query_types(query_type, capsys):
    code = main(
        ["query", "--dataset", "caida", "--scale", "0.2", "--type", query_type, "--node", "3"]
    )
    assert code == 0
    assert query_type.upper() in capsys.readouterr().out


def test_query_with_summary_comparison(capsys):
    code = main(
        [
            "query",
            "--dataset",
            "caida",
            "--scale",
            "0.2",
            "--node",
            "0",
            "--compare-summary",
            "--ratio",
            "0.6",
        ]
    )
    assert code == 0
    output = capsys.readouterr().out
    assert "SMAPE" in output and "Spearman" in output


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--ratio", "0"], "compression_ratio must be positive"),
        (["--alpha", "0.5"], "alpha must be >= 1"),
    ],
)
def test_query_compare_summary_rejects_bad_input(capsys, flags, message):
    code = main(
        ["query", "--dataset", "lastfm_asia", "--scale", "0.12", "--node", "0",
         "--compare-summary", *flags]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert "Traceback" not in captured.err
    assert captured.err.count("\n") == 1 and not captured.out


def test_query_node_out_of_range():
    assert main(["query", "--dataset", "caida", "--scale", "0.2", "--node", "999999"]) == 2


def test_experiment_command_smoke(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "small")
    assert main(["experiment", "ablation-threshold"]) == 0
    assert "variant" in capsys.readouterr().out


def test_experiment_command_with_workers(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "small")
    monkeypatch.setenv("REPRO_DATASET_SCALE", "0.1")
    monkeypatch.setenv("REPRO_QUERIES", "2")
    assert main(["experiment", "fig9", "--workers", "2"]) == 0
    assert "alpha" in capsys.readouterr().out


def test_experiment_workers_ignored_for_sequential_runner(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "small")
    assert main(["experiment", "ablation-threshold", "--workers", "2"]) == 0
    captured = capsys.readouterr()
    assert "--workers ignored" in captured.err


def test_experiment_workers_flag_leaves_env_default_live(capsys, monkeypatch):
    """Without an explicit --workers the CLI must not override the
    REPRO_WORKERS environment default read by ExperimentScale."""
    from repro.cli import build_parser

    assert build_parser().parse_args(["experiment", "fig9"]).workers is None
    # And a sequential runner stays quiet when only the env var is set.
    monkeypatch.setenv("REPRO_SCALE", "small")
    monkeypatch.setenv("REPRO_WORKERS", "2")
    assert main(["experiment", "ablation-threshold"]) == 0
    assert "--workers ignored" not in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["1", "2"])
def test_serve_command_verifies_answers(capsys, workers):
    code = main(
        [
            "serve",
            "--dataset",
            "lastfm_asia",
            "--scale",
            "0.12",
            "--queries",
            "12",
            "--workers",
            workers,
            "--machines",
            "2",
        ]
    )
    assert code == 0
    output = capsys.readouterr().out
    assert "12/12 answers byte-identical" in output
    assert "latency" in output and "batches" in output


@pytest.mark.parametrize(
    "flags",
    [
        ["--queries", "0"],
        ["--types", ","],
        ["--types", "rwr,pagerank"],
    ],
)
def test_serve_command_rejects_degenerate_flags(capsys, flags):
    code = main(["serve", "--dataset", "lastfm_asia", "--scale", "0.12", *flags])
    assert code == 2
    assert "error:" in capsys.readouterr().err


class TestServeNetCommand:
    def test_multi_tenant_demo_verifies_answers(self, capsys):
        code = main(
            [
                "serve-net",
                "--dataset",
                "lastfm_asia",
                "--scale",
                "0.12",
                "--tenants",
                "2",
                "--queries",
                "8",
                "--workers",
                "1",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "16/16 answers byte-identical" in output  # 8 queries x 2 tenants
        assert "tenant0" in output and "tenant1" in output
        assert "balanced=True" in output
        assert "hedge=off," in output

    def test_summary_line_names_the_hedge_deadline(self, capsys):
        code = main(
            [
                "serve-net",
                "--dataset",
                "lastfm_asia",
                "--scale",
                "0.12",
                "--queries",
                "4",
                "--workers",
                "1",
                "--hedge-ms",
                "50",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "hedge=50ms," in output and "Nonems" not in output

    def test_kill_worker_chaos_still_byte_identical(self, capsys):
        code = main(
            [
                "serve-net",
                "--dataset",
                "lastfm_asia",
                "--scale",
                "0.12",
                "--tenants",
                "2",
                "--queries",
                "8",
                "--workers",
                "4",
                "--chaos",
                "kill-worker",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "SIGKILL worker" in output
        assert "byte-identical" in output and "error:" not in output

    @pytest.mark.parametrize(
        "flags",
        [
            ["--tenants", "0"],
            ["--queries", "0"],
            ["--chaos", "kill-worker", "--workers", "1"],
        ],
    )
    def test_rejects_degenerate_flags(self, capsys, flags):
        code = main(["serve-net", "--dataset", "lastfm_asia", "--scale", "0.12", *flags])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def _serve_state_dir(self, state_dir, capsys):
        flags = ["--dataset", "lastfm_asia", "--scale", "0.12", "--state-dir", str(state_dir)]
        code = main(["serve-net", *flags])
        lines = capsys.readouterr().err.strip().splitlines()
        assert code == 2
        assert len(lines) == 1 and lines[0].startswith("error:"), lines
        return lines[0]

    def test_garbage_manifest_is_one_error_line(self, tmp_path, capsys):
        (tmp_path / "MANIFEST.json").write_text("not json at all")
        assert "not valid JSON" in self._serve_state_dir(tmp_path, capsys)

    def test_machine_file_of_the_wrong_kind_is_one_error_line(self, tmp_path, capsys):
        from repro.distributed import build_summary_cluster
        from repro.graph import planted_partition
        from repro.resilience import HostState

        graph = planted_partition(60, 2, avg_degree_in=6.0, avg_degree_out=1.0, seed=3)
        cluster = build_summary_cluster(graph, 2, 0.5 * graph.size_in_bits())
        HostState(tmp_path).save_static_tenant("tenant0", cluster)
        tenant = tmp_path / "tenants" / "tenant0"
        shutil.copyfile(tenant / "graph.store", tenant / "machine-0000.store")
        assert "machine-0000.store" in self._serve_state_dir(tmp_path, capsys)


def test_net_client_unreachable_server_exits_2(capsys):
    code = main(["net-client", "--port", "1", "--stats"])
    assert code == 2
    assert "cannot reach" in capsys.readouterr().err


def test_serve_command_subgraph_source(capsys):
    code = main(
        [
            "serve",
            "--dataset",
            "caida",
            "--scale",
            "0.12",
            "--queries",
            "9",
            "--source",
            "subgraph",
            "--types",
            "rwr,hop",
        ]
    )
    assert code == 0
    assert "9/9 answers byte-identical" in capsys.readouterr().out


class TestConvertCommand:
    @pytest.fixture
    def text_summary(self, tmp_path):
        from repro.core import PegasusConfig, summarize
        from repro.core.summary_io import save_summary

        graph = load_dataset("caida", scale=0.05, seed=0).graph
        result = summarize(
            graph, compression_ratio=0.5, config=PegasusConfig(seed=0, t_max=3)
        )
        path = tmp_path / "summary.txt"
        save_summary(result.summary, path)
        return path

    def _dataset_args(self):
        return ["--dataset", "caida", "--scale", "0.05", "--seed", "0"]

    def test_summary_text_binary_text_cycle(self, text_summary, tmp_path, capsys):
        binary = tmp_path / "summary.store"
        back = tmp_path / "back.txt"
        assert main(
            ["convert", *self._dataset_args(), str(text_summary), str(binary), "--verify"]
        ) == 0
        assert "round trip OK" in capsys.readouterr().out
        assert main(["convert", str(binary), str(back), "--verify"]) == 0
        assert "round trip OK" in capsys.readouterr().out
        assert back.read_text() == text_summary.read_text()

    def test_graph_kind_both_directions(self, tmp_path, capsys):
        graph = load_dataset("caida", scale=0.05, seed=0).graph
        text = tmp_path / "g.txt"
        write_edgelist(graph, text)
        store = tmp_path / "g.store"
        back = tmp_path / "g2.txt"
        assert main(["convert", "--kind", "graph", str(text), str(store), "--verify"]) == 0
        assert main(["convert", "--kind", "graph", str(store), str(back), "--verify"]) == 0
        assert back.read_text() == text.read_text()
        assert "round trip OK" in capsys.readouterr().out

    def test_same_format_rejected(self, text_summary, tmp_path, capsys):
        code = main(
            ["convert", "--to", "text", str(text_summary), str(tmp_path / "out.txt")]
        )
        assert code != 0
        assert "already in the text format" in capsys.readouterr().err

    def test_missing_source_rejected(self, tmp_path, capsys):
        code = main(["convert", str(tmp_path / "nope.txt"), str(tmp_path / "out")])
        assert code != 0
        assert "cannot read" in capsys.readouterr().err

    def test_no_embed_graph_needs_dataset_on_way_back(self, text_summary, tmp_path):
        binary = tmp_path / "lean.store"
        back = tmp_path / "back.txt"
        assert main(
            [
                "convert",
                *self._dataset_args(),
                str(text_summary),
                str(binary),
                "--no-embed-graph",
            ]
        ) == 0
        assert main(
            ["convert", *self._dataset_args(), str(binary), str(back), "--verify"]
        ) == 0
        assert back.read_text() == text_summary.read_text()
