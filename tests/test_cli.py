"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.graph.io import load_npz


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate", "--output", "g.npz"])
        assert args.kind == "rmat"
        assert args.scale == 16

    def test_bfs_option_flags(self):
        args = build_parser().parse_args(
            ["bfs", "--scale", "12", "--no-direction-optimization", "--uniquify"]
        )
        assert args.no_direction_optimization
        assert args.uniquify

    def test_npz_and_scale_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bfs", "--npz", "x.npz", "--scale", "12"])


class TestCommands:
    def test_generate_writes_loadable_npz(self, tmp_path, capsys):
        out = tmp_path / "graph.npz"
        code = main(["generate", "--kind", "rmat", "--scale", "10", "--output", str(out)])
        assert code == 0
        edges = load_npz(out)
        assert edges.num_vertices == 1024
        assert "wrote" in capsys.readouterr().out

    def test_generate_friendster(self, tmp_path):
        out = tmp_path / "fr.npz"
        assert main(["generate", "--kind", "friendster", "--scale", "11", "--output", str(out)]) == 0
        assert load_npz(out).num_vertices == 2048

    def test_bfs_on_generated_graph(self, capsys):
        code = main(
            [
                "bfs",
                "--scale",
                "11",
                "--layout",
                "2x1x2",
                "--threshold",
                "32",
                "--sources",
                "3",
                "--validate",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "geometric mean" in out
        assert "validated" in out

    def test_bfs_explicit_source_and_npz(self, tmp_path, capsys):
        out = tmp_path / "g.npz"
        main(["generate", "--scale", "10", "--output", str(out)])
        code = main(["bfs", "--npz", str(out), "--source", "0", "--layout", "1x1x2"])
        assert code == 0
        assert "source" in capsys.readouterr().out

    def test_bfs_without_direction_optimization(self, capsys):
        code = main(["bfs", "--scale", "10", "--no-direction-optimization", "--sources", "2"])
        assert code == 0
        assert "options plain+BR" in capsys.readouterr().out

    def test_census_prints_table_and_suggestion(self, capsys):
        code = main(["census", "--scale", "11", "--gpus", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "delegates%" in out
        assert "suggested threshold" in out


class TestNewSubcommandsAndJson:
    def test_bfs_parents_algorithm_validates(self, capsys):
        code = main(
            [
                "bfs",
                "--scale",
                "10",
                "--layout",
                "2x1x2",
                "--algorithm",
                "parents",
                "--sources",
                "2",
                "--validate",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "algorithm parents" in out
        assert "validated" in out

    def test_bfs_json_output(self, capsys):
        import json

        code = main(
            ["bfs", "--scale", "10", "--layout", "2x1x2", "--sources", "3", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["algorithm"] == "levels"
        assert payload["graph"]["vertices"] == 1024
        assert len(payload["runs"]) == 3
        assert {"runs", "reported", "skipped"} <= set(payload["campaign"])
        for run in payload["runs"]:
            assert {"source", "gteps", "iterations", "visited"} <= set(run)

    def test_components_subcommand(self, capsys):
        code = main(["components", "--scale", "10", "--layout", "2x1x2", "--validate"])
        assert code == 0
        out = capsys.readouterr().out
        assert "components:" in out
        assert "union-find" in out

    def test_components_json(self, capsys):
        import json

        code = main(["components", "--scale", "10", "--layout", "2x1x2", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"]["algorithm"] == "components"
        assert payload["result"]["components"] >= 1

    def test_census_json(self, capsys):
        import json

        code = main(["census", "--scale", "10", "--gpus", "4", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["suggested_threshold"] >= 1
        assert all("threshold" in row for row in payload["rows"])


class TestUsageErrors:
    """Bad user input ends in one ``error:`` line and exit code 2 — never a
    traceback.  The ranges themselves live in the program constructors."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["bfs", "--source", "99999"],
            ["sssp", "--weights", "3", "--source", "99999"],
            ["sssp", "--weights", "3", "--delta", "nan"],
            ["sssp", "--weights", "3", "--delta", "-1"],
            ["pagerank", "--damping", "1.5"],
            ["pagerank", "--iterations", "0"],
            ["pagerank", "--eps", "0"],
            ["serve", "bench", "--program", "khop", "--max-hops", "-1"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_bad_input_exits_2_with_one_error_line(self, argv, capsys):
        cut = 2 if argv[0] == "serve" else 1
        code = main([*argv[:cut], "--scale", "9", "--layout", "1x1x2", *argv[cut:]])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["bfs", "--layout", "2x0x2"],
            ["build", "--layout", "2x0x2", "--scale", "8", "--out", "{tmp}/store"],
            ["mutate", "--layout", "1x1x0", "--scale", "8"],
            ["census", "--gpus", "0", "--scale", "8"],
            ["serve", "bench", "--batch-size", "0", "--scale", "8"],
            ["serve", "bench", "--cache-size", "-1", "--scale", "8"],
            ["bench", "run", "--scenario", "nope", "--output", "{tmp}/b.json"],
            ["bench", "run", "--scenario", "rmat14-khop3", "--repeats", "0",
             "--output", "{tmp}/b.json"],
            ["bfs", "--sources", "-1", "--scale", "8"],
            ["generate", "--scale", "-1", "--output", "{tmp}/g.npz"],
            ["bfs", "--npz", "{tmp}/missing.npz"],
            ["bfs", "--store", "{tmp}/missingdir"],
        ],
        ids=lambda argv: " ".join(argv).replace("{tmp}/", ""),
    )
    def test_bad_input_at_entry_exits_2(self, argv, tmp_path, capsys):
        """Inputs no program constructor sees are checked where they enter."""
        code = main([arg.replace("{tmp}", str(tmp_path)) for arg in argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert not list(tmp_path.iterdir())  # nothing was written


class TestTracing:
    def test_components_accepts_trace(self, tmp_path, capsys):
        """Every program command takes the shared block, ``--trace`` included."""
        from repro.obs import load_trace

        path = tmp_path / "components.trace.json"
        code = main(
            ["components", "--scale", "9", "--layout", "1x1x2", "--trace", str(path)]
        )
        assert code == 0
        assert "components:" in capsys.readouterr().out
        assert ("engine", "traversal") in {(e["cat"], e["name"]) for e in load_trace(path)}

    def test_bfs_trace_writes_chrome_trace(self, tmp_path, capsys):
        import json

        from repro.obs import NULL_TRACER, get_tracer, load_trace

        path = tmp_path / "bfs.trace.json"
        code = main(
            ["bfs", "--scale", "10", "--layout", "2x1x2", "--source", "1",
             "--trace", str(path)]
        )
        assert code == 0
        assert get_tracer() is NULL_TRACER  # restored after the command
        assert "trace:" in capsys.readouterr().err
        payload = json.loads(path.read_text())
        assert isinstance(payload["traceEvents"], list)
        events = load_trace(path)
        names = {(e["cat"], e["name"]) for e in events}
        assert ("engine", "traversal") in names
        assert ("engine", "super-step") in names
        assert ("exec", "kernels") in names

    def test_trace_env_var_fallback(self, tmp_path, monkeypatch):
        path = tmp_path / "env.trace.jsonl"
        monkeypatch.setenv("REPRO_TRACE", str(path))
        code = main(["bfs", "--scale", "10", "--layout", "2x1x2", "--source", "1"])
        assert code == 0
        lines = [line for line in path.read_text().splitlines() if line.strip()]
        assert lines  # JSONL: one event per line
        import json

        assert all("name" in json.loads(line) for line in lines)

    def test_trace_summarize(self, tmp_path, capsys):
        import json

        path = tmp_path / "t.trace.json"
        assert main(
            ["bfs", "--scale", "10", "--layout", "2x1x2", "--source", "1",
             "--trace", str(path)]
        ) == 0
        capsys.readouterr()
        assert main(["trace", "summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "engine/traversal" in out
        assert main(["trace", "summarize", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["events"] > 0
        assert "engine/traversal" in payload["spans"]

    def test_trace_summarize_missing_file(self, tmp_path, capsys):
        assert main(["trace", "summarize", str(tmp_path / "nope.json")]) == 2
        assert "error" in capsys.readouterr().err

    def test_serve_bench_prom_export(self, tmp_path, capsys):
        prom = tmp_path / "serve.prom"
        code = main(
            ["serve", "bench", "--scale", "10", "--layout", "2x1x2",
             "--queries", "32", "--no-baseline", "--prom", str(prom), "--json"]
        )
        assert code == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        assert payload["batched"]["service"]["queries"] == 32
        text = prom.read_text()
        assert "repro_service_queries 32" in text
        assert text.endswith("\n")

    def test_traced_run_matches_untraced(self, tmp_path, capsys):
        """Tracing must not change the traversal's JSON-reported results."""
        import json

        argv = ["bfs", "--scale", "10", "--layout", "2x1x2", "--source", "1", "--json"]
        assert main(argv) == 0
        untraced = json.loads(capsys.readouterr().out)
        assert main(argv + ["--trace", str(tmp_path / "t.json")]) == 0
        traced = json.loads(capsys.readouterr().out)
        for run_a, run_b in zip(untraced["runs"], traced["runs"]):
            assert run_a["visited"] == run_b["visited"]
            assert run_a["iterations"] == run_b["iterations"]
