import csv
import json

from treepack.cli import main
from treepack.graph import build_graph, complete_graph, write_edge_list
from treepack.randgraph import sample_gnp


def write_graph(tmp_path, graph, name="graph.txt"):
    path = tmp_path / name
    write_edge_list(graph, str(path))
    return str(path)


class TestPack:
    def test_text_output(self, tmp_path, capsys):
        path = write_graph(tmp_path, complete_graph(4))
        assert main(["pack", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "sigma 2"
        assert lines[1].startswith("tree 1: ")
        assert lines[2].startswith("tree 2: ")
        assert lines[3] == "certificate:"
        # K4 at level 3 fails on density: the singleton partition.
        assert lines[4:] == ["0", "1", "2", "3"]

    def test_json_output(self, tmp_path, capsys):
        path = write_graph(tmp_path, complete_graph(4))
        assert main(["pack", path, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"sigma", "trees", "certificate"}
        assert doc["sigma"] == 2
        assert len(doc["trees"]) == 2
        for tree in doc["trees"]:
            assert len(tree) == 3
            assert all(len(edge) == 2 for edge in tree)
        assert doc["certificate"] == [[0], [1], [2], [3]]

    def test_disconnected_certificate(self, tmp_path, capsys):
        graph = build_graph(4, [(0, 1), (2, 3)])
        path = write_graph(tmp_path, graph)
        assert main(["pack", path, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["sigma"] == 0
        assert doc["trees"] == []
        assert doc["certificate"] == [[0, 1], [2, 3]]

    def test_missing_file(self, capsys):
        assert main(["pack", "/nonexistent/graph.txt"]) == 1
        assert "error:" in capsys.readouterr().err


class TestVerify:
    def test_ok(self, tmp_path, capsys):
        path = write_graph(tmp_path, complete_graph(4))
        assert main(["verify", path, "--k", "2"]) == 0
        assert capsys.readouterr().out.strip() == "OK"

    def test_violation_printed(self, tmp_path, capsys):
        path = write_graph(tmp_path, complete_graph(4))
        assert main(["verify", path, "--k", "3"]) == 0
        out = capsys.readouterr().out
        assert "violation at k=3" in out
        blocks = out.splitlines()[1:]
        # The printed blocks form a partition of {0..3}.
        members = sorted(int(v) for line in blocks for v in line.split())
        assert members == [0, 1, 2, 3]
        assert len(blocks) >= 2

    def test_too_large_rejected(self, tmp_path, capsys):
        path = write_graph(tmp_path, complete_graph(13))
        for k in ("1", "0"):
            assert main(["verify", path, "--k", k]) == 1
            assert "n <= 12" in capsys.readouterr().err


class TestGen:
    def test_gnp_stdout_matches_library(self, tmp_path, capsys):
        assert main(["gen", "--n", "8", "--p", "0.5", "--seed", "42"]) == 0
        out = capsys.readouterr().out
        graph = sample_gnp(8, 0.5, 42)
        expected = f"{graph.n} {graph.m}\n" + "".join(
            f"{u} {v}\n" for u, v in graph.edge_list
        )
        assert out == expected

    def test_gnp_file_round_trip(self, tmp_path, capsys):
        out_file = tmp_path / "g.txt"
        assert main(["gen", "--n", "8", "--p", "0.5", "--seed", "42",
                     "--out", str(out_file)]) == 0
        assert main(["pack", str(out_file)]) == 0
        assert capsys.readouterr().out.startswith("sigma ")

    def test_process_emits_all_pairs(self, capsys):
        assert main(["gen", "--process", "--n", "4", "--seed", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 6
        pairs = {tuple(map(int, line.split())) for line in lines}
        assert pairs == {(u, v) for u in range(4) for v in range(u + 1, 4)}

    def test_process_and_p_conflict(self, capsys):
        assert main(["gen", "--process", "--n", "4", "--p", "0.5",
                     "--seed", "1"]) == 1
        assert "mutually exclusive" in capsys.readouterr().err

    def test_needs_p_or_process(self, capsys):
        assert main(["gen", "--n", "4", "--seed", "1"]) == 1
        assert "error:" in capsys.readouterr().err


class TestStats:
    def test_complete_graph_record(self, tmp_path, capsys):
        path = write_graph(tmp_path, complete_graph(6))
        assert main(["stats", path, "--p", "1.0"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["n"] == 6
        assert record["delta"] == 5
        assert record["max_degree"] == 5
        assert record["small_count"] == 0
        assert record["separation_ok"] is True
        assert record["max_degree_ok"] is True
        assert record["min_degree_ok"] is True
        assert record["edges_ok"] is True
        assert record["catlin_ok"] is True

    def test_bad_p_rejected(self, tmp_path, capsys):
        path = write_graph(tmp_path, complete_graph(6))
        assert main(["stats", path, "--p", "0"]) == 1
        assert "error:" in capsys.readouterr().err


class TestExperiment:
    def test_flags_only_run(self, tmp_path, capsys):
        out = tmp_path / "camp"
        assert main([
            "experiment", "equality", "--n", "8", "--p", "0.5",
            "--trials", "2", "--seed", "3", "--out", str(out), "--sequential",
        ]) == 0
        assert "wrote" in capsys.readouterr().out
        for name in ("records.csv", "summary.csv", "summary.json", "plot.svg"):
            assert (out / name).exists()

    def test_config_file_with_override(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        out = tmp_path / "camp"
        cfg.write_text(
            f"n = 8\np = 0.5\ntrials = 5\nseed = 1\nout = {out}\nsequential = true\n"
        )
        assert main([
            "experiment", "equality", "--config", str(cfg), "--trials", "2",
        ]) == 0
        capsys.readouterr()
        with open(out / "records.csv") as fh:
            rows = list(csv.DictReader(fh))
        # CLI --trials overrides the file's 5.
        assert len(rows) == 2

    def test_hitting_kind(self, tmp_path, capsys):
        out = tmp_path / "camp"
        assert main([
            "experiment", "hitting", "--n", "10", "--k", "1",
            "--trials", "2", "--seed", "0", "--out", str(out), "--sequential",
        ]) == 0
        capsys.readouterr()
        with open(out / "records.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert "tau_sigma" in rows[0]

    def test_invalid_kind_rejected(self, capsys):
        try:
            main(["experiment", "bogus", "--n", "8"])
        except SystemExit as exc:
            assert exc.code != 0
        else:
            raise AssertionError("argparse should reject unknown kinds")
        capsys.readouterr()

    def test_missing_n_rejected(self, capsys):
        assert main(["experiment", "equality", "--trials", "1"]) == 1
        assert "no n values" in capsys.readouterr().err
