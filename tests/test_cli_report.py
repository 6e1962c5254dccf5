"""CLI and report generator tests."""

import pytest

from repro.cli import main, parse_graph_spec
from repro.errors import ReproError


class TestSpecParser:
    def test_positional(self):
        g = parse_graph_spec("ring:8")
        assert g.n == 8

    def test_multiple_positional(self):
        g = parse_graph_spec("necklace:5,3")
        assert g.n == 36

    def test_keyword(self):
        g = parse_graph_spec("random:10,extra_edges=4,seed=2")
        assert g.n == 10
        assert g.num_edges == 13

    def test_no_args(self):
        with pytest.raises(TypeError):
            parse_graph_spec("ring")  # ring requires n

    def test_unknown_generator(self):
        with pytest.raises(ReproError):
            parse_graph_spec("mystery:4")

    def test_json_file(self, tmp_path):
        from repro.graphs import lollipop, to_json

        path = tmp_path / "g.json"
        path.write_text(to_json(lollipop(4, 2)))
        g = parse_graph_spec(f"@{path}")
        assert g.n == 6

    def test_whitespace_tolerant(self):
        g = parse_graph_spec("necklace: 4, 2")
        assert g.n == 27


class TestCommands:
    def test_index_feasible(self, capsys):
        assert main(["index", "necklace:4,2"]) == 0
        out = capsys.readouterr().out
        assert "phi = 2" in out

    def test_index_infeasible(self, capsys):
        assert main(["index", "ring:6"]) == 1
        assert "INFEASIBLE" in capsys.readouterr().out

    def test_elect(self, capsys):
        assert main(["elect", "gadget-ring:6"]) == 0
        out = capsys.readouterr().out
        assert "advice" in out and "elected node" in out

    def test_spectrum(self, capsys):
        assert main(["spectrum", "necklace:4,2"]) == 0
        out = capsys.readouterr().out
        assert "phi (minimum)" in out and "D+c^phi" in out

    def test_quotient_symmetric(self, capsys):
        assert main(["quotient", "hypercube:3"]) == 0
        out = capsys.readouterr().out
        assert "8 indistinguishable" in out

    def test_quotient_feasible(self, capsys):
        assert main(["quotient", "lollipop:4,2"]) == 0
        assert "discrete" in capsys.readouterr().out

    def test_error_exit_code(self, capsys):
        assert main(["index", "mystery:1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_report_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "report.md"
        assert main(["report", "--out", str(out_file)]) == 0
        text = out_file.read_text()
        assert "# repro experiment report" in text
        assert "Theorem 3.1" in text
        assert "Open question" in text


class TestCorpusAndStreamingSweep:
    def test_corpus_list(self, capsys):
        assert main(["corpus", "list"]) == 0
        out = capsys.readouterr().out
        for family in ("tori", "circulants", "lifts", "vertex-transitive"):
            assert family in out

    def test_corpus_emit(self, tmp_path, capsys):
        import json

        path = tmp_path / "corpus.jsonl"
        assert main(["corpus", "emit", "hypercubes:3,seed=1,min_dim=2,max_dim=2",
                     "--out", str(path)]) == 0
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        entry = json.loads(lines[0])
        assert entry["name"].startswith("hypercubes-s1-00000")
        assert len(entry["graph"]["edges"]) == 4  # the 2-cube

    def test_corpus_emit_roundtrips_through_graph_spec(self, tmp_path):
        import json

        from repro.cli import parse_graph_spec

        path = tmp_path / "corpus.jsonl"
        assert main(["corpus", "emit", "random-trees:2,seed=4",
                     "--out", str(path)]) == 0
        entry = json.loads(path.read_text().splitlines()[0])
        graph_file = tmp_path / "g.json"
        graph_file.write_text(json.dumps(entry["graph"]))
        g = parse_graph_spec(f"@{graph_file}")
        assert g.n == entry["graph"]["n"]

    def test_sweep_family_table(self, capsys):
        assert main(["sweep", "--corpus", "tori:3,seed=2", "--task",
                     "index"]) == 0
        out = capsys.readouterr().out
        assert "feasible" in out and "tori-s2-00000" in out

    def test_sweep_out_and_resume(self, tmp_path, capsys):
        path = str(tmp_path / "store.sqlite")
        spec = "caterpillars:8,seed=3"

        def exported():
            out = tmp_path / "export.jsonl"
            assert main(["warehouse", "export", path, "sweep", str(out)]) == 0
            return out.read_bytes()

        assert main(["sweep", "--corpus", spec, "--task", "index",
                     "--out", path]) == 0
        assert "8 records appended" in capsys.readouterr().out
        first = exported()
        assert first.count(b"\n") == 8
        # resume over a complete store is a no-op and keeps the bytes
        assert main(["sweep", "--corpus", spec, "--task", "index",
                     "--out", path, "--resume"]) == 0
        assert "0 records appended" in capsys.readouterr().out
        assert exported() == first

    def test_sweep_out_refuses_a_jsonl_path(self, tmp_path, capsys):
        path = tmp_path / "store.jsonl"
        assert main(["sweep", "--corpus", "tori:2", "--task", "index",
                     "--out", str(path)]) == 2
        captured = capsys.readouterr()
        assert "repro warehouse export" in captured.err
        assert "task =" not in captured.out
        assert not path.exists()

    def test_resume_without_out_is_an_error(self, capsys):
        assert main(["sweep", "--corpus", "tori:2", "--resume"]) == 2
        assert "--resume requires --out" in capsys.readouterr().err

    def test_json_and_out_are_mutually_exclusive(self, tmp_path, capsys):
        assert main(["sweep", "--corpus", "tori:2",
                     "--out", str(tmp_path / "a.jsonl"),
                     "--json", str(tmp_path / "b.jsonl")]) == 2
        assert "mutually exclusive" in capsys.readouterr().err


class TestReportContent:
    @pytest.fixture(scope="class")
    def report(self):
        from repro.analysis.report import generate_report

        return generate_report()

    def test_has_all_sections(self, report):
        for heading in (
            "Theorem 3.1",
            "Headline spectrum",
            "Lower bounds",
            "Open question",
        ):
            assert heading in report

    def test_markdown_tables_present(self, report):
        assert report.count("|---") >= 5
