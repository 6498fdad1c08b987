import csv
import io
import json
from contextlib import redirect_stdout

import pytest

from radiolab.cli import main


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


class TestGen:
    def test_path(self, tmp_path):
        out = tmp_path / "p5.el"
        code, _ = run_cli("gen", "--family", "path", "--n", "5", "--out", str(out))
        assert code == 0
        assert out.read_text().splitlines()[0] == "5 4"

    def test_lbg36(self, tmp_path):
        out = tmp_path / "g36.el"
        code, _ = run_cli("gen", "--family", "lbG", "--n", "36", "--out", str(out))
        assert code == 0
        assert out.read_text().splitlines()[0] == "36 576"

    def test_lbg_rejects_non_square(self):
        code, _ = run_cli("gen", "--family", "lbG", "--n", "10")
        assert code == 2

    def test_pair_gadget_with_tail(self, tmp_path):
        out = tmp_path / "p4.el"
        code, _ = run_cli("gen", "--family", "pair", "--n", "4", "--tail", "3", "--out", str(out))
        assert code == 0
        assert out.read_text().splitlines()[0] == "18 23"  # 1 + 8 + 6 + 3 nodes, 4 + 4 + 12 + 3 edges

    @pytest.mark.parametrize("family,n", [
        ("path", "-3"), ("star", "-3"), ("grid", "0"), ("grid", "-4"), ("lbG", "-4"),
        ("pair", "0"),
    ])
    def test_rejects_bad_size(self, tmp_path, capsys, family, n):
        out = tmp_path / "bad.el"
        code, _ = run_cli("gen", "--family", family, "--n", n, "--out", str(out))
        assert code == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: ")

    def test_gen_deterministic(self, tmp_path):
        a, b = tmp_path / "a.el", tmp_path / "b.el"
        run_cli("gen", "--family", "gnp-connected", "--n", "20", "--p", "0.2",
                "--seed", "9", "--out", str(a))
        run_cli("gen", "--family", "gnp-connected", "--n", "20", "--p", "0.2",
                "--seed", "9", "--out", str(b))
        assert a.read_text() == b.read_text()


class TestRun:
    def test_fastsd_on_path(self, tmp_path):
        el = tmp_path / "p64.el"
        run_cli("gen", "--family", "path", "--n", "64", "--out", str(el))
        code, out = run_cli("run", str(el), "--scheme", "fastsd")
        assert code == 0
        record = json.loads(out)
        assert record["correct_outputs"] == 64

    def test_toprec_on_cycle(self, tmp_path):
        el = tmp_path / "c4.el"
        run_cli("gen", "--family", "cycle", "--n", "4", "--out", str(el))
        code, out = run_cli("run", str(el), "--scheme", "toprec")
        assert code == 0 and json.loads(out)["correct_outputs"] == 4

    def test_toprec_outputs_json_unchanged(self, tmp_path):
        """The shared edge tuple serialises exactly as the old edge list did."""
        el = tmp_path / "c4.el"
        run_cli("gen", "--family", "cycle", "--n", "4", "--out", str(el))
        code, out = run_cli("run", str(el), "--scheme", "toprec")
        assert code == 0
        edges = '"edges": [[[], [0]], [[], [1]], [[0], [0, 0]], [[0, 0], [1]]]'
        assert json.dumps(json.loads(out)["outputs"]) == (
            f'[{{{edges}, "self": []}}, {{{edges}, "self": [0]}}, '
            f'{{{edges}, "self": [0, 0]}}, {{{edges}, "self": [1]}}]'
        )

    @pytest.mark.parametrize("family", ["path", "cycle", "star", "lbG"])
    def test_toprec_output_laid_out_as_indent_2(self, tmp_path, family):
        """The edge tuple serialised once per run gives the bytes that
        `json.dumps(record, indent=2)` gives with every copy written out."""
        el = tmp_path / "g.el"
        run_cli("gen", "--family", family, "--n", "16" if family == "lbG" else "5", "--out", str(el))
        code, out = run_cli("run", str(el), "--scheme", "toprec")
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    def test_cd_option_rejected(self, tmp_path, capsys):
        """`run` has no `--cd`: nothing it prints reads the detection mode
        (`audit` runs under collision detection)."""
        el = tmp_path / "c4.el"
        run_cli("gen", "--family", "cycle", "--n", "4", "--out", str(el))
        with pytest.raises(SystemExit) as exc:
            run_cli("run", str(el), "--scheme", "compact", "--cd")
        assert exc.value.code == 2
        assert "unrecognized arguments: --cd" in capsys.readouterr().err

    def test_gather_bfs_is_not_a_scheme(self, tmp_path, capsys):
        """The gathering runs only as a stage of toprec."""
        el = tmp_path / "c4.el"
        run_cli("gen", "--family", "cycle", "--n", "4", "--out", str(el))
        with pytest.raises(SystemExit) as exc:
            run_cli("run", str(el), "--scheme", "gather-bfs")
        assert exc.value.code == 2
        assert "invalid choice: 'gather-bfs'" in capsys.readouterr().err

    def test_disconnected_rejected(self, tmp_path, capsys):
        el = tmp_path / "disc.el"
        el.write_text("4 2\n0 1\n2 3\n")
        code, _ = run_cli("run", str(el), "--scheme", "compact")
        assert code == 2
        assert capsys.readouterr().err.startswith("error: Disconnected")

    @pytest.mark.parametrize("scheme", ["compact", "general"])
    def test_empty_graph_exits_2(self, tmp_path, capsys, scheme):
        el = tmp_path / "empty.el"
        el.write_text("0 0\n")
        code, _ = run_cli("run", str(el), "--scheme", scheme)
        assert code == 2
        assert capsys.readouterr().err.startswith("error: InvalidParams")

    @pytest.mark.parametrize("value", ["abc", "-5"])
    def test_bad_round_cap_exits_2(self, tmp_path, monkeypatch, value):
        el = tmp_path / "c4.el"
        run_cli("gen", "--family", "cycle", "--n", "4", "--out", str(el))
        monkeypatch.setenv("RADIOLAB_MAX_ROUNDS", value)
        code, _ = run_cli("run", str(el), "--scheme", "toprec")
        assert code == 2

    @pytest.mark.parametrize("text", ["-2 0\n", "2 one\n0 1\n", "2 1\n0 1\n0 1\n"])
    def test_malformed_edge_list_exits_2(self, tmp_path, text):
        el = tmp_path / "bad.el"
        el.write_text(text)
        code, _ = run_cli("run", str(el), "--scheme", "compact")
        assert code == 2


class TestBench:
    def test_labels_suite_monotone(self, tmp_path):
        out = tmp_path / "labels.csv"
        code, _ = run_cli("bench", "--suite", "labels", "--out", str(out))
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        compact = [int(r["max_label_bits"]) for r in rows if r["scheme"] == "compact"]
        assert compact == sorted(compact)
        assert len(compact) == 11  # k = 2..12

    def test_labels_suite_reports_no_run(self, tmp_path, monkeypatch):
        """The labels suite runs no engine, so its round and output cells
        are empty, and the exit status counts only rows that ran: a wrong
        count in a row that ran still exits 1."""
        import radiolab.cli as cli_mod

        out = tmp_path / "labels.csv"
        code, _ = run_cli("bench", "--suite", "labels", "--out", str(out))
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        assert rows and {(r["total_rounds"], r["correct_outputs"]) for r in rows} == {("", "")}
        ran = {"graph": "p", "n": 2, "total_rounds": 1, "correct_outputs": 1}
        monkeypatch.setattr(cli_mod, "_bench_rows", lambda suite: [ran])
        code, _ = run_cli("bench", "--suite", "labels", "--out", str(out))
        assert code == 1

    def test_unknown_suite(self):
        with pytest.raises(SystemExit):
            run_cli("bench", "--suite", "nope")

    def test_size_suite_rows_correct(self, tmp_path, monkeypatch):
        """Every size-suite row reports correct = n (checked on a stub corpus
        to keep this quick; the acceptance suite covers the pinned one)."""
        import radiolab.cli as cli_mod
        from radiolab.graphs import gen_grid, gen_path

        monkeypatch.setattr(
            cli_mod.corpus_mod,
            "corpus",
            lambda: [("p6", gen_path(6)), ("grid2x3", gen_grid(2, 3))],
        )
        out = tmp_path / "size.csv"
        code, _ = run_cli("bench", "--suite", "size", "--out", str(out))
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 6
        assert all(r["correct_outputs"] == r["n"] for r in rows)


class TestAudit:
    def test_lbg16_general(self, tmp_path):
        el = tmp_path / "g16.el"
        run_cli("gen", "--family", "lbG", "--n", "16", "--out", str(el))
        out = tmp_path / "report.json"
        code, _ = run_cli("audit", str(el), "--scheme", "general", "--out", str(out))
        assert code == 0
        report = json.loads(out.read_text())
        assert report["ok"] and report["n"] == 16
        assert out.with_suffix(".csv").exists()

    def test_broadcast_bfs_is_not_a_scheme(self, tmp_path, capsys):
        """The layered broadcast runs only as a stage of toprec."""
        el = tmp_path / "g16.el"
        run_cli("gen", "--family", "lbG", "--n", "16", "--out", str(el))
        with pytest.raises(SystemExit) as exc:
            run_cli("audit", str(el), "--scheme", "broadcast-bfs")
        assert exc.value.code == 2
        assert "invalid choice: 'broadcast-bfs'" in capsys.readouterr().err

    def test_non_lb_graph_needs_partition(self, tmp_path):
        el = tmp_path / "p6.el"
        run_cli("gen", "--family", "path", "--n", "6", "--out", str(el))
        code, _ = run_cli("audit", str(el), "--scheme", "general")
        assert code == 2

    def test_lbg16_missing_cross_edge_needs_partition(self, tmp_path):
        el = tmp_path / "g16.el"
        run_cli("gen", "--family", "lbG", "--n", "16", "--out", str(el))
        lines = el.read_text().splitlines()
        n, m = map(int, lines[0].split())
        assert "0 4" in lines  # a cross edge: node 0 and node 4 lie in different components
        lines = [f"{n} {m - 1}"] + [ln for ln in lines[1:] if ln != "0 4"]
        el.write_text("\n".join(lines) + "\n")
        code, _ = run_cli("audit", str(el), "--scheme", "general")
        assert code == 2

    def test_explicit_partition_accepted(self, tmp_path):
        el = tmp_path / "g16.el"
        run_cli("gen", "--family", "lbG", "--n", "16", "--out", str(el))
        part = tmp_path / "part.json"
        part.write_text(json.dumps(
            {"components": [list(range(i * 4, (i + 1) * 4)) for i in range(4)]}
        ))
        code, _ = run_cli("audit", str(el), "--scheme", "general",
                          "--partition", str(part))
        assert code == 0

    def test_partition_missing_nodes_exits_2(self, tmp_path):
        el = tmp_path / "g16.el"
        run_cli("gen", "--family", "lbG", "--n", "16", "--out", str(el))
        part = tmp_path / "part.json"
        part.write_text(json.dumps(
            {"components": [list(range(i * 4, (i + 1) * 4)) for i in range(3)]}
        ))
        code, _ = run_cli("audit", str(el), "--scheme", "general",
                          "--partition", str(part))
        assert code == 2

    @pytest.mark.parametrize(
        "text",
        [
            "{}",
            "not json",
            '{"components": [["a"]]}',
            '{"components": 5}',
            "[]",
            # every node covered, node 0 also in a second component
            json.dumps({"components": [list(range(i * 4, (i + 1) * 4)) for i in range(4)]
                        + [[0]]}),
            # a float, a boolean and a string of digits are not node ids
            '{"components": [[0, 1.4, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11], [12, 13, 14, 15]]}',
            '{"components": [[0, true, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11], [12, 13, 14, 15]]}',
            json.dumps({"components": [list(range(i * 4, (i + 1) * 4)) for i in range(4)],
                        "specials": "12"}),
            # a special node must be a node of the graph outside every component
            json.dumps({"components": [list(range(i * 4, (i + 1) * 4)) for i in range(4)],
                        "specials": [99]}),
            json.dumps({"components": [list(range(i * 4, (i + 1) * 4)) for i in range(4)],
                        "specials": [0]}),
        ],
        ids=["no-components", "not-json", "non-integer", "not-a-list", "not-an-object",
             "node-twice", "float-id", "boolean-id", "specials-string",
             "special-out-of-range", "special-in-component"],
    )
    def test_malformed_partition_exits_2(self, tmp_path, capsys, text):
        el = tmp_path / "g16.el"
        run_cli("gen", "--family", "lbG", "--n", "16", "--out", str(el))
        part = tmp_path / "part.json"
        part.write_text(text)
        code, _ = run_cli("audit", str(el), "--scheme", "compact",
                          "--partition", str(part))
        assert code == 2
        assert "InvalidParams" in capsys.readouterr().err


class TestMissingFiles:
    """An input file that cannot be read is a typed error with exit 2."""

    @pytest.mark.parametrize("command", ["run", "audit"])
    def test_missing_graph(self, tmp_path, capsys, command):
        code, _ = run_cli(command, str(tmp_path / "missing.el"), "--scheme", "compact")
        assert code == 2
        assert capsys.readouterr().err.startswith("error: InvalidParams: cannot read graph")

    def test_audit_missing_partition(self, tmp_path, capsys):
        el = tmp_path / "g16.el"
        run_cli("gen", "--family", "lbG", "--n", "16", "--out", str(el))
        code, _ = run_cli("audit", str(el), "--scheme", "compact",
                          "--partition", str(tmp_path / "nope.json"))
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "error: InvalidParams: cannot read partition"
        )
