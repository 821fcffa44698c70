"""End-to-end CLI behavior: subcommands, exit codes, file round trips."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

from vsbgraph import (
    Digraph,
    SaturatedError,
    cli,
    digraph,
    generator,
    harness,
    parse_edge_list,
    serialize_edge_list,
)
from vsbgraph.cli import main

from graphutil import complete_bidirected, directed_cycle, near_miss
from oracle import oracle_is_minimal


def write_graph(path, g: Digraph) -> str:
    path.write_text(serialize_edge_list(g), encoding="ascii")
    return str(path)


class TestGen:
    def test_writes_parseable_3vsb_instance(self, tmp_path, capsys):
        out = tmp_path / "inst.txt"
        code = main(["gen", "--n", "10", "--seed", "1", "--out", str(out)])
        assert code == 0
        g = parse_edge_list(out.read_text(encoding="ascii"))
        assert g.n == 10
        assert g.m >= 80
        summary = capsys.readouterr().out
        assert "n=10" in summary and "m0=80" in summary

    def test_mult_flag(self, tmp_path):
        out = tmp_path / "inst.txt"
        assert main(["gen", "--n", "10", "--seed", "1", "--mult", "4",
                     "--out", str(out)]) == 0
        assert parse_edge_list(out.read_text(encoding="ascii")).m >= 40

    def test_negative_mult_exits_2(self, tmp_path, capsys):
        out = tmp_path / "inst.txt"
        code = main(["gen", "--n", "10", "--seed", "1", "--mult", "-1",
                     "--out", str(out)])
        assert code == 2
        assert "multiplier must be non-negative" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_mult_grows_from_no_arcs(self, tmp_path, capsys):
        out = tmp_path / "inst.txt"
        assert main(["gen", "--n", "10", "--seed", "1", "--mult", "0",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().out == "n=10 m0=0 grown=48 m=48\n"

    def test_impossible_density_exits_1(self, tmp_path, capsys):
        out = tmp_path / "inst.txt"
        code = main(["gen", "--n", "8", "--seed", "1", "--mult", "8",
                     "--out", str(out)])
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [4, 5, 8, 9])
    def test_default_density_capped_at_complete_graph(self, tmp_path, capsys, n):
        out = tmp_path / "inst.txt"
        assert main(["gen", "--n", str(n), "--seed", "1", "--out", str(out)]) == 0
        m0 = min(8 * n, n * (n - 1))
        assert f"m0={m0}" in capsys.readouterr().out
        assert parse_edge_list(out.read_text(encoding="ascii")).m == m0

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        out = tmp_path / "inst.txt"
        code = main(["gen", "--n", "10", "--seed", "-1", "--out", str(out)])
        assert code == 2
        assert "non-negative" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_seed_exits_2(self, tmp_path, capsys):
        out = tmp_path / "inst.txt"
        code = main(["gen", "--n", "10", "--seed", "x", "--out", str(out)])
        assert code == 2
        assert "bad seed: 'x'" in capsys.readouterr().err
        assert not out.exists()

    def test_vertex_limit_exits_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(generator, "MAX_VERTICES", 9)
        out = tmp_path / "inst.txt"
        code = main(["gen", "--n", "10", "--seed", "1", "--out", str(out)])
        assert code == 1
        assert "limit of 9" in capsys.readouterr().err
        assert not out.exists()

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        main(["gen", "--n", "10", "--seed", "9", "--out", str(a)])
        main(["gen", "--n", "10", "--seed", "9", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestCheck:
    def test_c3_is_strongly_biconnected(self, tmp_path, capsys):
        path = write_graph(tmp_path / "c3.txt", directed_cycle(3))
        assert main(["check", "--in", path, "--k", "1"]) == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_c5_fails_k3(self, tmp_path, capsys):
        path = write_graph(tmp_path / "c5.txt", directed_cycle(5))
        assert main(["check", "--in", path, "--k", "3"]) == 1
        assert "false" in capsys.readouterr().out

    def test_too_few_vertices_is_precondition_failure(self, tmp_path, capsys):
        path = write_graph(tmp_path / "c3.txt", directed_cycle(3))
        assert main(["check", "--in", path, "--k", "3"]) == 1
        assert "error" in capsys.readouterr().err

    def test_k4_passes_default_k3(self, tmp_path):
        path = write_graph(tmp_path / "k4.txt", complete_bidirected(4))
        assert main(["check", "--in", path]) == 0

    def test_witness_printed(self, tmp_path, capsys):
        g = complete_bidirected(4)
        g.remove_edge(0, 1)
        path = write_graph(tmp_path / "g.txt", g)
        assert main(["check", "--in", path, "--k", "3"]) == 1
        assert "{2, 3}" in capsys.readouterr().out

    def test_near_miss_witness_at_n50(self, tmp_path, capsys):
        # vertex 7 of a generated 3-vsb instance keeps only its in-arcs from
        # 45 and 48; the witness lines were recorded from the enumeration
        # of every deletion set
        g = generator.generate(generator.InstanceSpec(50, 800, 1)).graph
        near = near_miss(g, 7)
        path = write_graph(tmp_path / "near.txt", near)
        assert main(["check", "--in", path, "--k", "2"]) == 0
        assert capsys.readouterr().out == "true\n"
        assert main(["check", "--in", path, "--k", "3"]) == 1
        assert capsys.readouterr().out == (
            "false: deleting {45, 48} breaks strong biconnectivity\n"
        )

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("3 9\n0 1\n", encoding="ascii")
        assert main(["check", "--in", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("text,message", [
        ("# one\n# two\n3 1\n0  1\n", "line 4: expected 'u v', got '0  1'"),
        (f"3 1\n{'1' * 19} 0\n", "line 2: number longer than 18 digits"),
        ("3 2\n0 1\n0 1\n", "edge (0, 1) already present"),
    ])
    def test_malformed_file_error_line(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text, encoding="ascii")
        assert main(["check", "--in", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_commented_file_without_final_newline(self, tmp_path, capsys):
        g = generator.generate(generator.InstanceSpec(50, 800, 100000)).graph
        lines = serialize_edge_list(g).splitlines()
        lines.insert(0, "# generated, n=50")
        lines.insert(400, "# halfway")
        path = tmp_path / "commented.txt"
        path.write_text("\n".join(lines), encoding="ascii")
        assert main(["check", "--in", str(path), "--k", "3"]) == 0
        assert capsys.readouterr().out == "true\n"

    def test_vertex_limit_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(digraph, "MAX_VERTICES", 4)
        path = write_graph(tmp_path / "k5.txt", complete_bidirected(5))
        assert main(["check", "--in", path]) == 2
        assert "limit of 4" in capsys.readouterr().err

    def test_overlong_number_exits_2(self, tmp_path, capsys):
        path = tmp_path / "long.txt"
        path.write_text("1" * 5000 + " 0\n", encoding="ascii")
        assert main(["check", "--in", str(path)]) == 2
        assert "longer than" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["check", "--in", str(tmp_path / "nope.txt")]) == 2

    @pytest.mark.parametrize("g,witness", [
        (Digraph(2, [(0, 1)]), "no directed path from 1 to 0"),
        (Digraph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]),
         "articulation point 2"),
    ])
    def test_k1_witness_kinds(self, tmp_path, capsys, g, witness):
        path = write_graph(tmp_path / "g.txt", g)
        assert main(["check", "--in", path, "--k", "1"]) == 1
        assert capsys.readouterr().out == f"false: {witness}\n"


class TestMinimize:
    @pytest.mark.parametrize("algo", ["minimal", "two-phase"])
    def test_output_passes_check(self, tmp_path, capsys, algo):
        # one full test per sweep: the degree-only results pass their check
        src = write_graph(tmp_path / "k5.txt", complete_bidirected(5))
        out = tmp_path / "out.txt"
        code = main(["minimize", "--in", src, "--algo", algo, "--out", str(out)])
        assert code == 0
        stats_line = capsys.readouterr().out
        assert "edges_in=20" in stats_line
        full = 1 if algo == "minimal" else 2
        assert f"tests_performed={full} full_tests={full} flow_tests=0 " in stats_line
        assert main(["check", "--in", str(out), "--k", "3"]) == 0
        if algo == "minimal":
            written = parse_edge_list(out.read_text(encoding="ascii"))
            assert oracle_is_minimal(written, 3)

    def test_non_3vsb_input_exits_1(self, tmp_path, capsys):
        src = write_graph(tmp_path / "c5.txt", directed_cycle(5))
        out = tmp_path / "out.txt"
        code = main(["minimize", "--in", src, "--algo", "minimal", "--out", str(out)])
        assert code == 1
        assert "breaks strong biconnectivity" in capsys.readouterr().err

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        src = tmp_path / "bad.txt"
        src.write_text("3 9\n0 1\n", encoding="ascii")
        out = tmp_path / "out.txt"
        code = main(["minimize", "--in", str(src), "--algo", "minimal",
                     "--out", str(out)])
        assert code == 2
        assert "error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("algo", ["minimal", "two-phase"])
    def test_too_few_vertices_exits_1(self, tmp_path, capsys, algo):
        src = write_graph(tmp_path / "c3.txt", directed_cycle(3))
        out = tmp_path / "out.txt"
        code = main(["minimize", "--in", src, "--algo", algo, "--out", str(out)])
        assert code == 1
        assert "more than 3 vertices" in capsys.readouterr().err
        assert not out.exists()

    def test_shuffle_order_deterministic(self, tmp_path):
        src = write_graph(tmp_path / "k5.txt", complete_bidirected(5))
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (a, b):
            main(["minimize", "--in", src, "--algo", "minimal",
                  "--order", "shuffle", "--seed", "3", "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()


    def test_negative_seed_exits_2(self, tmp_path, capsys):
        src = write_graph(tmp_path / "k5.txt", complete_bidirected(5))
        out = tmp_path / "out.txt"
        code = main(["minimize", "--in", src, "--algo", "minimal",
                     "--order", "shuffle", "--seed", "-3", "--out", str(out)])
        assert code == 2
        assert "non-negative" in capsys.readouterr().err
        assert not out.exists()


class TestBench:
    def test_csv_row_count(self, tmp_path, capsys):
        code = main(["bench", "--sizes", "10", "--seeds-per-size", "2",
                     "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("n,m_input,seed")
        assert len(lines) == 3

    def test_markdown_to_file(self, tmp_path):
        out = tmp_path / "table.md"
        code = main(["bench", "--sizes", "10", "--seeds-per-size", "1",
                     "--format", "md", "--out", str(out)])
        assert code == 0
        assert out.read_text(encoding="ascii").startswith("| Input (V, E) |")

    def test_bad_sizes_exit_2(self):
        assert main(["bench", "--sizes", "abc"]) == 2

    def test_default_density_capped_at_complete_graph(self, capsys):
        # without --mult, m0 is the generator's min(8n, n(n-1)) = 56 at n=8
        assert main(["bench", "--sizes", "8", "--seeds-per-size", "1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("8,56,1,")

    @pytest.mark.parametrize("extra", [["--sizes", "2000"],
                                       ["--sizes", "10,8", "--mult", "8"]])
    def test_impossible_plan_exits_2_before_any_row(self, monkeypatch, extra):
        def no_run(*args, **kwargs):
            raise AssertionError("an invalid plan must not run rows")

        monkeypatch.setattr(cli, "run_experiment", no_run)
        assert main(["bench", *extra]) == 2

    def test_row_limit_exits_2_before_any_row(self, monkeypatch, capsys):
        def no_run(*args, **kwargs):
            raise AssertionError("an oversized plan must not run rows")

        monkeypatch.setattr(cli, "run_experiment", no_run)
        monkeypatch.setattr(cli.ExperimentPlan, "_specs", no_run)
        assert main(["bench", "--sizes", "10",
                     "--seeds-per-size", "1000000000"]) == 2
        assert "limit of 10000" in capsys.readouterr().err

    def test_empty_sizes_exit_2(self):
        assert main(["bench", "--sizes", ","]) == 2

    @pytest.mark.parametrize("extra, message", [
        (["--seeds-per-size", "0"], "seeds_per_size must be at least 1"),
        (["--mult", "0"], "multiplier must be at least 1"),
    ])
    def test_zero_count_exits_2_before_any_row(self, monkeypatch, capsys,
                                               extra, message):
        def no_run(*args, **kwargs):
            raise AssertionError("an invalid plan must not run rows")

        monkeypatch.setattr(cli, "run_experiment", no_run)
        assert main(["bench", "--sizes", "10", *extra]) == 2
        assert message in capsys.readouterr().err


class TestUnusableFiles:
    # "{dir}" stands for a directory, "{k5}" for a 3-vsb edge-list file,
    # "{latin}" for a file that is not ASCII and "{out}" for a new file
    @pytest.mark.parametrize("argv", [
        ["gen", "--n", "5", "--seed", "1", "--out", "{dir}"],
        ["minimize", "--in", "{k5}", "--algo", "minimal", "--out", "{dir}"],
        ["bench", "--sizes", "5", "--seeds-per-size", "1", "--out", "{dir}"],
        ["check", "--in", "{latin}"],
        ["minimize", "--in", "{latin}", "--algo", "minimal", "--out", "{out}"],
    ])
    def test_exit_2_with_one_error_line(self, tmp_path, capsys, argv):
        latin = tmp_path / "latin.txt"
        latin.write_bytes("# caf\u00e9\n4 0\n".encode("latin-1"))
        out = tmp_path / "out.txt"
        files = {
            "{dir}": str(tmp_path),
            "{k5}": write_graph(tmp_path / "k5.txt", complete_bidirected(5)),
            "{latin}": str(latin),
            "{out}": str(out),
        }
        assert main([files.get(arg, arg) for arg in argv]) == 2
        stdout, stderr = capsys.readouterr()
        assert stdout == ""
        assert stderr.startswith("error: ") and stderr.count("\n") == 1
        assert stderr.endswith("\n") and not out.exists()

    def test_bench_row_error_exits_1(self, monkeypatch, capsys):
        # a generator error in a row (SaturatedError cannot happen on
        # valid specs) ends the run like any other precondition failure
        def saturated(spec):
            raise SaturatedError("x")

        monkeypatch.setattr(harness, "generate", saturated)
        assert main(["bench", "--sizes", "5", "--seeds-per-size", "1"]) == 1
        assert capsys.readouterr() == ("", "error: x\n")


class TestConsoleEntry:
    """``python -m vsbgraph`` in a child process: the exit code reaches the
    shell, and a failure prints one error line and no traceback."""

    def run(self, *argv):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]))
        return subprocess.run([sys.executable, "-m", "vsbgraph", *argv],
                              env=env, capture_output=True, text=True,
                              timeout=60)

    def test_directory_as_out_exits_2(self, tmp_path):
        done = self.run("gen", "--n", "5", "--seed", "1", "--out", str(tmp_path))
        assert done.returncode == 2
        assert done.stderr.startswith("error: ")
        assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr

    def test_minimize_non_3vsb_exits_1(self, tmp_path):
        src = write_graph(tmp_path / "c5.txt", directed_cycle(5))
        done = self.run("minimize", "--in", src, "--algo", "minimal",
                        "--out", str(tmp_path / "out.txt"))
        assert done.returncode == 1
        assert done.stderr.startswith("error: ")
        assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr


class TestUsage:
    def test_no_command_exits_2(self):
        assert main([]) == 2

    def test_unknown_command_exits_2(self):
        assert main(["frobnicate"]) == 2

    def test_help_exits_0(self):
        assert main(["--help"]) == 0

    def test_same_outcome_as_parser_with_every_argument(self, tmp_path, capsys):
        # main adds arguments only to the command the line names; on each
        # line below it prints and returns exactly what the parser with
        # every command's arguments gives
        k4 = write_graph(tmp_path / "k4.txt", complete_bidirected(4))
        out = str(tmp_path / "out.txt")

        def with_every_argument(argv):
            try:
                args = cli._build_parser().parse_args(argv)
            except SystemExit as exc:
                return int(exc.code or 0)
            return args.handler(args)

        lines = [
            [], ["-h"], ["--help"],
            ["gen", "-h"], ["check", "-h"], ["minimize", "-h"], ["bench", "-h"],
            ["check", "--in", k4], ["--", "check", "--in", k4],
            ["check", "--in", k4, "extra"], ["check", "--in", k4, "gen"],
            ["check", "--in", k4, "--k", "4"], ["check"],
            ["gen", "--n", "x", "--seed", "1", "--out", out],
            ["gen", "--n", "5", "--seed", "1", "--out", out],
            ["gen", "--n", "5", "--seed", "1", "--out", out, "check"],
            ["minimize", "--in", k4, "--algo", "greedy", "--out", out],
            ["bench", "--sizes", "x"], ["-x", "check", "--in", k4],
            ["frobnicate"], ["frobnicate", "check"], ["che", "--in", k4],
            ["check", "--in", k4, "--frobnicate"],
            ["check", "--in", k4, "--k=3", "-x", "1"],
            ["minimize", "--in", k4, "--algo", "minimal", "--out", out, "extra"],
            ["gen", "--n", "5", "--seed", "1", "--out", out, "extra"],
            ["check", "--i", k4], ["minimize", "--i", k4, "--algo", "minimal",
                                   "--o", out],
            ["check", "--", "--in", k4], ["check", "--in", k4, "--"],
            ["check", "--in", k4, "--", "extra"], ["gen", "--"],
            ["check", "--in", "--k"], ["check", "--in", k4, "-h", "extra"],
        ]
        for argv in lines:
            code = main(argv)
            got = code, capsys.readouterr()
            want = with_every_argument(argv), capsys.readouterr()
            assert got == want, argv

    def test_other_commands_get_no_arguments(self, tmp_path, monkeypatch):
        # a check line builds the check command's arguments alone; a line
        # with an argument left over goes to the parser of every command,
        # which reports it
        k4 = write_graph(tmp_path / "k4.txt", complete_bidirected(4))
        built = []
        for name, (help_line, add_arguments, handler) in cli._COMMANDS.items():
            def recording(parser, name=name, add_arguments=add_arguments):
                built.append(name)
                add_arguments(parser)

            monkeypatch.setitem(cli._COMMANDS, name,
                                (help_line, recording, handler))
        assert main(["check", "--in", k4]) == 0
        assert built == ["check"]
        built.clear()
        assert main(["check", "--in", k4, "extra"]) == 2
        assert built == ["check", "gen", "check", "minimize", "bench"]
