"""Command-line front end.

Subcommands: ``gen`` (write a random 3-vsb instance), ``check`` (test a
connectivity predicate on an edge-list file), ``minimize`` (extract a
sparse 3-vsb spanning subgraph), ``bench`` (run the experiment table).

Exit codes: 0 success / predicate true; 1 predicate false or failed
precondition; 2 usage errors, and input the command cannot use: a file
it cannot read, decode as ASCII, parse or write, or an invalid ``bench``
plan.  :func:`main` is the one place that applies this policy; each
command handler holds only its successful path and lets errors rise.
"""
from __future__ import annotations

import argparse
import sys

from .connectivity import is_k_vsb, is_strongly_biconnected
from .digraph import Digraph, parse_edge_list, serialize_edge_list
from .errors import GraphError, NotKVsbError
from .extraction import minimal_k_vsb, two_phase_3vsb
from .generator import InstanceSpec, generate
from .harness import ExperimentPlan, emit_table, run_experiment


class _InputError(Exception):
    """A file or plan the command cannot use; :func:`main` exits 2."""


def _read_graph(path: str) -> Digraph:
    try:
        with open(path, "r", encoding="ascii") as handle:
            return parse_edge_list(handle.read())
    except (OSError, UnicodeDecodeError, GraphError) as exc:
        raise _InputError(str(exc)) from None


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="ascii") as handle:
            handle.write(text)
    except OSError as exc:
        raise _InputError(str(exc)) from None


def _plan(args: argparse.Namespace) -> ExperimentPlan:
    try:
        return ExperimentPlan(tuple(args.sizes), args.seeds_per_size, args.mult)
    except ValueError as exc:
        raise _InputError(str(exc)) from None


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _cmd_gen(args: argparse.Namespace) -> int:
    edges = None if args.mult is None else args.mult * args.n
    spec = InstanceSpec(args.n, edges, args.seed)
    instance = generate(spec)
    _write_text(args.out, serialize_edge_list(instance.graph))
    print(
        f"n={spec.n} m0={spec.initial_edges} "
        f"grown={instance.edges_added_in_growth} m={instance.graph.m}"
    )
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    g = _read_graph(args.infile)
    if args.k == 1:
        report = is_strongly_biconnected(g)
    else:
        report = is_k_vsb(g, args.k)
    if report.verdict:
        print("true")
        return 0
    print(f"false: {report.witness}")
    return 1


def _cmd_minimize(args: argparse.Namespace) -> int:
    g = _read_graph(args.infile)
    if args.algo == "minimal":
        result = minimal_k_vsb(g, 3, order=args.order, seed=args.seed)
    else:
        result = two_phase_3vsb(g, order=args.order, seed=args.seed)
    _write_text(args.out, serialize_edge_list(result.subgraph))
    stats = result.stats
    print(
        f"edges_in={stats.edges_in} edges_out={stats.edges_out} "
        f"tests_performed={stats.tests_performed} "
        f"full_tests={stats.full_tests} flow_tests={stats.flow_tests} "
        f"elapsed_ms={stats.elapsed * 1e3:.3f}"
    )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    rows = run_experiment(_plan(args), workers=args.workers)
    table = emit_table(rows, args.format)
    if args.out is None:
        sys.stdout.write(table)
    else:
        _write_text(args.out, table)
    return 0


def _sizes_arg(text: str) -> list[int]:
    try:
        sizes = [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad size list: {text!r}")
    if not sizes:
        raise argparse.ArgumentTypeError("size list is empty")
    return sizes


def _non_negative(what: str):
    """argparse type for a non-negative integer; ``what`` names it in errors."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad {what}: {text!r}")
        if value < 0:
            raise argparse.ArgumentTypeError(
                f"{what} must be non-negative: {text!r}"
            )
        return value

    return parse


def _gen_arguments(gen: argparse.ArgumentParser) -> None:
    gen.add_argument("--n", type=int, required=True, help="vertex count (>= 4)")
    gen.add_argument(
        "--seed",
        type=_non_negative("seed"),
        required=True,
        help="non-negative RNG seed",
    )
    gen.add_argument(
        "--mult",
        type=_non_negative("multiplier"),
        default=None,
        help="initial edges = mult * n (default: min(8n, n(n-1)))",
    )
    gen.add_argument("--out", required=True, help="output edge-list file")


def _check_arguments(check: argparse.ArgumentParser) -> None:
    check.add_argument("--in", dest="infile", required=True, help="edge-list file")
    check.add_argument(
        "--k",
        type=int,
        choices=(1, 2, 3),
        default=3,
        help="level: 1 = strongly biconnected, 2/3 = k-vsb (default 3)",
    )


def _minimize_arguments(minimize: argparse.ArgumentParser) -> None:
    minimize.add_argument(
        "--in", dest="infile", required=True, help="edge-list file (must be 3-vsb)"
    )
    minimize.add_argument(
        "--algo", choices=("minimal", "two-phase"), required=True
    )
    minimize.add_argument(
        "--order",
        choices=("input", "shuffle"),
        default="input",
        help="candidate edge order (default input)",
    )
    minimize.add_argument(
        "--seed",
        type=_non_negative("seed"),
        default=0,
        help="seed for --order shuffle",
    )
    minimize.add_argument("--out", required=True, help="output edge-list file")


def _bench_arguments(bench: argparse.ArgumentParser) -> None:
    bench.add_argument(
        "--sizes", type=_sizes_arg, required=True, help="comma-separated n values"
    )
    bench.add_argument("--seeds-per-size", type=int, default=3)
    bench.add_argument(
        "--mult",
        type=int,
        default=None,
        help="initial edges = mult * n (default: min(8n, n(n-1)))",
    )
    bench.add_argument("--format", choices=("csv", "md"), default="csv")
    bench.add_argument("--out", default=None, help="output file (default stdout)")
    bench.add_argument(
        "--workers",
        type=int,
        default=1,
        help="row-level parallelism; timings stay comparable per row",
    )


# each command's help line, the function that adds its arguments, and its
# handler
_COMMANDS = {
    "gen": ("generate a random 3-vsb instance", _gen_arguments, _cmd_gen),
    "check": ("test a connectivity predicate", _check_arguments, _cmd_check),
    "minimize": (
        "extract a sparse 3-vsb subgraph", _minimize_arguments, _cmd_minimize
    ),
    "bench": (
        "run the timing/edge-count experiment", _bench_arguments, _cmd_bench
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    """The parser of every command, for a line that :func:`_parse` does
    not settle with one command's parser."""
    parser = argparse.ArgumentParser(
        prog="vsbgraph",
        description="Test and thin k-vertex strongly biconnected digraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_arguments, handler) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_line)
        add_arguments(command)
        command.set_defaults(handler=handler)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """The arguments of a command line, as :func:`_build_parser` parses them.

    A line that begins with a command name is parsed by that command's
    parser alone, built as :func:`_build_parser` builds its subparser;
    that gives the same arguments, help and errors, since the full
    parser hands the command everything after its name.  Only what the
    command leaves over is reported by the full parser, so a line with
    arguments left over, like one that names no command, goes to it.
    """
    if argv and argv[0] in _COMMANDS:
        _, add_arguments, handler = _COMMANDS[argv[0]]
        command = argparse.ArgumentParser(prog=f"vsbgraph {argv[0]}")
        add_arguments(command)
        args, rest = command.parse_known_args(argv[1:])
        if not rest:
            args.handler = handler
            return args
    return _build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    """Run one command line and return its exit code.

    Usage errors and ``--help`` exit as argparse decides.  An unusable
    file or plan exits 2; a failed precondition exits 1, with only the
    witness for a graph that is not 3-vsb.  Each failure prints one
    ``error:`` line on stderr.
    """
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse(argv)
    except SystemExit as exc:  # argparse handles usage errors and --help
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except _InputError as exc:
        return _fail(2, str(exc))
    except NotKVsbError as exc:
        return _fail(1, f"{exc.witness}")
    except GraphError as exc:
        return _fail(1, str(exc))


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
