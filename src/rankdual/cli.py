"""Command-line interface.

Exit codes: 0 = success (or check passed), 1 = a semantic check failed
(witnesses printed), 2 = usage or input error. A reader that closes stdout
early (``rankdual enumerate ... | head -1``) ends the command quietly with
exit code 0. Output is deterministic for identical inputs and flags; suite
timing is printed only with --timing.
"""

from __future__ import annotations

import argparse
import sys
import textwrap

from .axioms import (
    DemiTriple,
    check_antimatroid,
    check_demimatroid_characterization,
    check_demimatroid_triple,
    check_dual_greedoid,
    check_greedoid,
    check_matroid,
    feasible_descriptors,
)
from .core import RankFunctionError, RankTable
from .documents import DocumentError, dump_rank_table, load_document
from .ops import MinorSpec, contract, delete, direct_sum, dual, minor
from .structures import branching_greedoid, convex_closure, pruning_antimatroid
from .tutte import tutte_recursive, tutte_subset
from .verify import _RUN_PARAMS, CONSTRAINTS, EnumSpec, SUITES, enumerate_tables, run_suite

CHECKS = ("matroid", "greedoid", "dual-greedoid", "antimatroid", "demimatroid")


def _load_table(path: str) -> RankTable:
    kind, obj = load_document(path)
    if kind not in ("rank-table", "uniform"):
        raise DocumentError(f"{path}: expected a rank-table document, got kind {kind!r}")
    return obj


def _load_kind(path: str, expected: str):
    kind, obj = load_document(path)
    if kind != expected:
        raise DocumentError(f"{path}: expected a {expected} document, got kind {kind!r}")
    return obj


def _labels_arg(raw: str) -> tuple:
    return tuple(part for part in raw.split(",") if part)


def _params_arg(raw: str) -> dict:
    """key=value pieces separated by commas; a piece without "=" continues
    the previous value, so ``strategies=lowest,highest`` is one entry. A key
    may appear once. Values stay strings: ``run_suite`` converts each to its
    declared type."""
    params = {}
    key = None
    for piece in raw.split(","):
        if not piece:
            continue
        if "=" in piece:
            key, value = piece.split("=", 1)
            if key in params:
                raise DocumentError(f"--params gives {key!r} more than once")
            params[key] = value
        elif key is None:
            raise DocumentError(f"bad --params entry {piece!r}; expected key=value")
        else:
            params[key] += "," + piece
    return params


def _params_help() -> str:
    """The params of every suite, as the suites declare them: key=default
    and the inclusive range, if any."""

    def described(params: dict) -> str:
        items = []
        for key, param in params.items():
            text = f"{key} (required)" if param.default is None else f"{key}={param.default}"
            bounds = param.range_text()
            items.append(f"{text} ({bounds})" if bounds else text)
        return "; ".join(items) or "(none)"

    sections = [(name, SUITES[name].params) for name in sorted(SUITES)]
    sections.append(("every suite", _RUN_PARAMS))
    lines = ["suite params, given as --params key=value,... (key=default, range):"]
    for name, params in sections:
        lines.append(f"  {name}:")
        lines.append(textwrap.fill(described(params), width=78, initial_indent="    ",
                                   subsequent_indent="    ", break_on_hyphens=False))
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankdual",
        description="Duality, minors, polynomials, axiom checks, and verification "
        "suites for integer rank functions on finite ground sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_input(p):
        p.add_argument("--in", dest="input", required=True, metavar="FILE")
        return p

    with_input(sub.add_parser("dual", help="emit the dual rank table"))

    p = with_input(sub.add_parser("delete", help="delete one element"))
    p.add_argument("-p", dest="element", required=True, metavar="LABEL")

    p = with_input(sub.add_parser("contract", help="contract one element"))
    p.add_argument("-p", dest="element", required=True, metavar="LABEL")

    p = with_input(sub.add_parser("minor", help="contract and delete subsets"))
    p.add_argument("--contract", default="", metavar="LABELS")
    p.add_argument("--delete", default="", metavar="LABELS")

    p = sub.add_parser("sum", help="direct sum of two tables")
    p.add_argument("--in", dest="inputs", action="append", required=True, metavar="FILE")

    p = with_input(sub.add_parser("tutte", help="corank-nullity polynomial"))
    p.add_argument("--method", choices=("subset", "recursive"), default="subset")
    # no default, so that a pivot given without --method recursive is seen
    p.add_argument("--pivot", choices=("lowest", "highest"))

    p = with_input(sub.add_parser("check", help="run an axiom checker"))
    p.add_argument("system", choices=CHECKS)
    p.add_argument("--s-in", dest="s_input", metavar="FILE",
                   help="second table: check the (S, r, s) demi triple instead "
                   "of the (S, r, r*) characterization")

    p = with_input(sub.add_parser("closure", help="convex closure of a subset"))
    p.add_argument("--set", dest="subset", required=True, metavar="LABELS")

    with_input(sub.add_parser("feasible", help="feasible sets, bases, spanning sets, loops"))

    p = with_input(sub.add_parser("build", help="build a table from a structure"))
    p.add_argument("structure", choices=("branching", "pruning", "uniform"))

    p = sub.add_parser("enumerate", help="enumerate small tables exhaustively")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--constraint", choices=CONSTRAINTS, required=True)
    p.add_argument("--count-only", action="store_true")

    p = sub.add_parser("verify", help="run a named verification suite", epilog=_params_help(),
                       formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--suite", required=True, choices=sorted(SUITES))
    p.add_argument("--params", default="", metavar="K=V,K=V")
    p.add_argument("--seed", type=int)
    p.add_argument("--timing", action="store_true")
    p.add_argument("--fail-fast", action="store_true")

    return parser


def _cmd_check(args) -> int:
    if args.s_input and args.system != "demimatroid":
        raise DocumentError(f"--s-in applies only to check demimatroid, not {args.system}")
    table = _load_table(args.input)
    if args.system == "matroid":
        report = check_matroid(table)
    elif args.system == "greedoid":
        report = check_greedoid(table)
    elif args.system == "dual-greedoid":
        report = check_dual_greedoid(table)
    elif args.system == "antimatroid":
        report = check_antimatroid(table)
    else:
        if args.s_input:
            report = check_demimatroid_triple(DemiTriple(table, _load_table(args.s_input)))
        else:
            report = check_demimatroid_characterization(table)
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


def _cmd_feasible(args) -> int:
    desc = feasible_descriptors(_load_table(args.input))
    print("feasible:", " ".join(str(s) for s in desc.family.subsets()))
    print("bases:", " ".join(str(s) for s in desc.bases))
    print("spanning:", " ".join(str(s) for s in desc.spanning))
    print("full:", "true" if desc.full else "false")
    print("loops:", ",".join(desc.loops) if desc.loops else "(none)")
    return 0


def _cmd_verify(args) -> int:
    params = _params_arg(args.params)
    flags = {"seed": args.seed, "fail_fast": True if args.fail_fast else None}
    for key, value in flags.items():
        if value is not None:
            if key in params:
                raise DocumentError(f"--params gives {key!r}, and so does --{key.replace('_', '-')}")
            params[key] = value
    result = run_suite(args.suite, params)
    print(result.to_report(include_elapsed=args.timing))
    return 0 if result.passed else 1


def run_command(argv) -> int:
    args = None
    try:
        args = build_parser().parse_args(argv)
        status = 0
        if args.command == "dual":
            print(dump_rank_table(dual(_load_table(args.input))))
        elif args.command == "delete":
            print(dump_rank_table(delete(_load_table(args.input), args.element)))
        elif args.command == "contract":
            print(dump_rank_table(contract(_load_table(args.input), args.element)))
        elif args.command == "minor":
            table = _load_table(args.input)
            spec = MinorSpec(
                table.ground.subset(_labels_arg(args.contract)),
                table.ground.subset(_labels_arg(args.delete)),
            )
            print(dump_rank_table(minor(table, spec)))
        elif args.command == "sum":
            if len(args.inputs) != 2:
                raise DocumentError("sum needs exactly two --in files")
            print(dump_rank_table(direct_sum(_load_table(args.inputs[0]), _load_table(args.inputs[1]))))
        elif args.command == "tutte":
            if args.pivot and args.method != "recursive":
                raise DocumentError("--pivot applies only to --method recursive")
            table = _load_table(args.input)
            if args.method == "subset":
                poly = tutte_subset(table)
            else:
                poly = tutte_recursive(table, args.pivot or "lowest")
            print(poly)
        elif args.command == "check":
            status = _cmd_check(args)
        elif args.command == "closure":
            table = _load_table(args.input)
            closed = convex_closure(table, table.ground.subset(_labels_arg(args.subset)))
            print(f"closure: {closed}")
        elif args.command == "feasible":
            status = _cmd_feasible(args)
        elif args.command == "build":
            if args.structure == "branching":
                table = branching_greedoid(_load_kind(args.input, "rooted-graph"))
            elif args.structure == "pruning":
                table = pruning_antimatroid(_load_kind(args.input, "tree"))
            else:
                table = _load_kind(args.input, "uniform")
            print(dump_rank_table(table))
        elif args.command == "enumerate":
            spec = EnumSpec(args.n, args.constraint)
            count = 0
            for table in enumerate_tables(spec):
                count += 1
                if not args.count_only:
                    print("ranks:", " ".join(str(v) for v in table.values))
            print(f"count: {count}")
        elif args.command == "verify":
            status = _cmd_verify(args)
        # output that fits in the buffer meets a closed pipe only here
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader has gone: nothing is left to tell it, and the flush at
        # exit writes the rest of the buffer to the null device
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RankFunctionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        step = "parsing the command line" if args is None else f"running {args.command}"
        print(f"error: out of memory {step}", file=sys.stderr)
        return 2


def main(argv=None) -> None:
    sys.exit(run_command(argv if argv is not None else sys.argv[1:]))


if __name__ == "__main__":
    main()
