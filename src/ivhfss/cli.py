"""Command-line front end.

One subcommand per operation with deterministic JSON input and output.
Exit codes: 0 success, 1 usage, 2 I/O or malformed input (including domain
errors such as an empty parameter overlap), 3 negative predicate result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings

from .elements import AlignmentPolicy, CombineMode
from .errors import IvhfssError
from .io import CanonicalizationWarning, load_file, serialize_document
from .softsets import (
    IVHFSoftSet,
    family_intersection,
    family_union,
    is_subset,
    rank_objects,
    score_table,
    soft_apply_operator,
    soft_complement,
    soft_intersection,
    soft_ring_product,
    soft_ring_sum,
    soft_union,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_NEGATIVE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_combine_flags(sub):
    sub.add_argument("--mode", choices=["aligned", "pairwise"], default="aligned")
    sub.add_argument("--align", choices=["optimistic", "pessimistic"], default="optimistic")


def _add_output_flag(sub):
    sub.add_argument("-o", "--output", default=None, help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ivhfss", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("union", help="union of two soft sets")
    p.add_argument("left"), p.add_argument("right")
    _add_combine_flags(p), _add_output_flag(p)

    p = subs.add_parser("intersect", help="intersection of two soft sets")
    p.add_argument("left"), p.add_argument("right")
    _add_combine_flags(p), _add_output_flag(p)

    p = subs.add_parser("complement", help="complement of a soft set")
    p.add_argument("input")
    _add_output_flag(p)

    p = subs.add_parser("ringsum", help="cellwise ring sum (identical parameter sets)")
    p.add_argument("left"), p.add_argument("right")
    _add_output_flag(p)

    p = subs.add_parser("ringprod", help="cellwise ring product (identical parameter sets)")
    p.add_argument("left"), p.add_argument("right")
    _add_output_flag(p)

    p = subs.add_parser("subset", help="exit 0 if the first set is contained in the second, else 3")
    p.add_argument("left"), p.add_argument("right")
    p.add_argument("--align", choices=["optimistic", "pessimistic"], default="optimistic")

    p = subs.add_parser("elem-op", help="difference operator applied cellwise on shared parameters")
    p.add_argument("--kind", required=True, choices=["o1", "o2", "o3", "o4"])
    p.add_argument("left"), p.add_argument("right")
    _add_output_flag(p)

    p = subs.add_parser("score", help="score interval per parameter and object")
    p.add_argument("input")

    p = subs.add_parser("rank", help="objects ordered by mean score across parameters")
    p.add_argument("input")

    p = subs.add_parser("check-laws", help="classify every registered identity")
    p.add_argument("--grid-step", type=float, default=0.25)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=52417)
    p.add_argument("--report", default=None, help="write the JSON report here")

    p = subs.add_parser("family-union", help="union of any number of soft sets")
    p.add_argument("inputs", nargs="+")
    _add_combine_flags(p), _add_output_flag(p)

    p = subs.add_parser("family-intersect", help="intersection of any number of soft sets")
    p.add_argument("inputs", nargs="+")
    _add_combine_flags(p), _add_output_flag(p)

    return parser


def _load(path: str) -> IVHFSoftSet:
    """The document at ``path``; re-sorted cells are reported in one stderr line."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", CanonicalizationWarning)
        try:
            soft_set = load_file(path)
        except OSError as exc:
            raise IvhfssError(f"cannot read {path}: {exc}") from exc
    resorted = [w.message for w in caught if w.category is CanonicalizationWarning]
    if resorted:
        print(
            f"warning: {path}: {len(resorted)} cell(s) not in canonical order, sorted on load;"
            f" the first is {resorted[0].label}",
            file=sys.stderr,
        )
    return soft_set


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise IvhfssError(f"cannot write {path}: {exc}") from exc


def _emit(soft_set: IVHFSoftSet, output: str | None) -> None:
    if output is None:
        sys.stdout.write(serialize_document(soft_set))
    else:
        _write(output, serialize_document(soft_set))


def _run(args) -> int:
    if args.command == "union":
        result = soft_union(
            _load(args.left), _load(args.right),
            AlignmentPolicy(args.align), CombineMode(args.mode),
        )
        _emit(result, args.output)
    elif args.command == "intersect":
        result = soft_intersection(
            _load(args.left), _load(args.right),
            AlignmentPolicy(args.align), CombineMode(args.mode),
        )
        _emit(result, args.output)
    elif args.command == "complement":
        _emit(soft_complement(_load(args.input)), args.output)
    elif args.command == "ringsum":
        _emit(soft_ring_sum(_load(args.left), _load(args.right)), args.output)
    elif args.command == "ringprod":
        _emit(soft_ring_product(_load(args.left), _load(args.right)), args.output)
    elif args.command == "subset":
        if not is_subset(_load(args.left), _load(args.right), AlignmentPolicy(args.align)):
            print("not a subset", file=sys.stderr)
            return EXIT_NEGATIVE
    elif args.command == "elem-op":
        result = soft_apply_operator(
            args.kind.upper(), _load(args.left), _load(args.right)
        )
        _emit(result, args.output)
    elif args.command == "score":
        json.dump(score_table(_load(args.input)), sys.stdout, indent=2)
        sys.stdout.write("\n")
    elif args.command == "rank":
        json.dump(rank_objects(_load(args.input)), sys.stdout, indent=2)
        sys.stdout.write("\n")
    elif args.command == "check-laws":
        from concurrent.futures import BrokenExecutor  # only this command needs them

        from .laws import CheckConfig, run_suite, suite_to_json

        try:
            config = CheckConfig(
                grid_step=args.grid_step, random_trials=args.trials, seed=args.seed
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        try:
            reports = run_suite(config)
        except BrokenExecutor:  # a worker was killed, by the out-of-memory killer for one
            print("error: a worker process died while checking the laws", file=sys.stderr)
            return EXIT_INPUT
        for r in reports:
            line = f"{r.law_id:10s} {r.status}"
            if r.status == "holds" and not r.exhaustive:
                line += " (on trials)"
            if r.counterexample is not None:
                line += f" (shrunk {r.shrink_steps} steps)"
            print(line)
        if args.report:
            _write(args.report, json.dumps(suite_to_json(reports), indent=2) + "\n")
    elif args.command == "family-union":
        members = [_load(p) for p in args.inputs]
        _emit(family_union(members, AlignmentPolicy(args.align), CombineMode(args.mode)), args.output)
    elif args.command == "family-intersect":
        members = [_load(p) for p in args.inputs]
        _emit(family_intersection(members, AlignmentPolicy(args.align), CombineMode(args.mode)), args.output)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        code = _run(args)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except IvhfssError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BrokenPipeError:
        # the reader went away; point stdout at devnull so the flush at exit
        # does not fail a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: stdout closed before the output was written", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError:
        print("error: out of memory: the input is too large to process", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
