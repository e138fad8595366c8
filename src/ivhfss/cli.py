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


# each flag by its dest: option strings and add_argument keywords
_FLAGS = {
    "kind": (("--kind",), {"required": True, "choices": ["o1", "o2", "o3", "o4"]}),
    "mode": (("--mode",), {"choices": ["aligned", "pairwise"], "default": "aligned"}),
    "align": (("--align",), {"choices": ["optimistic", "pessimistic"], "default": "optimistic"}),
    "output": (("-o", "--output"), {"default": None, "help": "output path (default: stdout)"}),
    "grid_step": (("--grid-step",), {"type": float, "default": 0.25}),
    "trials": (("--trials",), {"type": int, "default": 10000}),
    "seed": (("--seed",), {"type": int, "default": 52417}),
    "report": (("--report",), {"default": None, "help": "write the JSON report here"}),
}

# the flags a library call takes, as (its keyword, the converter of the flag's value)
_KEYWORDS = {
    "kind": ("kind", str.upper),
    "mode": ("mode", CombineMode),
    "align": ("policy", AlignmentPolicy),
}

# each command: help, arguments in declaration order, library call.  A dest
# not in _FLAGS is an input document; "inputs" takes one or more of them and
# reaches the call as one list.  The call's result leaves by its type: a soft
# set as a document, a bool as exit 0 or 3, anything else as JSON on stdout.
_COMMANDS = {
    "union": ("union of two soft sets", "left right mode align output", soft_union),
    "intersect": ("intersection of two soft sets", "left right mode align output", soft_intersection),
    "complement": ("complement of a soft set", "input output", soft_complement),
    "ringsum": ("cellwise ring sum (identical parameter sets)", "left right output", soft_ring_sum),
    "ringprod": ("cellwise ring product (identical parameter sets)", "left right output", soft_ring_product),
    "subset": ("exit 0 if the first set is contained in the second, else 3", "left right align", is_subset),
    "elem-op": (
        "difference operator applied cellwise on shared parameters",
        "kind left right output",
        lambda f, g, kind: soft_apply_operator(kind, f, g),
    ),
    "score": ("score interval per parameter and object", "input", score_table),
    "rank": ("objects ordered by mean score across parameters", "input", rank_objects),
    "check-laws": ("classify every registered identity", "grid_step trials seed report", None),  # _check_laws
    "family-union": ("union of any number of soft sets", "inputs mode align output", family_union),
    "family-intersect": (
        "intersection of any number of soft sets", "inputs mode align output", family_intersection
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ivhfss", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, arguments, _call) in _COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        for dest in arguments.split():
            if dest in _FLAGS:
                names, keywords = _FLAGS[dest]
                sub.add_argument(*names, **keywords)
            else:
                sub.add_argument(dest, nargs="+" if dest == "inputs" else None)
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


def _check_laws(args) -> int:
    from concurrent.futures import BrokenExecutor  # only this command needs them

    from .laws import CheckConfig, run_suite, suite_to_json

    try:
        config = CheckConfig(grid_step=args.grid_step, random_trials=args.trials, seed=args.seed)
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
    return EXIT_OK


def _run(args) -> int:
    if args.command == "check-laws":
        return _check_laws(args)
    _help, arguments, call = _COMMANDS[args.command]
    documents, keywords = [], {}
    for dest in arguments.split():
        value = getattr(args, dest)
        if dest in _KEYWORDS:
            keyword, convert = _KEYWORDS[dest]
            keywords[keyword] = convert(value)
        elif dest == "inputs":
            documents.append([_load(path) for path in value])
        elif dest not in _FLAGS:
            documents.append(_load(value))
    result = call(*documents, **keywords)
    if isinstance(result, IVHFSoftSet):
        text = serialize_document(result)
        if args.output is None:
            sys.stdout.write(text)
        else:
            _write(args.output, text)
    elif isinstance(result, bool):
        if not result:
            print("not a subset", file=sys.stderr)
            return EXIT_NEGATIVE
    else:
        json.dump(result, sys.stdout, indent=2)
        sys.stdout.write("\n")
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
