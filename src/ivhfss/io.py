"""JSON document format for soft sets.

Document shape::

    {
      "universe": ["h1", "h2"],
      "parameters": ["e1", "e2"],
      "values": {"e1": {"h1": [[0.3, 0.8]], ...}, ...}
    }

Serialization is canonical: parameters and objects in declared order,
intervals in ascending rank order, numbers rendered with up to 12
significant digits.  parse(serialize(x)) reproduces the bytes exactly.
"""

from __future__ import annotations

import json
import warnings

from .elements import IVHFE, canonicalize
from .errors import ParseError, SchemaError
from .intervals import UnitInterval, construct_interval
from .softsets import IVHFSoftSet, make_soft_set


class CanonicalizationWarning(UserWarning):
    """Input intervals were stored out of canonical order."""


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise SchemaError(message)


def _parse_cell(parameter: str, obj: str, raw) -> IVHFE:
    _expect(
        isinstance(raw, list) and raw,
        f"cell {parameter}/{obj}: expected a nonempty list of [lower, upper] pairs",
    )
    intervals: list[UnitInterval] = []
    for pair in raw:
        _expect(
            isinstance(pair, list)
            and len(pair) == 2
            and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair),
            f"cell {parameter}/{obj}: malformed interval {pair!r}",
        )
        try:
            intervals.append(construct_interval(float(pair[0]), float(pair[1])))
        except (ValueError, OverflowError) as exc:
            raise SchemaError(f"cell {parameter}/{obj}: {exc}") from exc
    element = canonicalize(intervals)
    if element.as_tuples() != tuple((iv.lower, iv.upper) for iv in intervals):
        warnings.warn(
            f"cell {parameter}/{obj}: intervals were not in canonical order; sorted on load",
            CanonicalizationWarning,
            stacklevel=3,
        )
    return element


def parse_document(text: str | bytes) -> IVHFSoftSet:
    """Decode, validate, and canonicalize a soft-set document."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not UTF-8: {exc}") from exc
    try:
        doc = json.loads(text)
    except RecursionError as exc:
        raise ParseError("malformed JSON: nested too deeply") from exc
    except ValueError as exc:  # also an integer beyond int()'s digit limit
        raise ParseError(f"malformed JSON: {exc}") from exc
    _expect(isinstance(doc, dict), "top level must be an object")
    for key in ("universe", "parameters", "values"):
        _expect(key in doc, f"missing key {key!r}")
    universe, parameters, values = doc["universe"], doc["parameters"], doc["values"]
    _expect(
        isinstance(universe, list) and all(isinstance(h, str) for h in universe),
        "universe must be a list of strings",
    )
    _expect(
        isinstance(parameters, list) and all(isinstance(e, str) for e in parameters),
        "parameters must be a list of strings",
    )
    _expect(bool(universe), "universe must be nonempty")
    _expect(bool(parameters), "parameters must be nonempty")
    _expect(len(set(universe)) == len(universe), "universe names must be unique")
    _expect(len(set(parameters)) == len(parameters), "parameter names must be unique")
    _expect(isinstance(values, dict), "values must be an object")
    _expect(
        set(values) == set(parameters),
        f"values keys {sorted(values)} must equal parameters {sorted(parameters)}",
    )
    cells: dict[str, dict[str, IVHFE]] = {}
    for e in parameters:
        row = values[e]
        _expect(isinstance(row, dict), f"values[{e!r}] must be an object")
        _expect(
            set(row) == set(universe),
            f"values[{e!r}] keys {sorted(row)} must equal universe {sorted(universe)}",
        )
        cells[e] = {h: _parse_cell(e, h, row[h]) for h in universe}
    try:
        return make_soft_set(universe, parameters, cells)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def _render_number(x: float) -> str:
    # Up to 12 significant digits; stable under a parse/serialize round trip.
    if x == int(x):
        return str(int(x))
    return format(x, ".12g")


def serialize_document(soft_set: IVHFSoftSet) -> str:
    """Canonical rendering; deterministic function of the soft set's value."""
    out: list[str] = ["{\n"]
    out.append('  "universe": [')
    out.append(", ".join(json.dumps(h) for h in soft_set.universe))
    out.append("],\n")
    out.append('  "parameters": [')
    out.append(", ".join(json.dumps(e) for e in soft_set.parameters))
    out.append("],\n")
    out.append('  "values": {\n')
    for i, e in enumerate(soft_set.parameters):
        out.append(f"    {json.dumps(e)}: {{\n")
        for j, h in enumerate(soft_set.universe):
            rendered = ", ".join(
                f"[{_render_number(lo)}, {_render_number(up)}]"
                for lo, up in soft_set.pairs[(e, h)]
            )
            comma = "," if j + 1 < len(soft_set.universe) else ""
            out.append(f"      {json.dumps(h)}: [{rendered}]{comma}\n")
        comma = "," if i + 1 < len(soft_set.parameters) else ""
        out.append(f"    }}{comma}\n")
    out.append("  }\n}\n")
    return "".join(out)


def load_file(path) -> IVHFSoftSet:
    with open(path, "rb") as fh:
        return parse_document(fh.read())


def dump_file(path, soft_set: IVHFSoftSet) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_document(soft_set))
