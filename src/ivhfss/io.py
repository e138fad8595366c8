"""JSON document format for soft sets.

Document shape::

    {
      "universe": ["h1", "h2"],
      "parameters": ["e1", "e2"],
      "values": {"e1": {"h1": [[0.3, 0.8]], ...}, ...}
    }

This module is the only code that knows the layout, in both directions.  CLI
inputs and the law checker's stored counterexamples are decoded by the same
``decode_soft_set`` (element operands by ``decode_cell``), so both pass the
same validation.

Serialization is canonical: parameters and objects in declared order,
numbers rendered with up to 12 significant digits, and each cell's intervals
in the rank order of their printed values.  parse(serialize(x)) reproduces
the bytes exactly: a printed number reads back as a value that prints the
same, and the parser sorts those values into the order they were written in.
"""

from __future__ import annotations

from itertools import pairwise
import json
import warnings

from . import _kernels_py as kernels
from .errors import OutOfRange, ParseError, SchemaError
from .intervals import construct_interval
from .softsets import IVHFSoftSet


class CanonicalizationWarning(UserWarning):
    """Input intervals were stored out of canonical order; ``label`` names the cell."""

    def __init__(self, label: str):
        super().__init__(f"{label}: intervals were not in canonical order; sorted on load")
        self.label = label


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise SchemaError(message)


def decode_cell(raw, label: str) -> tuple[tuple[float, float], ...]:
    """One element's validated (lower, upper) pairs, sorted; ``label`` names it in messages.

    Pairs already in rank order are kept as they are, which one pass over
    neighbours shows: a raw sum more than ``kernels._NEAR_TIE`` above its
    predecessor's ranks above it, and only a near tie needs ``rank_key``.
    Only a cell out of order is sorted, with a ``CanonicalizationWarning``.
    """
    _expect(isinstance(raw, list) and raw, f"{label}: expected a nonempty list of [lower, upper] pairs")
    pairs = []
    for pair in raw:
        if type(pair) is list and len(pair) == 2:
            lo, up = pair
            # the common case, which construct_interval would return unchanged
            if type(lo) is float and type(up) is float and 0.0 <= lo <= up <= 1.0:
                pairs.append((lo, up))
                continue
        _expect(
            isinstance(pair, list)
            and len(pair) == 2
            and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair),
            f"{label}: malformed interval {pair!r}",
        )
        try:
            interval = construct_interval(float(pair[0]), float(pair[1]))
        except (ValueError, OverflowError) as exc:
            raise SchemaError(f"{label}: {exc}") from exc
        pairs.append((interval.lower, interval.upper))
    near_tie, rank_key = kernels._NEAR_TIE, kernels.rank_key
    for (al, au), (bl, bu) in pairwise(pairs):
        if (bl + bu) - (al + au) <= near_tie and rank_key(bl, bu) < rank_key(al, au):
            warnings.warn(CanonicalizationWarning(label), stacklevel=3)
            return kernels.sort_element(pairs)
    return tuple(pairs)


def decode_soft_set(doc) -> IVHFSoftSet:
    """Validate a decoded JSON document and build its soft set."""
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
    pairs = {}
    for e in parameters:
        row = values[e]
        _expect(isinstance(row, dict), f"values[{e!r}] must be an object")
        _expect(
            set(row) == set(universe),
            f"values[{e!r}] keys {sorted(row)} must equal universe {sorted(universe)}",
        )
        for h in universe:
            pairs[(e, h)] = decode_cell(row[h], f"cell {e}/{h}")
    return IVHFSoftSet(tuple(universe), tuple(parameters), pairs)


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict; a key given twice is a ``SchemaError``, not last-wins."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise SchemaError(f"duplicate key {key!r}")
            seen.add(key)
    return obj


def parse_document(text: str | bytes) -> IVHFSoftSet:
    """Decode, validate, and canonicalize a soft-set document."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not UTF-8: {exc}") from exc
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except SchemaError:
        raise
    except RecursionError as exc:
        raise ParseError("malformed JSON: nested too deeply") from exc
    except ValueError as exc:  # also an integer beyond int()'s digit limit
        raise ParseError(f"malformed JSON: {exc}") from exc
    return decode_soft_set(doc)


def encode_soft_set(soft_set: IVHFSoftSet) -> dict:
    """The document of a soft set as a JSON-ready dict, numbers exact."""
    return {
        "universe": list(soft_set.universe),
        "parameters": list(soft_set.parameters),
        "values": {
            e: {h: [list(iv) for iv in soft_set.pairs[(e, h)]] for h in soft_set.universe}
            for e in soft_set.parameters
        },
    }


def _render_number(x: float) -> str:
    # Up to 12 significant digits; stable under a parse/serialize round trip.
    # Adding 0.0 turns -0.0 into 0.0; ".12g" prints 0.0 and 1.0 as 0 and 1.
    return format(x + 0.0, ".12g")


def _cell_text(cell) -> str:
    """A rank-ordered cell as printed, in the rank order of its printed values.

    That is the order the parser reads the text back in.  Printing moves an
    endpoint by at most half a unit in the 12th digit, so only a near-tie run
    (``kernels._near_tie_runs``) can change order, and only if some of its
    values do not print exactly; such a run is sorted by its printed values.
    A run whose ends are equal holds only equal intervals, which print alike.

    An endpoint outside [0,1], which only the trusted constructors can hold,
    is refused: the parser would refuse it, and JSON has no NaN or infinity.
    NaN fails both comparisons, so one range check covers every such value.
    The ring sum can round a pair to lower > upper, so order is not checked.
    """
    for lo, up in cell:
        if not (0.0 <= lo <= 1.0 and 0.0 <= up <= 1.0):
            raise OutOfRange(
                "cannot serialize a cell with a non-finite endpoint or one outside [0,1]:"
                f" {list(map(list, cell))}"
            )
    sums = [lo + up for lo, up in cell]
    texts = [f"[{lo + 0.0:.12g}, {up + 0.0:.12g}]" for lo, up in cell]  # _render_number, inlined
    for start, stop in kernels._near_tie_runs(sums):
        if cell[start] == cell[stop - 1]:
            continue
        run = [(float(_render_number(lo)), float(_render_number(up))) for lo, up in cell[start:stop]]
        if run != list(cell[start:stop]):
            texts[start:stop] = [
                f"[{_render_number(lo)}, {_render_number(up)}]" for lo, up in kernels.sort_element(run)
            ]
    return ", ".join(texts)


def serialize_document(soft_set: IVHFSoftSet) -> str:
    """Canonical rendering; deterministic function of the soft set's value."""
    universe, pairs = soft_set.universe, soft_set.pairs
    names = [json.dumps(h) for h in universe]
    out: list[str] = ["{\n"]
    out.append('  "universe": [')
    out.append(", ".join(names))
    out.append("],\n")
    out.append('  "parameters": [')
    out.append(", ".join(json.dumps(e) for e in soft_set.parameters))
    out.append("],\n")
    out.append('  "values": {\n')
    for i, e in enumerate(soft_set.parameters):
        out.append(f"    {json.dumps(e)}: {{\n")
        rows = [f"      {name}: [{_cell_text(pairs[(e, h)])}]" for h, name in zip(universe, names)]
        out.append(",\n".join(rows))
        comma = "," if i + 1 < len(soft_set.parameters) else ""
        out.append(f"\n    }}{comma}\n")
    out.append("  }\n}\n")
    return "".join(out)


def load_file(path) -> IVHFSoftSet:
    with open(path, "rb") as fh:
        return parse_document(fh.read())
