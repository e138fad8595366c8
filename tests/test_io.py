"""Document parsing, validation, and canonical serialization."""

import json
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from ivhfss import _kernels_py as kernels
from ivhfss import construct_interval, parse_document, serialize_document
from ivhfss.errors import IvhfssError, OutOfRange, ParseError, SchemaError
from ivhfss.io import CanonicalizationWarning, _cell_text, _render_number, decode_cell
from ivhfss.softsets import IVHFSoftSet

DATA = Path(__file__).parent / "data"

GOLDEN_FILES = ["FA.json", "GB.json", "GBX.json", "HC.json"]


def doc(values, universe=("h1",), parameters=("e1",)):
    return json.dumps(
        {"universe": list(universe), "parameters": list(parameters), "values": values}
    )


class TestParse:
    def test_worked_input(self):
        fa = parse_document((DATA / "FA.json").read_text())
        assert fa.parameters == ("e1", "e2")
        assert fa.universe == ("h1", "h2")
        assert fa.cell("e1", "h2").size == 3

    def test_malformed_json(self):
        with pytest.raises(ParseError):
            parse_document("{not json")

    @pytest.mark.parametrize(
        "values",
        [
            {"e1": {"h1": [[0.2, 1.2]]}},  # endpoint out of range
            {"e1": {"h1": [[0.8, 0.6]]}},  # inverted pair
            {"e1": {"h1": []}},  # empty interval list
            {"e1": {}},  # missing object
            {},  # missing parameter
            {"e1": {"h1": [[0.1]]}},  # not a pair
            {"e1": {"h1": [[0.1, "x"]]}},  # non-numeric
        ],
    )
    def test_schema_errors(self, values):
        with pytest.raises(SchemaError):
            parse_document(doc(values))

    def test_unsorted_input_warns_and_sorts(self):
        text = doc({"e1": {"h1": [[0.5, 0.6], [0.1, 0.2]]}})
        with pytest.warns(CanonicalizationWarning):
            ss = parse_document(text)
        assert ss.cell("e1", "h1").pairs == ((0.1, 0.2), (0.5, 0.6))

    def test_sorted_input_does_not_warn(self):
        text = doc({"e1": {"h1": [[0.1, 0.2], [0.5, 0.6]]}})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            parse_document(text)

    @pytest.mark.parametrize(
        "text",
        [
            '{"universe": ["h1"], "universe": ["h1"], "parameters": ["e1"], "values": {"e1": {"h1": [[0, 1]]}}}',
            '{"universe": ["h1"], "parameters": ["e1"], "values": {"e1": {"h1": [[0, 1]]}, "e1": {"h1": [[0, 1]]}}}',
            '{"universe": ["h1"], "parameters": ["e1"], "values": {"e1": {"h1": [[0, 1]], "h1": [[0, 0.5]]}}}',
        ],
        ids=["top-level", "parameter", "object"],
    )
    def test_duplicate_keys_are_a_schema_error(self, text):
        # json.loads alone keeps the last value of a repeated key
        with pytest.raises(SchemaError, match="duplicate key"):
            parse_document(text)

    def test_non_utf8_bytes(self):
        with pytest.raises(ParseError):
            parse_document(b"\xff\xfe{}")


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)
names = st.sampled_from(["e1", "e2", "h1", "h2", ""])
unique_names = st.lists(names, min_size=1, max_size=3, unique=True)
endpoints = st.floats(0, 1) | st.integers(-1, 2) | st.floats() | json_values
pairs = st.lists(endpoints, min_size=2, max_size=2) | st.lists(endpoints, max_size=3)
cells = st.lists(pairs | json_values, min_size=1, max_size=3) | json_values


@st.composite
def soft_set_shaped(draw):
    """Documents with the right keys and anything, mostly almost right, inside."""
    universe = draw(unique_names | st.lists(names, max_size=3) | json_values)
    parameters = draw(unique_names | st.lists(names, max_size=3) | json_values)
    objects = [h for h in universe if isinstance(h, str)] if isinstance(universe, list) else []
    keys = [e for e in parameters if isinstance(e, str)] if isinstance(parameters, list) else []
    rows = st.fixed_dictionaries({h: cells for h in objects}) | st.dictionaries(names, cells, max_size=3)
    values = draw(
        st.fixed_dictionaries({e: rows for e in keys})
        | st.dictionaries(names, rows | json_values, max_size=3)
        | json_values
    )
    return {"universe": universe, "parameters": parameters, "values": values}


class TestFuzz:
    """Whatever the input, only the package's own errors leave parse_document."""

    @staticmethod
    def parse(data):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CanonicalizationWarning)
            try:
                parse_document(data)
            except IvhfssError:
                pass

    @given(st.binary(max_size=200))
    def test_arbitrary_bytes(self, data):
        self.parse(data)

    @given(json_values | soft_set_shaped())
    def test_json_shaped_documents(self, doc):
        self.parse(json.dumps(doc))
        self.parse(json.dumps(doc).encode())


class TestRoundTrip:
    @pytest.mark.parametrize("name", GOLDEN_FILES)
    def test_golden_files_are_fixpoints(self, name):
        text = (DATA / name).read_text()
        assert serialize_document(parse_document(text)) == text

    def test_serialize_then_parse_preserves_values(self):
        text = doc({"e1": {"h1": [[0.1, 0.2], [0.3, 0.5]]}})
        ss = parse_document(text)
        again = parse_document(serialize_document(ss))
        assert again.cell("e1", "h1") == ss.cell("e1", "h1")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_endpoint_is_refused(self, bad):
        # only the trusted constructor can build such a cell; JSON has no value for it
        ss = IVHFSoftSet(("h1",), ("e1", "e2"), {("e1", "h1"): ((0.1, 0.2),), ("e2", "h1"): ((0.0, 0.5), (bad, 0.5))})
        with pytest.raises(OutOfRange, match="non-finite endpoint"):
            serialize_document(ss)

    @pytest.mark.parametrize("bad", [(0.5, 2.0), (-0.25, 0.5)])
    def test_endpoint_outside_the_unit_interval_is_refused(self, bad):
        # the parser would refuse the printed cell, so the serializer does not print it
        ss = IVHFSoftSet(("h1",), ("e1",), {("e1", "h1"): ((0.1, 0.2), bad)})
        with pytest.raises(OutOfRange, match=r"outside \[0,1\]"):
            serialize_document(ss)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1, allow_nan=False),
                st.floats(min_value=0, max_value=1, allow_nan=False),
            ),
            min_size=1,
            max_size=4,
        ),
        st.lists(
            st.tuples(st.floats(min_value=-1e-11, max_value=1e-11), st.floats(min_value=-1e-12, max_value=1e-12)),
            max_size=3,
        ),
    )
    # sums 2e-13 apart: the exact values and the printed ones rank these two in opposite orders
    @example([(0.2000000000014, 0.8), (0.2000000000006, 0.8000000000006)], [])
    def test_canonical_rendering_is_stable(self, pairs, near_ties):
        pairs = [sorted(p) for p in pairs]
        # plant near ties: move an interval's endpoints apart by up to 1e-11
        # each while its sum moves by at most 1e-12
        for (lo, up), (shift, drift) in zip(list(pairs), near_ties):
            if 0 <= lo + shift <= up - shift + drift <= 1:
                pairs.append([lo + shift, up - shift + drift])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CanonicalizationWarning)
            first = serialize_document(parse_document(doc({"e1": {"h1": pairs}})))
        with warnings.catch_warnings():
            warnings.simplefilter("error", CanonicalizationWarning)
            second = serialize_document(parse_document(first))
        assert first == second


# --- the decoder's fast path and the renderer, against the formulas they replaced ---


def validating_decode_cell(raw, label):
    """``decode_cell`` as it was before its fast path: every pair through
    ``construct_interval``."""
    if not (isinstance(raw, list) and raw):
        raise SchemaError(f"{label}: expected a nonempty list of [lower, upper] pairs")
    pairs = []
    for pair in raw:
        if not (
            isinstance(pair, list)
            and len(pair) == 2
            and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)
        ):
            raise SchemaError(f"{label}: malformed interval {pair!r}")
        try:
            interval = construct_interval(float(pair[0]), float(pair[1]))
        except (ValueError, OverflowError) as exc:
            raise SchemaError(f"{label}: {exc}") from exc
        pairs.append((interval.lower, interval.upper))
    ordered = kernels.sort_element(pairs)
    if ordered != tuple(pairs):
        warnings.warn(CanonicalizationWarning(label), stacklevel=3)
    return ordered


def decode_outcome(decode, raw):
    """What ``decode`` does with ``raw``: its pairs or error, and its warnings, as text."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = repr(decode(raw, "cell e/h"))
        except SchemaError as exc:
            result = f"SchemaError: {exc}"
    return result, [(w.category, str(w.message)) for w in caught]


# what json.loads can hand the decoder for one endpoint
json_endpoint = st.one_of(
    st.floats(min_value=0, max_value=1),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0, 1, 2, -1, True, False, -0.0, 0.0, 1.0, 2**1100]),
    st.sampled_from(["NaN", "Infinity", "-Infinity", "1e400", "-1e400"]).map(json.loads),
)
json_pair = st.one_of(
    st.lists(st.floats(min_value=0, max_value=1), min_size=2, max_size=2).map(sorted),
    st.lists(json_endpoint, min_size=2, max_size=2),
    st.lists(json_endpoint, min_size=1, max_size=3),
    st.text(max_size=3),
    st.lists(st.lists(json_endpoint, max_size=2), min_size=2, max_size=2),
    st.none(),
)


class TestDecodeCell:
    @given(st.one_of(st.lists(json_pair, max_size=8), st.text(max_size=2), st.none()))
    @example([[0, 1], [0.5, 0.25], [0.25, 0.5]])
    @example([[0.5, 0.6], [-0.0, 0.5], [True, 1.0]])
    @example(json.loads("[[0.1, NaN]]"))
    @example(json.loads("[[0.1, 1e400]]"))
    @example(json.loads("[[-Infinity, 0.5]]"))
    @example([[0.7, 0.3]])
    @example([[1e-200, 1.0000000000000002]])
    @example([[0.1, 0.2, 0.3]])
    @example([["0.1", 0.2]])
    @example([[[0.1], 0.2]])
    @example([])
    def test_same_pairs_warnings_and_messages_as_the_validating_loop(self, raw):
        assert decode_outcome(decode_cell, raw) == decode_outcome(validating_decode_cell, raw)


def render_as_before(x):
    if x == int(x):
        return str(int(x))
    return format(x, ".12g")


class TestRenderNumber:
    @given(st.floats(min_value=0, max_value=1))
    @example(-0.0)
    @example(0.0)
    @example(1.0)
    @example(5e-324)
    @example(1 - 2**-53)
    def test_same_text_as_the_integral_branch(self, x):
        assert _render_number(x) == render_as_before(x)


# --- the decoder's order check and the renderer's near-tie runs ---

# cells a decoder or renderer can meet: JSON integers, -0.0, and endpoints
# that do not print exactly at 12 digits (0.1 + 0.2 prints as 0.3)
LITERAL_PAIRS = (
    [0, 1], [0, 0], [1, 1], [-0.0, 0.0], [-0.0, 0.5], [0, 0.5], [0.0, 0.5],
    [0.1, 0.1 + 0.2], [0.7 + 0.1, 0.9], [1 / 3, 2 / 3],
)


@st.composite
def near_tie_cells(draw):
    """1-40 valid [lower, upper] lists, in no particular order.

    Besides free intervals they hold near-tie chains, whose neighbours' raw
    sums lie 1e-16 to 1e-11 apart (or exactly ``_NEAR_TIE``) while their
    lower endpoints differ, duplicates and ``LITERAL_PAIRS``.
    """
    cell = []
    for _ in range(draw(st.integers(1, 40))):
        kind = draw(st.sampled_from(("free", "chain", "duplicate", "literal")))
        if kind == "chain" and cell:
            lo, up = map(float, cell[-1])
            gap = draw(st.floats(1e-16, 1e-11) | st.just(kernels._NEAR_TIE)) * draw(st.sampled_from((1, -1)))
            shift = draw(st.floats(-1e-3, 1e-3) | st.just(0.0))
            if 0.0 <= lo + shift <= up - shift + gap <= 1.0:
                cell.append([lo + shift, up - shift + gap])
                continue
        if kind == "duplicate" and cell:
            cell.append(list(draw(st.sampled_from(cell))))
        elif kind == "literal":
            cell.append(list(draw(st.sampled_from(LITERAL_PAIRS))))
        else:
            cell.append(sorted(draw(st.lists(st.floats(0, 1), min_size=2, max_size=2))))
    return cell


def float_pairs(raw):
    return tuple((float(lo), float(up)) for lo, up in raw)


def rank_sorted(raw):
    return sorted(raw, key=lambda p: kernels.rank_key(float(p[0]), float(p[1])))


# sums 2e-13 apart round to one quantized midpoint, so the lower endpoint
# decides: this order is canonical although its raw sums descend
NEAR_TIE_CANONICAL = [[0.2000000000006, 0.8000000000006], [0.2000000000014, 0.8]]


class TestDecodeOrder:
    @given(near_tie_cells().flatmap(lambda cell: st.just(rank_sorted(cell)) | st.permutations(cell)))
    @example(NEAR_TIE_CANONICAL)
    @example(NEAR_TIE_CANONICAL[::-1])
    @example([[0, 0], [0.0, 1e-11]])  # raw sums exactly _NEAR_TIE apart
    @example([[0.0, 1e-11], [0, 0]])
    @example([[0.0, 0.5], [-0.0, 0.5], [0, 0.5]])
    def test_decode_is_the_sort_and_warns_exactly_when_it_moves(self, raw):
        pairs = float_pairs(raw)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = decode_cell(raw, "cell e/h")
        want = kernels.sort_element(pairs)
        assert repr(got) == repr(want)  # repr tells -0.0 from 0.0
        assert [w.category for w in caught] == ([CanonicalizationWarning] if want != pairs else [])

    def test_a_canonical_cell_decodes_without_a_sort(self, monkeypatch):
        def no_sort(intervals):
            raise AssertionError(f"sorted {intervals}")

        raw = [[0, 0], [0.1, 0.2], [0.1, 0.2]] + NEAR_TIE_CANONICAL + [[0.5, 1]]
        monkeypatch.setattr(kernels, "sort_element", no_sort)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert decode_cell(raw, "cell e/h") == float_pairs(raw)
            with pytest.raises(AssertionError, match="sorted"):
                decode_cell(raw[::-1], "cell e/h")
        assert [w.category for w in caught] == [CanonicalizationWarning]  # the reversed cell only


def cell_text_as_before(cell):
    """``_cell_text`` without its range check, as it was before it skipped
    runs of equal intervals: every near-tie run is rendered, read back and
    compared."""
    sums = [lo + up for lo, up in cell]
    texts = [f"[{_render_number(lo)}, {_render_number(up)}]" for lo, up in cell]
    for start, stop in kernels._near_tie_runs(sums):
        run = [(float(_render_number(lo)), float(_render_number(up))) for lo, up in cell[start:stop]]
        if run != list(cell[start:stop]):
            texts[start:stop] = [
                f"[{_render_number(lo)}, {_render_number(up)}]" for lo, up in kernels.sort_element(run)
            ]
    return ", ".join(texts)


class TestCellText:
    @given(near_tie_cells())
    @example([[0.1, 0.1 + 0.2]] * 3)
    @example([[0.1, 0.1 + 0.2]] * 2 + [[0.1, 0.3]] + [[0.7 + 0.1, 0.9]] * 2)
    @example(NEAR_TIE_CANONICAL * 2 + [[0.2000000000014, 0.8]])
    @example([[-0.0, 0.5], [0.0, 0.5], [0.2, 0.3], [0, 0.5]])
    # equal lower endpoints at both ends of a run whose middle moves to the front when printed
    @example([[0.1, 0.5], [0.05000000000004, 0.55000000000047], [0.1, 0.5000000000015]])
    def test_same_text_as_rendering_every_run(self, raw):
        cell = kernels.sort_element(float_pairs(raw))
        assert _cell_text(cell) == cell_text_as_before(cell)
