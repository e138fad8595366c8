"""The protocol of the value classes, as their dataclass versions defined it.

``UnitInterval``, ``RankOutcome`` and ``IVHFE`` are immutable, hashable
values; ``IVHFSoftSet`` compares by value but is unhashable.  Each compares
equal only to an instance of its own class, prints as ``Name(field=value,
...)``, keeps its fields in ``__slots__``, survives ``pickle`` and
``copy.deepcopy``, and matches positionally on its fields.  The expected
strings and hashes below were recorded from the dataclass versions.
"""

import copy
import pickle

import pytest

from ivhfss import IVHFE, IVHFSoftSet, RankOutcome, UnitInterval, Verdict

SOFT_PAIRS = {("e1", "h1"): ((0.1, 0.2), (0.1, 0.2)), ("e1", "h2"): ((0.0, 1.0),)}

# name -> (instance, the same value built again by keyword, a different value,
#          the field tuple, the exact repr)
CASES = {
    "UnitInterval": (
        UnitInterval(0.1, 0.1 + 0.2),
        UnitInterval(lower=0.1, upper=0.30000000000000004),
        UnitInterval(0.1, 0.3),
        (0.1, 0.30000000000000004),
        "UnitInterval(lower=0.1, upper=0.30000000000000004)",
    ),
    "RankOutcome": (
        RankOutcome(0.5, Verdict.EQUAL),
        RankOutcome(possibility=0.5, verdict=Verdict.EQUAL),
        RankOutcome(0.5, Verdict.LESS),
        (0.5, Verdict.EQUAL),
        "RankOutcome(possibility=0.5, verdict=<Verdict.EQUAL: 'equal'>)",
    ),
    "IVHFE": (
        IVHFE(((0.1, 0.2), (-0.0, 1.0))),
        IVHFE(pairs=((0.1, 0.2), (0.0, 1.0))),
        IVHFE(((0.1, 0.2),)),
        (((0.1, 0.2), (-0.0, 1.0)),),
        "IVHFE(pairs=((0.1, 0.2), (-0.0, 1.0)))",
    ),
    "IVHFSoftSet": (
        IVHFSoftSet(("h1", "h2"), ("e1",), dict(SOFT_PAIRS)),
        IVHFSoftSet(universe=("h1", "h2"), parameters=("e1",), pairs=dict(SOFT_PAIRS)),
        IVHFSoftSet(("h2", "h1"), ("e1",), dict(SOFT_PAIRS)),
        (("h1", "h2"), ("e1",), SOFT_PAIRS),
        "IVHFSoftSet(universe=('h1', 'h2'), parameters=('e1',), pairs={('e1', 'h1'):"
        " ((0.1, 0.2), (0.1, 0.2)), ('e1', 'h2'): ((0.0, 1.0),)})",
    ),
}
FROZEN = ("UnitInterval", "RankOutcome", "IVHFE")
FIELDS = {
    "UnitInterval": ("lower", "upper"),
    "RankOutcome": ("possibility", "verdict"),
    "IVHFE": ("pairs",),
    "IVHFSoftSet": ("universe", "parameters", "pairs"),
}
# hash() of the dataclass versions, which is hash() of the field tuple
HASHES = {
    "UnitInterval": hash((0.1, 0.30000000000000004)),
    "RankOutcome": hash((0.5, Verdict.EQUAL)),
    "IVHFE": hash((((0.1, 0.2), (0.0, 1.0)),)),
}

names = pytest.mark.parametrize("name", list(CASES))
frozen = pytest.mark.parametrize("name", FROZEN)


@names
def test_equality_is_by_value_within_the_class(name):
    value, same, other, fields, _repr = CASES[name]
    assert value == same and not value != same
    assert value != other and not value == other
    # a tuple of the same fields is a different kind of value, either way round
    assert value != fields and not value == fields
    assert fields != value and not fields == value
    assert value.__eq__(fields) is NotImplemented


@names
def test_fields_are_slots_and_match_args(name):
    value = CASES[name][0]
    assert type(value).__slots__ == FIELDS[name]
    assert type(value).__match_args__ == FIELDS[name]
    assert not hasattr(value, "__dict__")
    assert tuple(getattr(value, f) for f in FIELDS[name]) == CASES[name][3]


@names
def test_repr(name):
    value, _same, _other, _fields, text = CASES[name]
    assert repr(value) == text


@frozen
def test_frozen_values_hash_as_their_field_tuple(name):
    value, same, _other, fields, _repr = CASES[name]
    assert hash(value) == hash(fields) == hash(same) == HASHES[name]
    assert len({value, same}) == 1


def test_soft_set_is_unhashable():
    with pytest.raises(TypeError):
        hash(CASES["IVHFSoftSet"][0])


@frozen
def test_frozen_values_refuse_assignment_and_deletion(name):
    value, same = CASES[name][:2]
    for field in FIELDS[name]:
        with pytest.raises(AttributeError):
            setattr(value, field, 0.5)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert value == same


@names
def test_pickle_and_deepcopy_round_trip(name):
    value = CASES[name][0]
    # a slotted class without __getstate__ pickles only from protocol 2 on
    first = 0 if name in FROZEN else 2
    for protocol in range(first, pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(value, protocol))
        assert type(back) is type(value) and back == value and repr(back) == repr(value)
    for back in (copy.deepcopy(value), copy.copy(value)):
        assert type(back) is type(value) and back == value and repr(back) == repr(value)
    if name == "IVHFSoftSet":
        assert copy.deepcopy(value).pairs is not value.pairs


def test_match_on_match_args():
    def shape(value):
        match value:
            case UnitInterval(lo, up) if lo == up:
                return f"point {lo}"
            case UnitInterval(lo, up):
                return f"interval {lo}..{up}"
            case RankOutcome(p, Verdict.EQUAL):
                return f"tie at {p}"
            case IVHFE(((lo, up),)):
                return f"single {lo}..{up}"
            case IVHFE(pairs):
                return f"{len(pairs)} intervals"
            case IVHFSoftSet(universe, parameters, _pairs):
                return f"{len(parameters)}x{len(universe)}"
        return "other"

    assert shape(UnitInterval(0.5, 0.5)) == "point 0.5"
    assert shape(UnitInterval(0.25, 0.5)) == "interval 0.25..0.5"
    assert shape(RankOutcome(0.5, Verdict.EQUAL)) == "tie at 0.5"
    assert shape(RankOutcome(0.7, Verdict.GREATER)) == "other"
    assert shape(IVHFE(((0.25, 0.5),))) == "single 0.25..0.5"
    assert shape(CASES["IVHFE"][0]) == "2 intervals"
    assert shape(CASES["IVHFSoftSet"][0]) == "1x2"
    assert shape((0.25, 0.5)) == "other"
