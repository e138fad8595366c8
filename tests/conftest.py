import math
from pathlib import Path

import pytest

from ivhfss import IVHFSoftSet, load_file

DATA = Path(__file__).parent / "data"

TOL = 1e-9


@pytest.fixture(scope="session")
def fa() -> IVHFSoftSet:
    return load_file(DATA / "FA.json")


@pytest.fixture(scope="session")
def gb() -> IVHFSoftSet:
    return load_file(DATA / "GB.json")


@pytest.fixture(scope="session")
def gbx() -> IVHFSoftSet:
    """The rearranged form of GB: sorted cells, shorter cell pre-padded."""
    return load_file(DATA / "GBX.json")


@pytest.fixture(scope="session")
def hc() -> IVHFSoftSet:
    return load_file(DATA / "HC.json")


def same_multiset(cell, expected, tol=TOL) -> bool:
    """Order-insensitive cell comparison against a list of (lo, up) pairs."""
    got = sorted(cell.pairs)
    want = sorted((float(lo), float(up)) for lo, up in expected)
    if len(got) != len(want):
        return False
    return all(
        math.isclose(a, c, abs_tol=tol) and math.isclose(b, d, abs_tol=tol)
        for (a, b), (c, d) in zip(got, want)
    )


def assert_table(soft_set: IVHFSoftSet, expected: dict, tol=TOL) -> None:
    """Expected: {param: {obj: [(lo, up), ...]}}; params must match exactly."""
    assert set(soft_set.parameters) == set(expected), (
        f"parameters {soft_set.parameters} != {sorted(expected)}"
    )
    for e, row in expected.items():
        for h, cell in row.items():
            got = soft_set.cell(e, h)
            assert same_multiset(got, cell, tol), (
                f"cell {e}/{h}: got {got.pairs}, want {cell}"
            )


# --- expected tables for the golden fixtures ---

UNION_FA_GB = {
    "e1": {"h1": [(0.3, 0.8), (0.7, 0.9)], "h2": [(0.4, 0.6), (0.4, 0.8), (0.5, 0.7)]},
    "e2": {"h1": [(0.6, 0.9), (0.7, 1.0)], "h2": [(0.3, 0.6), (0.8, 1.0)]},
    "e3": {"h1": [(0.3, 0.6), (0.5, 0.6)], "h2": [(0.1, 0.6), (0.3, 0.9), (0.3, 0.6)]},
}

INTER_FA_GB = {
    "e1": {"h1": [(0.0, 0.6), (0.3, 0.8)], "h2": [(0.3, 0.5), (0.3, 0.7), (0.4, 0.6)]},
    "e2": {"h1": [(0.2, 0.8), (0.6, 0.8)], "h2": [(0.2, 0.6), (0.3, 0.8)]},
}

COMP_UNION_FA_GB = {
    "e1": {"h1": [(0.1, 0.3), (0.2, 0.7)], "h2": [(0.3, 0.5), (0.2, 0.6), (0.4, 0.6)]},
    "e2": {"h1": [(0.0, 0.3), (0.1, 0.4)], "h2": [(0.0, 0.2), (0.4, 0.7)]},
    "e3": {"h1": [(0.4, 0.5), (0.4, 0.7)], "h2": [(0.4, 0.7), (0.1, 0.7), (0.4, 0.9)]},
}

COMP_FA = {
    "e1": {"h1": [(0.2, 0.7)], "h2": [(0.4, 0.5), (0.2, 0.7), (0.4, 0.7)]},
    "e2": {"h1": [(0.0, 0.3), (0.1, 0.8)], "h2": [(0.0, 0.2), (0.4, 0.8)]},
}

COMP_GBX = {
    "e1": {"h1": [(0.1, 0.3), (0.4, 1.0)], "h2": [(0.3, 0.6), (0.3, 0.6), (0.5, 0.6)]},
    "e2": {"h1": [(0.2, 0.4)], "h2": [(0.2, 0.7), (0.4, 0.7)]},
    "e3": {"h1": [(0.4, 0.5), (0.4, 0.7)], "h2": [(0.4, 0.7), (0.1, 0.7), (0.4, 0.9)]},
}

INTER_COMP_FA_COMP_GBX = {
    "e1": {"h1": [(0.1, 0.3), (0.2, 0.7)], "h2": [(0.3, 0.5), (0.2, 0.6), (0.4, 0.6)]},
    "e2": {"h1": [(0.0, 0.3), (0.1, 0.4)], "h2": [(0.0, 0.2), (0.4, 0.7)]},
}

COMP_INTER_FA_GB = {
    "e1": {"h1": [(0.2, 0.7), (0.4, 1.0)], "h2": [(0.4, 0.6), (0.3, 0.7), (0.5, 0.7)]},
    "e2": {"h1": [(0.2, 0.4), (0.2, 0.8)], "h2": [(0.2, 0.7), (0.4, 0.8)]},
}

UNION_COMP_FA_COMP_GBX = {
    "e1": {"h1": [(0.2, 0.7), (0.4, 1.0)], "h2": [(0.4, 0.6), (0.3, 0.7), (0.5, 0.7)]},
    "e2": {"h1": [(0.2, 0.4), (0.2, 0.8)], "h2": [(0.2, 0.7), (0.4, 0.8)]},
    "e3": {"h1": [(0.4, 0.5), (0.4, 0.7)], "h2": [(0.4, 0.7), (0.1, 0.7), (0.4, 0.9)]},
}

INTER_GBX_HC = {
    "e2": {"h1": [(0.2, 0.6), (0.4, 0.6), (0.6, 0.8)], "h2": [(0.3, 0.6), (0.3, 0.8)]},
    "e3": {"h1": [(0.2, 0.5), (0.3, 0.5)], "h2": [(0.1, 0.5), (0.3, 0.8), (0.3, 0.6)]},
}

UNION_GBX_HC = {
    "e1": {"h1": [(0.0, 0.6), (0.7, 0.9)], "h2": [(0.4, 0.5), (0.4, 0.7), (0.4, 0.7)]},
    "e2": {"h1": [(0.6, 0.8), (0.6, 0.8), (0.7, 1.0)], "h2": [(0.3, 0.8), (0.3, 0.8)]},
    "e3": {"h1": [(0.3, 0.6), (0.5, 0.6)], "h2": [(0.2, 0.6), (0.6, 0.9), (0.6, 0.8)]},
}

UNION_FA_HC = {
    "e1": {"h1": [(0.3, 0.8)], "h2": [(0.3, 0.6), (0.3, 0.8), (0.5, 0.6)]},
    "e2": {"h1": [(0.2, 0.9), (0.7, 1.0), (0.7, 1.0)], "h2": [(0.3, 0.8), (0.8, 1.0)]},
    "e3": {"h1": [(0.2, 0.5), (0.3, 0.5)], "h2": [(0.2, 0.5), (0.6, 0.8)]},
}

FAMILY_UNION = {
    "e1": {"h1": [(0.3, 0.8), (0.7, 0.9)], "h2": [(0.4, 0.6), (0.4, 0.8), (0.5, 0.7)]},
    "e2": {"h1": [(0.6, 0.9), (0.7, 1.0), (0.7, 1.0)], "h2": [(0.3, 0.8), (0.8, 1.0)]},
    "e3": {"h1": [(0.3, 0.6), (0.5, 0.6)], "h2": [(0.2, 0.6), (0.6, 0.9), (0.6, 0.8)]},
}

FAMILY_INTERSECTION = {
    "e2": {"h1": [(0.2, 0.6), (0.4, 0.6), (0.6, 0.8)], "h2": [(0.2, 0.6), (0.3, 0.8)]},
}
