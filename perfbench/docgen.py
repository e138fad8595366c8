"""Seeded soft-set documents for the CLI workloads.

The generator does not import ``ivhfss``: it writes the document format
directly, so the inputs stay the same whatever the code under test does.
Endpoints are whole thousandths, so midpoint ties and duplicate intervals
occur, and some are planted on purpose.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Shape:
    parameters: int
    objects: int
    min_intervals: int
    max_intervals: int
    canonical: bool  # store cells in rank order, as ivhfss writes them


SHAPES = {
    "docs-tall": Shape(parameters=12, objects=200, min_intervals=1, max_intervals=6, canonical=True),
    "docs-wide": Shape(parameters=8, objects=24, min_intervals=16, max_intervals=32, canonical=False),
}


def rank_key(iv):
    """The library's documented total order: quantized midpoint, lower, upper."""
    lo, up = iv
    return (round(lo + up, 12), lo, up)


def render_number(x: float) -> str:
    return str(int(x)) if x == int(x) else format(x, ".12g")


def _interval(rng: random.Random, previous: list) -> tuple:
    roll = rng.random()
    if previous and roll < 0.1:
        return rng.choice(previous)  # exact duplicate
    if previous and roll < 0.2:
        lo, up = rng.choice(previous)  # same midpoint, other endpoints
        d = rng.randint(1, 50) / 1000
        if lo - d >= 0.0 and up + d <= 1.0:
            return (round(lo - d, 3), round(up + d, 3))
    a, b = rng.randint(0, 1000), rng.randint(0, 1000)
    return (min(a, b) / 1000, max(a, b) / 1000)


def _cell(rng: random.Random, shape: Shape) -> list:
    cell: list = []
    for _ in range(rng.randint(shape.min_intervals, shape.max_intervals)):
        cell.append(_interval(rng, cell))
    ordered = sorted(cell, key=rank_key)
    if shape.canonical:
        return ordered
    rng.shuffle(cell)
    if cell == ordered:
        cell.reverse()
    if cell == ordered:  # all members equal: plant one distinct interval first
        cell.insert(0, (1.0, 1.0) if cell[0] != (1.0, 1.0) else (0.0, 0.0))
    return cell


def render(universe, parameters, values) -> bytes:
    """The canonical layout of ``ivhfss.io.serialize_document``."""
    out = ['{\n  "universe": [', ", ".join(json.dumps(h) for h in universe), "],\n"]
    out += ['  "parameters": [', ", ".join(json.dumps(e) for e in parameters), "],\n"]
    out.append('  "values": {\n')
    for i, e in enumerate(parameters):
        out.append(f"    {json.dumps(e)}: {{\n")
        for j, h in enumerate(universe):
            cell = ", ".join(f"[{render_number(lo)}, {render_number(up)}]" for lo, up in values[e][h])
            comma = "," if j + 1 < len(universe) else ""
            out.append(f"      {json.dumps(h)}: [{cell}]{comma}\n")
        out.append(f"    }}{',' if i + 1 < len(parameters) else ''}\n")
    out.append("  }\n}\n")
    return "".join(out).encode("utf-8")


def make_documents(workload: str, seed: int) -> dict[str, bytes]:
    """Documents A, B and C for one workload and seed.

    B shares the first half of A's parameters and adds as many of its own,
    so union both copies and combines; C has exactly A's parameters, as the
    ring operations require.
    """
    shape = SHAPES[workload]
    rng = random.Random(f"{workload}:{seed}")
    universe = [f"o{j:04d}" for j in range(shape.objects)]
    a_params = [f"p{i:03d}" for i in range(shape.parameters)]
    half = shape.parameters // 2
    b_params = a_params[:half] + [f"q{i:03d}" for i in range(shape.parameters - half)]
    docs = {}
    for name, params in (("A", a_params), ("B", b_params), ("C", a_params)):
        values = {e: {h: _cell(rng, shape) for h in universe} for e in params}
        docs[name] = render(universe, params, values)
    return docs
