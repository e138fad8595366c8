"""An independent statement of the CLI operations, for spot checks.

Written from the library's documented semantics, with each kernel formula in
the same order of operations, so results agree bit for bit.  Elements are
lists of ``(lower, upper)`` floats; a document is ``(parameters, cells)``
with ``cells[(parameter, object)]`` an element in canonical order.
"""

from __future__ import annotations

import json

from docgen import rank_key


def canonical(element):
    return sorted(element, key=rank_key)


def load(raw: bytes):
    doc = json.loads(raw)
    cells = {
        (e, h): canonical([tuple(map(float, iv)) for iv in doc["values"][e][h]])
        for e in doc["parameters"]
        for h in doc["universe"]
    }
    return doc["parameters"], cells


def _join(x, y):
    return (x[0] if x[0] >= y[0] else y[0], x[1] if x[1] >= y[1] else y[1])


def _meet(x, y):
    return (x[0] if x[0] <= y[0] else y[0], x[1] if x[1] <= y[1] else y[1])


def _pad(element, size):
    return element + [element[-1]] * (size - len(element))  # optimistic


def aligned(kernel, a, b):
    n = max(len(a), len(b))
    return canonical([kernel(x, y) for x, y in zip(_pad(a, n), _pad(b, n))])


def all_pairs(kernel, a, b):
    return canonical(set(kernel(x, y) for x in a for y in b))


def complement(a):
    return canonical([(1.0 - up, 1.0 - lo) for lo, up in a])


def ring_sum(x, y):
    return (x[0] + y[0] - x[0] * y[0], x[1] + y[1] - x[1] * y[1])


def ring_product(x, y):
    return (x[0] * y[0], x[1] * y[1])


def _o1(a, b):
    d = a - b if a >= b else b - a
    return d / (1.0 + d)


def _o4(a, b):
    return ((a + b) / (2.0 * (a * b + 1.0))) / 2.0


def operator(scalar):
    def kernel(x, y):
        lo, up = scalar(x[0], y[0]), scalar(x[1], y[1])
        return (lo, up) if lo <= up else (up, lo)
    return kernel


def score(a):
    lo = up = 0.0
    for l, u in a:
        lo += l
        up += u
    return (lo / len(a), up / len(a))


def soft_union(f, g, combine):
    (fp, fc), (gp, gc) = f, g
    params = list(fp) + [e for e in gp if e not in set(fp)]
    objects = {h for _, h in fc}
    cells = {}
    for e in params:
        for h in objects:
            if e in fp and e in gp:
                cells[(e, h)] = combine(fc[(e, h)], gc[(e, h)])
            else:
                cells[(e, h)] = (fc if e in fp else gc)[(e, h)]
    return params, cells


def shared_cellwise(f, g, op):
    (fp, fc), (gp, gc) = f, g
    params = [e for e in fp if e in set(gp)]
    return params, {k: op(v, gc[k]) for k, v in fc.items() if k[0] in params}


def expected(command: str, parsed: dict):
    """(parameters, cells) the command should produce from loaded A, B, C."""
    a, b, c = parsed["A"], parsed["B"], parsed["C"]
    union = lambda f, g: soft_union(f, g, lambda x, y: aligned(_join, x, y))
    table = {
        "union": lambda: union(a, b),
        "union-pairwise": lambda: soft_union(a, b, lambda x, y: all_pairs(_join, x, y)),
        "intersect": lambda: shared_cellwise(a, b, lambda x, y: aligned(_meet, x, y)),
        "complement": lambda: (a[0], {k: complement(v) for k, v in a[1].items()}),
        "ringsum": lambda: shared_cellwise(a, c, lambda x, y: all_pairs(ring_sum, x, y)),
        "ringprod": lambda: shared_cellwise(a, c, lambda x, y: all_pairs(ring_product, x, y)),
        "o1": lambda: shared_cellwise(a, c, lambda x, y: all_pairs(operator(_o1), x, y)),
        "o4": lambda: shared_cellwise(a, c, lambda x, y: all_pairs(operator(_o4), x, y)),
        "family-union": lambda: union(union(a, b), c),
        "score": lambda: (a[0], {k: score(v) for k, v in a[1].items()}),
    }
    return table[command]()
