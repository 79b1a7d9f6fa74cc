"""Star-shaped plumbing graphs and Euler characteristic bookkeeping.

A boundary-parallel word with outer exponent 1 plumbs into a star: one
central vertex of weight -n and, for each interior label with exponent
a >= 2, a chain of a - 1 vertices of weight -2.  Euler characteristics
only need the twist count, so they also apply to words whose curves
intersect and admit no plumbing description.
"""

from __future__ import annotations

import json
from collections.abc import Iterable

from .braid import _Value
from .surface import BoundaryWord, TwistWord, _json_int

__all__ = [
    "PlumbingGraph",
    "BoundsReport",
    "plumbing_of",
    "euler_characteristic",
    "chi_formulas",
    "bounds",
    "emit",
]


class PlumbingGraph(_Value):
    """Weighted tree; vertices are (id, weight) pairs, weights negative.

    Ids, weights and edge ends must be ints (not bools); nothing is
    truncated or converted.  Edges may be given as any iterable of pairs,
    in either direction; an edge given twice raises.
    """

    __slots__ = ("vertices", "edges")

    def __init__(self, vertices: Iterable[tuple[int, int]], edges: Iterable[tuple[int, int]]):
        verts = tuple(sorted(
            (_json_int(i, "vertex id"), _json_int(w, "vertex weight")) for i, w in vertices
        ))
        ids = [i for i, _ in verts]
        if not ids:
            raise ValueError("graph needs at least one vertex")
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate vertex ids")
        if any(w >= 0 for _, w in verts):
            raise ValueError("vertex weights must be negative")
        known = set(ids)
        norm: dict[tuple[int, int], tuple] = {}  # sorted ends -> the edge as given
        for e in map(tuple, edges):
            if len(e) != 2:
                raise ValueError(f"edge {e!r} must have two ends")
            a, b = (_json_int(x, "edge end") for x in e)
            if a == b or a not in known or b not in known:
                raise ValueError(f"edge {e!r} does not join two distinct vertices")
            key = (a, b) if a < b else (b, a)
            if key in norm:
                raise ValueError(f"edge {e!r} repeats {norm[key]!r}")
            norm[key] = e
        self._set(verts, frozenset(norm))
        if len(norm) != len(ids) - 1 or not self._connected():
            raise ValueError("plumbing graph must be a connected tree")

    def _connected(self) -> bool:
        adj: dict[int, list[int]] = {i: [] for i, _ in self.vertices}
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        start = self.vertices[0][0]
        seen = {start}
        stack = [start]
        while stack:
            for nb in adj[stack.pop()]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        return len(seen) == len(self.vertices)


class BoundsReport(_Value):
    __slots__ = ("n", "min_twists", "max_twists", "min_chi", "max_chi")

    def __init__(self, n: int, min_twists: int, max_twists: int, min_chi: int, max_chi: int):
        self._set(n, min_twists, max_twists, min_chi, max_chi)

    def to_json_obj(self) -> dict:
        return self.__dict__


def plumbing_of(w: BoundaryWord) -> PlumbingGraph:
    """Star graph of a boundary-parallel word: center -n, one (-2)-chain per label.

    Only the outer-exponent-1 case has this description; anything else is
    rejected rather than guessed at.
    """
    n = w.surface.n
    if w.outer != 1:
        raise ValueError(f"plumbing needs outer exponent 1, got {w.outer}")
    if any(a < 1 for a in w.exponents):
        raise ValueError("plumbing needs every interior exponent >= 1")
    verts = [(0, -n)]
    edges = set()
    nxt = 1
    for a in w.exponents:
        prev = 0
        for _ in range(a - 1):
            verts.append((nxt, -2))
            edges.add((prev, nxt))
            prev = nxt
            nxt += 1
    return PlumbingGraph(tuple(verts), frozenset(edges))


def euler_characteristic(w: TwistWord | BoundaryWord) -> int:
    """chi of the filling: 2 - n + (number of twists, exponents expanded)."""
    if isinstance(w, BoundaryWord):
        k = w.twist_count()
    else:
        k = len(w.factors)
    return 2 - w.surface.n + k


def chi_formulas(n: int, i: int) -> tuple[int, int]:
    """Closed-form (lhs_chi, rhs_chi) for the one-i-block family, 2 <= i < n-1."""
    if not 2 <= _json_int(i, "i") < _json_int(n, "n") - 1:
        raise ValueError(f"need 2 <= i < n-1, got i={i}, n={n}")
    lhs = n * n - 5 * n + 6 + 2 * i - i * i
    rhs = 3 - n + (n - i - 1) * (i - 1) + (n - i - 1) * (n - i) // 2
    return lhs, rhs


def bounds(n: int) -> BoundsReport:
    """Twist-count and chi extremes over boundary-parallel words, n >= 5."""
    if _json_int(n, "n") < 5:
        raise ValueError(f"bounds need n >= 5, got {n}")
    return BoundsReport(
        n=n,
        min_twists=2 * n - 4,
        max_twists=(n - 3) * (n - 1) + 1,
        min_chi=n - 2,
        max_chi=n * n - 5 * n + 6,
    )


def emit(g: PlumbingGraph, fmt: str = "json") -> str:
    if fmt == "json":
        obj = {
            "vertices": [{"id": i, "weight": w} for i, w in g.vertices],
            "edges": [list(e) for e in sorted(g.edges)],
        }
        return json.dumps(obj, indent=1, sort_keys=True) + "\n"
    if fmt == "dot":
        lines = ["graph plumbing {"]
        for i, w in g.vertices:
            lines.append(f'  {i} [label="{w}"];')
        for a, b in sorted(g.edges):
            lines.append(f"  {a} -- {b};")
        lines.append("}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")

