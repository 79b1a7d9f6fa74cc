"""Star-shaped plumbing graphs and Euler characteristic bookkeeping.

A boundary-parallel word with outer exponent 1 plumbs into a star: one
central vertex of weight -n and, for each interior label with exponent
a >= 2, a chain of a - 1 vertices of weight -2.  Euler characteristics
only need the twist count, so they also apply to words whose curves
intersect and admit no plumbing description.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .surface import BoundaryWord, TwistWord, _json_int, _json_key, _json_list, _json_object

__all__ = [
    "PlumbingGraph",
    "BoundsReport",
    "plumbing_of",
    "euler_characteristic",
    "chi_formulas",
    "bounds",
    "emit",
    "parse",
]


@dataclass(frozen=True)
class PlumbingGraph:
    """Weighted tree; vertices are (id, weight) pairs, weights negative.

    Ids, weights and edge ends must be ints (not bools); nothing is
    truncated or converted.
    """

    vertices: tuple[tuple[int, int], ...]
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        verts = tuple(sorted(
            (_json_int(i, "vertex id"), _json_int(w, "vertex weight")) for i, w in self.vertices
        ))
        ids = [i for i, _ in verts]
        if not ids:
            raise ValueError("graph needs at least one vertex")
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate vertex ids")
        if any(w >= 0 for _, w in verts):
            raise ValueError("vertex weights must be negative")
        known = set(ids)
        norm = set()
        for e in self.edges:
            a, b = (_json_int(x, "edge end") for x in e)
            if a == b or a not in known or b not in known:
                raise ValueError(f"edge {tuple(e)!r} does not join two distinct vertices")
            norm.add((a, b) if a < b else (b, a))
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "edges", frozenset(norm))
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

    def weight(self, vid: int) -> int:
        for i, w in self.vertices:
            if i == vid:
                return w
        raise KeyError(vid)


@dataclass(frozen=True)
class BoundsReport:
    n: int
    min_twists: int
    max_twists: int
    min_chi: int
    max_chi: int


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
    if not 2 <= i < n - 1:
        raise ValueError(f"need 2 <= i < n-1, got i={i}, n={n}")
    lhs = n * n - 5 * n + 6 + 2 * i - i * i
    rhs = 3 - n + (n - i - 1) * (i - 1) + (n - i - 1) * (n - i) // 2
    return lhs, rhs


def bounds(n: int) -> BoundsReport:
    """Twist-count and chi extremes over boundary-parallel words, n >= 5."""
    if n < 5:
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


def parse(text: str) -> PlumbingGraph:
    """Inverse of emit(g, "json"); ids, weights and edge ends must be JSON integers."""
    obj = _json_object(json.loads(text), "plumbing graph")
    verts = []
    for v in _json_list(_json_key(obj, "vertices", "plumbing graph"), "vertices"):
        v = _json_object(v, "vertex")
        verts.append((
            _json_int(_json_key(v, "id", "vertex"), "vertex id"),
            _json_int(_json_key(v, "weight", "vertex"), "vertex weight"),
        ))
    edges = []
    for e in _json_list(_json_key(obj, "edges", "plumbing graph"), "edges"):
        ends = _json_list(e, "edge")
        if len(ends) != 2:
            raise ValueError(f"edge must have two ends, got {e!r}")
        edges.append(tuple(_json_int(x, "edge end") for x in ends))
    return PlumbingGraph(tuple(verts), frozenset(edges))
