"""Admissible curve collections as combinatorial designs.

A product of twists over non-boundary-parallel convex curves can only be
equivalent to a single-outer-twist boundary product if every pair of
interior labels is enclosed by exactly one factor (the linking matrix
forces this).  The factor supports therefore form a linear space on
m = n-1 points: blocks of size 2..m-1 covering every pair exactly once.

This module enumerates such designs up to symmetry, decides replication
feasibility, builds the generalized daisy relation, and searches block
orderings whose product realizes the full twist.
"""

from __future__ import annotations

import functools
import itertools
import random
from collections.abc import Iterable, Sequence

from . import braid
from .braid import BraidWord, _dual_normal_form, _left_weighted, _Value
from .braid import nf_mul, normal_form  # noqa: F401  (bound here so the benchmark tracer can wrap them)
from .surface import (
    BoundaryWord,
    ConvexCurve,
    Relation,
    SurfaceSpec,
    TwistWord,
    _json_int,
    _json_list,
    _json_object,
    _reject_boundary_parallel,
    swing_word,
)

__all__ = [
    "Design",
    "ReplicationVector",
    "SymmetryMode",
    "PairCoverageError",
    "SearchBudget",
    "SearchResult",
    "from_rhs",
    "replication",
    "exponents_from_design",
    "enumerate_designs",
    "feasible_replication",
    "daisy",
    "search_orderings",
]

ReplicationVector = tuple[int, ...]

# symmetry reduction modes for enumeration
SYMMETRY_MODES = ("labeled", "dihedral", "symmetric")
SymmetryMode = str


class PairCoverageError(ValueError):
    """A pair of labels is enclosed by zero or several factors."""

    def __init__(self, x: int, y: int, count: int):
        self.x, self.y, self.count = x, y, count
        super().__init__(f"pair ({x},{y}) covered {count} times, need exactly 1")


class Design(_Value):
    """Linear space on points 1..m, m >= 3: every pair in exactly one block."""

    __slots__ = ("points", "blocks")

    def __init__(self, points: int, blocks: Iterable[Iterable[int]]):
        m = _json_int(points, "m")
        if m < 3:
            raise ValueError(f"a design needs at least 3 points, got {m}")
        blocks = tuple(sorted(tuple(sorted(_json_int(x, "label") for x in b)) for b in blocks))
        cover: dict[tuple[int, int], int] = {}
        for b in blocks:
            if not 2 <= len(b) <= m - 1:
                raise ValueError(f"block {b} has size outside 2..{m - 1}")
            if b[0] < 1 or b[-1] > m:
                raise ValueError(f"block {b} is not a subset of 1..{m}")
            if len(set(b)) != len(b):
                raise ValueError(f"block {b} repeats a point")
            for x, y in itertools.combinations(b, 2):
                cover[(x, y)] = cover.get((x, y), 0) + 1
        for x in range(1, m + 1):
            for y in range(x + 1, m + 1):
                c = cover.get((x, y), 0)
                if c != 1:
                    raise PairCoverageError(x, y, c)
        self._set(m, blocks)

    def to_json_obj(self) -> dict:
        return {"m": self.points, "blocks": [list(b) for b in self.blocks]}

    @staticmethod
    def from_json_obj(obj: dict) -> "Design":
        """A design file's JSON object {"m": ..., "blocks": [...]}; a missing
        or other key or a non-object raises ValueError."""
        _json_object(obj, "design", ("m", "blocks"), ("m", "blocks"))
        blocks = _json_list(obj["blocks"], "blocks")
        return Design(obj["m"], tuple(tuple(_json_list(b, "block")) for b in blocks))


def from_rhs(word: TwistWord) -> Design:
    """Extract the design underlying an RHS twist word.

    Raises PairCoverageError when the supports cannot belong to any
    relation with a single outer twist, ValueError on boundary-parallel
    factors.
    """
    _reject_boundary_parallel(word)
    return Design(word.surface.n - 1, tuple(c.support for c in word.factors))


def replication(d: Design) -> ReplicationVector:
    """Number of blocks containing each point."""
    counts = [0] * d.points
    for b in d.blocks:
        for x in b:
            counts[x - 1] += 1
    return tuple(counts)


def exponents_from_design(d: Design) -> BoundaryWord:
    """The unique boundary product with matching interior multiplicities."""
    r = replication(d)
    return BoundaryWord(SurfaceSpec(d.points + 1), tuple(x - 1 for x in r), outer=1)


# ---------------------------------------------------------------------------
# exhaustive enumeration (exact cover over the pair columns)

@functools.cache
def _cover_all(m: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All labeled designs on m points, 3 <= m <= 7, as sorted block tuples.

    Pairs are numbered as bits and each candidate block carries the mask of
    the pairs it covers.  The search always branches on the lowest uncovered
    pair, over the blocks through it that are disjoint from the covered mask,
    so each design is reached exactly once.
    """
    if not 3 <= m <= 7:
        raise ValueError(f"enumeration supported for 3 <= m <= 7, got {m}")
    bit = {p: 1 << i for i, p in enumerate(itertools.combinations(range(1, m + 1), 2))}
    full = (1 << len(bit)) - 1
    # Every pair below the lowest uncovered one is covered, so a block
    # through it that also holds a lower pair clashes anyway: filing each
    # block under its own lowest pair lists only blocks that can fit.
    through: dict[int, list[tuple[int, tuple[int, ...]]]] = {b: [] for b in bit.values()}
    for size in range(2, m):
        for block in itertools.combinations(range(1, m + 1), size):
            mask = sum(bit[p] for p in itertools.combinations(block, 2))
            through[mask & -mask].append((mask, block))

    out: list[tuple[tuple[int, ...], ...]] = []
    partial: list[tuple[int, ...]] = []

    def _walk(covered: int) -> None:
        if covered == full:
            out.append(tuple(sorted(partial)))
            return
        low = ~covered & (covered + 1)
        for mask, block in through[low]:
            if not mask & covered:
                partial.append(block)
                _walk(covered | mask)
                partial.pop()

    _walk(0)
    return tuple(out)


def _generators(m: int, mode: SymmetryMode) -> list[tuple[int, ...]]:
    """Relabelings that generate the mode's group, each as the images of
    1..m: none for "labeled"; the turn i -> i+1 with the reflection
    i -> m+1-i for "dihedral"; the turn with the swap (1 2) for
    "symmetric"."""
    if mode not in SYMMETRY_MODES:
        raise ValueError(f"unknown symmetry mode {mode!r}, want one of {SYMMETRY_MODES}")
    if mode == "labeled":
        return []
    turn = (*range(2, m + 1), 1)
    if mode == "dihedral":
        return [turn, tuple(range(m, 0, -1))]
    return [turn, (2, 1, *range(3, m + 1))]


@functools.cache
def _classes(m: int, mode: SymmetryMode) -> tuple[Design, ...]:
    """The least member of each orbit of the labeled designs on m points
    under the mode's group, in sorted order.

    Each candidate block is named by its rank in the sorted list of all
    blocks, so a design is a sorted tuple of ranks that compares exactly
    like its block tuple.  Each orbit is closed under the generators, one
    relabeling being a lookup per block in the generator's rank table.
    """
    gens = _generators(m, mode)
    labeled = _cover_all(m)
    blocks = sorted(
        b for size in range(2, m) for b in itertools.combinations(range(1, m + 1), size)
    )
    rank = {b: r for r, b in enumerate(blocks)}
    tables = [[rank[tuple(sorted(g[x - 1] for x in b))] for b in blocks] for g in gens]
    seen: set[tuple[int, ...]] = set()
    least = []
    for sol in labeled:
        start = tuple(rank[b] for b in sol)  # sol is sorted, so its ranks are too
        if start in seen:
            continue
        orbit = {start}
        todo = [start]
        while todo:
            d = todo.pop()
            for table in tables:
                image = tuple(sorted([table[r] for r in d]))
                if image not in orbit:
                    orbit.add(image)
                    todo.append(image)
        seen |= orbit
        least.append(min(orbit))
    return tuple(Design(m, tuple(blocks[r] for r in d)) for d in sorted(least))


def enumerate_designs(m: int, mode: SymmetryMode = "dihedral") -> list[Design]:
    """All designs on m points, one canonical representative per orbit.

    Modes: "labeled" (no reduction), "dihedral" (the 2m isometries of the
    convex arrangement), "symmetric" (all m! relabelings).  The
    representative is the least member of its orbit.
    """
    return list(_classes(_json_int(m, "m"), mode))  # checked first: the cache takes 5.0 for 5


@functools.cache
def _multisets(m: int) -> frozenset[tuple[int, ...]]:
    """The sorted replication vectors of the designs on m points; relabeling
    keeps them, so the dihedral classes carry every one."""
    return frozenset(tuple(sorted(replication(d))) for d in _classes(m, "dihedral"))


def feasible_replication(m: int, r: ReplicationVector) -> bool:
    """True iff some design on m points has exactly this replication vector."""
    r = tuple(_json_int(x, "replication") for x in r)
    if len(r) != _json_int(m, "m"):
        raise ValueError(f"replication vector length {len(r)} != {m} points")
    if m < 3:
        return False
    return tuple(sorted(r)) in _multisets(m)


# ---------------------------------------------------------------------------
# the generalized daisy relation

def daisy(n: int, i: int) -> Relation:
    """The generalized daisy relation on the n-holed sphere, split at i.

    LHS: a_1..a_i = n-i-1, a_{i+1}..a_{n-1} = n-3, one outer twist.
    RHS (written order): one twist over {1..i}, then for each j > i the
    pair twists {j,j-1}, {j,j-2}, ..., {j,1}.  The n=4, i=2 instance is
    the lantern relation.
    """
    if _json_int(n, "n") < 4 or not 2 <= _json_int(i, "i") < n - 1:
        raise ValueError(f"need n >= 4 and 2 <= i < n-1, got n={n}, i={i}")
    surface = SurfaceSpec(n)
    lhs = BoundaryWord(surface, tuple([n - i - 1] * i + [n - 3] * (n - 1 - i)), outer=1)
    factors = [ConvexCurve.over(range(1, i + 1))]
    for j in range(i + 1, n):
        for l in range(j - 1, 0, -1):
            factors.append(ConvexCurve.over([l, j]))
    rhs = TwistWord(surface, tuple(factors))
    return Relation(label=f"daisy({n},{i})", lhs=lhs, rhs=rhs)


# ---------------------------------------------------------------------------
# ordering search

class SearchBudget(_Value):
    """Limits for search_orderings.

    exhaustive_cap: max block count for the complete DFS, which counts
    every realizing ordering exactly; above it the search degrades to
    random shuffles and the result's status says so.
    tries: random shuffles past the cap, drawn from random.Random(seed).
    All three are plain ints (not bools); neither of the first two may be
    negative.  The shuffles depend only on the block count, tries and seed,
    so they are drawn once per such triple and shared by every budget
    class that has it (see _draws).
    Both paths have one prune: each multiply stops as soon as its product
    does not left-divide delta^m, the full twist in the dual Garside
    structure (see search_orderings), past which no order of the unused
    blocks can complete it.  Both paths start at a largest block, the
    head, which leaves the least room under that bound.  The shuffle path
    reads every draw cyclically from the head and recurses over the draws,
    put in buckets by the block that follows, so each shared prefix is
    multiplied once; a draw left alone in its bucket is followed to its end
    in a loop.  Neither changes what is found, only its cost.
    """

    __slots__ = ("exhaustive_cap", "tries", "seed")

    def __init__(self, exhaustive_cap: int = 8, tries: int = 2000, seed: int = 0):
        for name, value in zip(self.__slots__, (exhaustive_cap, tries, seed)):
            _json_int(value, name)
        if exhaustive_cap < 0:
            raise ValueError(f"exhaustive_cap must be >= 0, got {exhaustive_cap}")
        if tries < 0:
            raise ValueError(f"tries must be >= 0, got {tries}")
        self._set(exhaustive_cap, tries, seed)


class SearchResult(_Value):
    """How many orderings of a design's blocks realize the full twist.

    status "exhausted": count is exact, and 0 is a proof of
    non-realizability.  status "budget": count is what random shuffles
    found, and 0 means only that nothing was found.  orderings is the
    sorted tuple of them if the search listed them, else None.
    """

    __slots__ = ("design", "count", "status", "orderings")

    def __init__(self, design: Design, count: int, status: str, orderings: tuple | None = None):
        if orderings is not None and len(orderings) != count:
            raise ValueError(f"count {count} but {len(orderings)} orderings listed")
        self._set(design, count, status, orderings)

    def realizable(self) -> bool:
        return self.count > 0

    def to_json_obj(self) -> dict:
        return {
            "design": self.design.to_json_obj(),
            "orderings_found": self.count,
            "status": self.status,
        }


@functools.lru_cache(maxsize=512)  # every block on up to 7 points is 213 forms
def _block_nf(table: braid._NonCrossing, block: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Dual normal form, in ids of `table`, of the mirror (every letter's
    sign flipped) of the swing over block on table.m strands.

    The form is kept per key, so each is built once per table: callers pass
    the table as it stands at call time, so a fresh table builds the forms
    anew.  The search's one bound rests on the form being delta_S^|S|, of
    infimum 0 and |S| factors; a form that is not raises AssertionError and
    is not kept, so the premise is checked once for every block searched.
    """
    swing = swing_word(ConvexCurve.over(block), SurfaceSpec(table.m + 1))
    form = _dual_normal_form(BraidWord(table.m, tuple(-k for k in swing.letters)))
    if form[0] != 0 or len(form[1]) != len(block):
        raise AssertionError(f"mirrored swing over {block} is not a dual simple power: {form}")
    return form


@functools.lru_cache(maxsize=8)  # an m <= 6 audit's budget classes meet at most 7 block counts
def _draws(k: int, tries: int, seed: int) -> tuple[tuple[int, ...], ...]:
    """`tries` successive shuffles of range(k) by random.Random(seed), each
    as a successor map: draw[i] is the index after i in the shuffle, read
    cyclically, and draw[k] is the first index drawn.

    The shuffle is random.shuffle's own: for i from k-1 down to 1, draw
    j = getrandbits(bits of i+1) until j <= i and swap positions i and j.
    The draws depend only on (k, tries, seed), so they are drawn once per
    key and every budget class with that block count and budget walks the
    same immutable tuple; the last 8 keys are kept.
    """
    getrandbits = random.Random(seed).getrandbits
    steps = [(i, (i + 1).bit_length()) for i in range(k - 1, 0, -1)]
    shuffled = list(range(k))  # shuffle permutes positions the same whatever the items
    succ = [0] * (k + 1)
    draws = []
    for _ in range(tries):
        for i, bits in steps:
            j = getrandbits(bits)
            while j > i:
                j = getrandbits(bits)
            shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
        prev = shuffled[-1]
        for i in shuffled:
            succ[prev] = i
            prev = i
        succ[k] = shuffled[0]
        draws.append(tuple(succ))
    return tuple(draws)


def search_orderings(
    d: Design, budget: SearchBudget = SearchBudget(), *, listed: bool = True
) -> SearchResult:
    """Count the block orderings whose twist product equals the full twist,
    and list them when `listed`.

    Orderings are reported in written order (last block applied first).
    Up to budget.exhaustive_cap blocks the DFS with normal-form
    memoization is complete and the count exact; beyond that, budget.tries
    random shuffles are tried and a count of 0 proves nothing.  With
    listed=False the same multiplies give the same count, and orderings is
    None.

    The exhaustive DFS fixes the block applied first, the head, and
    counts from it.  This is sound because the full twist is central: if
    b.w is the full twist, so is w.b = b^-1 (b.w) b.  The realizing
    application orders are therefore closed under cyclic rotation, and
    since the blocks are distinct each of them has exactly one rotation
    that starts with the head, so the count is the number of blocks times
    the head's completions.  Any block would do; the head is the first
    largest one.  Its mirror is delta_S^|S|, of supremum |S|, the largest of
    any block, so it leaves the least room under the sup bound below and
    products fail soonest.  The memo maps each product to its number of
    completions and its live edges, the (block, next product) pairs with
    a completion; listing walks them from the head, with no multiply.

    The shuffle path uses the same fact.  Its draws depend only on the
    block count, budget.tries and budget.seed, so _draws makes them once
    per such triple and budget classes that share it walk the same tuple.
    Each draw is a successor map, so it can be read cyclically from any
    block; reading it from the head keeps whether the draw realizes the
    full twist.  Like the DFS the walk recurses from the head: the draws
    of a group share their prefix, so they share its last block, and at
    each depth the walk puts them in buckets by the block after it, in the
    order first met, and multiplies once per bucket, so each prefix that
    draws share is multiplied once.  A group of one draw needs no buckets:
    the walk follows it in a loop to its end or its first failed multiply.
    It reports the written orders of the realizing draws as drawn, read
    from the first block drawn, so it finds exactly what multiplying each
    draw out on its own would find.
    Every block's mirrored form is built once per table of simples
    (_block_nf) and shared by every search after.

    Both paths multiply mirrors (every letter's sign flipped) in normal
    forms of the dual Garside structure of Birman-Ko-Lee (1998).  Mirroring
    is an automorphism, so a product of mirrors is the mirror of the
    product, and the mirror of the full twist is delta^m.  Both paths rest
    on one fact, which _block_nf checks for every block it builds: the
    mirror of a block's swing is delta_S^|S| for its support S, so every
    block is dual-positive.  A prefix of a realizing order times the
    positive product of the rest is delta^m, so the prefix left-divides
    delta^m: its dual supremum (infimum + canonical length) is at most m.
    Both paths hold a product as (infimum, factor ids) and multiply it by a
    block in one call of the Garside kernel, _left_weighted, appending the
    block's factors to the product's with the limit m - infimum.  No tau
    conjugation is needed, since every block form has infimum 0, and the
    kernel returns None unfinished as soon as the product's supremum passes
    m; such a product has no completion and is dropped, in the DFS before
    it reaches the memo, in the shuffle path together with every draw that
    shares the failed prefix.  The head is not checked, but a positive
    factor never lowers the supremum, so every product through a failing
    one fails its own step.
    """
    m = d.points
    table = braid._dual_simples(m)
    target = (m, ())  # delta^m, the mirror of the full twist delta^-m
    nf_of = {b: _block_nf(table, b)[1] for b in d.blocks}
    head = max(d.blocks, key=len)
    k = len(d.blocks)

    if k <= budget.exhaustive_cap:
        # memo: partial product -> (completions, live edges).  The product
        # alone fixes the blocks it used: every swing is pure and moves the
        # linking number of exactly its own pairs by the same unit, and each
        # pair lies in exactly one block, so the linking numbers of acc
        # (invariants of the braid) name the used blocks, hence remaining.
        memo: dict[tuple, tuple[int, tuple]] = {}

        def count(remaining: tuple, acc: tuple) -> int:
            if not remaining:
                return int(acc == target)
            hit = memo.get(acc)
            if hit is None:
                inf, ids = acc
                total = 0
                live = []
                for i, b in enumerate(remaining):
                    nxt = _left_weighted(table, ids, nf_of[b], m - inf)
                    if nxt is not None:
                        state = (inf + nxt[0], nxt[1])
                        below = count(remaining[:i] + remaining[i + 1:], state)
                        if below:
                            total += below
                            live.append((b, state))
                # most states are dead; their (0, ()) is one folded constant
                hit = memo[acc] = (total, tuple(live)) if live else (0, ())
            return hit[0]

        start = (0, nf_of[head])
        total = k * count(tuple(b for b in d.blocks if b != head), start)
        if not listed:
            return SearchResult(d, total, "exhausted")
        orderings: list[tuple[tuple[int, ...], ...]] = []

        def list_from(acc: tuple, seq: tuple) -> None:
            if len(seq) == k:
                orderings.extend(tuple(reversed(seq[i:] + seq[:i])) for i in range(k))
                return
            for b, state in memo[acc][1]:
                list_from(state, seq + (b,))

        list_from(start, (head,))
        return SearchResult(d, total, "exhausted", tuple(sorted(orderings)))

    forms = [nf_of[b] for b in d.blocks]
    found: set[tuple[tuple[int, ...], ...]] = set()

    def walk(group: Sequence[tuple[int, ...]], depth: int, cur: int, inf: int, ids: tuple) -> None:
        """Extend (inf, ids), the product of the first depth blocks shared
        by the draws in group, the last of them block cur, by each distinct
        block that follows cur among them; a lone draw is followed to its
        end in a loop."""
        if len(group) == 1:
            draw = group[0]
            for _ in range(depth, k):
                cur = draw[cur]
                nxt = _left_weighted(table, ids, forms[cur], m - inf)
                if nxt is None:
                    return
                inf, ids = inf + nxt[0], nxt[1]
        elif depth < k:
            buckets: dict[int, list] = {}
            for draw in group:
                buckets.setdefault(draw[cur], []).append(draw)
            for i, sub in buckets.items():
                nxt = _left_weighted(table, ids, forms[i], m - inf)
                if nxt is not None:
                    walk(sub, depth + 1, i, inf + nxt[0], nxt[1])
            return
        if (inf, ids) == target:
            for draw in group:
                i = draw[k]
                applied = []
                for _ in range(k):
                    applied.append(i)
                    i = draw[i]
                found.add(tuple(d.blocks[i] for i in reversed(applied)))

    walk(_draws(k, budget.tries, budget.seed), 1, d.blocks.index(head), 0, nf_of[head])
    return SearchResult(d, len(found), "budget", tuple(sorted(found)) if listed else None)
