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
from dataclasses import dataclass

from .braid import BraidWord, _dual_mul, _dual_normal_form, full_twist
from .braid import nf_mul, normal_form  # noqa: F401  (bound here so the benchmark tracer can wrap them)
from .surface import (
    BoundaryWord,
    ConvexCurve,
    Relation,
    SurfaceSpec,
    TwistWord,
    _json_int,
    _json_key,
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


@dataclass(frozen=True)
class Design:
    """Linear space on points 1..m, m >= 3: every pair in exactly one block."""

    points: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        m = _json_int(self.points, "m")
        if m < 3:
            raise ValueError(f"a design needs at least 3 points, got {m}")
        blocks = tuple(sorted(tuple(sorted(_json_int(x, "label") for x in b)) for b in self.blocks))
        object.__setattr__(self, "blocks", blocks)
        cover: dict[tuple[int, int], int] = {}
        for b in blocks:
            if not 2 <= len(b) <= m - 1:
                raise ValueError(f"block {b} has size outside 2..{m - 1}")
            if b[0] < 1 or b[-1] > m or len(set(b)) != len(b):
                raise ValueError(f"block {b} is not a subset of 1..{m}")
            for x, y in itertools.combinations(b, 2):
                cover[(x, y)] = cover.get((x, y), 0) + 1
        for x in range(1, m + 1):
            for y in range(x + 1, m + 1):
                c = cover.get((x, y), 0)
                if c != 1:
                    raise PairCoverageError(x, y, c)

    def to_json_obj(self) -> dict:
        return {"m": self.points, "blocks": [list(b) for b in self.blocks]}

    @staticmethod
    def from_json_obj(obj: dict) -> "Design":
        """A design file's JSON object {"m": ..., "blocks": [...]}; a missing
        key or a non-object raises ValueError."""
        m = _json_key(_json_object(obj, "design"), "m", "design")
        blocks = _json_list(_json_key(obj, "blocks", "design"), "blocks")
        return Design(m, tuple(tuple(_json_list(b, "block")) for b in blocks))


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
    return list(_classes(m, mode))


@functools.cache
def _multisets(m: int) -> frozenset[tuple[int, ...]]:
    """The sorted replication vectors of the designs on m points; relabeling
    keeps them, so the dihedral classes carry every one."""
    return frozenset(tuple(sorted(replication(d))) for d in _classes(m, "dihedral"))


def feasible_replication(m: int, r: ReplicationVector) -> bool:
    """True iff some design on m points has exactly this replication vector."""
    if len(r) != m:
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
    if n < 4 or not 2 <= i < n - 1:
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

@dataclass(frozen=True)
class SearchBudget:
    """Limits for search_orderings.

    exhaustive_cap: max block count for the complete DFS; above it the
    search degrades to random shuffles and the result's status says so.
    tries: random shuffles past the cap, drawn from random.Random(seed).
    Neither may be negative.
    Both paths drop a partial product as soon as the inf/sup bound of the
    dual Garside structure (see search_orderings) shows no order of the
    unused blocks can complete it; since every block is dual-positive, that
    is as soon as the product does not left-divide delta^m, the full twist.
    A multiply stops as soon as its product passes the sup bound.  The
    shuffle path also rotates every draw to start at the same block and
    recurses over the draws, put in buckets by their next block, so each
    shared prefix is multiplied once.  Neither changes what is found, only
    its cost.
    """

    exhaustive_cap: int = 8
    tries: int = 2000
    seed: int = 0

    def __post_init__(self):
        if self.exhaustive_cap < 0:
            raise ValueError(f"exhaustive_cap must be >= 0, got {self.exhaustive_cap}")
        if self.tries < 0:
            raise ValueError(f"tries must be >= 0, got {self.tries}")


@dataclass(frozen=True)
class SearchResult:
    """Orderings of a design's blocks realizing the full twist.

    status "exhausted": orderings is the complete list; empty means a
    proof of non-realizability.  status "budget": incomplete search;
    empty means only that nothing was found.
    """

    design: Design
    orderings: tuple[tuple[tuple[int, ...], ...], ...]
    status: str

    def realizable(self) -> bool:
        return bool(self.orderings)

    def to_json_obj(self) -> dict:
        return {
            "design": self.design.to_json_obj(),
            "orderings_found": len(self.orderings),
            "status": self.status,
        }


def _mirror_nf(w: BraidWord) -> tuple[int, tuple[int, ...]]:
    """Dual normal form of the mirror of w (every letter's sign flipped)."""
    return _dual_normal_form(BraidWord(w.strands, tuple(-k for k in w.letters)))


def _block_nf(m: int, block: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    surface = SurfaceSpec(m + 1)
    return _mirror_nf(swing_word(ConvexCurve.over(block), surface))


def _draws(k: int, tries: int, seed: int) -> list[tuple[int, ...]]:
    """`tries` successive shuffles of range(k) by random.Random(seed), each
    rotated to start at 0 and followed by the rotation.

    The shuffle is random.shuffle's own: for i from k-1 down to 1, draw
    j = getrandbits(bits of i+1) until j <= i and swap positions i and j.
    """
    getrandbits = random.Random(seed).getrandbits
    steps = [(i, (i + 1).bit_length()) for i in range(k - 1, 0, -1)]
    shuffled = list(range(k))  # shuffle permutes positions the same whatever the items
    draws = []
    for _ in range(tries):
        for i, bits in steps:
            j = getrandbits(bits)
            while j > i:
                j = getrandbits(bits)
            shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
        rot = shuffled.index(0)
        draws.append((*shuffled[rot:], *shuffled[:rot], rot))
    return draws


def search_orderings(d: Design, budget: SearchBudget = SearchBudget()) -> SearchResult:
    """Find block orderings whose twist product equals the full twist.

    Orderings are reported in written order (last block applied first).
    Up to budget.exhaustive_cap blocks the DFS with normal-form
    memoization is complete; beyond that, budget.tries random shuffles are
    tried and an empty result proves nothing.

    The exhaustive DFS fixes the block applied first and rotates what it
    finds.  This is sound because the full twist is central: if b.w is the
    full twist, so is w.b = b^-1 (b.w) b.  The realizing application orders
    are therefore closed under cyclic rotation, and since the blocks are
    distinct each of them has exactly one rotation that starts with the
    fixed block.

    The shuffle path uses the same fact.  It rotates each draw to start
    with the first block, which keeps whether the draw realizes the full
    twist.  Like the DFS it then recurses from the first block: at each
    depth it puts the draws in buckets by their next block, in the order
    first met, and multiplies once per bucket, so each prefix that draws
    share is multiplied once.  It reports the written orders of the
    realizing draws as drawn, unrotated, so it finds exactly what
    multiplying each draw out on its own would find.

    Both paths multiply mirrors (every letter's sign flipped) in normal
    forms of the dual Garside structure of Birman-Ko-Lee (1998), where the
    mirror of a block's swing is delta_S^|S| for its support S and the
    mirror of the full twist is delta^m.  Mirroring is an automorphism, so
    a product of mirrors is the mirror of the product.  Both paths prune by
    the dual infimum and supremum (sup = inf + canonical length), which,
    as in any Garside structure, are super- and sub-additive: inf(xy) >=
    inf x + inf y, sup(xy) <= sup x + sup y, and inf(x^-1) = -sup x.  If a
    partial product acc times the product P of the unused blocks R, in any
    order, is the target T, then acc = T P^-1, so inf(acc) >= inf T -
    sum_R sup(b) and sup(acc) <= sup T - sum_R inf(b).  Every block has
    infimum 0 here, so the second bound reads sup(acc) <= m: acc
    left-divides delta^m.  A partial product that breaks either bound has
    no completion and is dropped: in the DFS before its memo lookup (the
    memo keeps only viable states), in the shuffle path together with
    every draw that shares the failed prefix.  The sup bound, with R the
    blocks still unused after it, is given to each multiply, which returns
    None unfinished as soon as its product passes it.  The first block is
    not checked, but as sup(xy) >= sup x + inf y, every product through a
    failing one fails its own step.  The two sums over R are ints.
    """
    m = d.points
    target = _mirror_nf(full_twist(m))
    low, high = target[0], target[0] + len(target[1])
    nf_of = {b: _block_nf(m, b) for b in d.blocks}
    inf_of = {b: inf for b, (inf, _) in nf_of.items()}
    sup_of = {b: inf + len(ids) for b, (inf, ids) in nf_of.items()}
    total_inf, total_sup = sum(inf_of.values()), sum(sup_of.values())

    def viable(acc: tuple[int, tuple[int, ...]], rest_sup: int) -> bool:
        """Can acc times the unused blocks (suprema summing to rest_sup) still
        reach the target's infimum?  Each multiply is given the sup half."""
        return acc[0] + rest_sup >= low

    head = d.blocks[0]
    start = (nf_of[head], total_inf - inf_of[head], total_sup - sup_of[head])

    if len(d.blocks) <= budget.exhaustive_cap:
        # memo: viable partial-product NF -> all completing suffixes.  The
        # product alone fixes the blocks it used: every swing is pure and
        # moves the linking number of exactly its own pairs by the same unit,
        # and each pair lies in exactly one block, so the linking numbers of
        # acc (invariants of the braid) name the used blocks, hence remaining.
        memo: dict[tuple, tuple] = {}

        def complete(remaining: frozenset, acc: tuple, rest_inf: int, rest_sup: int):
            if not viable(acc, rest_sup):
                return ()
            if not remaining:
                return ((),) if acc == target else ()
            hit = memo.get(acc)
            if hit is None:
                found = []
                for b in sorted(remaining):
                    rest_b = rest_inf - inf_of[b]
                    nxt = _dual_mul(m, acc, nf_of[b], high - rest_b)
                    if nxt is None:
                        continue
                    for suffix in complete(remaining - {b}, nxt, rest_b, rest_sup - sup_of[b]):
                        found.append((b,) + suffix)
                hit = tuple(found)
                memo[acc] = hit
            return hit

        sequences = [(head,) + s for s in complete(frozenset(d.blocks[1:]), *start)]
        orderings = tuple(sorted(
            tuple(reversed(seq[k:] + seq[:k])) for seq in sequences for k in range(len(seq))
        ))
        return SearchResult(d, orderings, "exhausted")

    k = len(d.blocks)
    found: set[tuple[tuple[int, ...], ...]] = set()

    def walk(group: list, depth: int, acc: tuple, rest_inf: int, rest_sup: int) -> None:
        """Extend acc, the product of the first depth blocks shared by the
        draws in group, by each distinct next block among them."""
        if not viable(acc, rest_sup):
            return
        if depth == k:
            if acc == target:
                for draw in group:
                    rot = draw[k]
                    applied = draw[k - rot:k] + draw[:k - rot]
                    found.add(tuple(d.blocks[i] for i in reversed(applied)))
            return
        buckets: dict[int, list] = {}
        for draw in group:
            buckets.setdefault(draw[depth], []).append(draw)
        for i, sub in buckets.items():
            b = d.blocks[i]
            rest_b = rest_inf - inf_of[b]
            nxt = _dual_mul(m, acc, nf_of[b], high - rest_b)
            if nxt is not None:
                walk(sub, depth + 1, nxt, rest_b, rest_sup - sup_of[b])

    walk(_draws(k, budget.tries, budget.seed), 1, *start)
    return SearchResult(d, tuple(sorted(found)), "budget")
