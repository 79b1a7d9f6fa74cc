import functools
import itertools
import math
import sys

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from planar_monoid import braid, designs
from planar_monoid.braid import (
    BraidWord,
    full_twist,
    lk_equal,
    nf_mul,
    normal_form,
    _dual_simples,
)
from planar_monoid.catalog import builtin, completeness_check, verify, verify_words
from planar_monoid.designs import (
    Design,
    PairCoverageError,
    SearchBudget,
    SearchResult,
    daisy,
    enumerate_designs,
    exponents_from_design,
    from_rhs,
    replication,
    search_orderings,
    _classes,
    _generators,
)
from planar_monoid.surface import ConvexCurve, SurfaceSpec, TwistWord, swing_word
from strand_reference import strand_linking
from test_braid import _ref_atoms, _ref_leading_deltas

ALL_PAIRS_4 = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
K5 = tuple(itertools.combinations(range(1, 6), 2))
THREE_TRIPLES = ((1, 2), (1, 3), (1, 4), (1, 5, 6), (2, 3), (2, 4, 5), (2, 6), (3, 4, 6), (3, 5))
# the first 11-block class of enumerate_designs(6, "dihedral")
FIRST_ELEVEN_M6 = (
    (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 4), (2, 5, 6), (3, 4, 5), (3, 6), (4, 6),
)


def _group_perms(m, mode):
    """Every element of the mode's relabeling group, as the images of 1..m:
    the reference that the orbit closure in `_classes` is checked against."""
    if mode == "dihedral":
        perms = []
        for k in range(m):
            perms.append(tuple((x + k) % m + 1 for x in range(m)))
            perms.append(tuple((k - x) % m + 1 for x in range(m)))
        return perms
    assert mode == "symmetric"
    return list(itertools.permutations(range(1, m + 1)))


def _relabel(perm, blocks):
    return tuple(sorted(tuple(sorted(perm[x - 1] for x in b)) for b in blocks))


def test_design_normalizes_blocks():
    d = Design(4, ((4, 3), (2, 1), (4, 2), (3, 1), (4, 1), (3, 2)))
    assert d.blocks == ALL_PAIRS_4


def test_design_rejects_uncovered_pair():
    with pytest.raises(PairCoverageError):
        Design(4, ((1, 2), (3, 4)))


def test_design_rejects_double_cover():
    with pytest.raises(PairCoverageError):
        Design(4, ALL_PAIRS_4 + ((1, 2, 3),))


def test_design_rejects_full_block():
    # blocks are essential: size at most m-1
    with pytest.raises(ValueError):
        Design(4, ((1, 2, 3, 4),))


@pytest.mark.parametrize(
    "m, blocks",
    [
        (3, ((1, 2.0), (1, 3), (2.0, 3))),
        (3, ((True, 2), (1, 3), (2, 3))),
        (3.0, ((1, 2), (1, 3), (2, 3))),
        (True, ((1, 2), (1, 3), (2, 3))),
    ],
)
def test_design_takes_ints_only(m, blocks):
    "Points and labels are ints; nothing is left to fail in the search."
    with pytest.raises(ValueError, match="must be an integer"):
        Design(m, blocks)


@pytest.mark.parametrize("m", [1, 0, -3])
def test_design_rejects_fewer_than_three_points(m):
    # no boundary product has these supports: m = 1 would need a negative
    # exponent, and m <= 0 has no strands
    with pytest.raises(ValueError, match="at least 3 points"):
        Design(m, ())


def test_replication_counts():
    d = Design(4, ALL_PAIRS_4)
    assert replication(d) == (3, 3, 3, 3)
    k4 = Design(5, ((1, 2, 3, 4), (1, 5), (2, 5), (3, 5), (4, 5)))
    assert replication(k4) == (2, 2, 2, 2, 4)


def test_from_rhs_reads_supports():
    s = SurfaceSpec(5)
    tw = TwistWord(s, tuple(ConvexCurve(b) for b in ALL_PAIRS_4))
    assert from_rhs(tw) == Design(4, ALL_PAIRS_4)


def test_from_rhs_rejects_outer_factor():
    s = SurfaceSpec(5)
    with pytest.raises(ValueError):
        from_rhs(TwistWord(s, (ConvexCurve([1, 2, 3, 4]),)))


def test_from_rhs_rejects_non_design():
    s = SurfaceSpec(5)
    with pytest.raises(PairCoverageError) as exc:
        from_rhs(TwistWord(s, (ConvexCurve([1, 2]),)))
    e = exc.value
    assert (e.x, e.y, e.count) == (1, 3, 0)


def test_exponents_are_replication_minus_one():
    d = Design(4, ALL_PAIRS_4)
    w = exponents_from_design(d)
    assert w.exponents == (2, 2, 2, 2)
    assert w.outer == 1


@pytest.mark.parametrize(
    ("m", "mode", "count"),
    [
        (3, "dihedral", 1),
        (4, "dihedral", 2),
        (5, "dihedral", 7),
        (6, "dihedral", 44),
        (7, "dihedral", 653),
        # the symmetric counts 1, 2, 4, 9, 23 for m = 3..7 are OEIS
        # A001200(m) - 1: the linear spaces on m points, minus the one
        # with a single block
        (3, "symmetric", 1),
        (4, "symmetric", 2),
        (5, "symmetric", 4),
        (6, "symmetric", 9),
        (7, "symmetric", 23),
        # every labeled design, one per exact cover of the pairs
        (3, "labeled", 1),
        (4, "labeled", 5),
        (5, "labeled", 31),
        (6, "labeled", 352),
        (7, "labeled", 8389),
    ],
)
def test_enumeration_class_counts(m, mode, count):
    assert len(enumerate_designs(m, mode)) == count


def test_enumeration_orbits_partition_labeled_designs():
    labeled = {d.blocks for d in enumerate_designs(5, "labeled")}
    assert len(labeled) == 31
    group = _group_perms(5, "dihedral")
    orbits = []
    for d in enumerate_designs(5, "dihedral"):
        orbits.append({_relabel(g, d.blocks) for g in group})
    covered = set().union(*orbits)
    assert covered == labeled
    assert sum(len(o) for o in orbits) == len(labeled)  # orbits are disjoint


@pytest.mark.parametrize(
    ("m", "mode"),
    [(m, mode) for mode in ("dihedral", "symmetric") for m in (3, 4, 5, 6)] + [(7, "dihedral")],
)
def test_class_map_sends_each_design_to_its_orbit_min(m, mode):
    group = _group_perms(m, mode)
    reps = [d.blocks for d in _classes(m, mode)]
    orbits = [{_relabel(g, blocks) for g in group} for blocks in reps]
    assert all(blocks == min(orbit) for blocks, orbit in zip(reps, orbits))
    # the orbits are disjoint and cover every labeled design
    assert sum(len(o) for o in orbits) == len(designs._cover_all(m))
    assert set().union(*orbits) == set(designs._cover_all(m))
    assert reps == sorted(reps)


def _closure(gens, m):
    group = {tuple(range(1, m + 1))}
    todo = list(group)
    while todo:
        p = todo.pop()
        for g in gens:
            q = tuple(g[x - 1] for x in p)
            if q not in group:
                group.add(q)
                todo.append(q)
    return group


@pytest.mark.parametrize("m", [3, 4, 5, 6, 7])
def test_generators_close_to_the_mode_group(m):
    assert _generators(m, "labeled") == []
    dihedral = _closure(_generators(m, "dihedral"), m)
    assert len(dihedral) == 2 * m
    assert dihedral == set(_group_perms(m, "dihedral"))
    assert len(_closure(_generators(m, "symmetric"), m)) == math.factorial(m)
    with pytest.raises(ValueError, match="unknown symmetry mode"):
        _generators(m, "cyclic")


def test_enumerate_designs_returns_a_fresh_list():
    reps = enumerate_designs(5, "dihedral")
    reps.clear()
    assert len(enumerate_designs(5, "dihedral")) == 7


def test_enumeration_rejects_out_of_range():
    with pytest.raises(ValueError):
        enumerate_designs(8)
    with pytest.raises(ValueError):
        enumerate_designs(5, "cyclic")
    enumerate_designs(5)  # a warm cache must not take 5.0 for 5
    with pytest.raises(ValueError, match="m must be an integer"):
        enumerate_designs(5.0)


@pytest.mark.parametrize("m", [3, 4, 5, 6, 7])
def test_multiset_designs_fix_the_block_count(m):
    # the chi pair of a replication multiset is read off one design per
    # multiset, which is sound because every design sharing the multiset
    # has the same number of blocks; relabeling keeps the multiset, so the
    # dihedral classes carry every one
    block_count: dict[tuple[int, ...], int] = {}
    for blocks in designs._cover_all(m):
        reps = tuple(sorted(replication(Design(m, blocks))))
        assert block_count.setdefault(reps, len(blocks)) == len(blocks)
    dihedral = {tuple(sorted(replication(d))) for d in enumerate_designs(m, "dihedral")}
    assert dihedral == set(block_count)


def test_search_lantern_class_exhaustive():
    res = search_orderings(Design(3, ((1, 2), (2, 3), (1, 3))))
    assert res.status == "exhausted"
    assert len(res.orderings) == 3
    assert res.orderings_found > 0


def test_search_all_pairs_m4():
    res = search_orderings(Design(4, ALL_PAIRS_4))
    assert res.status == "exhausted"
    assert len(res.orderings) == 48


@pytest.mark.parametrize(
    "m, blocks, count",
    [
        (5, ((1, 2), (1, 3), (1, 4), (1, 5), (2, 3, 4, 5)), 5),
        (5, ((1, 2), (1, 3), (1, 4, 5), (2, 3, 4), (2, 5), (3, 5)), 12),
        (5, ((1, 2), (1, 3), (1, 4, 5), (2, 3, 5), (2, 4), (3, 4)), 6),
        (5, ((1, 2), (1, 3, 4), (1, 5), (2, 3), (2, 4, 5), (3, 5)), 6),
        (6, ((1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 3, 4, 5, 6)), 6),
        (6, ((1, 2), (1, 3, 4), (1, 5, 6), (2, 3, 5), (2, 4, 6), (3, 6), (4, 5)), 0),
        (5, ((1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 4, 5)), 176),
        (5, ((1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4, 5), (3, 4), (3, 5)), 160),
        (6, ((1, 2), (1, 3), (1, 4), (1, 5, 6), (2, 3, 4, 5), (2, 6), (3, 6), (4, 6)), 40),
        # past the default cap: exhausted in seconds because the DFS drops
        # every prefix that does not left-divide delta^m (the inf/sup bound
        # read in the dual structure)
        (5, K5, 5150),
        (
            6,
            ((1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 4), (2, 5), (2, 6), (3, 4, 5, 6)),
            640,
        ),
        (6, ((1, 2), (1, 3), (1, 4), (1, 5, 6), (2, 3), (2, 4, 5), (2, 6), (3, 4, 6), (3, 5)), 18),
        (6, FIRST_ELEVEN_M6, 1947),
        # the first (4,4,4,5,5,5) dihedral class, 13 blocks
        (
            6,
            ((1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 4), (2, 5), (2, 6), (3, 4), (3, 5),
             (3, 6), (4, 5, 6)),
            75088,
        ),
        # the first 14-block class of enumerate_designs(7, "dihedral") (n = 8)
        (
            7,
            ((1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7), (2, 3), (2, 4), (2, 5), (2, 6, 7),
             (3, 4, 5, 6), (3, 7), (4, 7), (5, 7)),
            28238,
        ),
    ],
)
def test_search_exhausted_ordering_counts(m, blocks, count):
    res = search_orderings(Design(m, blocks), SearchBudget(exhaustive_cap=len(blocks)))
    assert res.status == "exhausted"
    assert len(res.orderings) == count


# exhaustive ordering counts of the 7-, 8- and 9-block classes of
# enumerate_designs(6, "dihedral"), in enumeration order
N6_DIHEDRAL_COUNTS = {
    7: [0] * 5,
    8: [40, 8, 16, 8, 16, 8],
    9: [18, 18, 18, 36, 63, 27, 18, 18, 45, 9, 54, 9, 72],
}


def test_n6_dihedral_ordering_counts():
    found = {k: [] for k in N6_DIHEDRAL_COUNTS}
    for d in enumerate_designs(6, "dihedral"):
        if len(d.blocks) in found:
            res = search_orderings(d, SearchBudget(exhaustive_cap=len(d.blocks)))
            assert res.status == "exhausted"
            found[len(d.blocks)].append(len(res.orderings))
    assert found == N6_DIHEDRAL_COUNTS


@pytest.fixture
def kernel_calls(monkeypatch):
    """A one-item list counting the search's designs.nf_mul calls, one per
    try that neither test settles."""
    calls = [0]
    kernel = designs.nf_mul

    def counted(*args):
        calls[0] += 1
        return kernel(*args)

    monkeypatch.setattr(designs, "nf_mul", counted)
    return calls


@functools.cache
def _realizes(m, ordering):
    """Reference: the written ordering's swings, last block first, as one
    word, unrotated and with no bound, have the normal form of the full
    twist."""
    surface = SurfaceSpec(m + 1)
    word = [k for b in reversed(ordering) for k in swing_word(ConvexCurve(b), surface).letters]
    return normal_form(BraidWord(m, tuple(word))) == normal_form(full_twist(m))


@pytest.mark.parametrize("tries", [0, 1, 50, 546, 547, 10**6])
@pytest.mark.parametrize(
    "m, blocks, stops",
    [
        # each budget's (status, orderings_found), as the search found them
        # when every try was a kernel call: a try settled by either test
        # still counts, so each limit stops the search at the same block
        pytest.param(
            5,
            K5,
            {0: ("budget", 0), 1: ("budget", 0), 50: ("budget", 50), 546: ("budget", 560),
             547: ("budget", 560), 10**6: ("exhausted", 5150)},
            id="K5",
        ),
        pytest.param(
            4,
            ALL_PAIRS_4,
            {0: ("budget", 0), 1: ("budget", 0), 50: ("budget", 42), 546: ("exhausted", 48),
             547: ("exhausted", 48), 10**6: ("exhausted", 48)},
            id="K4",
        ),
        # the n=7 (3,3,3,4,4,4) symmetric representative; its head (1, 5, 6)
        # is block 3, so the search starts past the first block, and it ends
        # after 547 tries
        pytest.param(
            6,
            THREE_TRIPLES,
            {0: ("budget", 0), 1: ("budget", 0), 50: ("budget", 0), 546: ("budget", 18),
             547: ("exhausted", 18), 10**6: ("exhausted", 18)},
            id="three-triples",
        ),
    ],
)
def test_search_budget_path_matches_unpruned_products(kernel_calls, m, blocks, stops, tries):
    d = Design(m, blocks)
    full = search_orderings(d, SearchBudget(exhaustive_cap=len(blocks)))
    multiplies = kernel_calls[0]
    kernel_calls[0] = 0
    res = search_orderings(d, SearchBudget(exhaustive_cap=0, tries=tries))
    assert res.orderings_found == len(res.orderings)
    assert all(_realizes(m, o) for o in res.orderings)
    assert set(res.orderings) <= set(full.orderings)
    assert (res.status, res.orderings_found) == stops[tries]
    # each limit is checked before a try, and up to where it stops the
    # budgeted search makes the full search's kernel calls, at most one a try
    assert kernel_calls[0] <= min(tries, multiplies)
    if res.status == "exhausted":
        assert res == full


@pytest.mark.parametrize(
    "m, blocks, seed, tries, status, count",
    [
        pytest.param(5, K5, 0, 2000, "budget", 2060, id="5-blocks0-0"),
        pytest.param(5, K5, 1, 2000, "budget", 2060, id="5-blocks0-1"),
        pytest.param(5, K5, 2, 2000, "budget", 2060, id="5-blocks0-2"),
        pytest.param(4, ALL_PAIRS_4, 0, 2000, "exhausted", 48, id="4-blocks1-0"),
        pytest.param(4, ALL_PAIRS_4, 1, 2000, "exhausted", 48, id="4-blocks1-1"),
        pytest.param(4, ALL_PAIRS_4, 2, 2000, "exhausted", 48, id="4-blocks1-2"),
        pytest.param(6, THREE_TRIPLES, 3, 2000, "exhausted", 18, id="6-three-triples-3"),
        pytest.param(6, THREE_TRIPLES, 24, 2000, "exhausted", 18, id="6-three-triples-24"),
        pytest.param(6, THREE_TRIPLES, 36, 2000, "exhausted", 18, id="6-three-triples-36"),
        pytest.param(5, K5, 0, 0, "budget", 0, id="5-blocks0-no-tries"),
    ],
)
def test_search_shuffle_path_matches_unpruned_products(m, blocks, seed, tries, status, count):
    # the seeded cases of the former shuffle path, now run by the budgeted
    # search: a seed is still accepted but chooses nothing, and every
    # ordering found past the cap multiplies out in full to the full twist
    d = Design(m, blocks)
    res = search_orderings(d, SearchBudget(exhaustive_cap=0, tries=tries, seed=seed))
    assert (res.status, res.orderings_found) == (status, count)
    assert res == search_orderings(d, SearchBudget(exhaustive_cap=0, tries=tries))
    assert all(_realizes(m, o) for o in res.orderings)


def test_search_budget_path_on_three_triples():
    # 547 tries end the search; the orderings limit never binds
    d = Design(6, THREE_TRIPLES)
    found = []
    for tries in (100, 546, 547):
        res = search_orderings(d, SearchBudget(exhaustive_cap=0, tries=tries))
        found.append((res.status, res.orderings_found))
    assert found == [("budget", 0), ("budget", 18), ("exhausted", 18)]


def test_search_budget_path_stops_at_the_orderings_limit(kernel_calls):
    res = search_orderings(Design(5, K5), SearchBudget(exhaustive_cap=0, tries=2000))
    # the limit is checked before each try, and a memo hit adds all
    # its completions at once, so the count can pass 2,000
    assert (res.status, res.orderings_found) == ("budget", 2060)
    assert kernel_calls[0] == 393


def test_search_budget_path_cost_from_largest_block(kernel_calls):
    # the n = 7 symmetric audit at cap 8: its four budget classes (11 to 15
    # blocks) and its 9- and 10-block classes search from a triple or
    # larger; starting every search at blocks[0] instead takes 3,431 calls
    completeness_check(7, "symmetric", SearchBudget(exhaustive_cap=8, tries=2000))
    assert kernel_calls[0] == 2035


def test_every_swing_links_only_its_own_pairs():
    # the premise of the search memo: each block's swing is pure, links
    # each pair inside the block once, negatively, and no other pair; on
    # every block of 3..7 points, 213 of them (the full set is no block)
    count = 0
    for m in range(3, 8):
        surface = SurfaceSpec(m + 1)
        for k in range(2, m):
            for block in itertools.combinations(range(1, m + 1), k):
                pure, doubled = strand_linking(swing_word(ConvexCurve(block), surface))
                assert pure, block
                assert doubled == {p: -2 if set(p) <= set(block) else 0 for p in doubled}, block
                count += 1
    assert count == 213


def test_search_exhaustive_dfs_cost(kernel_calls):
    blocks = ((1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 4, 5))
    res = search_orderings(Design(5, blocks), SearchBudget(exhaustive_cap=8))
    assert res.status == "exhausted"
    assert len(res.orderings) == 176
    # one try per memoized state and unused block, cut at the sup bound,
    # and a kernel call for each that neither test settles, starting at the
    # triple (162 starting at (1, 2))
    assert kernel_calls[0] == 87


def test_search_exhaustive_dfs_cost_from_largest_block(kernel_calls):
    # the head (2, 5, 6) leaves the least room under the sup bound; the
    # same search from blocks[0] = (1, 2) takes 2,712 calls
    res = search_orderings(Design(6, FIRST_ELEVEN_M6), SearchBudget(exhaustive_cap=11))
    assert res.status == "exhausted"
    assert len(res.orderings) == 1947
    assert kernel_calls[0] == 792


def test_counting_agrees_with_listing(kernel_calls):
    # every dihedral class at m <= 5 and every one of <= 11 blocks at m = 6:
    # counting without listing gives the listed number with the same
    # multiplies, since listing walks the count's live edges
    classes = [d for m in (3, 4, 5) for d in enumerate_designs(m, "dihedral")]
    classes += [d for d in enumerate_designs(6, "dihedral") if len(d.blocks) <= 11]
    for d in classes:
        budget = SearchBudget(exhaustive_cap=len(d.blocks))
        kernel_calls[0] = 0
        counted = search_orderings(d, budget, listed=False)
        calls = kernel_calls[0]
        kernel_calls[0] = 0
        listed = search_orderings(d, budget)
        assert counted.orderings is None and counted.status == listed.status == "exhausted"
        assert counted.orderings_found == listed.orderings_found == len(listed.orderings), d
        assert kernel_calls[0] == calls, d


@pytest.mark.parametrize(
    "m, blocks, count, calls",
    [
        pytest.param(6, tuple(itertools.combinations(range(1, 7), 2)), 4218480, 121667, id="K6"),
        # the first (4,4,4,5,5,5) dihedral class, 13 blocks
        pytest.param(
            6,
            ((1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 4), (2, 5), (2, 6), (3, 4),
             (3, 5), (3, 6), (4, 5, 6)),
            75088,
            6514,
            id="444555",
        ),
    ],
)
def test_search_counts_without_listing(kernel_calls, m, blocks, count, calls):
    res = search_orderings(Design(m, blocks), SearchBudget(exhaustive_cap=len(blocks)), listed=False)
    assert (res.status, res.orderings_found, res.orderings) == ("exhausted", count, None)
    assert res.orderings_found > 0
    assert kernel_calls[0] == calls


def _search_step(table, state, form):
    """The search's multiply of a state, the kernel's tuple whose leading
    delta ids count its infimum, by a block form, checked against the
    kernel with no limit on the state's and the form's factors from the
    identity: equal to it while it left-divides delta^m, else None.

    The length argument: the dual monoid is graded by atom count, delta^m
    has m(m - 1) atoms, and a left divisor of delta^m with as many atoms
    is delta^m itself.  Every design's blocks hold m(m - 1) atoms in all,
    so a last step that fits under the bound is the target.  Conversely a
    step that reaches delta^m holds m(m - 1) atoms, so it used every block:
    the search's memo entry for delta^m is hit by no earlier step."""
    m = table.m
    step = nf_mul(table, state, form, m)
    product = nf_mul(table, (), state + form)
    if len(product) > m:
        assert step is None
        return None
    assert step == product
    full = sum(_ref_atoms(table.perm[x]) for x in step) == m * (m - 1)
    assert full == (step == (table.delta,) * m)
    return step


@given(st.data())
@settings(deadline=None)
def test_search_step_is_the_capped_dual_mul(data):
    # blocks of a design folded in a random order, as the search folds them;
    # a fold reaches delta^m, the search's seeded memo entry, exactly when
    # it has used every block
    m = data.draw(st.integers(4, 6))
    d = data.draw(st.sampled_from(enumerate_designs(m, "dihedral")))
    table = _dual_simples(m)
    state = ()
    for used, b in enumerate(data.draw(st.permutations(d.blocks)), 1):
        state = _search_step(table, state, designs._block_nf(table, b))
        if state is None:
            break
        assert (state == (table.delta,) * m) == (used == len(d.blocks))


def test_search_steps_of_the_n7_audit_are_capped_dual_muls(monkeypatch):
    # every kernel call of the n = 7 symmetric audit, whose states, unlike
    # most random folds, reach infima above 0, and 21 of which reach the
    # target, each by the length argument
    infima = []
    targets = [0]

    def checked(table, state, form, limit):
        assert limit == table.m
        infima.append(_ref_leading_deltas(table, state))
        step = _search_step(table, state, form)
        targets[0] += step == (table.delta,) * table.m
        return step

    monkeypatch.setattr(designs, "nf_mul", checked)
    completeness_check(7, "symmetric", SearchBudget(exhaustive_cap=8, tries=2000))
    assert len(infima) == 2035
    assert sum(infima) == 1722 and max(infima) > 0
    assert targets[0] == 21


@given(st.data())
@settings(deadline=None)
def test_unabsorbed_block_adds_all_its_factors(data):
    # the lemma behind the search's mask test, on random products of block
    # forms: a block over S whose first factor delta_S the product's last
    # factor cannot absorb adds all |S| of its factors, so the supremum
    # rises by exactly |S|.  Absorbed is read off the kernel (the last
    # factor times delta_S is one simple), and the pair masks agree with it
    m = data.draw(st.integers(4, 7))
    table = _dual_simples(m)
    blocks = [b for k in range(2, m) for b in itertools.combinations(range(1, m + 1), k)]
    acc = ()
    for b in data.draw(st.lists(st.sampled_from(blocks), min_size=1, max_size=m)):
        acc = nf_mul(table, acc, designs._block_nf(table, b))
    for b in blocks:
        form = designs._block_nf(table, b)
        absorbed = len(nf_mul(table, acc[-1:], form[:1])) == 1
        assert absorbed == (not table.starts[form[0]] & ~table.masks[acc[-1]])
        if not absorbed:
            assert len(nf_mul(table, acc, form)) == len(acc) + len(form), (acc, b)


def _pair(table, a, b):
    """The left-weighted pair of (a, b) from the kernel's pair table."""
    return table.pairs.get(a * table.size + b) or table.slide(a, b)


@given(st.data())
@settings(deadline=None)
def test_absorbed_block_adds_all_but_one_factor_past_an_unabsorbed_second(data):
    # the lemma's second step, behind the search's second-copy test: once
    # the last factor a absorbs a block's first factor delta_S, the new last
    # factor T is a.delta_S, or its slide into the factor before a, read
    # from two pair-table lookups; and if T cannot absorb the next delta_S,
    # each of the other |S| - 1 factors adds one to the supremum
    m = data.draw(st.integers(4, 7))
    table = _dual_simples(m)
    blocks = [b for k in range(2, m) for b in itertools.combinations(range(1, m + 1), k)]
    acc = ()
    for b in data.draw(st.lists(st.sampled_from(blocks), min_size=1, max_size=m)):
        acc = nf_mul(table, acc, designs._block_nf(table, b))
    for b in blocks:
        form = designs._block_nf(table, b)
        f = form[0]
        if table.starts[f] & ~table.masks[acc[-1]]:
            continue  # the first factor is not absorbed: the mask test's case
        t = _pair(table, acc[-1], f)[0]
        if table.starts[t] & table.masks[acc[-2]]:
            t = _pair(table, acc[-2], t)[1]
        once = nf_mul(table, acc, form[:1])
        assert len(once) == len(acc) and once[-1] == t, (acc, b)
        absorbed = len(nf_mul(table, acc, form[:2])) == len(acc)
        assert absorbed == (not table.starts[f] & ~table.masks[t]), (acc, b)
        if not absorbed:
            assert len(nf_mul(table, acc, form)) == len(acc) + len(form) - 1, (acc, b)


def test_search_calls_the_kernel_only_where_the_mask_test_cannot_settle(monkeypatch):
    # on the n = 7 symmetric audit and the K6 count, every kernel call the
    # search still makes fits under delta^m by length (r + |S| <= m), or
    # has a first factor that the product's last factor absorbs and fits
    # by length with one factor fewer (r + |S| - 1 <= m) or absorbs the
    # second factor too, each read off the kernel itself: the two tests
    # settle every other try.  So a pair block is decided before the
    # kernel, and no kernel call on one fails; K6 has only pair blocks
    calls = [0]

    def checked(table, state, form, limit):
        calls[0] += 1
        r, k = len(state), len(form)
        if r + k > limit:
            assert len(nf_mul(table, state[-1:], form[:1])) == 1
            assert r + k - 1 <= limit or len(nf_mul(table, state, form[:2])) == r
        step = nf_mul(table, state, form, limit)
        assert k > 2 or step is not None
        return step

    monkeypatch.setattr(designs, "nf_mul", checked)
    completeness_check(7, "symmetric", SearchBudget(exhaustive_cap=8, tries=2000))
    k6 = Design(6, tuple(itertools.combinations(range(1, 7), 2)))
    res = search_orderings(k6, SearchBudget(exhaustive_cap=15), listed=False)
    assert res.orderings_found == 4218480
    assert calls[0] == 2035 + 121667


@pytest.mark.parametrize("m", [4, 5, 6])
def test_search_matches_brute_force(m):
    # reference path: every application order, its swings as one word in
    # normal form, without the search's DFS, rotation quotient or mirroring
    target = normal_form(full_twist(m))
    for d in enumerate_designs(m, "dihedral"):
        if len(d.blocks) > 6:
            continue
        swing = {b: swing_word(ConvexCurve(b), SurfaceSpec(m + 1)).letters for b in d.blocks}
        expected = set()
        for order in itertools.permutations(d.blocks):
            if normal_form(BraidWord(m, tuple(k for b in order for k in swing[b]))) == target:
                expected.add(tuple(reversed(order)))
        res = search_orderings(d)
        assert res.status == "exhausted"
        assert set(res.orderings) == expected, d
        assert len(res.orderings) == len(expected)
        assert {o[k:] + o[:k] for o in expected for k in range(len(o))} == expected


def _relabel_in_order(perm, blocks):
    """_relabel that keeps the blocks in their order, for an ordering."""
    return tuple(tuple(sorted(perm[x - 1] for x in b)) for b in blocks)


@pytest.mark.parametrize("m, classes, realizing", [(3, 1, 1), (4, 2, 2), (5, 7, 7), (6, 28, 23)])
def test_search_listings_follow_reflection_and_turn(m, classes, realizing):
    # a kernel check that needs no stored figure.  The reflection
    # i -> m+1-i reverses orientation, so it conjugates each twist to the
    # inverse twist over the reflected curve (Farb-Margalit, Primer, 3.1):
    # a realizing ordering of d, reflected and reversed, realizes on the
    # reflected design, and this map is onto.  The turn i -> i+1 keeps
    # orientation and maps orderings as they stand.  The three searches
    # multiply different products, so a kernel fault that depends on the
    # labels, such as a wrong pair-table entry, shows as a disagreement
    reflect = tuple(range(m, 0, -1))
    turn = (*range(2, m + 1), 1)
    budget = SearchBudget(exhaustive_cap=10)
    seen = found = 0
    for d in enumerate_designs(m, "dihedral"):
        if len(d.blocks) > 10:
            continue
        listed = search_orderings(d, budget).orderings
        for g, reverse in ((reflect, True), (turn, False)):
            image = search_orderings(Design(m, _relabel(g, d.blocks)), budget)
            want = sorted(_relabel_in_order(g, o)[::-1 if reverse else 1] for o in listed)
            assert image.status == "exhausted"
            assert list(image.orderings) == want, (d, g)
        seen += 1
        found += bool(listed)
    assert (seen, found) == (classes, realizing)


def test_search_matches_lk_on_every_order_m4():
    # a check that shares no code with the Garside kernel: every application
    # order of the m = 4 designs of at most 6 blocks (744 orders), decided
    # against the full twist by the Lawrence-Krammer oracle alone
    m = 4
    twist = full_twist(m)
    designs_m4 = [d for d in enumerate_designs(m, "dihedral") if len(d.blocks) <= 6]
    assert len(designs_m4) == 2
    orders = found = 0
    for d in designs_m4:
        swing = {b: swing_word(ConvexCurve(b), SurfaceSpec(m + 1)).letters for b in d.blocks}
        expected = set()
        for order in itertools.permutations(d.blocks):
            orders += 1
            word = BraidWord(m, tuple(k for b in order for k in swing[b]))
            if lk_equal(word, twist):
                expected.add(tuple(reversed(order)))
        res = search_orderings(d)
        assert res.status == "exhausted"
        assert set(res.orderings) == expected, d
        found += len(expected)
    assert orders == 744
    assert found == 48 + 4


@pytest.mark.parametrize(
    "kwargs", [{"exhaustive_cap": -1}, {"tries": -1}, {"exhaustive_cap": -3, "tries": -5}]
)
def test_search_budget_rejects_negative(kwargs):
    with pytest.raises(ValueError, match="must be >= 0"):
        SearchBudget(**kwargs)


@pytest.mark.parametrize(
    "field, value",
    [("exhaustive_cap", 8.5), ("tries", 2.5), ("tries", True), ("seed", 1.5), ("seed", "0")],
)
def test_search_budget_takes_ints_only(field, value):
    # seed is checked like the others, though no search reads it
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        SearchBudget(**{field: value})


def test_search_reports_written_order():
    # every reported ordering must itself verify as a relation
    d = Design(3, ((1, 2), (2, 3), (1, 3)))
    res = search_orderings(d)
    s = SurfaceSpec(4)
    from planar_monoid.surface import BoundaryWord

    lhs = BoundaryWord(s, (1, 1, 1), outer=1)
    for ordering in res.orderings:
        rhs = TwistWord(s, tuple(ConvexCurve(b) for b in ordering))
        assert verify_words("k3", lhs, rhs, lk=False).verified


def test_search_budget_path_takes_designs_past_256_blocks():
    # the 24-point all-pairs design has 276 blocks.  The search keeps its
    # own stack, so under a recursion limit of 200 it still goes 276 blocks
    # deep and lists the orderings it counted
    d = Design(24, tuple(itertools.combinations(range(1, 25), 2)))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        res = search_orderings(d, SearchBudget(exhaustive_cap=0, tries=400))
    finally:
        sys.setrecursionlimit(limit)
    assert len(d.blocks) == 276
    assert (res.status, res.orderings_found) == ("budget", 552)
    assert {len(o) for o in res.orderings} == {276}


def test_search_budget_path_interns_few_simples(monkeypatch):
    # memory guard: the kernel interns only the two results of each pair it
    # slides, not every simple met on the way; a fresh table per strand
    # count keeps the count cold.  The search runs in the dual structure,
    # whose table holds some of the Catalan(24) ~ 1.3e12 simples.
    monkeypatch.setattr(braid, "_dual_simples", functools.cache(braid._NonCrossing))
    d = Design(24, tuple(itertools.combinations(range(1, 25), 2)))
    res = search_orderings(d, SearchBudget(exhaustive_cap=0, tries=1))
    assert res.status == "budget"
    assert len(braid._dual_simples(24).perm) < 10_000


def test_search_forms_built_once_per_table(monkeypatch):
    # the n = 7 symmetric audit uses 90 blocks in its 9 classes, but only
    # 28 distinct ones: 28 forms, built once per table
    def built():
        completeness_check(7, "symmetric", SearchBudget(8, 2000))
        return designs._block_nf.cache_info().misses

    designs._block_nf.cache_clear()
    assert built() == 28
    assert built() == 28
    # the table is part of the key, so a fresh table builds every block anew
    monkeypatch.setattr(braid, "_dual_simples", functools.cache(braid._NonCrossing))
    assert built() == 28 + 28


def test_search_checks_every_block_is_a_dual_simple_power(monkeypatch):
    # the one bound of the search holds only if every mirrored swing is
    # dual-positive.  With swing_word made to return each swing's mirror,
    # _block_nf mirrors it back to the swing, of negative dual infimum: the
    # search must refuse it before it multiplies, and keep no form, rather
    # than prune realizing orders in silence
    calls = []
    kernel = designs.nf_mul

    def mirrored(curve, surface):
        word = swing_word(curve, surface)
        return BraidWord(word.strands, tuple(-k for k in word.letters))

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(designs, "swing_word", mirrored)
    monkeypatch.setattr(designs, "nf_mul", counted)
    designs._block_nf.cache_clear()
    with pytest.raises(AssertionError, match="not a dual simple power"):
        search_orderings(Design(4, ALL_PAIRS_4))
    assert calls == []
    assert designs._block_nf.cache_info().currsize == 0


def test_audit_work_repeats(monkeypatch):
    # the traced benchmark counts kernel calls per unit after an untraced
    # one, so every warm audit must make the same calls, and builds no swing;
    # it wraps the names designs binds, which are braid's two Garside
    # functions, so its audit-n6 unit reads these 595 kernel calls
    assert designs.nf_mul is braid.nf_mul
    assert designs.normal_form is braid.normal_form
    calls = {"swing_word": 0, "nf_mul": 0}
    for name in calls:
        def counted(*args, _fn=getattr(designs, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(designs, name, counted)
    designs._block_nf.cache_clear()
    seen = []
    for _ in range(3):
        completeness_check(6, "dihedral", SearchBudget(8, 2000))
        seen.append(dict(calls))
        calls.update(dict.fromkeys(calls, 0))
    assert seen[0]["swing_word"] > 0
    assert seen[1] == seen[2] == {"swing_word": 0, "nf_mul": seen[0]["nf_mul"]}
    assert seen[1]["nf_mul"] == 595


@pytest.mark.parametrize("m", range(2, 9))
def test_mirrored_full_twist_is_delta_power(m):
    # the search's target: the full twist is delta^-m, so its mirror is delta^m
    mirror = BraidWord(m, tuple(-k for k in full_twist(m).letters))
    assert normal_form(mirror) == (m, ())


def test_search_budget_path_is_deterministic():
    # the seed is accepted and ignored: nothing in the search is random
    d = Design(4, ALL_PAIRS_4)
    r1 = search_orderings(d, SearchBudget(exhaustive_cap=2, tries=50, seed=7))
    r2 = search_orderings(d, SearchBudget(exhaustive_cap=2, tries=50, seed=8))
    assert SearchBudget(2, 50, seed=7) == SearchBudget(2, 50, seed=8)
    assert r1.status == "budget"
    assert r1 == r2


@pytest.mark.parametrize("n", [5, 6, 7])
@pytest.mark.parametrize("mode", ["dihedral", "symmetric"])
def test_default_budget_decides_every_audit_class(n, mode):
    # no class is left at ("budget", 0): each is exhausted or counts an
    # ordering, so no verdict rests on a search that found nothing
    rep = completeness_check(n, mode)
    assert all((e.status, e.orderings_found) != ("budget", 0) for e in rep.entries)


def test_search_result_json():
    res = SearchResult(Design(3, ((1, 2), (2, 3), (1, 3))), 0, "budget")
    obj = res.to_json_obj()
    assert obj["orderings_found"] == 0
    assert obj["status"] == "budget"
    with pytest.raises(ValueError, match="count 1 but 0 orderings"):
        SearchResult(res.design, 1, "budget", ())


@pytest.mark.parametrize("n", range(4, 11))
def test_daisy_small_instances_verify(n):
    for i in range(2, n - 1):
        assert verify(daisy(n, i), lk=False).verified


def test_daisy_lantern_case():
    r = daisy(4, 2)
    assert r.lhs.exponents == (1, 1, 1)
    assert len(r.rhs.factors) == 3
    assert all(len(c.support) == 2 for c in r.rhs.factors)


def test_daisy_argument_validation():
    with pytest.raises(ValueError):
        daisy(4, 1)
    with pytest.raises(ValueError):
        daisy(4, 3)
    with pytest.raises(ValueError, match="i must be an integer"):
        daisy(6, 2.0)


@given(st.integers(5, 8), st.data())
@settings(max_examples=20, deadline=None)
def test_daisy_design_replications(n, data):
    i = data.draw(st.integers(2, n - 2))
    r = daisy(n, i)
    d = from_rhs(r.rhs)
    reps = sorted(replication(d))
    # one i-block and all remaining pairs: i points sit in 1 + (m - i)
    # blocks, the rest in m - 1
    m = n - 1
    expected = sorted([1 + (m - i)] * i + [m - 1] * (m - i))
    assert reps == expected
