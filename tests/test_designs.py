import functools
import itertools
import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from planar_monoid import designs
from planar_monoid.braid import NormalForm, full_twist, nf_mul, normal_form
from planar_monoid.catalog import builtin, verify
from planar_monoid.designs import (
    Design,
    PairCoverageError,
    SearchBudget,
    SearchResult,
    daisy,
    enumerate_designs,
    exponents_from_design,
    feasible_replication,
    from_rhs,
    replication,
    search_orderings,
    _class_map,
    _group_perms,
    _relabel,
)
from planar_monoid.surface import ConvexCurve, SurfaceSpec, TwistWord, swing_word

ALL_PAIRS_4 = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
K5 = tuple(itertools.combinations(range(1, 6), 2))
THREE_TRIPLES = ((1, 2), (1, 3), (1, 4), (1, 5, 6), (2, 3), (2, 4, 5), (2, 6), (3, 4, 6), (3, 5))


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
    tw = TwistWord(s, tuple(ConvexCurve.over(b) for b in ALL_PAIRS_4))
    assert from_rhs(tw) == Design(4, ALL_PAIRS_4)


def test_from_rhs_rejects_outer_factor():
    s = SurfaceSpec(5)
    with pytest.raises(ValueError):
        from_rhs(TwistWord(s, (ConvexCurve.outer_parallel(),)))


def test_from_rhs_rejects_non_design():
    s = SurfaceSpec(5)
    with pytest.raises(PairCoverageError) as exc:
        from_rhs(TwistWord(s, (ConvexCurve.over([1, 2]),)))
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
        (4, "symmetric", 2),
        (5, "dihedral", 7),
        (5, "symmetric", 4),
        (6, "dihedral", 44),
        (6, "symmetric", 9),
        (7, "dihedral", 653),
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


@pytest.mark.parametrize("mode", ["dihedral", "symmetric"])
@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_class_map_sends_each_design_to_its_orbit_min(m, mode):
    least = _class_map(m, mode)
    assert set(least) == {d.blocks for d in enumerate_designs(m, "labeled")}
    by_image: dict[tuple, set] = {}
    for sol, image in least.items():
        by_image.setdefault(image, set()).add(sol)
    # Each image's orbit is exactly the designs sent to it, and the image is
    # its least member, so every labeled design sol goes to
    # min(_relabel(g, sol) for g in group).
    group = _group_perms(m, mode)
    for image, sols in by_image.items():
        orbit = {_relabel(g, image) for g in group}
        assert sols == orbit
        assert image == min(orbit)
    assert sorted(by_image) == [d.blocks for d in enumerate_designs(m, mode)]


def test_class_map_is_read_only():
    least = _class_map(5, "dihedral")
    with pytest.raises(TypeError):
        least[K5] = ()
    reps = enumerate_designs(5, "dihedral")
    reps.clear()
    assert len(enumerate_designs(5, "dihedral")) == 7


def test_enumeration_rejects_out_of_range():
    with pytest.raises(ValueError):
        enumerate_designs(8)
    with pytest.raises(ValueError):
        enumerate_designs(5, "cyclic")


def test_feasible_replication_screens():
    assert feasible_replication(4, (3, 3, 3, 3))
    assert not feasible_replication(4, (2, 2, 2, 2))
    with pytest.raises(ValueError):
        feasible_replication(4, (3, 3, 3))


@pytest.mark.parametrize("m", [3, 4, 5, 6, 7])
def test_multiset_designs_fix_the_block_count(m):
    # the chi pair of a replication multiset is read off one design per
    # multiset, which is sound because every design sharing the multiset
    # has the same number of blocks
    table = designs._multiset_designs(m)
    for blocks in designs._labeled_block_sets(m):
        d = Design(m, blocks)
        assert len(table[tuple(sorted(replication(d)))].blocks) == len(blocks)
    assert all(tuple(sorted(replication(d))) == reps for reps, d in table.items())


def test_search_lantern_class_exhaustive():
    res = search_orderings(Design(3, ((1, 2), (2, 3), (1, 3))))
    assert res.status == "exhausted"
    assert len(res.orderings) == 3
    assert res.realizable()


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
        (
            6,
            ((1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 4), (2, 5, 6), (3, 4, 5), (3, 6),
             (4, 6)),
            1947,
        ),
        # the first (4,4,4,5,5,5) dihedral class, 13 blocks
        (
            6,
            ((1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 4), (2, 5), (2, 6), (3, 4), (3, 5),
             (3, 6), (4, 5, 6)),
            75088,
        ),
    ],
)
def test_search_exhausted_ordering_counts(m, blocks, count):
    res = search_orderings(Design(m, blocks), SearchBudget(exhaustive_cap=len(blocks)))
    assert res.status == "exhausted"
    assert len(res.orderings) == count


# exhaustive ordering counts of the 7-, 8- and 9-block classes of
# enumerate_designs(6, "dihedral"), in enumeration order
GATHER_SIGN_COUNTS = {
    7: [0] * 5,
    8: [40, 8, 16, 8, 16, 8],
    9: [18, 18, 18, 36, 63, 27, 18, 18, 45, 9, 54, 9, 72],
}


def test_gather_sign_keeps_ordering_counts(monkeypatch):
    # the gathering side of a swing is a convention: mirroring it must not
    # change how many orderings of a class realize the full twist
    from planar_monoid import surface

    classes = [d for d in enumerate_designs(6, "dihedral") if len(d.blocks) in GATHER_SIGN_COUNTS]

    def counts():
        found = {k: [] for k in GATHER_SIGN_COUNTS}
        for d in classes:
            res = search_orderings(d, SearchBudget(exhaustive_cap=len(d.blocks)))
            assert res.status == "exhausted"
            found[len(d.blocks)].append(len(res.orderings))
        return found

    assert counts() == GATHER_SIGN_COUNTS
    monkeypatch.setattr(surface, "_GATHER_SIGN", -surface._GATHER_SIGN)
    assert counts() == GATHER_SIGN_COUNTS


@pytest.mark.parametrize(
    "m, blocks, seed, tries, finds",
    [
        pytest.param(5, K5, 0, 2000, 2, id="5-blocks0-0"),
        pytest.param(5, K5, 1, 2000, 5, id="5-blocks0-1"),
        pytest.param(5, K5, 2, 2000, 4, id="5-blocks0-2"),
        pytest.param(4, ALL_PAIRS_4, 0, 2000, 47, id="4-blocks1-0"),
        pytest.param(4, ALL_PAIRS_4, 1, 2000, 45, id="4-blocks1-1"),
        pytest.param(4, ALL_PAIRS_4, 2, 2000, 47, id="4-blocks1-2"),
        # the n=7 (3,3,3,4,4,4) symmetric representative: 9 blocks, so the
        # walk shares prefixes up to 8 deep
        pytest.param(6, THREE_TRIPLES, 3, 2000, 1, id="6-three-triples-3"),
        pytest.param(5, K5, 0, 0, 0, id="5-blocks0-no-tries"),
    ],
)
def test_search_shuffle_path_matches_unpruned_products(m, blocks, seed, tries, finds):
    # reference: the same shuffles, each multiplied out in full from the
    # identity, unrotated, unsorted and with no bound
    d = Design(m, blocks)
    budget = SearchBudget(exhaustive_cap=0, tries=tries, seed=seed)
    target = normal_form(full_twist(m))
    nf_of = {b: normal_form(swing_word(ConvexCurve.over(b), SurfaceSpec(m + 1))) for b in d.blocks}

    def product(application_order):
        acc = NormalForm(m, 0, ())
        for b in application_order:
            acc = nf_mul(acc, nf_of[b])
        return acc

    expected = set()
    rng = random.Random(seed)
    shuffled = list(d.blocks)
    for _ in range(budget.tries):
        rng.shuffle(shuffled)
        if product(shuffled) == target:
            expected.add(tuple(reversed(shuffled)))
    res = search_orderings(d, budget)
    assert res.status == "budget"
    assert len(expected) == finds
    assert res.orderings == tuple(sorted(expected))


def test_search_shuffle_walk_shares_prefix_products(monkeypatch):
    calls = 0
    dual_mul = designs._dual_mul

    def counted(m, a, b):
        nonlocal calls
        calls += 1
        return dual_mul(m, a, b)

    monkeypatch.setattr(designs, "_dual_mul", counted)
    res = search_orderings(Design(5, K5), SearchBudget(exhaustive_cap=0, tries=2000, seed=0))
    assert len(res.orderings) == 2
    # multiplying each of the 2,000 shuffles out on its own from the
    # identity, with the same prune, takes 8,922 calls
    assert calls == 1601


@pytest.mark.parametrize("m", [4, 5, 6])
def test_search_matches_brute_force(m):
    # reference path: every application order, multiplied left to right
    # from the identity, without the search's DFS or rotation quotient
    target = normal_form(full_twist(m))
    for d in enumerate_designs(m, "dihedral"):
        if len(d.blocks) > 6:
            continue
        nf_of = {b: normal_form(swing_word(ConvexCurve.over(b), SurfaceSpec(m + 1))) for b in d.blocks}
        expected = set()
        for order in itertools.permutations(d.blocks):
            acc = NormalForm(m, 0, ())
            for b in order:
                acc = nf_mul(acc, nf_of[b])
            if acc == target:
                expected.add(tuple(reversed(order)))
        res = search_orderings(d)
        assert res.status == "exhausted"
        assert set(res.orderings) == expected, d
        assert len(res.orderings) == len(expected)
        assert {o[k:] + o[:k] for o in expected for k in range(len(o))} == expected


@pytest.mark.parametrize(
    "kwargs", [{"exhaustive_cap": -1}, {"tries": -1}, {"exhaustive_cap": -3, "tries": -5}]
)
def test_search_budget_rejects_negative(kwargs):
    with pytest.raises(ValueError, match="must be >= 0"):
        SearchBudget(**kwargs)


def test_search_reports_written_order():
    # every reported ordering must itself verify as a relation
    d = Design(3, ((1, 2), (2, 3), (1, 3)))
    res = search_orderings(d)
    s = SurfaceSpec(4)
    from planar_monoid.surface import BoundaryWord, equivalent

    lhs = BoundaryWord(s, (1, 1, 1), outer=1)
    for ordering in res.orderings:
        rhs = TwistWord(s, tuple(ConvexCurve.over(b) for b in ordering))
        assert equivalent(lhs, rhs)


def test_search_shuffle_path_takes_designs_past_256_blocks():
    # the 24-point all-pairs design has 276 blocks; draws are plain int
    # tuples, so no block index has a byte-sized limit
    d = Design(24, tuple(itertools.combinations(range(1, 25), 2)))
    res = search_orderings(d, SearchBudget(exhaustive_cap=0, tries=1))
    assert len(d.blocks) == 276
    assert res.status == "budget"


def test_search_shuffle_path_interns_few_simples(monkeypatch):
    # memory guard: the kernel interns only the two results of each pair it
    # slides, not every simple met on the way; a fresh table per strand
    # count keeps the count cold.  The search runs in the dual structure,
    # whose table holds some of the Catalan(24) ~ 1.3e12 simples.
    from planar_monoid import braid

    monkeypatch.setattr(braid, "_simples", functools.cache(braid._Simples))
    monkeypatch.setattr(braid, "_dual_simples", functools.cache(braid._NonCrossing))
    d = Design(24, tuple(itertools.combinations(range(1, 25), 2)))
    before = len(braid._simples(24).perm)
    res = search_orderings(d, SearchBudget(exhaustive_cap=0, tries=1))
    assert res.status == "budget"
    assert len(braid._simples(24).perm) - before < 10_000
    assert len(braid._dual_simples(24).perm) < 10_000


@pytest.mark.parametrize("seed", [0, 1, 5, 2024])
def test_draws_reproduce_random_shuffle(seed):
    # the shuffle path draws with random.shuffle's own rejection sequence,
    # inlined, so its draws are those of random.Random(seed).shuffle
    for k in range(1, 301):
        rng = random.Random(seed)
        shuffled = list(range(k))
        expected = []
        for _ in range(3):
            rng.shuffle(shuffled)
            rot = shuffled.index(0)
            expected.append((*shuffled[rot:], *shuffled[:rot], rot))
        assert designs._draws(k, 3, seed) == expected


def test_search_budget_path_is_deterministic():
    d = Design(4, ALL_PAIRS_4)
    budget = SearchBudget(exhaustive_cap=2, tries=300, seed=7)
    r1 = search_orderings(d, budget)
    r2 = search_orderings(d, budget)
    assert r1.status == "budget"
    assert r1.orderings == r2.orderings


def test_search_result_json():
    res = SearchResult(Design(3, ((1, 2), (2, 3), (1, 3))), (), "budget")
    obj = res.to_json_obj()
    assert obj["orderings_found"] == 0
    assert obj["status"] == "budget"


@pytest.mark.parametrize("n", [4, 5, 6])
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
