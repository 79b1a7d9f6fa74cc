import json
from importlib import resources

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from planar_monoid import designs
from planar_monoid.braid import BraidWord, equals, normal_form
from planar_monoid.catalog import (
    AUDIT_MODES,
    CATALOGUED_N,
    Relation,
    builtin,
    completeness_check,
    verify,
    verify_words,
)
from planar_monoid.designs import (
    SearchBudget,
    enumerate_designs,
    from_rhs,
    replication,
    search_orderings,
)
from planar_monoid.surface import BoundaryWord, ConvexCurve, SurfaceSpec, TwistWord, to_braid
from strand_reference import expand


@pytest.mark.parametrize(("n", "count"), [(5, 2), (6, 7), (7, 17)])
def test_builtin_counts(n, count):
    rels = builtin(n)
    assert len(rels) == count
    assert len({r.label for r in rels}) == count
    assert all(r.lhs.surface.n == n for r in rels)


def test_builtin_rejects_other_n():
    with pytest.raises(ValueError):
        builtin(8)
    with pytest.raises(ValueError, match="n must be an integer"):
        builtin(5.0)


def test_builtin_returns_fresh_lists():
    a = builtin(5)
    a.append(None)
    assert len(builtin(5)) == 2


def test_shared_lhs_factorizations():
    # two LHS words admit two catalogued factorizations each; one pair
    # even uses the same blocks in a different order
    rels = builtin(7)
    by_lhs = {}
    for r in rels:
        by_lhs.setdefault(r.lhs, []).append(r)
    twins = sorted(
        (group for group in by_lhs.values() if len(group) > 1),
        key=lambda g: g[0].label,
    )
    assert [[r.label for r in g] for g in twins] == [["n7/14", "n7/16"], ["n7/9", "n7/10"]]
    for a, b in twins:
        assert a.rhs.factors != b.rhs.factors
        assert verify(a).verified and verify(b).verified
    nine, ten = twins[1]
    assert sorted(c.support for c in nine.rhs.factors) == sorted(
        c.support for c in ten.rhs.factors
    )


def test_relation_rejects_surface_mismatch():
    lhs = BoundaryWord(SurfaceSpec(5), (1, 1, 1, 1), outer=1)
    rhs = TwistWord(SurfaceSpec(4), (ConvexCurve([1, 2]),))
    with pytest.raises(ValueError):
        Relation(label="x", lhs=lhs, rhs=rhs)


def test_relation_rejects_boundary_parallel_factor():
    s = SurfaceSpec(4)
    lhs = BoundaryWord(s, (1, 1, 1), outer=1)
    with pytest.raises(ValueError):
        Relation(label="x", lhs=lhs, rhs=TwistWord(s, (ConvexCurve([2]),)))


@pytest.mark.parametrize(
    "curve",
    [
        ConvexCurve([2]),
        ConvexCurve([1, 2, 3]),
        # the outer twist as a boundary word builds it
        expand(BoundaryWord(SurfaceSpec(4), (0, 0, 0), outer=1)).factors[0],
    ],
)
def test_boundary_parallel_rule_has_one_message(curve):
    s = SurfaceSpec(4)
    rhs = TwistWord(s, (curve,))
    with pytest.raises(ValueError) as from_design:
        from_rhs(rhs)
    with pytest.raises(ValueError) as from_relation:
        Relation("x", BoundaryWord(s, (1, 1, 1)), rhs)
    assert str(from_design.value) == str(from_relation.value)
    assert str(from_relation.value) == f"rhs factor {curve} is boundary-parallel"


def test_relation_takes_a_label_and_two_words():
    r = builtin(5)[0]
    for args, what in [
        (("x", None, None), "lhs"),
        ((1, r.lhs, r.rhs), "label"),
        ((None, r.lhs, r.rhs), "label"),
        (("x", r.rhs, r.rhs), "lhs"),
        (("x", r.lhs, r.lhs), "rhs"),
        (("x", r.lhs, r.rhs.factors), "rhs"),
    ]:
        with pytest.raises(ValueError, match=f"^{what} must be a"):
            Relation(*args)


def test_verify_reports_failure_without_raising():
    s = SurfaceSpec(4)
    lhs = BoundaryWord(s, (2, 2, 2), outer=1)
    rhs = TwistWord(
        s, (ConvexCurve([1, 2]), ConvexCurve([2, 3]), ConvexCurve([1, 3]))
    )
    rep = verify_words("bad", lhs, rhs)
    assert not rep.verified
    assert not rep.multiplicities_equal
    assert rep.oracle_agreement is True  # both engines said "unequal"


def _catalog_variants():
    """Every rotation of every catalogued rhs, and every adjacent swap of
    each rotation's factors, as (lhs, rhs, holds) triples.  A rotation of a
    relation is a relation; a swap is one exactly when the two blocks are
    disjoint, so that their twists commute (two blocks of a design share at
    most one label)."""
    for n in CATALOGUED_N:
        for r in builtin(n):
            f = r.rhs.factors
            for k in range(len(f)):
                rot = f[k:] + f[:k]
                yield r.lhs, TwistWord(r.rhs.surface, rot), True
                for i in range(len(rot) - 1):
                    swapped = rot[:i] + (rot[i + 1], rot[i]) + rot[i + 2:]
                    disjoint = not set(rot[i].support) & set(rot[i + 1].support)
                    yield r.lhs, TwistWord(r.rhs.surface, swapped), disjoint


def test_verdict_agrees_with_letter_by_letter_equals_on_catalog_variants():
    # the verdict multiplies cached block forms; equals spells both sides
    # letter by letter
    verdicts = []
    for lhs, rhs, holds in _catalog_variants():
        held = verify_words("v", lhs, rhs, lk=False).braid_equal
        assert held == equals(to_braid(lhs), to_braid(rhs)) == holds, rhs
        verdicts.append(held)
    # 232 rotations and 2,016 swaps, 164 of them of disjoint blocks
    assert (len(verdicts), verdicts.count(True)) == (2248, 232 + 164)


def _mirror(w):
    return BraidWord(w.strands, tuple(-k for k in w.letters))


@st.composite
def edge_words(draw):
    """An (lhs, rhs) pair on n = 2..8: rhs factors of any support, one-hole
    and outer-parallel ones drawn often, and sometimes a catalogued rhs
    spliced in, which is the full twist; lhs outer 0..3."""
    n = draw(st.integers(2, 8))
    m = n - 1
    surface = SurfaceSpec(n)
    factors = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("one-hole", "outer", "any")))
        if kind == "one-hole":
            support = [draw(st.integers(1, m))]
        elif kind == "outer":
            support = range(1, n)
        else:
            support = draw(st.lists(st.integers(1, m), min_size=1, max_size=m, unique=True))
        factors.append(ConvexCurve(support))
    if n in CATALOGUED_N and draw(st.booleans()):
        at = draw(st.integers(0, len(factors)))
        factors[at:at] = draw(st.sampled_from(builtin(n))).rhs.factors
    exponents = draw(st.lists(st.integers(0, 2), min_size=m, max_size=m))
    lhs = BoundaryWord(surface, exponents, outer=draw(st.integers(0, 3)))
    return lhs, TwistWord(surface, factors)


@given(edge_words())
@settings(max_examples=300, deadline=None)
def test_verdict_agrees_with_letter_by_letter_equals_on_drawn_words(pair):
    lhs, rhs = pair
    assert designs._twist_nf(rhs) == normal_form(_mirror(to_braid(rhs)))
    held = verify_words("v", lhs, rhs, lk=False).braid_equal
    assert held == equals(to_braid(lhs), to_braid(rhs))


@pytest.mark.parametrize(
    "n, exponents, outer, supports, held",
    [
        # more outer factors on the rhs than on the lhs, interior counts equal
        (5, (1, 2, 1, 1), 1, ((2,), (1, 2, 3, 4), (1, 2, 3, 4)), False),
        (5, (0, 0, 0, 0), 0, (), True),  # empty rhs
        (5, (0, 0, 0, 0), 1, (), False),
        (3, (0, 0), 2, ((1, 2), (1, 2)), True),  # outer factors only
        (3, (0, 0), 1, ((1, 2), (1, 2)), False),
        (2, (2,), 1, ((1,), (1,), (1,)), True),  # the annulus: B_1 is trivial
        (2, (0,), 0, ((1,),), True),
    ],
)
def test_verdict_edge_cases(n, exponents, outer, supports, held):
    s = SurfaceSpec(n)
    lhs = BoundaryWord(s, exponents, outer=outer)
    rhs = TwistWord(s, tuple(ConvexCurve(c) for c in supports))
    rep = verify_words("edge", lhs, rhs)
    assert rep.braid_equal is held
    assert rep.oracle_agreement is True
    assert held == equals(to_braid(lhs), to_braid(rhs))


def test_verify_chi_fields():
    rep = verify(builtin(5)[0], lk=False)
    assert rep.verified
    assert rep.oracle_agreement is None
    assert (rep.lhs_chi, rep.rhs_chi) == (6, 3)


def test_verify_all_preserves_order_and_passes():
    # batch verification is one verify call per relation, in catalog order
    rels = builtin(6)
    reports = [verify(r, lk=False) for r in rels]
    assert [r.label for r in reports] == [r.label for r in rels]
    assert all(r.verified for r in reports)


def test_report_json_keys():
    obj = verify(builtin(5)[1], lk=False).to_json_obj()
    assert obj["verified"] is True
    assert set(obj) == {
        "label",
        "verified",
        "braid_equal",
        "multiplicities_equal",
        "lhs_chi",
        "rhs_chi",
        "oracle_agreement",
        "lhs_outer",
        "rhs_outer",
    }
    json.dumps(obj)  # serializable


def test_completeness_check_n5():
    rep = completeness_check(5)
    assert rep.n == 5 and rep.mode == "dihedral"
    assert len(rep.entries) == 2
    assert rep.all_match()
    assert all(e.status == "exhausted" for e in rep.entries)
    assert all(e.orderings_found > 0 for e in rep.entries)
    # both multisets carry exactly one catalog relation
    assert [c.catalog_labels for c in rep.replication_classes] == [("n5/2",), ("n5/1",)]


def test_completeness_member_witness_decides_catalogued_classes():
    # no tries: every multiset past the cap is decided by its catalogued
    # members' own words, never by a search find
    rep = completeness_check(6, "dihedral", SearchBudget(exhaustive_cap=8, tries=0))
    assert rep.all_match()
    k5 = [e for e in rep.entries if tuple(sorted(replication(e.design))) == (4, 4, 4, 4, 4)]
    assert [(e.status, e.orderings_found) for e in k5] == [("budget", 0)]
    by_reps = {c.replications: c for c in rep.replication_classes}
    assert by_reps[(4, 4, 4, 4, 4)].realizable

    rep = completeness_check(7, "symmetric", SearchBudget(exhaustive_cap=8, tries=0))
    assert all(c.realizable for c in rep.replication_classes if c.catalog_labels)
    four_triples = next(
        e for e in rep.entries if tuple(sorted(replication(e.design))) == (3, 3, 3, 3, 3, 3)
    )
    assert four_triples.status == "exhausted" and four_triples.orderings_found == 0
    by_reps = {c.replications: c for c in rep.replication_classes}
    assert not by_reps[(3, 3, 3, 3, 3, 3)].realizable


def test_completeness_groups_catalog_by_multiset():
    # a relation's multiset read off its lhs: replication = exponent + 1
    for n, mode in [(5, "dihedral"), (6, "dihedral"), (7, "symmetric"), (7, "dihedral")]:
        expected: dict[tuple, tuple[str, ...]] = {}
        for r in builtin(n):
            reps = tuple(sorted(a + 1 for a in r.lhs.exponents))
            expected[reps] = expected.get(reps, ()) + (r.label,)
        rep = completeness_check(n, mode, SearchBudget(exhaustive_cap=8, tries=0))
        assert {c.replications for c in rep.replication_classes} >= set(expected)
        for c in rep.replication_classes:
            assert c.catalog_labels == expected.get(c.replications, ())


@pytest.mark.parametrize("mode", AUDIT_MODES)
def test_n7_audit_at_cap_11_is_seed_free(mode):
    # At cap 11 every class of up to 11 blocks is searched to exhaustion,
    # and past it the search draws nothing at random, so no seed can change
    # a verdict.  The 9-block (3,3,3,4,4,4) class, which realizes, has a
    # catalogued witness, so the audit matches the catalog.
    rep = completeness_check(7, mode, SearchBudget(11, 2000))
    assert all(e.status == "exhausted" for e in rep.entries if len(e.design.blocks) <= 11)
    assert {len(e.design.blocks) for e in rep.entries if e.status == "budget"} == {13, 15}
    four_triples = [
        e for e in rep.entries if tuple(sorted(replication(e.design))) == (3, 3, 3, 3, 3, 3)
    ]
    assert len(four_triples) == (5 if mode == "dihedral" else 1)
    assert all(e.status == "exhausted" and e.orderings_found == 0 for e in four_triples)
    assert rep.all_match()


@pytest.mark.parametrize("n, mode", [(9, "dihedral"), (5, "labeled"), (5.0, "dihedral")])
def test_completeness_rejects_unknown_n(n, mode):
    with pytest.raises(ValueError):
        completeness_check(n, mode)


@pytest.mark.parametrize("budget", [SearchBudget(), SearchBudget(0, 50)], ids=["default", "tries50"])
@pytest.mark.parametrize("mode", AUDIT_MODES)
@pytest.mark.parametrize("n", [5, 6])
def test_audit_entries_are_the_searches_own_results(n, mode, budget):
    # an audit keeps each class's search result, counted without listing,
    # as its entry, with no copy into another record; 50 tries stop some
    rep = completeness_check(n, mode, budget)
    assert rep.entries == tuple(
        search_orderings(d, budget, listed=False) for d in enumerate_designs(n - 1, mode)
    )
    assert all(e.orderings is None for e in rep.entries)
    if budget.tries == 50:
        assert "budget" in {e.status for e in rep.entries}


def test_audit_entry_json_schema():
    rep = completeness_check(5)
    obj = rep.to_json_obj()["entries"][0]
    assert set(obj) == {"design", "exponents", "orderings_found", "status"}
    assert set(rep.replication_classes[0].to_json_obj()) == {
        "replications",
        "lhs_chi",
        "rhs_chi",
        "realizable",
        "statuses",
        "catalog_labels",
        "matches_catalog",
        "listed",
        "printed",
    }
    json.dumps(rep.to_json_obj())


def test_builtin_replications_are_feasible():
    # relabeling keeps a replication multiset, so the dihedral classes
    # carry every one
    multisets = {
        m: {tuple(sorted(replication(d))) for d in enumerate_designs(m, "dihedral")}
        for m in (4, 5, 6)
    }
    for n in (5, 6, 7):
        for r in builtin(n):
            d = from_rhs(r.rhs)
            assert sorted(replication(d)) == sorted(
                a + 1 for a in r.lhs.exponents
            )
            assert tuple(sorted(replication(d))) in multisets[n - 1]
    # feasible is not realizable: the four-triples class on 6 points
    # exists but no ordering of its blocks gives the full twist
    assert (3,) * 6 in multisets[6]
    assert (2,) * 6 not in multisets[6]


@pytest.mark.parametrize("mode", AUDIT_MODES)
@pytest.mark.parametrize("n", CATALOGUED_N)
def test_every_printed_row_reaches_the_audit(n, mode):
    # every row of the bundled printed-chi table lands on its class, and
    # no class shows a printed pair the table lacks
    rows = json.loads(
        resources.files("planar_monoid").joinpath("data", "printed_chi.json").read_text()
    )[str(n)]
    table = {tuple(row["replications"]): row["printed"] for row in rows}
    assert len(table) == len(rows)
    classes = completeness_check(n, mode).to_json_obj()["replication_classes"]
    assert all(c["listed"] == (c["printed"] is not None) for c in classes)
    assert {tuple(c["replications"]): c["printed"] for c in classes if c["listed"]} == table


def test_chi_discrepancy_report():
    printed = [
        (n, c)
        for n in CATALOGUED_N
        for c in completeness_check(n).replication_classes
        if c.printed is not None
    ]
    flagged = [(n, c) for n, c in printed if c.printed != (c.lhs_chi, c.rhs_chi)]
    # exactly three printed chi values disagree with the 2-n+k formula
    assert len(flagged) == 3
    assert sorted((n, c.printed) for n, c in flagged) == [
        (5, (3, 3)),
        (5, (6, 1)),
        (7, (16, 10)),
    ]
    # the n=7 disagreement: printed 16 where the formula gives 20
    big = next(c for n, c in flagged if n == 7)
    assert (big.lhs_chi, big.rhs_chi) == (20, 10)
    assert len(printed) - len(flagged) >= 10
