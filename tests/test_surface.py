import itertools

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from planar_monoid.braid import equals, full_twist
from planar_monoid.catalog import verify_words
from planar_monoid.surface import (
    BoundaryWord,
    ConvexCurve,
    MultiplicityVector,
    SurfaceSpec,
    TwistWord,
    multiplicities,
    read_relation,
    swing_word,
    to_braid,
)
from strand_reference import expand, strand_linking


@st.composite
def twist_words(draw, max_m=6, max_factors=6):
    m = draw(st.integers(2, max_m))
    factors = []
    for _ in range(draw(st.integers(0, max_factors))):
        if draw(st.booleans()) and draw(st.integers(0, 5)) == 0:
            factors.append(ConvexCurve(range(1, m + 1)))
        else:
            k = draw(st.integers(1, m))
            support = draw(
                st.lists(st.integers(1, m), min_size=k, max_size=k, unique=True)
            )
            factors.append(ConvexCurve(support))
    return TwistWord(SurfaceSpec(m + 1), tuple(factors))


def test_surface_spec_labels():
    # interior labels 1..n-1, one strand each
    s = SurfaceSpec(5)
    assert multiplicities(TwistWord(s, (ConvexCurve([1, 2, 3, 4]),))).interior == (1, 1, 1, 1)
    assert to_braid(TwistWord(s)).strands == 4
    with pytest.raises(ValueError):
        SurfaceSpec(1)


@pytest.mark.parametrize("n", [4.0, True, "4"])
def test_surface_spec_takes_ints_only(n):
    with pytest.raises(ValueError, match="n must be an integer"):
        SurfaceSpec(n)


def test_curve_validation():
    with pytest.raises(ValueError):
        ConvexCurve(support=(1, 1))
    with pytest.raises(ValueError):
        ConvexCurve(support=(0, 2))
    with pytest.raises(ValueError, match="non-empty support"):
        ConvexCurve(())


@pytest.mark.parametrize("labels", [[1, 2.5], [1.0, 2], [True, 2], [1, "2"]])
def test_curve_takes_ints_only(labels):
    "Labels are ints; nothing is truncated, converted or left to fail in swing_word."
    with pytest.raises(ValueError, match="label must be an integer"):
        ConvexCurve(labels)


def test_curve_support_sorted():
    assert ConvexCurve([3, 1, 2]).support == (1, 2, 3)


def test_boundary_parallel_cases():
    s = SurfaceSpec(5)
    assert ConvexCurve([2]).is_boundary_parallel(s)
    assert ConvexCurve([1, 2, 3, 4]).is_boundary_parallel(s)
    assert not ConvexCurve([1, 2]).is_boundary_parallel(s)


def test_singleton_swing_is_empty():
    # capping turns an interior boundary twist into nothing
    assert swing_word(ConvexCurve([2]), SurfaceSpec(5)).letters == ()


def test_outer_swing_is_full_twist():
    # the curve a boundary word's outer twist expands to swings to the full twist
    (outer,) = expand(BoundaryWord(SurfaceSpec(5), (0, 0, 0, 0), outer=1)).factors
    assert swing_word(outer, SurfaceSpec(5)) == full_twist(4)


def test_full_support_swing_equals_outer():
    # the outer twist's swing spells the full twist letter for letter
    for n in range(2, 11):
        assert swing_word(ConvexCurve(range(1, n)), SurfaceSpec(n)) == full_twist(n - 1)


@given(twist_words())
@settings(max_examples=50, deadline=None)
def test_swings_are_pure(tw):
    assert strand_linking(to_braid(tw))[0]


@given(twist_words())
@settings(max_examples=50, deadline=None)
def test_linking_counts_co_membership(tw):
    "Each strand pair links once, negatively, per factor containing both."
    for (x, y), doubled in strand_linking(to_braid(tw))[1].items():
        co = sum(
            1
            for c in tw.factors
            if x in c.support and y in c.support
        )
        assert doubled == -2 * co


def test_boundary_word_is_the_full_twist():
    # interior exponents cap away; only the outer twist leaves a braid
    for exps in ((0, 0, 0, 0), (1, 2, 3, 4), (2, 2, 2, 2)):
        w = BoundaryWord(SurfaceSpec(5), exps, outer=1)
        assert equals(to_braid(w), full_twist(4))


def _exponent_vectors(n):
    """Exponent vectors with entries 0..3: every one up to n = 5, past it
    the 16 vectors (step * i + offset) % 4, which put every value at every
    label."""
    if n <= 5:
        return itertools.product(range(4), repeat=n - 1)
    return {
        tuple((step * i + offset) % 4 for i in range(n - 1))
        for step in range(4)
        for offset in range(4)
    }


@pytest.mark.parametrize("n", range(2, 9))
def test_boundary_word_readings_match_its_expansion(n):
    # to_braid and multiplicities read a boundary word off its exponents;
    # the expanded twist word is the reference, letter for letter
    s = SurfaceSpec(n)
    for exps in _exponent_vectors(n):
        for outer in range(4):
            w = BoundaryWord(s, exps, outer)
            assert to_braid(w) == to_braid(expand(w))
            assert multiplicities(w) == multiplicities(expand(w))


def test_annulus_one_hole_twists_count_as_outer():
    # at n = 2 the curve around hole 1 is the curve around every interior
    # hole, so each one-hole twist is outer-parallel too
    w = BoundaryWord(SurfaceSpec(2), (3,), outer=1)
    assert multiplicities(w) == MultiplicityVector((4,), 4)


def test_boundary_word_validation():
    with pytest.raises(ValueError):
        BoundaryWord(SurfaceSpec(5), (1, 1, 1))
    with pytest.raises(ValueError):
        BoundaryWord(SurfaceSpec(5), (1, 1, 1, -1))


def test_boundary_word_names_a_negative_outer_exponent():
    with pytest.raises(ValueError, match=r"^outer must be non-negative, got -1$"):
        BoundaryWord(SurfaceSpec(5), (1, 1, 1, 1), outer=-1)
    with pytest.raises(ValueError, match=r"^exponents must be non-negative$"):
        BoundaryWord(SurfaceSpec(5), (1, 1, -1, 1), outer=1)


@pytest.mark.parametrize(
    "exponents, outer",
    [((1.0, 1, 1), 1), ((True, 1, 1), 1), ((1, "1", 1), 1), ((1, 1, 1), 1.0), ((1, 1, 1), True)],
)
def test_boundary_word_takes_ints_only(exponents, outer):
    "Exponents and outer are ints; nothing is left to fail in reading them."
    with pytest.raises(ValueError, match="must be an integer"):
        BoundaryWord(SurfaceSpec(4), exponents, outer)


def test_boundary_word_takes_a_surface():
    with pytest.raises(ValueError, match="surface must be a SurfaceSpec"):
        BoundaryWord(4, (1, 1, 1))


def test_boundary_word_expand_counts():
    w = BoundaryWord(SurfaceSpec(4), (2, 0, 1), outer=2)
    assert w.twist_count() == 5
    expanded = expand(w)
    assert len(expanded) == 5
    assert sum(1 for c in expanded.factors if c.support == (1, 2, 3)) == 2


def test_multiplicities_interior_and_outer():
    s = SurfaceSpec(5)
    tw = TwistWord(
        s,
        (
            ConvexCurve([1, 2]),
            ConvexCurve([1, 2, 3, 4]),  # parallel to the outer boundary
            ConvexCurve([4, 3, 2, 1]),
        ),
    )
    mv = multiplicities(tw)
    assert mv.interior == (3, 3, 2, 2)
    assert mv.outer == 2


@pytest.mark.parametrize(
    "surface, factors, match",
    [
        (SurfaceSpec(4), ((1, 2),), "factor must be a ConvexCurve"),
        (4, (), "surface must be a SurfaceSpec"),
    ],
)
def test_twist_word_takes_a_surface_and_curves(surface, factors, match):
    with pytest.raises(ValueError, match=match):
        TwistWord(surface, factors)


def test_support_beyond_labels_rejected():
    with pytest.raises(ValueError):
        TwistWord(SurfaceSpec(4), (ConvexCurve([1, 4]),))
    with pytest.raises(ValueError):
        swing_word(ConvexCurve([5]), SurfaceSpec(4))


def test_equivalent_accepts_known_relation():
    # four-holed sphere: boundary product = three pair twists
    s = SurfaceSpec(4)
    lhs = BoundaryWord(s, (1, 1, 1), outer=1)
    rhs = TwistWord(
        s, (ConvexCurve([1, 2]), ConvexCurve([2, 3]), ConvexCurve([1, 3]))
    )
    assert verify_words("k3", lhs, rhs, lk=False).verified


def test_equivalent_is_order_sensitive():
    # same three factors, lexicographic order: not the boundary product
    s = SurfaceSpec(4)
    lhs = BoundaryWord(s, (1, 1, 1), outer=1)
    rhs = TwistWord(
        s, (ConvexCurve([1, 2]), ConvexCurve([1, 3]), ConvexCurve([2, 3]))
    )
    assert not verify_words("k3-lex", lhs, rhs, lk=False).verified


def test_equivalent_demands_same_surface():
    a = BoundaryWord(SurfaceSpec(4), (0, 0, 0), outer=0)
    b = TwistWord(SurfaceSpec(5))
    with pytest.raises(ValueError, match="same surface"):
        verify_words("apart", a, b, lk=False)


def test_json_roundtrip():
    # a relation file reads back as the words it was written from
    s = SurfaceSpec(5)
    tw = TwistWord(s, (ConvexCurve([1, 3]), ConvexCurve([1, 2, 3, 4])))
    bw = BoundaryWord(s, (2, 0, 1, 3), outer=2)
    obj = {"n": 5, "lhs": {"exponents": [2, 0, 1, 3], "outer": 2}, "rhs": [[1, 3], "outer"]}
    assert read_relation(dict(obj, label="r")) == ("r", bw, tw)
    assert read_relation(obj, "stem") == ("stem", bw, tw)
    assert read_relation(dict(obj, rhs=["outer", [3, 1]], order="leftmost-first"), "x")[2] == tw
    # "outer" is the curve around every interior hole: one word, one report
    spelled = read_relation(dict(obj, rhs=[[1, 3], [1, 2, 3, 4]]), "r")
    assert spelled == read_relation(obj, "r")
    assert verify_words(*spelled) == verify_words(*read_relation(obj, "r"))
    no_rhs = {"n": 5, "lhs": {"exponents": [2, 0, 1, 3]}, "label": "r"}
    assert read_relation(no_rhs) == ("r", BoundaryWord(s, (2, 0, 1, 3), outer=1), None)
    with pytest.raises(ValueError, match="label must be a string"):
        read_relation(obj)
    with pytest.raises(ValueError, match="unknown lhs key 'n', want 'exponents' or 'outer'"):
        read_relation(dict(obj, lhs={"n": 5, "exponents": [2, 0, 1, 3]}), "x")
    with pytest.raises(ValueError, match="unknown relation key 'Order'"):
        read_relation(dict(obj, Order="leftmost-first"), "x")
