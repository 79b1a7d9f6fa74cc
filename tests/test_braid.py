import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from planar_monoid.braid import (
    BraidWord,
    NormalForm,
    compose,
    equals,
    full_twist,
    invert,
    linking_matrix,
    lk_equal,
    nf_mul,
    normal_form,
    permutation,
)


@st.composite
def braid_words(draw, max_strands=6, max_len=24):
    s = draw(st.integers(2, max_strands))
    letters = draw(
        st.lists(
            st.integers(1, s - 1).flatmap(lambda g: st.sampled_from((g, -g))),
            max_size=max_len,
        )
    )
    return BraidWord(s, tuple(letters))


@st.composite
def braid_word_pairs(draw, max_strands=6, max_len=24):
    "Two words on the same strand count."
    a = draw(braid_words(max_strands, max_len))
    letters = draw(
        st.lists(
            st.integers(1, a.strands - 1).flatmap(lambda g: st.sampled_from((g, -g))),
            max_size=max_len,
        )
    )
    return a, BraidWord(a.strands, tuple(letters))


def test_letter_range_checked():
    with pytest.raises(ValueError):
        BraidWord(3, (3,))
    with pytest.raises(ValueError):
        BraidWord(3, (0,))
    with pytest.raises(ValueError):
        BraidWord(0, ())


def test_identity_normal_form():
    nf = normal_form(BraidWord(4))
    assert nf.is_identity()
    assert nf.canonical_length() == 0


def test_braid_relation():
    a = BraidWord(3, (1, 2, 1))
    b = BraidWord(3, (2, 1, 2))
    assert equals(a, b)
    assert normal_form(a) == normal_form(b)


def test_far_commutation():
    a = BraidWord(4, (1, 3))
    b = BraidWord(4, (3, 1))
    assert equals(a, b)


def test_distinct_generators_differ():
    assert not equals(BraidWord(3, (1,)), BraidWord(3, (2,)))
    assert not equals(BraidWord(3, (1,)), BraidWord(3, (-1,)))


def test_strand_mismatch_raises():
    with pytest.raises(ValueError):
        equals(BraidWord(3, (1,)), BraidWord(4, (1,)))


@given(braid_words())
def test_word_times_inverse_is_identity(w):
    assert normal_form(compose(w, invert(w))).is_identity()
    assert normal_form(compose(invert(w), w)).is_identity()


@given(braid_words())
def test_normal_form_reexpands_to_equal_word(w):
    nf = normal_form(w)
    assert equals(nf.to_word(), w)


@given(braid_words(max_len=16))
def test_full_twist_is_central(w):
    ft = full_twist(w.strands)
    assert equals(compose(ft, w), compose(w, ft))


@given(braid_word_pairs(max_len=16))
def test_nf_mul_matches_concatenation(pair):
    a, b = pair
    concat = BraidWord(a.strands, a.letters + b.letters)
    assert nf_mul(normal_form(a), normal_form(b)) == normal_form(concat)


def _sup(nf):
    return nf.infimum + nf.canonical_length()


@given(braid_word_pairs(max_strands=8, max_len=24))
@settings(deadline=None)
def test_inf_sup_bounds(pair):
    # the lemma search_orderings prunes by: inf is superadditive, sup is
    # subadditive, and inverting swaps them with a sign
    a, b = pair
    na, nb = normal_form(a), normal_form(b)
    prod = nf_mul(na, nb)
    assert prod.infimum >= na.infimum + nb.infimum
    assert _sup(prod) <= _sup(na) + _sup(nb)
    inv = normal_form(invert(a))
    assert inv.infimum == -_sup(na)
    assert _sup(inv) == -na.infimum


def _assert_left_weighted(nf):
    # Checked from the definition, independent of the library's slide code.
    m = nf.strands
    for f in nf.factors:
        assert f != tuple(range(m)) and f != tuple(range(m - 1, -1, -1))
    for a, b in zip(nf.factors, nf.factors[1:]):
        a_inv = [0] * m
        for x, y in enumerate(a):
            a_inv[y] = x
        for i in range(m - 1):
            if b[i] > b[i + 1]:
                assert a_inv[i] > a_inv[i + 1], (a, b, i)


@given(braid_word_pairs(max_strands=8, max_len=24))
@settings(deadline=None)
def test_normal_form_is_left_weighted(pair):
    a, b = pair
    na, nb = normal_form(a), normal_form(b)
    _assert_left_weighted(na)
    _assert_left_weighted(nb)
    _assert_left_weighted(nf_mul(na, nb))


@given(st.integers(2, 8).flatmap(lambda m: st.permutations(list(range(m)))))
@settings(deadline=None)
def test_interned_simple_factors_match_definitions(p):
    # the kernel's table, checked from the definitions: S(p) = descents of p,
    # F(p) = descents of p^-1, and right/left compose with s_i after/before p
    from planar_monoid.braid import _simples

    p = tuple(p)
    m = len(p)
    table = _simples(m)

    def check(x):
        q = table.perm[x]
        q_inv = tuple(sorted(range(m), key=q.__getitem__))
        assert table.intern(q) == x
        assert table.starts[x] == sum(1 << i for i in range(m - 1) if q[i] > q[i + 1])
        assert table.finishes[x] == sum(1 << i for i in range(m - 1) if q_inv[i] > q_inv[i + 1])

    a = table.intern(p)
    assert table.perm[a] == p
    check(a)
    for i in range(m - 1):
        s = list(range(m))
        s[i], s[i + 1] = i + 1, i
        right, left = table.right(a, i), table.left(a, i)
        assert table.perm[right] == tuple(s[p[x]] for x in range(m))  # p, then s_i
        assert table.perm[left] == tuple(p[s[x]] for x in range(m))  # s_i, then p
        check(right)
        check(left)


def test_full_twist_normal_form():
    # the full twist is Delta^2; with the negative-letter convention the
    # normal form is the bare Delta power, no factors
    for m in range(2, 7):
        nf = normal_form(full_twist(m))
        assert nf.factors == ()
        assert nf.infimum == -2


def test_full_twist_is_pure_and_links_minus_one():
    for m in range(2, 7):
        ft = full_twist(m)
        assert permutation(ft).is_identity()
        L = linking_matrix(ft)
        for x in range(1, m + 1):
            for y in range(x + 1, m + 1):
                assert L.entry(x, y) == -1


@given(braid_words(max_len=12))
def test_linking_is_conjugation_invariant_total(w):
    # total linking (exponent sum / 2 pattern): conjugating permutes entries
    g = BraidWord(w.strands, (1,) if w.strands > 1 else ())
    conj = compose(compose(g, w), invert(g))
    total = sum(
        linking_matrix(w).entry(x, y)
        for x in range(1, w.strands + 1)
        for y in range(x + 1, w.strands + 1)
    )
    total_c = sum(
        linking_matrix(conj).entry(x, y)
        for x in range(1, w.strands + 1)
        for y in range(x + 1, w.strands + 1)
    )
    assert total == total_c


@pytest.mark.parametrize(
    "m,letter",
    [(m, sign * i) for m in range(2, 9) for i in range(1, m) for sign in (1, -1)],
)
def test_lk_generator_relations(m, letter):
    # hypothesis words stop at 6 strands; this covers every generator and
    # its inverse up to the 8 strands the n=9 daisy family uses
    def w(*letters):
        return BraidWord(m, letters)

    i, sign = abs(letter), (1 if letter > 0 else -1)
    assert lk_equal(w(letter, -letter), w())
    assert lk_equal(w(-letter, letter), w())
    if i + 1 < m:
        nxt = sign * (i + 1)
        assert lk_equal(w(letter, nxt, letter), w(nxt, letter, nxt))
    for j in range(1, m):
        if abs(i - j) >= 2:
            for far in (j, -j):
                assert lk_equal(w(letter, far), w(far, letter))
    ft = full_twist(m).letters
    assert lk_equal(w(*ft, letter), w(letter, *ft))


@given(braid_word_pairs(max_len=20))
@settings(max_examples=60, deadline=None)
def test_lk_agrees_with_garside(pair):
    a, b = pair
    assert lk_equal(a, b) == equals(a, b)


@given(braid_words(max_len=16))
@settings(max_examples=60, deadline=None)
def test_lk_detects_trivial_insertions(w):
    padded = BraidWord(w.strands, w.letters + (1, -1))
    assert lk_equal(w, padded)


def test_nf_equality_is_exact_on_rewritings():
    # sigma1 sigma2 sigma1 sigma1^-1 = sigma1 sigma2
    a = BraidWord(3, (1, 2, 1, -1))
    b = BraidWord(3, (1, 2))
    assert normal_form(a) == normal_form(b)
    assert isinstance(normal_form(a), NormalForm)
