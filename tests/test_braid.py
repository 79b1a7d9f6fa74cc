import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from planar_monoid import braid
from planar_monoid.braid import (
    BraidWord,
    equals,
    full_twist,
    lk_equal,
    nf_mul,
    normal_form,
)
from planar_monoid.catalog import builtin, verify
from planar_monoid.designs import Design, _block_nf, enumerate_designs
from planar_monoid.surface import ConvexCurve, SurfaceSpec, TwistWord, swing_word, to_braid
from strand_reference import strand_linking


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


def _then(*words):
    "The words applied in turn: their letters, concatenated in that order."
    return BraidWord(words[0].strands, tuple(k for w in words for k in w.letters))


def _inverse(w):
    return BraidWord(w.strands, tuple(-k for k in reversed(w.letters)))


def test_letter_range_checked():
    with pytest.raises(ValueError):
        BraidWord(3, (3,))
    with pytest.raises(ValueError):
        BraidWord(3, (0,))
    with pytest.raises(ValueError):
        BraidWord(0, ())


def test_full_twist_takes_an_int_strand_count():
    with pytest.raises(ValueError, match="strand count must be an integer"):
        full_twist(3.0)


@pytest.mark.parametrize(
    "strands, letters, what",
    [(2.5, (), "strand count"), (True, (), "strand count"), (3, (1.0,), "letter"), (3, (True,), "letter")],
)
def test_braid_word_takes_ints_only(strands, letters, what):
    "Strands and letters are ints; nothing is left to fail in normal_form."
    with pytest.raises(ValueError, match=f"{what} must be an integer"):
        BraidWord(strands, letters)


def test_identity_normal_form():
    assert normal_form(BraidWord(4)) == (0, ())


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
    assert normal_form(_then(_inverse(w), w)) == (0, ())
    assert normal_form(_then(w, _inverse(w))) == (0, ())


@given(braid_words(max_len=16))
def test_full_twist_is_central(w):
    ft = full_twist(w.strands)
    assert equals(_then(w, ft), _then(ft, w))


def _sup(form):
    return form[0] + len(form[1])


@given(braid_word_pairs(max_strands=8, max_len=24))
@settings(deadline=None)
def test_inf_sup_bounds(pair):
    # the lemma search_orderings prunes by, on the dual forms: inf is
    # superadditive, sup is subadditive, and inverting swaps them with a sign
    a, b = pair
    na, nb = normal_form(a), normal_form(b)
    prod = normal_form(_then(a, b))
    assert prod[0] >= na[0] + nb[0]
    assert _sup(prod) <= _sup(na) + _sup(nb)
    inv = normal_form(_inverse(a))
    assert inv[0] == -_sup(na)
    assert _sup(inv) == -na[0]


def test_full_twist_normal_form():
    # the full twist is Delta^2 = delta^m; with the negative-letter
    # convention the normal form is the bare delta power, no factors.  A
    # catalog verdict reads the boundary side's form off this constant.  In
    # B_1 delta is the identity, and so is the full twist, with no letter
    assert normal_form(full_twist(1)) == (0, ())
    for m in range(2, 9):
        assert normal_form(full_twist(m)) == (-m, ())


# Reference dual (Birman-Ko-Lee) structure.  A simple element is named by
# its permutation (start position to end position), which sends each point to
# the next larger point of its block and the largest back to the smallest.
# Everything here is computed from the definitions: blocks as sets, the
# meet by search over all non-crossing partitions, and words through the
# band generators a_ts.


def _ref_blocks(p):
    seen, blocks = set(), []
    for i in range(len(p)):
        if i not in seen:
            block, j = set(), i
            while j not in block:
                block.add(j)
                j = p[j]
            seen |= block
            blocks.append(frozenset(block))
    return blocks


def _ref_shared(p):
    return {(i, j) for b in _ref_blocks(p) for i in b for j in b if i < j}


def _ref_block_perm(m, blocks):
    p = list(range(m))
    for b in blocks:
        b = sorted(b)
        for x, y in zip(b, b[1:] + b[:1]):
            p[x] = y
    return tuple(p)


def _ref_set_partitions(points):
    if not points:
        yield []
        return
    first, rest = points[0], points[1:]
    for part in _ref_set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]


@functools.cache
def _ref_non_crossing(m):
    """Every non-crossing partition of 0..m-1, as its permutation."""
    out = []
    for part in _ref_set_partitions(list(range(m))):
        label = {x: i for i, b in enumerate(part) for x in b}
        if not any(
            label[a] == label[c] != label[b] == label[d]
            for a, b, c, d in itertools.combinations(range(m), 4)
        ):
            out.append(_ref_block_perm(m, part))
    return tuple(out)


def _ref_then(p, q):
    # the permutation of "p's braid, then q's"
    return tuple(q[x] for x in p)


def _ref_inv(p):
    return tuple(sorted(range(len(p)), key=p.__getitem__))


def _ref_delta(m):
    return tuple((i + 1) % m for i in range(m))


def _ref_left_complement(p):
    return _ref_then(_ref_inv(p), _ref_delta(len(p)))


def _band(t, s):
    # a_ts = (s_{t-1} .. s_{s+1}) s_s (s_{t-1} .. s_{s+1})^-1
    mid = list(range(t - 1, s, -1))
    return [*mid, s, *(-k for k in reversed(mid))]


def _dual_simple_letters(block):
    # delta_S = a_{s_k s_{k-1}} .. a_{s_2 s_1} for the block s_1 < .. < s_k (1-indexed)
    block = sorted(block)
    return [k for j in range(len(block) - 1, 0, -1) for k in _band(block[j], block[j - 1])]


def _ref_simple_word(p):
    # the dual simple p through the band generators of its blocks
    return [k for b in _ref_blocks(p) for k in _dual_simple_letters([i + 1 for i in b])]


def _ref_dual_word(m, form):
    """Re-expand a dual form (infimum, ids) to a braid word: the delta power
    first, then the factors."""
    infimum, ids = form
    table = braid._dual_simples(m)
    delta = _dual_simple_letters(range(1, m + 1))
    letters = delta * infimum if infimum >= 0 else [-k for k in reversed(delta)] * -infimum
    for x in ids:
        letters += _ref_simple_word(table.perm[x])
    return BraidWord(m, tuple(letters))


def _ref_atoms(p):
    # the number of atoms a_ts in any positive word for p: m - blocks
    return len(p) - len(_ref_blocks(p))


def _ref_leading_deltas(table, ids):
    """The number of ids at the front of a kernel tuple that are delta, read
    from their permutations: the tuple's infimum."""
    k = 0
    while k < len(ids) and table.perm[ids[k]] == _ref_delta(table.m):
        k += 1
    return k


def _assert_left_weighted(m, perms):
    # from the definitions: no factor is the identity or delta, and each
    # adjacent pair (a, b) is left-weighted: no pair of points shares a
    # block of both da and b
    for p in perms:
        assert p not in (tuple(range(m)), _ref_delta(m))
    for p, q in zip(perms, perms[1:]):
        assert not _ref_shared(_ref_left_complement(p)) & _ref_shared(q), (p, q)


def _non_crossing(m):
    return st.sampled_from(_ref_non_crossing(m))


@given(st.integers(2, 8).flatmap(_non_crossing))
@settings(deadline=None)
def test_interned_simple_factors_match_definitions(p):
    # the kernel's table, checked from the definitions: starts = the pairs
    # that share a block of p, masks = the pairs that share a block of dp
    m = len(p)
    table = braid._dual_simples(m)

    def bits(pairs):
        return sum(1 << (i * m + j) for i, j in pairs)

    x = table.intern(p)
    assert table.perm[x] == p
    assert table.intern(p) == x
    assert table.starts[x] == bits(_ref_shared(p))
    assert table.masks[x] == bits(_ref_shared(_ref_left_complement(p)))


@given(st.integers(2, 8).flatmap(lambda m: st.tuples(_non_crossing(m), _non_crossing(m))))
@settings(deadline=None)
def test_pair_table_entries_are_left_weighted_products(pair):
    # each entry (a, b) -> (a', b') of the kernel's pair table, checked from
    # the definitions and against the LK oracle
    a, b = pair
    m = len(a)
    table = braid._dual_simples(m)
    ia, ib = table.intern(a), table.intern(b)
    nf_mul(table, (ia,), (ib,))
    packed = table.pairs.get(ia * table.size + ib)
    if not _ref_shared(_ref_left_complement(a)) & _ref_shared(b):
        assert packed is None  # only pairs that slide are stored
        return
    assert packed is not None
    a2, b2 = (table.perm[x] for x in packed)
    assert not _ref_shared(_ref_left_complement(a2)) & _ref_shared(b2)
    assert _ref_atoms(a2) + _ref_atoms(b2) == _ref_atoms(a) + _ref_atoms(b)
    assert lk_equal(
        BraidWord(m, (*_ref_simple_word(a2), *_ref_simple_word(b2))),
        BraidWord(m, (*_ref_simple_word(a), *_ref_simple_word(b))),
    )


@given(braid_word_pairs(max_strands=8, max_len=24))
@settings(deadline=None)
def test_normal_form_is_left_weighted(pair):
    # no factor is the identity or delta, and each adjacent pair (a, b) is
    # left-weighted: no pair of points shares a block of both da and b
    a, b = pair
    m = a.strands
    table = braid._dual_simples(m)
    for _, ids in (normal_form(a), normal_form(b), normal_form(_then(a, b))):
        _assert_left_weighted(m, [table.perm[x] for x in ids])


class _CountingDict(dict):
    def __init__(self, *args):
        super().__init__(*args)
        self.lookups = 0

    def get(self, *args):
        self.lookups += 1
        return super().get(*args)

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)


def test_warm_nf_mul_never_looks_up_image_tuples(monkeypatch):
    # work guard: once a word's letters (tau-conjugates included) and a
    # product's pairs are in the table, normal_form and nf_mul run on ids
    # alone
    m = 6
    rng = random.Random(6)
    words = [
        BraidWord(m, tuple(rng.choice((1, -1)) * rng.randrange(1, m) for _ in range(14))) for _ in range(8)
    ]
    table = braid._dual_simples(m)

    def run():
        forms = [normal_form(w) for w in words]
        return forms, [nf_mul(table, a, b) for _, a in forms for _, b in forms]

    expected = run()  # warm-up
    counting = _CountingDict(table.ids)
    monkeypatch.setattr(table, "ids", counting)
    assert run() == expected
    assert counting.lookups == 0


def test_delta_conjugation_map_is_tau(monkeypatch):
    # tau(x) = delta.x.delta^-1, on permutations from the definition for
    # every simple and every power, and as braids by the LK oracle
    monkeypatch.setattr(braid, "_dual_simples", functools.cache(braid._NonCrossing))
    for m in range(1, 7):
        table = braid._dual_simples(m)
        delta = _ref_delta(m)
        delta_word = _dual_simple_letters(range(1, m + 1))
        for p in _ref_non_crossing(m):
            x = table.intern(p)
            q = p
            for c in range(1, m + 1):
                q = _ref_then(_ref_then(delta, q), _ref_inv(delta))
                assert table.perm[table.tau(x, c)] == q
                assert table.tau(table.tau(x, c), -c) == x
            assert q == p  # tau^m is the identity
            if 2 <= m <= 5:
                conjugate = (*delta_word, *_ref_simple_word(p), *(-k for k in reversed(delta_word)))
                tau_x = _ref_simple_word(table.perm[table.tau(x, 1)])
                assert lk_equal(BraidWord(m, conjugate), BraidWord(m, tuple(tau_x)))


def _mirror(w):
    return BraidWord(w.strands, tuple(-k for k in w.letters))


@pytest.mark.parametrize("m", range(2, 8))
def test_every_swing_is_the_mirror_of_a_dual_simple_power(m):
    # the fact the ordering search stands on: mirrored, every swing is
    # dual-positive, delta_S^|S| for its support S, and the full twist is
    # delta^m, so every prefix of a realizing order left-divides delta^m
    table = braid._dual_simples(m)
    surface = SurfaceSpec(m + 1)
    for k in range(2, m):
        for support in itertools.combinations(range(1, m + 1), k):
            mirrored = _mirror(swing_word(ConvexCurve(support), surface))
            power = BraidWord(m, tuple(_dual_simple_letters(support) * k))
            assert equals(mirrored, power), support
            assert lk_equal(mirrored, power), support
            simple = table.intern(_ref_block_perm(m, [[x - 1 for x in support]]))
            assert normal_form(mirrored) == (0, (simple,) * k)
    assert normal_form(_mirror(full_twist(m))) == (m, ())
    assert normal_form(full_twist(m)) == (-m, ())


@given(braid_word_pairs(max_strands=8, max_len=24))
@settings(deadline=None)
def test_dual_forms_decide_equality(pair):
    a, b = pair
    m = a.strands
    assert (normal_form(a) == normal_form(b)) == lk_equal(a, b)
    # equal braids written differently: a.b.b^-1, and a past the central full twist
    assert normal_form(a) == normal_form(_then(a, b, _inverse(b)))
    ft = full_twist(m)
    assert normal_form(_then(a, ft)) == normal_form(_then(ft, a))


@given(braid_words(max_strands=8, max_len=24))
@settings(deadline=None)
def test_normal_form_reexpands_to_equal_word(w):
    word = _ref_dual_word(w.strands, normal_form(w))
    assert equals(word, w)
    assert lk_equal(word, w)


@st.composite
def positive_dual_factors(draw, m):
    """Ids of simple factors on m strands, in the shared table: a random
    positive dual word, or the mirrored block forms of a design folded in a
    random order, as the ordering search folds them."""
    table = braid._dual_simples(m)
    if draw(st.booleans()):
        simples = _ref_non_crossing(m)
        return [table.intern(p) for p in draw(st.lists(st.sampled_from(simples), max_size=16))]
    if m <= 7:
        d = draw(st.sampled_from(enumerate_designs(m, "dihedral")))
    else:
        d = Design(m, itertools.combinations(range(1, m + 1), 2))
    blocks = draw(st.permutations(d.blocks))
    return [x for b in blocks[: draw(st.integers(0, len(blocks)))] for x in _block_nf(table, b)]


def _kernel_tuple(table, form):
    """The kernel's tuple of a form of infimum >= 0: its deltas in front."""
    infimum, ids = form
    return (table.delta,) * infimum + ids


@given(st.data())
@settings(deadline=None)
def test_nf_mul_matches_concatenation(data):
    # the kernel on two positive words' forms, deltas in front, is the form
    # of the concatenated word, in either order
    m = data.draw(st.integers(2, 8))
    table = braid._dual_simples(m)
    positive = st.lists(st.integers(1, m - 1), max_size=24)
    a, b = BraidWord(m, tuple(data.draw(positive))), BraidWord(m, tuple(data.draw(positive)))
    fa, fb = _kernel_tuple(table, normal_form(a)), _kernel_tuple(table, normal_form(b))
    assert nf_mul(table, fa, fb) == _kernel_tuple(table, normal_form(_then(a, b)))
    assert nf_mul(table, fb, fa) == _kernel_tuple(table, normal_form(_then(b, a)))


def _form_mul(table, fa, fb):
    """The form of 'a then b' from the forms of a and b: a's factors pass
    delta^inf_b as tau^-inf_b, the kernel multiplies, and its leading
    deltas join the infimum."""
    (inf_a, ids_a), (inf_b, ids_b) = fa, fb
    product = nf_mul(table, [table.tau(x, -inf_b) for x in ids_a], ids_b)
    k = _ref_leading_deltas(table, product)
    return inf_a + inf_b + k, product[k:]


@given(braid_word_pairs(max_strands=8, max_len=24))
@settings(deadline=None)
def test_dual_mul_matches_concatenation(pair):
    # the kernel on the forms of two words of either sign, a's factors
    # conjugated past b's infimum, is the form of the concatenated word
    a, b = pair
    table = braid._dual_simples(a.strands)
    fa, fb = normal_form(a), normal_form(b)
    assert _form_mul(table, fa, fb) == normal_form(_then(a, b))
    assert _form_mul(table, fb, fa) == normal_form(_then(b, a))


@given(st.data())
@settings(deadline=None)
def test_dual_form_is_left_weighted(data):
    # the kernel's products of simple factors, as the ordering search folds
    # them, are left-weighted once their leading deltas are stripped
    m = data.draw(st.integers(3, 8))
    table = braid._dual_simples(m)
    prefix = nf_mul(table, (), data.draw(positive_dual_factors(m)))
    product = nf_mul(table, prefix, data.draw(positive_dual_factors(m)))
    for ids in (prefix, product):
        k = _ref_leading_deltas(table, ids)
        _assert_left_weighted(m, [table.perm[x] for x in ids[k:]])


@given(st.data())
@settings(deadline=None)
def test_dual_form_reexpands_to_equal_word(data):
    # a kernel product of simple factors, re-expanded as a dual form, is
    # the braid of the factors' words by the LK oracle
    m = data.draw(st.integers(3, 8))
    table = braid._dual_simples(m)
    factors = data.draw(positive_dual_factors(m))
    product = nf_mul(table, (), factors)
    k = _ref_leading_deltas(table, product)
    word = BraidWord(m, tuple(g for x in factors for g in _ref_simple_word(table.perm[x])))
    assert lk_equal(_ref_dual_word(m, (k, product[k:])), word)


@given(st.data())
@settings(deadline=None)
def test_kernel_limit_stops_exactly_past_the_bound(data):
    # the kernel with a limit is None exactly when the product's supremum,
    # its factor count deltas included, passes the bound, and otherwise the
    # product with no limit
    m = data.draw(st.integers(3, 8))
    table = braid._dual_simples(m)
    prefix = nf_mul(table, (), data.draw(positive_dual_factors(m)))
    factors = data.draw(positive_dual_factors(m))
    product = nf_mul(table, prefix, factors)
    bound = len(product) + data.draw(st.integers(-4, 2))
    assert nf_mul(table, prefix, factors, bound) == (None if len(product) > bound else product)


@given(st.data())
@settings(deadline=None)
def test_kernel_keeps_every_delta_in_front(data):
    # the kernel's tuple: its deltas lead, stripped it is the dual normal
    # form of the concatenated word, and deltas put in front of the prefix
    # come out in front of the product, one for one
    m = data.draw(st.integers(3, 8))
    table = braid._dual_simples(m)
    head, tail = data.draw(positive_dual_factors(m)), data.draw(positive_dual_factors(m))
    prefix = nf_mul(table, (), head)
    product = nf_mul(table, prefix, tail)
    deltas = [i for i, x in enumerate(product) if x == table.delta]
    assert deltas == list(range(len(deltas)))
    k = _ref_leading_deltas(table, product)
    assert k == len(deltas)
    word = BraidWord(m, tuple(g for x in head + tail for g in _ref_simple_word(table.perm[x])))
    assert (k, product[k:]) == normal_form(word)
    j = data.draw(st.integers(0, 3))
    assert nf_mul(table, (table.delta,) * j + prefix, tail) == (table.delta,) * j + product


def _ref_dual_pair(m, a, b, simples):
    """Left-weighted, delta-stripped form of the pair (a, b) of permutations:
    (a.c, c^-1.b) with c the meet of da and b, the non-crossing partition
    with the most pairs among those that refine both."""
    fs = [a]
    if b != tuple(range(m)):
        common = _ref_shared(_ref_left_complement(a)) & _ref_shared(b)
        c = max((p for p in simples if _ref_shared(p) <= common), key=lambda p: len(_ref_shared(p)))
        fs = [_ref_then(a, c), _ref_then(_ref_inv(c), b)]
        if fs[1] == tuple(range(m)):
            fs.pop()
    k = 0
    while k < len(fs) and fs[k] == _ref_delta(m):
        k += 1
    return k, tuple(fs[k:])


def test_dual_pair_table_keys_are_exact_for_every_id(monkeypatch):
    # a fresh 7-strand table with all Catalan(7) = 429 simples interned, in
    # reverse order, so that ids run up to 428: pairs of any ids slide to
    # the reference pairs, and the results are simples already interned
    monkeypatch.setattr(braid, "_dual_simples", functools.cache(braid._NonCrossing))
    m = 7
    table = braid._dual_simples(m)
    simples = _ref_non_crossing(m)[::-1]
    for p in simples:
        table.intern(p)
    assert len(table.perm) == table.size == 429
    rng = random.Random(7)
    for _ in range(400):
        a, b = rng.choice(simples), rng.choice(simples)
        ids = nf_mul(table, (table.intern(a),), (table.intern(b),))
        k = _ref_leading_deltas(table, ids)
        assert (k, tuple(map(table.perm.__getitem__, ids[k:]))) == _ref_dual_pair(m, a, b, simples)
    assert len(table.perm) == 429
    for m in range(1, 9):
        assert braid._NonCrossing(m).size == len(_ref_non_crossing(m))


def _dual_divisors_of_delta_power(m, k):
    """The left divisors of delta^k in the dual monoid on m strands: every
    product of atoms a_ts whose dual supremum stays at most k, found
    breadth first from the identity with the kernel, limited to k factors."""
    table = braid._dual_simples(m)
    atoms = []
    for s in range(m):
        for t in range(s + 1, m):
            p = list(range(m))
            p[s], p[t] = t, s  # the partition with the one block {s, t}
            atoms.append(table.intern(tuple(p)))
    seen = {()}
    frontier = list(seen)
    while frontier:
        nxt = []
        for x in frontier:
            for atom in atoms:
                y = nf_mul(table, x, (atom,), k)
                if y is not None and y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def test_dual_divisor_counts_of_delta_powers():
    # the full twist is delta^m; these are its left divisors at m = 3 and
    # 4, more than the Fuss-Catalan numbers 22 and 285, which count the
    # factorizations of delta into m + 1 simples, not divisors of delta^m
    assert len(_dual_divisors_of_delta_power(3, 1)) == 5  # Catalan(3)
    assert len(_dual_divisors_of_delta_power(3, 2)) == 15
    assert len(_dual_divisors_of_delta_power(3, 3)) == 37
    assert len(_dual_divisors_of_delta_power(4, 4)) == 2853


def test_full_twist_is_pure_and_links_minus_one():
    for m in range(2, 7):
        pure, doubled = strand_linking(full_twist(m))
        assert pure
        assert set(doubled.values()) == {-2}


@given(braid_words(max_len=12))
def test_linking_is_conjugation_invariant_total(w):
    # total linking (exponent sum / 2 pattern): conjugating permutes entries
    g = BraidWord(w.strands, (1,) if w.strands > 1 else ())
    conj = _then(_inverse(g), w, g)
    assert sum(strand_linking(w)[1].values()) == sum(strand_linking(conj)[1].values())


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


def _lk_reference(w):
    """LK matrix of w as {(row, col): {(q-degree, t-degree): coeff}},
    evaluated letter by letter from the identity with no reduction, straight
    from the closed-form generator columns (no packed keys, no flattening)."""
    pairs, index, _ = braid._lk_basis(w.strands)
    mat = {(r, r): {(0, 0): 1} for r in range(len(pairs))}
    for letter in w.letters:
        column = braid._lk_column if letter > 0 else braid._lk_inverse_column
        gen_row = {}  # row k of the generator -> [(col j, [(dq, dt, coeff)])]
        for j, (s, t) in enumerate(pairs):
            col = column(s, t, abs(letter)) or {(s, t): (0, 0, (1,))}
            for p, (q0, t0, coeffs) in col.items():
                terms = [(q0 + e, t0, c) for e, c in enumerate(coeffs)]
                gen_row.setdefault(index[p], []).append((j, terms))
        new = {}
        for (r, k), poly in mat.items():
            for j, degs in gen_row.get(k, ()):
                entry = new.setdefault((r, j), {})
                for dq, dt, c in degs:
                    for (q, t), v in poly.items():
                        entry[q + dq, t + dt] = entry.get((q + dq, t + dt), 0) + v * c
        mat = {}
        for rc, poly in new.items():
            poly = {e: v for e, v in poly.items() if v}
            if poly:
                mat[rc] = poly
    return mat


def _lk_reference_equal(a, b):
    return _lk_reference(a) == _lk_reference(b)


def _lk_at_half(mat):
    """_lk_reference's matrix at q = 1/2, as {(row, col): {t-degree: value}}."""
    half = {}
    for rc, poly in mat.items():
        entry = {}
        for (q, t), c in poly.items():
            entry[t] = entry.get(t, 0) + c * Fraction(1, 2) ** q
        entry = {t: v for t, v in entry.items() if v}
        if entry:
            half[rc] = entry
    return half


def _lk_matrix(w):
    """w's matrix as lk_equal builds a side: the identity times each
    letter's packed table."""
    cols = braid._lk_identity(w.strands)
    for letter in w.letters:
        braid._lk_apply(cols, braid._lk_table(w.strands, (letter,)))
    return cols


def _lk_strands(cols):
    """The strand count m of a matrix of m(m-1)/2 columns."""
    return (1 + math.isqrt(1 + 8 * len(cols))) // 2


def _lk_unpacked(cols):
    """A matrix from _lk_matrix in _lk_at_half's shape: key d * K + r is
    row r's t^d term."""
    width = braid._lk_basis(_lk_strands(cols))[2]
    mat = {}
    for j, (col, scale) in enumerate(cols):
        for key, v in col.items():
            d, r = divmod(key, width)
            mat.setdefault((r, j), {})[d] = v * Fraction(1, 2) ** scale
    return mat


def _lk_keys(m):
    """Every `_lk_table` key on m strands: each letter, then each ordered
    pair of letters, a letter with itself and with its own inverse too."""
    letters = [sign * i for i in range(1, m) for sign in (1, -1)]
    return [(x,) for x in letters] + [(x, y) for x in letters for y in letters]


def _letters_applied(applied):
    """An _lk_apply that appends to `applied` how many letters each call
    applies: the length of the `_lk_table` key whose table it is given."""
    apply = braid._lk_apply

    def counting(cols, gen):
        m = _lk_strands(cols)
        (length,) = {len(key) for key in _lk_keys(m) if braid._lk_table(m, key) is gen}
        applied.append(length)
        return apply(cols, gen)

    return counting


@given(braid_word_pairs(max_len=16))
@settings(max_examples=60, deadline=None)
def test_lk_equal_matches_unreduced_reference(pair):
    a, b = pair
    assert lk_equal(a, b) == _lk_reference_equal(a, b)
    # entry by entry at q = 1/2, so keys that mix rows or t-degrees, or a
    # column left at the wrong scale, show
    assert _lk_unpacked(_lk_matrix(a)) == _lk_at_half(_lk_reference(a))


def _catalog_cases():
    for n in (5, 6, 7):
        for r in builtin(n):
            f = r.rhs.factors
            yield pytest.param(r.lhs, r.rhs, True, id=r.label)
            rot = TwistWord(r.rhs.surface, f[1:] + f[:1])
            yield pytest.param(r.lhs, rot, True, id=f"{r.label}~rot1")
    k4 = builtin(5)[0]  # the six pair twists of the five-holed sphere
    lex = TwistWord(k4.rhs.surface, tuple(sorted(k4.rhs.factors, key=lambda c: c.support)))
    yield pytest.param(k4.lhs, lex, False, id="n5/1~lex")


@pytest.mark.parametrize(("lhs", "rhs", "holds"), list(_catalog_cases()))
def test_lk_equal_matches_reference_on_catalog(lhs, rhs, holds):
    # a rotation of a relation is again a relation (the boundary side is
    # central); the lexicographic K4 order is the README's falsified one
    bl, br = to_braid(lhs), to_braid(rhs)
    assert lk_equal(bl, br) == _lk_reference_equal(bl, br) == equals(bl, br) == holds


@pytest.mark.parametrize(
    "rhs",
    [
        pytest.param(TwistWord(r.rhs.surface, r.rhs.factors[: len(r.rhs.factors) // 2]), id=r.label)
        for n in (5, 6, 7)
        for r in builtin(n)
    ],
)
def test_lk_matrix_matches_reference_on_catalog_half_products(rhs):
    # half an rhs is far from central: on 6 and 7 strands its matrix holds
    # hundreds of terms, the whole (central) product 10 to 15, and random
    # words stay smaller
    w = to_braid(rhs)
    assert _lk_unpacked(_lk_matrix(w)) == _lk_at_half(_lk_reference(w))


@pytest.mark.parametrize(("lhs", "rhs", "holds"), list(_catalog_cases()))
def test_dual_forms_decide_the_catalog(lhs, rhs, holds):
    bl, br = to_braid(lhs), to_braid(rhs)
    assert (normal_form(bl) == normal_form(br)) == lk_equal(bl, br) == holds


@st.composite
def relator_insertions(draw):
    """(w, w with a braid relator or a far commutator inserted somewhere)."""
    w = draw(braid_words(max_len=16).filter(lambda w: w.strands >= 3))
    s = w.strands
    i = draw(st.integers(1, s - 2))
    far = [j for j in range(1, s) if abs(i - j) >= 2]
    if far and draw(st.booleans()):
        j = draw(st.sampled_from(far))
        rel = [i, j, -i, -j]
    else:
        rel = [i, i + 1, i, -(i + 1), -i, -(i + 1)]
    if draw(st.booleans()):
        rel = [-k for k in reversed(rel)]
    pos = draw(st.integers(0, len(w.letters)))
    letters = list(w.letters)
    letters[pos:pos] = rel
    return w, BraidWord(s, tuple(letters))


@given(relator_insertions())
@settings(max_examples=60, deadline=None)
def test_lk_proves_inserted_relators(case):
    # free and cyclic reduction leave a cyclic shift of the relator, so the
    # LK arithmetic has to multiply it out to see the identity
    w, padded = case
    braid._lk_check(w.strands)  # its own letters are not the word's
    applied = []
    apply = braid._lk_apply
    braid._lk_apply = _letters_applied(applied)
    try:
        assert lk_equal(w, padded)
    finally:
        braid._lk_apply = apply
    assert sum(applied) >= 4
    assert lk_equal(w, padded) == _lk_reference_equal(w, padded)


def _lk_closed_forms(m):
    """(letter, {column: {row: (q_shift, t_shift, coeffs)}}) for every
    sigma_i^+-1 on m strands, the non-unit columns of each."""
    pairs, index, _ = braid._lk_basis(m)
    for letter in [sign * i for i in range(1, m) for sign in (1, -1)]:
        column = braid._lk_column if letter > 0 else braid._lk_inverse_column
        cols = {}
        for j, (s, t) in enumerate(pairs):
            col = column(s, t, abs(letter))
            if col is not None:
                cols[j] = {index[p]: entry for p, entry in col.items()}
        yield letter, cols


@pytest.mark.parametrize("m", range(2, 10))
def test_lk_packed_letter_expands_to_the_active_columns(m):
    # the packed letter is exactly the closed-form columns at q = 1/2: each
    # non-unit column once, in order, each entry t^d n / 2^e with n odd and
    # its t-shift stored as d * K, within -K..K
    width = braid._lk_basis(m)[2]
    for letter, cols in _lk_closed_forms(m):
        packed = {}
        for j, entries in braid._lk_table(m, (letter,)):
            assert j not in packed and all(n % 2 for _, _, n, _ in entries)
            assert all(d % width == 0 and -width <= d <= width for _, d, _, _ in entries)
            packed[j] = {k: (d, n * Fraction(1, 2) ** e) for k, d, n, e in entries}
        assert list(packed) == list(cols)
        assert packed == {
            j: {
                k: (dt * width, sum(c * Fraction(1, 2) ** (dq + i) for i, c in enumerate(coeffs)))
                for k, (dq, dt, coeffs) in col.items()
            }
            for j, col in cols.items()
        }


def _lk_tables(m):
    """Every packed table on m strands, one per `_lk_keys` key."""
    return [braid._lk_table(m, key) for key in _lk_keys(m)]


@pytest.mark.parametrize("m", range(2, 9))
def test_lk_pair_is_its_two_letters_in_turn(m):
    # every ordered pair of letters, a letter with itself and with its own
    # inverse too: the packed product is the two letters applied one after
    # the other, entry by entry, each non-unit column listed once, each
    # entry one row and t-shift with n odd, and its t-shift a multiple of K
    # within -2K..2K (a t-degree moved by at most 2)
    letters = [sign * i for i in range(1, m) for sign in (1, -1)]
    dim = m * (m - 1) // 2
    width = braid._lk_basis(m)[2]
    for a in letters:
        for b in letters:
            gen = braid._lk_table(m, (a, b))
            listed = [j for j, _ in gen]
            assert listed == sorted(set(listed))
            packed = {(j, j): {0: 1} for j in range(dim) if j not in listed}
            for j, entries in gen:
                assert len({(k, d) for k, d, _, _ in entries}) == len(entries)
                assert entries != ((j, 0, 1, 0),)
                for k, d, n, e in entries:
                    assert d % width == 0 and -2 * width <= d <= 2 * width and n % 2
                    packed.setdefault((k, j), {})[d // width] = n * Fraction(1, 2) ** e
            assert packed == _lk_unpacked(_lk_matrix(BraidWord(m, (a, b)))), (a, b)
            if b == -a:
                assert gen == ()


def test_lk_apply_rescales_only_the_columns_it_touches():
    # a letter or a letter pair rewrites the columns its packed form lists,
    # each at the largest scale of its readings; every other column keeps
    # its dict
    for m in (3, 5):
        cols = _lk_matrix(BraidWord(m, (1, -2, 1, 2)))
        for gen in _lk_tables(m):
            after = list(cols)
            braid._lk_apply(after, gen)
            touched = {j for j, _ in gen}
            for j, (col, scale) in enumerate(after):
                if j in touched:
                    assert scale == max(cols[k][1] + e for k, _, _, e in dict(gen)[j])
                else:
                    assert after[j] is cols[j]


@given(braid_words(max_strands=6, max_len=24), st.data())
@settings(max_examples=60, deadline=None)
def test_lk_apply_writes_no_stored_column(w, data):
    # a letter or a letter pair leaves every dict held before it as it
    # was, so copies of a matrix share its column dicts safely, and its
    # returned change in term count matches a full recount
    m = w.strands
    cols = _lk_matrix(w)
    held = list(cols)
    values = [dict(col) for col, _ in held]
    gen = data.draw(st.sampled_from(_lk_tables(m)))
    before = sum(len(col) for col, _ in cols)
    grown = braid._lk_apply(cols, gen)
    assert [col for col, _ in held] == values
    assert grown == sum(len(col) for col, _ in cols) - before


def test_lk_same_compares_columns_across_scales():
    # a column stored again at a higher scale (ints << 3, scale + 3) is the
    # same column; one changed coefficient, one dropped term or one key
    # moved by a t-degree is not, whichever side carries the higher scale
    cols = _lk_matrix(BraidWord(4, (1, -2, 3, 1, 2, -3, 2)))
    width = braid._lk_basis(4)[2]
    j = max(range(len(cols)), key=lambda i: len(cols[i][0]))
    col, scale = cols[j]
    assert len(col) >= 3
    first = next(iter(col))
    moved = next(key for key in col if key + width not in col)
    changes = (
        lambda c: {**c, first: c[first] + 1},
        lambda c: {key: v for key, v in c.items() if key != first},
        lambda c: {key + width * (key == moved): v for key, v in c.items()},
    )
    for shift in (0, 3):
        rescaled = list(cols)
        rescaled[j] = ({key: v << shift for key, v in col.items()}, scale + shift)
        assert braid._lk_same(cols, rescaled) and braid._lk_same(rescaled, cols)
        for change in changes:
            wrong = list(rescaled)
            wrong[j] = (change(rescaled[j][0]), scale + shift)
            assert len(wrong[j][0]) == len(col) - (change is changes[1])
            assert not braid._lk_same(cols, wrong) and not braid._lk_same(wrong, cols)


def test_lk_equal_strips_no_twist_with_a_changed_middle_letter(monkeypatch):
    # the spelling starts and ends as the full twist does, so the stack
    # pass's first-letter test passes and only the whole rotation fails:
    # nothing is stripped and every letter is multiplied out
    for m in range(3, 8):
        braid._lk_check(m)
    applied = []
    monkeypatch.setattr(braid, "_lk_apply", _letters_applied(applied))
    for m in range(3, 8):
        for spelling in (full_twist(m).letters, _inverse(full_twist(m)).letters):
            mid = len(spelling) // 2
            changed = BraidWord(m, spelling[:mid] + (-spelling[mid],) + spelling[mid + 1:])
            for a, b in ((changed, BraidWord(m)), (BraidWord(m), changed)):
                applied.clear()
                assert lk_equal(a, b) == _lk_reference_equal(a, b) == equals(a, b) is False
                assert sum(applied) == len(spelling)


def test_lk_layout_holds_words_at_the_degree_extremes():
    # powers of one letter reach the t-degrees at the layout's edges:
    # sigma_1^-l has t^-l and sigma_i^l has t^l; each matrix matches the
    # reference at q = 1/2 entry by entry
    for m in (3, 5, 8):
        for length in (1, 2, 5, 12):
            reached = set()
            for i in range(1, m):
                for sign in (1, -1):
                    w = BraidWord(m, (sign * i,) * length)
                    ref = _lk_at_half(_lk_reference(w))
                    assert _lk_unpacked(_lk_matrix(w)) == ref
                    reached |= {t for poly in ref.values() for t in poly}
            assert min(reached) == -length and max(reached) == length
    # no length limit: a reduced word of 400 letters on 8 strands
    m, power = 8, 100
    w = (1,) * power + (-7,) * power
    assert lk_equal(BraidWord(m, w), BraidWord(m, w[::-1]))
    assert not lk_equal(BraidWord(m, w), BraidWord(m, w[::-1][:-1] + (2,)))


def test_lk_equal_tells_letter_powers_and_twist_powers_from_one():
    # either side of the meet may take every letter of the reduced word,
    # and u starts with the t^-2 of each full twist stripped from it as a
    # scalar: a power of one letter, on either side, conjugated or not,
    # and times one to three twists, is never the identity
    m = 5
    ft = full_twist(m).letters
    for length in (0, 1, 2, 5, 12, 16):
        w = (4,) * length
        for a, b in ((w, ()), ((), w), (w + (1,), (1,)), ((-2,) + w + (2,), ())):
            assert lk_equal(BraidWord(m, a), BraidWord(m, b)) == (length == 0)
        for power in (1, 2, 3):
            assert not lk_equal(BraidWord(m, ft * power + w), BraidWord(m))


@given(braid_word_pairs(max_strands=8, max_len=14), st.booleans())
@settings(max_examples=60, deadline=None)
def test_lk_greedy_meet_matches_reference(pair, same):
    # true pairs too: b spelled as a's normal form, then padded by b's
    # letters and their inverses, so the meet joins two different spellings
    a, b = pair
    if same:
        b = _then(_ref_dual_word(a.strands, normal_form(a)), b, _inverse(b))
    assert lk_equal(a, b) == lk_equal(b, a) == _lk_reference_equal(a, b) == equals(a, b)
    if same:
        assert lk_equal(a, b)


@st.composite
def short_reduced_quotients(draw):
    """(a, b) on 1 to 7 strands whose a.b^-1, freely and cyclically reduced,
    has 0 to 5 letters: a freely and cyclically reduced word r (sometimes a
    rotation of a far commutator, which is the identity), conjugated by a
    random word x and cut in two, a = x.r[:i] and b = x.(r[i:])^-1."""
    m = draw(st.integers(1, 7))
    gens = [sign * i for i in range(1, m) for sign in (1, -1)]
    r: list[int] = []
    if m >= 4 and draw(st.booleans()):
        i = draw(st.integers(1, m - 3))
        j = draw(st.integers(i + 2, m - 1))
        i, j = draw(st.sampled_from((i, -i))), draw(st.sampled_from((j, -j)))
        r = [i, j, -i, -j]
        k = draw(st.integers(0, 3))
        r = r[k:] + r[:k]
    elif gens:
        length = draw(st.integers(0, 5))
        while len(r) < length:
            banned = {-r[-1]} if r else set()
            if r and len(r) == length - 1:
                banned.add(-r[0])  # the last letter must not cancel the first
            r.append(draw(st.sampled_from([g for g in gens if g not in banned])))
    x = draw(st.lists(st.sampled_from(gens), max_size=4)) if gens else []
    i = draw(st.integers(0, len(r)))
    return BraidWord(m, tuple(x + r[:i])), BraidWord(m, tuple(x + [-k for k in reversed(r[i:])]))


@given(short_reduced_quotients())
@settings(max_examples=100, deadline=None)
def test_lk_equal_on_short_reduced_quotients_matches_reference(pair):
    # 0 to 5 reduced letters: a lone letter, a pair, a pair and a lone
    # letter, two pairs, and two pairs and a lone letter, split between
    # the two sides of the meet
    a, b = pair
    assert lk_equal(a, b) == lk_equal(b, a) == _lk_reference_equal(a, b) == equals(a, b)


def test_lk_equal_takes_pairs_and_a_lone_last_letter_on_each_side(monkeypatch):
    # u moves first; the reduced word's letters go two at a time to
    # whichever side holds fewer terms, and an odd one out goes alone last,
    # so words of 1 to 5 reduced letters reach all four steps
    m = 5
    braid._lk_check(m)
    applied, sides = [], []
    counting = _letters_applied(applied)
    monkeypatch.setattr(braid, "_lk_apply", lambda cols, gen: sides.append(cols) or counting(cols, gen))
    steps = set()
    for length in range(1, 6):
        w = BraidWord(m, (1, 3, -2, 4, 2)[:length])
        applied.clear()
        sides.clear()
        assert not lk_equal(w, BraidWord(m))
        assert sum(applied) == length
        steps |= {("u" if cols is sides[0] else "v", n) for cols, n in zip(sides, applied)}
    assert steps == {("u", 2), ("u", 1), ("v", 2), ("v", 1)}


@pytest.mark.parametrize("m", range(2, 9))
def test_full_twist_is_a_scalar_under_lk(m):
    # the unreduced reference multiplies out every letter: this checks the
    # scalar that lk_equal's strip rests on without going through the strip
    dim = m * (m - 1) // 2
    assert _lk_reference(full_twist(m)) == {(r, r): {(-2 * m, -2): 1} for r in range(dim)}


def test_lk_check_rejects_a_non_central_full_twist(monkeypatch):
    twist = full_twist(4).letters
    braid._lk_check.cache_clear()
    try:
        monkeypatch.setattr(braid, "full_twist", lambda m: BraidWord(m, twist[:-1] + (-twist[-1],)))
        with pytest.raises(AssertionError, match="LK full twist verification failed for m=4"):
            braid._lk_check(4)
    finally:
        braid._lk_check.cache_clear()


def _lk_check_with_entry(monkeypatch, name, sti, entry):
    """_lk_check(4) with the closed form `name`'s column x_{s,t} of sigma_i,
    (s, t, i) = sti, replaced by the one entry x_{s,t}: `entry`."""
    column = getattr(braid, name)

    def wrong(s, t, i):
        return {sti[:2]: entry} if (s, t, i) == sti else column(s, t, i)

    braid._lk_check.cache_clear()
    braid._lk_table.cache_clear()
    try:
        monkeypatch.setattr(braid, name, wrong)
        braid._lk_check(4)
    finally:
        monkeypatch.undo()
        braid._lk_check.cache_clear()
        braid._lk_table.cache_clear()


def test_lk_check_rejects_a_wrong_closed_form_entry(monkeypatch):
    # sigma_1's x_{1,2} entry t q^2 written as t q: sigma_1 sigma_1^-1 is
    # no longer the identity at q = 1/2
    with pytest.raises(AssertionError, match="LK inverse verification failed for m=4, i=1"):
        _lk_check_with_entry(monkeypatch, "_lk_column", (1, 2, 1), (1, 1, (1,)))


def test_lk_check_rejects_a_wrong_inverse_closed_form_entry(monkeypatch):
    # sigma_2^-1's x_{2,3} entry t^-1 q^-2 written as t^-1 q^-2 (1 + q):
    # sigma_2 sigma_2^-1 is no longer the identity at q = 1/2
    with pytest.raises(AssertionError, match="LK inverse verification failed for m=4, i=2"):
        _lk_check_with_entry(monkeypatch, "_lk_inverse_column", (2, 3, 2), (-2, -1, (1, 1)))


def test_lk_equal_strips_rotated_full_twists(monkeypatch):
    # a cyclic rotation of the twist's spelling, or of its inverse's, is a
    # conjugate of a central element, so the twist itself: lk_equal pops it
    # as the scalar and multiplies out no letter
    for m in range(2, 9):
        braid._lk_check(m)
    applied = []
    apply = braid._lk_apply
    monkeypatch.setattr(braid, "_lk_apply", lambda cols, gen: applied.append(gen) or apply(cols, gen))
    for m in range(2, 9):
        ft = full_twist(m)
        for spelling in (ft.letters, _inverse(ft).letters):
            whole = BraidWord(m, spelling)
            for i in range(len(spelling)):
                rotation = BraidWord(m, spelling[i:] + spelling[:i])
                assert lk_equal(rotation, whole) and not lk_equal(rotation, BraidWord(m))
        assert lk_equal(BraidWord(m, (1,) + ft.letters + (-1,)), ft)
        assert not lk_equal(BraidWord(m, ft.letters[1:] + ft.letters[:1]), BraidWord(m))
    assert applied == []


def _twist_spellings(m):
    """The full twist and its inverse on m strands, each also spelled with
    a cancelling pair inside, so it completes only once the pair cancels."""
    for spelling in (full_twist(m).letters, _inverse(full_twist(m)).letters):
        yield spelling
        for i in range(1, len(spelling)):
            yield spelling[:i] + (1, -1) + spelling[i:]


def test_lk_equal_strips_every_spelling_of_the_full_twist(monkeypatch):
    # a.b^-1 is twist^+-1, written in a, in b, or split across the two:
    # lk_equal multiplies out no letter, and the scalar tells it from 1
    for m in range(2, 7):
        braid._lk_check(m)
    applied = []
    apply = braid._lk_apply
    monkeypatch.setattr(braid, "_lk_apply", lambda cols, gen: applied.append(gen) or apply(cols, gen))
    for m in range(2, 7):
        for spelling in _twist_spellings(m):
            for i in range(len(spelling) + 1):
                a, b = BraidWord(m, spelling[:i]), _inverse(BraidWord(m, spelling[i:]))
                assert not lk_equal(a, b) and not lk_equal(b, a)
    assert applied == []


@st.composite
def twist_splices(draw):
    """(a, b) on 1 to 6 strands with one to three full twists or inverses
    spliced in: into a, into b, or split across a's end and b's end (a.b^-1
    reads the two parts in order), each spelled from a random rotation and
    possibly with a cancelling pair inside.  When a and b start equal,
    every splice is matched by the same spelling spliced into the other
    side, which keeps them equal."""
    m = draw(st.integers(1, 6))
    gens = [sign * i for i in range(1, m) for sign in (1, -1)]
    word = st.lists(st.sampled_from(gens), max_size=10) if gens else st.just([])
    a = draw(word)
    same = draw(st.booleans())
    b = list(a) if same else draw(word)
    for _ in range(draw(st.integers(1, 3))):
        spelling = list(full_twist(m).letters)
        if draw(st.booleans()):
            spelling = [-k for k in reversed(spelling)]
        i = draw(st.integers(0, len(spelling)))
        spelling = spelling[i:] + spelling[:i]  # a rotation is the twist too
        plain = list(spelling)
        if gens and draw(st.booleans()):
            x, i = draw(st.sampled_from(gens)), draw(st.integers(0, len(spelling)))
            spelling[i:i] = [x, -x]
        where = draw(st.sampled_from(("a", "b", "split")))
        if where == "split":
            i = draw(st.integers(0, len(spelling)))
            a += spelling[:i]
            b += [-k for k in reversed(spelling[i:])]
        else:
            target = a if where == "a" else b
            i = draw(st.integers(0, len(target)))
            target[i:i] = spelling
        if same:
            other = a if where == "b" else b
            i = draw(st.integers(0, len(other)))
            other[i:i] = plain
    return BraidWord(m, a), BraidWord(m, b)


@given(twist_splices())
@settings(max_examples=80, deadline=None)
def test_lk_equal_with_spliced_full_twists_matches_reference(pair):
    a, b = pair
    assert lk_equal(a, b) == lk_equal(b, a) == _lk_reference_equal(a, b) == equals(a, b)


def test_lk_catalog_work_is_the_reduced_rhs(monkeypatch):
    # the lhs of every relation is the full twist, which lk_equal strips
    # as a scalar: each verdict multiplies out only the freely reduced rhs
    for m in (4, 5, 6):
        braid._lk_check(m)
    applied = []
    monkeypatch.setattr(braid, "_lk_apply", _letters_applied(applied))
    counts = []
    for n in (5, 6, 7):
        for r in builtin(n):
            applied.clear()
            assert verify(r, lk=True).oracle_agreement
            reduced = []
            for k in to_braid(r.rhs).letters:
                if reduced and reduced[-1] == -k:
                    reduced.pop()
                else:
                    reduced.append(k)
            assert sum(applied) == len(reduced), r.label
            # a letter pair per call, a lone letter only last at odd length
            assert applied == [2] * (len(reduced) // 2) + [1] * (len(reduced) % 2), r.label
            counts.append(sum(applied))
    assert len(counts) == 26 and sum(counts) == 812
    assert (min(counts), max(counts)) == (12, 58)


def test_nf_equality_is_exact_on_rewritings():
    # sigma1 sigma2 sigma1 sigma1^-1 = sigma1 sigma2
    a = BraidWord(3, (1, 2, 1, -1))
    b = BraidWord(3, (1, 2))
    assert normal_form(a) == normal_form(b)
