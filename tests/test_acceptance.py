"""Acceptance gate: one test per headline claim, one PASS/FAIL line each.

Run with `pytest -v tests/test_acceptance.py -s` to see the lines; each
test is self-contained and uses fixed seeds, so a failure here means the
claim is false in this build, not that the dice rolled badly.
"""

import random
import time

from planar_monoid.braid import BraidWord, equals, lk_equal, normal_form
from planar_monoid.catalog import builtin, completeness_check, verify
from planar_monoid.designs import daisy, enumerate_designs, replication
from planar_monoid.plumbing import bounds, euler_characteristic
from planar_monoid.surface import ConvexCurve, SurfaceSpec, TwistWord, to_braid
from strand_reference import strand_linking


def _report(cid: str, ok: bool, detail: str) -> None:
    print(f"{cid} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{cid}: {detail}"


def _rand_letters(rng, strands, max_len=24):
    return tuple(
        (g if rng.random() < 0.5 else -g)
        for g in (rng.randint(1, strands - 1) for _ in range(rng.randint(0, max_len)))
    )


def test_c1_catalog_verifies():
    t0 = time.time()
    reports = []
    for n in (5, 6, 7):
        reports.extend(verify(r, lk=True) for r in builtin(n))
    elapsed = time.time() - t0
    all_ok = all(r.verified and r.oracle_agreement for r in reports)

    twins = [r for r in builtin(7) if r.lhs.exponents == (3, 2, 3, 3, 3, 4)]
    twins_ok = len(twins) == 2 and all(verify(t).verified for t in twins)

    ok = all_ok and twins_ok and len(reports) == 26 and elapsed < 60
    _report(
        "C1",
        ok,
        f"{sum(r.verified for r in reports)}/26 relations verified "
        f"(both engines) in {elapsed:.1f}s; shared-LHS pair "
        f"{[t.label for t in twins]} both verify",
    )


def test_c2_daisy_family():
    count = 0
    failures = []
    for n in range(4, 10):
        for i in range(2, n - 1):
            rep = verify(daisy(n, i), lk=True)
            count += 1
            if not (rep.verified and rep.oracle_agreement):
                failures.append((n, i))

    lantern = daisy(4, 2)
    lantern_ok = (
        lantern.lhs.exponents == (1, 1, 1)
        and lantern.lhs.outer == 1
        and [c.support for c in lantern.rhs.factors] == [(1, 2), (2, 3), (1, 3)]
        and verify(lantern).verified
    )

    ok = count == 21 and not failures and lantern_ok
    _report(
        "C2",
        ok,
        f"{count - len(failures)}/21 daisy instances verify (4<=n<=9); "
        f"daisy(4,2) is the lantern relation",
    )


def test_c3_nonexistence_sweeps():
    details = []
    ok = True
    for m in (4, 5, 6):
        t0 = time.time()
        designs = enumerate_designs(m, "labeled")
        n = m + 1
        all_two = sum(1 for d in designs if all(r == 2 for r in replication(d)))
        one_rest_two = sum(
            1
            for d in designs
            if (lambda reps: all(r == 2 for r in reps[:-1]) and reps[-1] < n - 2)(
                sorted(replication(d))
            )
        )
        small_sum = sum(
            1 for d in designs if sum(r - 1 for r in replication(d)) <= 2 * n - 6
        )
        elapsed = time.time() - t0
        ok = ok and all_two == one_rest_two == small_sum == 0 and elapsed < 300
        details.append(f"m={m}:{len(designs)} designs, 0/0/0 hits, {elapsed:.1f}s")
    _report("C3", ok, "; ".join(details))


def test_c4_completeness_counts():
    rep4 = completeness_check(5, mode="dihedral")
    rep5 = completeness_check(6, mode="dihedral")
    counts_ok = len(rep4.entries) == 2 and len(rep5.entries) == 7
    realized_ok = all(e.orderings_found >= 1 for e in rep4.entries) and all(
        e.orderings_found >= 1 for e in rep5.entries
    )
    match_ok = rep4.all_match() and rep5.all_match()

    sym = enumerate_designs(5, "symmetric")
    sym_reps = sorted(tuple(sorted(replication(d))) for d in sym)
    sym_ok = sym_reps == [
        (2, 2, 2, 2, 4),
        (2, 3, 3, 3, 3),
        (3, 3, 3, 4, 4),
        (4, 4, 4, 4, 4),
    ]

    ok = counts_ok and realized_ok and match_ok and sym_ok
    _report(
        "C4",
        ok,
        f"dihedral classes m=4:{len(rep4.entries)} m=5:{len(rep5.entries)}, "
        f"every class realized and matching the catalog; "
        f"symmetric m=5 classes: {len(sym)}",
    )


def test_c5_euler_characteristics():
    # each audit class carries the paper's printed chi pair, if any,
    # next to the 2-n+k one
    printed = {
        n: [c for c in completeness_check(n).replication_classes if c.listed] for n in (5, 6, 7)
    }

    def agree(c):
        return c.printed == (c.lhs_chi, c.rhs_chi)

    n6 = printed[6]
    n6_ok = len(n6) == 4 and all(agree(c) for c in n6) and sorted(
        c.printed for c in n6
    ) == [(4, 1), (6, 2), (9, 4), (12, 6)]

    n7_agree = [c for c in printed[7] if agree(c)]
    n7_ok = sorted(c.printed for c in n7_agree) == [
        (5, 1),
        (9, 3),
        (12, 5),
        (14, 6),
        (14, 6),
        (17, 8),
    ]

    flagged = [(n, c) for n, cs in printed.items() for c in cs if not agree(c)]
    flags_ok = sorted((n, c.printed) for n, c in flagged) == [
        (5, (3, 3)),
        (5, (6, 1)),
        (7, (16, 10)),
    ] and next((c.lhs_chi, c.rhs_chi) for n, c in flagged if n == 7) == (20, 10)

    ok = n6_ok and n7_ok and flags_ok
    _report(
        "C5",
        ok,
        "formula reproduces all printed n=6 and n=7 (ii-vii) chi pairs; "
        "flags the two transposed n=5 pairs and the printed 16 (formula 20)",
    )


def test_c6_bounds_realized():
    ok = True
    for n in range(5, 11):
        rep = bounds(n)
        forms_ok = (
            rep.min_twists == 2 * n - 4
            and rep.max_twists == (n - 3) * (n - 1) + 1
            and rep.min_chi == n - 2
            and rep.max_chi == n * n - 5 * n + 6
        )
        lo, hi = daisy(n, n - 2), daisy(n, 2)
        realized_ok = (
            verify(lo, lk=False).verified
            and verify(hi, lk=False).verified
            and euler_characteristic(lo.lhs) == rep.min_chi
            and euler_characteristic(hi.lhs) == rep.max_chi
            and lo.lhs.twist_count() == rep.min_twists
            and hi.lhs.twist_count() == rep.max_twists
        )
        ok = ok and forms_ok and realized_ok
    _report(
        "C6",
        ok,
        "5<=n<=10: bounds match closed forms; extremes realized by "
        "verified daisy(n,n-2) and daisy(n,2)",
    )


def test_c7_oracle_and_algebra():
    rng = random.Random(0)

    agree = 0
    for k in range(1000):
        s = rng.randint(2, 6)
        a = BraidWord(s, _rand_letters(rng, s))
        if k % 2:
            letters = list(a.letters)
            for _ in range(rng.randint(1, 3)):
                g = rng.randint(1, s - 1) * rng.choice((1, -1))
                pos = rng.randint(0, len(letters))
                letters[pos:pos] = [g, -g]
            b = BraidWord(s, tuple(letters))
        else:
            b = BraidWord(s, _rand_letters(rng, s))
        same = equals(a, b)
        if lk_equal(a, b) == same:
            agree += 1

    identities = 0
    for _ in range(1000):
        s = rng.randint(2, 6)
        letters = _rand_letters(rng, s)
        # w^-1, then w
        if normal_form(BraidWord(s, tuple(-k for k in reversed(letters)) + letters)) == (0, ()):
            identities += 1

    linking_ok = 0
    for _ in range(500):
        m = rng.randint(2, 6)
        surface = SurfaceSpec(m + 1)
        factors = []
        for _ in range(rng.randint(0, 6)):
            if rng.random() < 0.15:
                factors.append(ConvexCurve(range(1, m + 1)))
            else:
                k = rng.randint(1, m)
                factors.append(ConvexCurve(rng.sample(range(1, m + 1), k)))
        tw = TwistWord(surface, tuple(factors))
        if all(
            doubled
            == -2 * sum(
                1
                for c in tw.factors
                if x in c.support and y in c.support
            )
            for (x, y), doubled in strand_linking(to_braid(tw))[1].items()
        ):
            linking_ok += 1

    ok = agree == 1000 and identities == 1000 and linking_ok == 500
    _report(
        "C7",
        ok,
        f"Garside/LK agreement {agree}/1000; "
        f"w.w^-1 identity {identities}/1000; "
        f"linking = -(co-membership) on {linking_ok}/500 twist words",
    )


def test_c8_n7_audit():
    rep = completeness_check(7, mode="symmetric")

    listed = {
        (5, 5, 5, 5, 5, 5),
        (2, 2, 2, 2, 2, 5),
        (4, 4, 4, 5, 5, 5),
        (3, 3, 3, 3, 5, 5),
        (2, 3, 3, 3, 4, 4),
        (3, 4, 4, 4, 4, 5),
        (4, 4, 4, 4, 4, 4),
    }
    by_reps = {c.replications: c for c in rep.replication_classes}
    seven_ok = all(
        reps in by_reps and by_reps[reps].realizable and by_reps[reps].listed
        for reps in listed
    )

    four_triples = next(
        e for e in rep.entries if tuple(sorted(replication(e.design))) == (3, 3, 3, 3, 3, 3)
    )
    definitive = four_triples.status == "exhausted"
    empty = four_triples.orderings_found == 0

    # Realizability is known to be invariant only under rotations and
    # reflections, so the nonexistence verdict rests on every dihedral
    # class of the multiset, not on the one symmetric representative.
    dihedral = [
        e
        for e in completeness_check(7, mode="dihedral").entries
        if tuple(sorted(replication(e.design))) == (3, 3, 3, 3, 3, 3)
    ]
    none_exists = len(dihedral) == 5 and all(
        e.status == "exhausted" and e.orderings_found == 0 for e in dihedral
    )

    ok = seven_ok and definitive and empty and none_exists and rep.all_match()
    verdict = (
        "no relation exists (exhaustive)"
        if none_exists
        else str([(e.status, e.orderings_found) for e in dihedral])
    )
    _report(
        "C8",
        ok,
        f"all seven listed replication classes realized; "
        f"four-triples classes ({len(dihedral)} dihedral) searched exhaustively: {verdict}",
    )
