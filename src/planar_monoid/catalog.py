"""Built-in relation catalog, verification reports, and completeness audits.

The relations live as JSON data files so a transcription question is a
diff, not a code read.  Each line of one is a relation file that
`planar-monoid verify` accepts as it stands, read by the same
`surface.read_relation`.  Verification always runs the combinatorial
check (multiplicities) and the Garside engine; the Lawrence-Krammer pass is a
second, independent engine whose only job is to catch a bug in the first.
The Garside verdict multiplies the rhs's block forms, the cached dual
normal forms that the ordering search multiplies too (`designs._twist_nf`),
in one kernel call; the Lawrence-Krammer pass spells both sides as braid
words and multiplies their freely reduced quotient a letter pair a step.
Batch verification (`planar-monoid catalog`) runs in one process: one
`verify` call per relation, in catalog order.
"""

from __future__ import annotations

import functools
import json
from importlib import resources
from typing import Optional

# no verdict calls equals, but perfbench/spans.py wraps catalog.equals
from .braid import _json_int, _Value, equals, lk_equal
from .designs import (
    Design,
    SearchBudget,
    SearchResult,
    _twist_nf,
    enumerate_designs,
    exponents_from_design,
    replication,
    search_orderings,
)
from .plumbing import euler_characteristic
from .surface import (
    BoundaryWord,
    ConvexCurve,
    Relation,
    SurfaceSpec,
    TwistWord,
    _check_same_surface,
    multiplicities,
    read_relation,
    to_braid,
)

__all__ = [
    "Relation",
    "VerificationReport",
    "ReplicationClassSummary",
    "AuditReport",
    "CATALOGUED_N",
    "builtin",
    "verify",
    "verify_words",
    "AUDIT_MODES",
    "completeness_check",
]


class VerificationReport(_Value):
    __slots__ = (
        "label", "braid_equal", "multiplicities_equal", "lhs_chi", "rhs_chi",
        "oracle_agreement", "lhs_outer", "rhs_outer",
    )

    def __init__(
        self, label: str, braid_equal: bool, multiplicities_equal: bool, lhs_chi: int, rhs_chi: int,
        oracle_agreement: Optional[bool],  # None when the LK pass was skipped
        lhs_outer: int, rhs_outer: int,
    ):
        self._set(label, braid_equal, multiplicities_equal, lhs_chi, rhs_chi, oracle_agreement,
                  lhs_outer, rhs_outer)

    @property
    def verified(self) -> bool:
        return self.braid_equal and self.multiplicities_equal

    def to_json_obj(self) -> dict:
        return {
            "label": self.label,
            "verified": self.verified,
            "braid_equal": self.braid_equal,
            "multiplicities_equal": self.multiplicities_equal,
            "lhs_chi": self.lhs_chi,
            "rhs_chi": self.rhs_chi,
            "oracle_agreement": self.oracle_agreement,
            "lhs_outer": self.lhs_outer,
            "rhs_outer": self.rhs_outer,
        }


CATALOGUED_N = (5, 6, 7)  # the n with a bundled data/relations_n{n}.json


def _data_text(name: str) -> str:
    return resources.files("planar_monoid").joinpath("data", name).read_text()


@functools.cache
def _builtin(n: int) -> tuple[Relation, ...]:
    entries = json.loads(_data_text(f"relations_n{n}.json"))["relations"]
    rels = tuple(Relation(*read_relation(e)) for e in entries)
    if any(r.lhs.surface != SurfaceSpec(n) for r in rels):
        raise ValueError(f"relations_n{n}.json holds a relation with another n")
    return rels


def builtin(n: int) -> list[Relation]:
    """The catalogued relations for n in {5, 6, 7}: 2, 7, and 17 of them."""
    if _json_int(n, "n") not in CATALOGUED_N:
        raise ValueError(f"no builtin catalog for n={n}")
    return list(_builtin(n))


def verify_words(
    label: str, lhs: BoundaryWord, rhs: TwistWord, lk: bool = True
) -> VerificationReport:
    """Check an lhs/rhs pair end to end, without Relation's factor rules.

    A falsified relation is a report state, not an exception; an lhs and
    rhs on different surfaces raise ValueError.  braid_equal compares, in
    the dual Garside structure, the mirrors of the two sides' braids: the
    rhs's from one kernel call over its cached block forms (`_twist_nf`,
    the forms the ordering search multiplies), the lhs's read off its outer
    exponent, delta^(m * outer).  oracle_agreement says whether the
    Lawrence-Krammer engine, on both sides' letters (`to_braid`), reached
    the same yes/no (None when lk=False, when neither side is spelled).
    """
    _check_same_surface(lhs, rhs)
    ml = multiplicities(lhs)
    mr = multiplicities(rhs)
    # the lhs's braid is the full twist `outer` times, so its mirror's
    # normal form is (m * outer, ()); in B_1, at n = 2, every braid is trivial
    m = lhs.surface.n - 1
    braid_ok = _twist_nf(rhs) == (m * lhs.outer if m > 1 else 0, ())
    agreement = (lk_equal(to_braid(lhs), to_braid(rhs)) == braid_ok) if lk else None
    return VerificationReport(
        label=label,
        braid_equal=braid_ok,
        multiplicities_equal=ml.interior == mr.interior,
        lhs_chi=euler_characteristic(lhs),
        rhs_chi=euler_characteristic(rhs),
        oracle_agreement=agreement,
        lhs_outer=ml.outer,
        rhs_outer=mr.outer,
    )


def verify(r: Relation, lk: bool = True) -> VerificationReport:
    """Check one catalogued relation; see verify_words."""
    return verify_words(r.label, r.lhs, r.rhs, lk=lk)


# ---------------------------------------------------------------------------
# completeness audits

class ReplicationClassSummary(_Value):
    """One replication multiset: its chi pair and the catalog verdict.

    realizable: a search counted an ordering of one of its design classes
    or, only if none did, one of its catalogued relations verifies (the
    relation is the proof, through its own labelling).  A "budget" status
    means a search stopped at its limits before it ended, so there
    matches_catalog False can mean the budget was too small.  printed: the
    paper's (lhs, rhs) chi pair from the bundled printed-chi table, None
    where it prints none.  The 2-n+k formula is the oracle of record: a
    printed pair that differs from (lhs_chi, rhs_chi) is reported as it
    stands, never silently corrected in the data.
    """

    __slots__ = (
        "replications", "lhs_chi", "rhs_chi", "realizable", "statuses", "catalog_labels", "printed",
    )

    def __init__(
        self, replications: tuple[int, ...], lhs_chi: int, rhs_chi: int, realizable: bool,
        statuses: tuple[str, ...], catalog_labels: tuple[str, ...],
        printed: Optional[tuple[int, int]],
    ):
        self._set(replications, lhs_chi, rhs_chi, realizable, statuses, catalog_labels, printed)

    @property
    def matches_catalog(self) -> bool:
        return self.realizable == bool(self.catalog_labels)

    @property
    def listed(self) -> bool:
        """The multiset appears in the bundled printed-chi table."""
        return self.printed is not None

    def to_json_obj(self) -> dict:
        return {
            "replications": list(self.replications),
            "lhs_chi": self.lhs_chi,
            "rhs_chi": self.rhs_chi,
            "realizable": self.realizable,
            "statuses": list(self.statuses),
            "catalog_labels": list(self.catalog_labels),
            "matches_catalog": self.matches_catalog,
            "listed": self.listed,
            "printed": None if self.printed is None else list(self.printed),
        }


class AuditReport(_Value):
    __slots__ = ("n", "mode", "entries", "replication_classes")

    def __init__(
        self, n: int, mode: str, entries: tuple[SearchResult, ...],
        replication_classes: tuple[ReplicationClassSummary, ...],
    ):
        self._set(n, mode, entries, replication_classes)

    def all_match(self) -> bool:
        return all(c.matches_catalog for c in self.replication_classes)

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "mode": self.mode,
            "entries": [
                {**e.to_json_obj(), "exponents": list(exponents_from_design(e.design).exponents)}
                for e in self.entries
            ],
            "replication_classes": [c.to_json_obj() for c in self.replication_classes],
        }


@functools.cache
def _printed_chi() -> dict:
    return json.loads(_data_text("printed_chi.json"))


def _chi_pair(d: Design) -> tuple[int, int]:
    """(lhs_chi, rhs_chi) of the relation whose rhs supports are d's blocks.

    Both depend on d only through its replication multiset for m <= 7:
    designs sharing one have the same block count.
    """
    rhs = TwistWord(SurfaceSpec(d.points + 1), tuple(ConvexCurve(b) for b in d.blocks))
    return euler_characteristic(exponents_from_design(d)), euler_characteristic(rhs)


# Verdicts are per replication multiset, which relabeling preserves.  A
# labeling's realizability is known to be preserved only by rotations and
# reflections, so a "dihedral" audit covers every labeling and a "labeled"
# one (352 labelings at n=7) would repeat it; a "symmetric" audit searches
# one labeling per class, so an empty multiset there is proved empty only
# for the labelings it searched.
AUDIT_MODES = ("dihedral", "symmetric")


def completeness_check(
    n: int, mode: str = "dihedral", budget: SearchBudget = SearchBudget()
) -> AuditReport:
    """Search every design class at m = n-1; compare per replication multiset.

    Every class is searched with the caller's budget, and the report's
    entries are search_orderings' own results, counted without listing.
    An empty search proves non-realizability only with status "exhausted";
    with "budget" it proves nothing.  The catalog and the bundled
    printed-chi table are compared per multiset (ReplicationClassSummary):
    each class carries the paper's printed chi pair next to the computed one.
    """
    if _json_int(n, "n") not in CATALOGUED_N:
        raise ValueError(f"no catalog to audit against for n={n}")
    if mode not in AUDIT_MODES:
        raise ValueError(f"unknown audit mode {mode!r}, want one of {AUDIT_MODES}")
    m = n - 1

    entries = tuple(search_orderings(d, budget, listed=False) for d in enumerate_designs(m, mode))
    by_reps: dict[tuple[int, ...], list[SearchResult]] = {}
    for e in entries:
        by_reps.setdefault(tuple(sorted(replication(e.design))), []).append(e)

    catalogued: dict[tuple[int, ...], list[Relation]] = {}
    for r in builtin(n):
        # a relation's lhs exponent is its design's replication minus one
        catalogued.setdefault(tuple(sorted(a + 1 for a in r.lhs.exponents)), []).append(r)

    printed = {tuple(rec["replications"]): tuple(rec["printed"]) for rec in _printed_chi()[str(n)]}
    classes = []
    for reps, cls in sorted(by_reps.items()):
        members = catalogued.get(reps, [])
        lhs_chi, rhs_chi = _chi_pair(cls[0].design)
        classes.append(
            ReplicationClassSummary(
                replications=reps,
                lhs_chi=lhs_chi,
                rhs_chi=rhs_chi,
                realizable=any(e.orderings_found for e in cls)
                or any(verify(r, lk=False).verified for r in members),
                statuses=tuple(sorted({e.status for e in cls})),
                catalog_labels=tuple(r.label for r in members),
                printed=printed.get(reps),
            )
        )

    return AuditReport(n=n, mode=mode, entries=entries, replication_classes=tuple(classes))
