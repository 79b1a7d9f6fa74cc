"""The contract every public value type keeps: built by its parameter names
or positions, equal and hashed by value, immutable, and shown as
Name(field=value, ...)."""

import pytest

from planar_monoid.braid import BraidWord
from planar_monoid.catalog import (
    AuditReport,
    ReplicationClassSummary,
    VerificationReport,
)
from planar_monoid.designs import Design, SearchBudget, SearchResult
from planar_monoid.plumbing import BoundsReport, PlumbingGraph
from planar_monoid.surface import (
    BoundaryWord,
    ConvexCurve,
    MultiplicityVector,
    Relation,
    SurfaceSpec,
    TwistWord,
)

S4, S5 = SurfaceSpec(4), SurfaceSpec(5)
K4 = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
TRIANGLE = Design(3, ((1, 2), (1, 3), (2, 3)))
ENTRY = SearchResult(TRIANGLE, 0, "exhausted")
SUMMARY = ReplicationClassSummary((2, 2, 2), 2, 2, False, ("exhausted",), (), None)

# type -> its fields in constructor order with one value each, and the same
# fields with one value changed
CASES = {
    BraidWord: ({"strands": 3, "letters": (1, -2)}, {"strands": 3, "letters": (1,)}),
    SurfaceSpec: ({"n": 5}, {"n": 6}),
    ConvexCurve: ({"support": (1, 3)}, {"support": (1, 4)}),
    TwistWord: (
        {"surface": S4, "factors": (ConvexCurve((1, 2)),)},
        {"surface": S4, "factors": (ConvexCurve((2, 3)),)},
    ),
    BoundaryWord: (
        {"surface": S4, "exponents": (1, 1, 1), "outer": 1},
        {"surface": S4, "exponents": (1, 1, 1), "outer": 2},
    ),
    MultiplicityVector: ({"interior": (1, 2), "outer": 0}, {"interior": (1, 2), "outer": 1}),
    Relation: (
        {
            "label": "k4",
            "lhs": BoundaryWord(S5, (2, 2, 2, 2)),
            "rhs": TwistWord(S5, tuple(map(ConvexCurve, K4))),
        },
        {
            "label": "k4'",
            "lhs": BoundaryWord(S5, (2, 2, 2, 2)),
            "rhs": TwistWord(S5, tuple(map(ConvexCurve, K4))),
        },
    ),
    Design: ({"points": 3, "blocks": TRIANGLE.blocks}, {"points": 4, "blocks": K4}),
    SearchBudget: (
        {"exhaustive_cap": 8, "tries": 2000},
        {"exhaustive_cap": 8, "tries": 50},
    ),
    SearchResult: (
        {
            "design": TRIANGLE, "orderings_found": 1, "status": "exhausted",
            "orderings": (((1, 2), (2, 3), (1, 3)),),
        },
        {
            "design": TRIANGLE, "orderings_found": 1, "status": "budget",
            "orderings": (((1, 2), (2, 3), (1, 3)),),
        },
    ),
    PlumbingGraph: (
        {"vertices": ((0, -3), (1, -2)), "edges": frozenset({(0, 1)})},
        {"vertices": ((0, -4), (1, -2)), "edges": frozenset({(0, 1)})},
    ),
    BoundsReport: (
        {"n": 5, "min_twists": 6, "max_twists": 9, "min_chi": 3, "max_chi": 6},
        {"n": 6, "min_twists": 8, "max_twists": 16, "min_chi": 4, "max_chi": 12},
    ),
    VerificationReport: (
        {
            "label": "k4", "braid_equal": True, "multiplicities_equal": True, "lhs_chi": 6,
            "rhs_chi": 3, "oracle_agreement": None, "lhs_outer": 1, "rhs_outer": 0,
        },
        {
            "label": "k4", "braid_equal": True, "multiplicities_equal": True, "lhs_chi": 6,
            "rhs_chi": 3, "oracle_agreement": True, "lhs_outer": 1, "rhs_outer": 0,
        },
    ),
    ReplicationClassSummary: (
        {
            "replications": (2, 2, 2), "lhs_chi": 2, "rhs_chi": 2, "realizable": False,
            "statuses": ("exhausted",), "catalog_labels": (), "printed": None,
        },
        {
            "replications": (2, 2, 2), "lhs_chi": 2, "rhs_chi": 2, "realizable": False,
            "statuses": ("exhausted",), "catalog_labels": (), "printed": (6, 3),
        },
    ),
    AuditReport: (
        {"n": 4, "mode": "dihedral", "entries": (ENTRY,), "replication_classes": (SUMMARY,)},
        {"n": 4, "mode": "symmetric", "entries": (ENTRY,), "replication_classes": (SUMMARY,)},
    ),
}


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_value_type_contract(cls):
    fields, changed = CASES[cls]
    value = cls(**fields)
    # by keyword and by position alike, equal and hashed alike by value
    same = cls(*fields.values())
    assert value == same and hash(value) == hash(same)
    assert value != cls(**changed)
    # never equal to another type holding the same values
    other = type("Other", (cls,), {})(**fields)
    assert value != other and other != value
    assert value != tuple(fields.values())

    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == same

    # vars() gives the fields by name, so a copy is one keyword call
    assert vars(value) == {k: getattr(value, k) for k in fields}
    assert cls(**vars(value)) == value

    shown = ", ".join(f"{k}={getattr(value, k)!r}" for k in fields)
    assert repr(value) == f"{cls.__name__}({shown})"
