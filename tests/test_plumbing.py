import json
import re

import pytest

from planar_monoid.catalog import verify
from planar_monoid.designs import daisy
from planar_monoid.plumbing import (
    BoundsReport,
    PlumbingGraph,
    bounds,
    chi_formulas,
    emit,
    euler_characteristic,
    plumbing_of,
)
from planar_monoid.surface import BoundaryWord, ConvexCurve, SurfaceSpec, TwistWord


def star(n, exponents):
    return plumbing_of(BoundaryWord(SurfaceSpec(n), exponents, outer=1))


def test_plumbing_star_shape():
    g = star(5, (2, 2, 2, 2))
    assert g.vertices == ((0, -5), (1, -2), (2, -2), (3, -2), (4, -2))
    assert len(g.edges) == 4
    assert all((0, i) in g.edges for i in range(1, 5))


def test_plumbing_chains():
    # exponent a contributes a chain of a-1 vertices off the center
    g = star(4, (3, 1, 2))
    assert len(g.vertices) == 1 + 2 + 0 + 1
    assert (0, 1) in g.edges and (1, 2) in g.edges and (0, 3) in g.edges


def test_plumbing_exponent_one_leaves_no_vertex():
    g = star(4, (1, 1, 1))
    assert len(g.vertices) == 1
    assert g.edges == frozenset()


def test_plumbing_rejects_zero_exponent():
    with pytest.raises(ValueError):
        star(4, (0, 1, 1))


def test_plumbing_rejects_outer_powers():
    with pytest.raises(ValueError):
        plumbing_of(BoundaryWord(SurfaceSpec(4), (1, 1, 1), outer=2))


def test_graph_validation():
    with pytest.raises(ValueError):
        PlumbingGraph(((0, -2), (0, -3)), frozenset())  # dup ids
    with pytest.raises(ValueError):
        PlumbingGraph(((0, 2),), frozenset())  # non-negative weight
    with pytest.raises(ValueError):
        PlumbingGraph(((0, -2), (1, -2)), frozenset())  # disconnected
    with pytest.raises(ValueError):
        PlumbingGraph(((0, -2), (1, -2)), frozenset({(0, 2)}))  # unknown id
    with pytest.raises(ValueError):
        PlumbingGraph((), frozenset())
    path = ((0, -2), (1, -2), (2, -2))
    with pytest.raises(ValueError, match=re.escape("edge (1, 0) repeats (0, 1)")):
        PlumbingGraph(path, ((0, 1), (1, 0), (1, 2)))  # a doubled edge is no tree
    with pytest.raises(ValueError, match=re.escape("edge (0, 1, 2) must have two ends")):
        PlumbingGraph(path, ((0, 1, 2),))


@pytest.mark.parametrize(
    "vertices,edges",
    [
        (((0, -2.5), (1.9, "-3")), {(0, 1)}),
        (((0, -2), (1, -3)), {(0, 1.0)}),
        (((0, -2), (True, -3)), {(0, 1)}),
        (((0, -2), (1, -3)), {(0, True)}),
        (((0, -2), ("1", -3)), {(0, 1)}),
        (((0, -2), (1, "-3")), {(0, 1)}),
        (((0, -2), (1, -3)), {"01"}),
    ],
    ids=[
        "float-and-string-vertices", "float-edge-end", "bool-id", "bool-edge-end",
        "string-id", "string-weight", "string-edge",
    ],
)
def test_graph_takes_ints_only(vertices, edges):
    "Ids, weights and edge ends are ints; nothing is truncated or converted."
    with pytest.raises(ValueError):
        PlumbingGraph(vertices, frozenset(edges))


def test_graph_normalizes_edge_direction():
    g = PlumbingGraph(((1, -2), (0, -3)), frozenset({(1, 0)}))
    assert g.edges == frozenset({(0, 1)})
    assert g.vertices[0] == (0, -3)


def test_euler_characteristic_counts_twists():
    s = SurfaceSpec(5)
    assert euler_characteristic(BoundaryWord(s, (2, 2, 2, 2), outer=1)) == 6
    tw = TwistWord(s, (ConvexCurve([1, 2]), ConvexCurve([3, 4])))
    assert euler_characteristic(tw) == -1


@pytest.mark.parametrize(
    ("n", "i", "pair"),
    [
        (6, 2, (12, 6)),
        (6, 3, (9, 4)),
        (6, 4, (4, 1)),
        (7, 2, (20, 10)),
        (7, 5, (5, 1)),
    ],
)
def test_chi_formula_values(n, i, pair):
    assert chi_formulas(n, i) == pair


def test_chi_formulas_validate_range():
    with pytest.raises(ValueError):
        chi_formulas(6, 1)
    with pytest.raises(ValueError):
        chi_formulas(6, 5)
    with pytest.raises(ValueError, match="must be an integer"):
        chi_formulas(6.0, 2.5)


@pytest.mark.parametrize("n,i", [(n, i) for n in range(5, 11) for i in range(2, n - 1)])
def test_chi_formulas_match_daisy_words(n, i):
    r = daisy(n, i)
    lhs_chi = euler_characteristic(r.lhs)
    assert chi_formulas(n, i) == (lhs_chi, euler_characteristic(r.rhs))
    rep = bounds(n)
    assert rep.min_chi <= lhs_chi <= rep.max_chi


def test_bounds_n7():
    assert bounds(7) == BoundsReport(n=7, min_twists=10, max_twists=25, min_chi=5, max_chi=20)


def test_bounds_reject_small_n():
    with pytest.raises(ValueError):
        bounds(4)
    with pytest.raises(ValueError, match="n must be an integer"):
        bounds(5.5)


@pytest.mark.parametrize("n", range(5, 11))
def test_bounds_realized_by_daisy_extremes(n):
    "The extreme chi values come from actual verified relations."
    rep = bounds(n)
    lo = daisy(n, n - 2)
    hi = daisy(n, 2)
    assert verify(lo, lk=False).verified
    assert verify(hi, lk=False).verified
    assert euler_characteristic(lo.lhs) == rep.min_chi
    assert euler_characteristic(hi.lhs) == rep.max_chi
    assert lo.lhs.twist_count() == rep.min_twists
    assert hi.lhs.twist_count() == rep.max_twists


def test_emit_json_roundtrip():
    g = star(6, (2, 3, 1, 2, 4))
    obj = json.loads(emit(g))
    assert [(v["id"], v["weight"]) for v in obj["vertices"]] == list(g.vertices)
    assert [tuple(e) for e in obj["edges"]] == sorted(g.edges)


def _from_json(text):
    "Build a PlumbingGraph from emit's JSON format, handing the decoded values on unchanged."
    obj = json.loads(text)
    return PlumbingGraph(((v["id"], v["weight"]) for v in obj["vertices"]), obj["edges"])


@pytest.mark.parametrize(
    "text",
    [
        '{"vertices": [{"id": 0, "weight": -5.7}, {"id": 1, "weight": -2}], "edges": [[0, 1]]}',
        '{"vertices": [{"id": 0, "weight": -5}, {"id": 1, "weight": -2}], "edges": [[0, 1.0]]}',
        '{"vertices": [{"id": 0, "weight": -5}, {"id": 1, "weight": -2}], "edges": [[0, true]]}',
        '{"vertices": [{"id": 0, "weight": -5}, {"id": 1, "weight": -2}], "edges": [[0, 1, 1]]}',
    ],
    ids=["float-weight", "float-edge-end", "bool-edge-end", "three-ends"],
)
def test_parse_reads_json_integers_only(text):
    "JSON floats and booleans in emit's format reach the constructor as they are and are refused."
    with pytest.raises(ValueError):
        _from_json(text)


@pytest.mark.parametrize(
    "text, message",
    [
        (
            '{"vertices": [{"id": 0, "weight": -2}, {"id": 1, "weight": -2}, {"id": 2, "weight": -2}],'
            ' "edges": [[0, 1], [1, 0], [1, 2]]}',
            "edge (1, 0) repeats (0, 1)",
        ),
        (
            '{"vertices": [{"id": 0, "weight": -5}, {"id": 1, "weight": -2}], "edges": [[0, 1, 2]]}',
            "edge (0, 1, 2) must have two ends",
        ),
    ],
    ids=["repeated-edge", "three-ends"],
)
def test_parse_names_what_is_missing(text, message):
    "Edges read as JSON lists are named in the constructor's messages as tuples."
    with pytest.raises(ValueError, match=re.escape(message)):
        _from_json(text)


def test_emit_json_is_deterministic():
    g = star(5, (2, 2, 2, 2))
    assert emit(g) == emit(star(5, (2, 2, 2, 2)))


def test_emit_dot_structure():
    out = emit(star(5, (2, 1, 1, 1)), fmt="dot")
    assert out.startswith("graph plumbing {")
    assert '0 [label="-5"];' in out
    assert "0 -- 1;" in out
    assert out.endswith("}\n")


def test_emit_unknown_format():
    with pytest.raises(ValueError):
        emit(star(4, (1, 1, 1)), fmt="tikz")
