import json
import subprocess
import sys
from importlib import resources

import pytest

from planar_monoid.cli import main
from planar_monoid.catalog import builtin, completeness_check
from planar_monoid.designs import Design, SearchBudget, search_orderings

LANTERN_N5 = {
    "n": 5,
    "lhs": {"exponents": [2, 2, 2, 2], "outer": 1},
    "rhs": [[1, 2], [2, 3], [1, 3], [3, 4], [2, 4], [1, 4]],
}


# 100,000 nested arrays: past the JSON parser's recursion limit, and past
# what json.dumps could write, so it is handed to write() as text.
DEEP_JSON = "[" * 100_000 + "]" * 100_000


def write(tmp_path, name, obj):
    """obj as JSON, or a str as it stands."""
    p = tmp_path / name
    p.write_text(obj if type(obj) is str else json.dumps(obj))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_accepts_catalog_relation(tmp_path, capsys):
    path = write(tmp_path, "rel.json", LANTERN_N5)
    code, out, _ = run(capsys, "verify", path, "--fast")
    assert code == 0
    obj = json.loads(out)
    assert obj["verified"] is True
    assert obj["label"] == "rel"
    assert obj["oracle_agreement"] is None


@pytest.mark.parametrize("n", [5, 6, 7])
def test_catalog_entries_are_relation_files(tmp_path, capsys, n):
    # each bundled entry, alone in a file, is a relation file as it stands
    text = resources.files("planar_monoid").joinpath("data", f"relations_n{n}.json").read_text()
    entries = json.loads(text)["relations"]
    assert [e["label"] for e in entries] == [r.label for r in builtin(n)]
    for entry in entries:
        path = write(tmp_path, "entry.json", entry)
        code, out, _ = run(capsys, "verify", path, "--fast")
        assert code == 0
        obj = json.loads(out)
        assert obj["label"] == entry["label"]
        assert obj["verified"] is True


def test_verify_runs_second_engine_by_default(tmp_path, capsys):
    path = write(tmp_path, "rel.json", LANTERN_N5)
    code, out, _ = run(capsys, "verify", path)
    assert code == 0
    assert json.loads(out)["oracle_agreement"] is True


def test_verify_falsifies_wrong_exponents(tmp_path, capsys):
    bad = dict(LANTERN_N5, lhs={"exponents": [1, 1, 1, 1], "outer": 1})
    path = write(tmp_path, "rel.json", bad)
    code, out, _ = run(capsys, "verify", path, "--fast")
    assert code == 1
    assert json.loads(out)["verified"] is False


def test_verify_order_header(tmp_path, capsys):
    flipped = dict(LANTERN_N5, rhs=LANTERN_N5["rhs"][::-1], order="leftmost-first")
    path = write(tmp_path, "rel.json", flipped)
    code, _, _ = run(capsys, "verify", path, "--fast")
    assert code == 0


def test_verify_rejects_unknown_order(tmp_path, capsys):
    bad = dict(LANTERN_N5, order="alphabetical")
    path = write(tmp_path, "rel.json", bad)
    code, _, err = run(capsys, "verify", path, "--fast")
    assert code == 2
    assert "order" in err


def test_verify_rejects_misspelled_order_key(tmp_path, capsys):
    # read as absent, "Order" would leave the list rightmost-first, where it
    # verifies; spelled "order", the same list is falsified
    spelled = dict(LANTERN_N5, order="leftmost-first")
    code, _, _ = run(capsys, "verify", write(tmp_path, "rel.json", spelled), "--fast")
    assert code == 1
    misspelled = dict(LANTERN_N5, Order="leftmost-first")
    code, out, err = run(capsys, "verify", write(tmp_path, "rel.json", misspelled), "--fast")
    assert code == 2
    assert out == ""
    assert "unknown relation key 'Order'" in err


def test_search_rejects_unknown_design_key(tmp_path, capsys):
    obj = {"m": 4, "blocks": [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]], "bloks": []}
    code, out, err = run(capsys, "search", "--design", write(tmp_path, "d.json", obj))
    assert code == 2
    assert out == ""
    assert "unknown design key 'bloks'" in err


def test_verify_malformed_json(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    code, out, err = run(capsys, "verify", str(p))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_verify_missing_file(capsys):
    code, _, err = run(capsys, "verify", "/nonexistent/rel.json")
    assert code == 2
    assert "error:" in err


def test_verify_rejects_surface_mismatch(tmp_path, capsys):
    bad = dict(LANTERN_N5, lhs={"n": 6, "exponents": [2, 2, 2, 2, 2], "outer": 1})
    path = write(tmp_path, "rel.json", bad)
    code, out, err = run(capsys, "verify", path, "--fast")
    assert code == 2
    assert out == ""
    assert "unknown lhs key 'n'" in err


def test_verify_accepts_outer_rhs_factor(tmp_path, capsys):
    # T_outer alone equals the boundary word with zero interior exponents
    obj = {
        "n": 4,
        "lhs": {"exponents": [0, 0, 0], "outer": 1},
        "rhs": ["outer"],
    }
    path = write(tmp_path, "rel.json", obj)
    code, out, _ = run(capsys, "verify", path, "--fast")
    assert code == 0
    assert json.loads(out)["verified"] is True


@pytest.mark.parametrize(
    "cmd,obj",
    [
        ("verify", dict(LANTERN_N5, lhs={"exponents": [2.9, 2, 2, 2], "outer": 1})),
        ("verify", dict(LANTERN_N5, lhs={"exponents": "2222", "outer": 1})),
        ("verify", dict(LANTERN_N5, rhs=["12", "23", "13", "34", "24", "14"])),
        ("verify", dict(LANTERN_N5, lhs={"exponents": [2, 2, 2, 2], "outer": True})),
        ("verify", dict(LANTERN_N5, n=5.0)),
        ("search", {"m": 3, "blocks": ["12", [2, 3], [1, 3]]}),
        ("search", {"m": 3, "blocks": [[1, 2.0], [2, 3], [1, 3]]}),
        ("verify", dict(LANTERN_N5, lhs=[["exponents", [2, 2, 2, 2]], ["outer", 1]])),
        ("verify", dict(LANTERN_N5, label=[1, 2])),
        ("verify", DEEP_JSON),
        ("search", DEEP_JSON),
    ],
    ids=[
        "float-exponent",
        "string-exponents",
        "string-factors",
        "bool-outer",
        "float-n",
        "string-block",
        "float-label",
        "lhs-pairs",
        "list-label",
        "deep-relation",
        "deep-design",
    ],
)
def test_rejects_malformed_numbers(tmp_path, capsys, cmd, obj):
    path = write(tmp_path, "input.json", obj)
    argv = ("verify", path, "--fast") if cmd == "verify" else ("search", "--design", path)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "obj,message",
    [
        ({k: v for k, v in LANTERN_N5.items() if k != "n"}, "relation has no 'n'"),
        ({k: v for k, v in LANTERN_N5.items() if k != "lhs"}, "relation has no 'lhs'"),
        (dict(LANTERN_N5, lhs={"outer": 1}), "lhs has no 'exponents'"),
        ([LANTERN_N5], "relation must be an object, got list"),
        (dict(LANTERN_N5, lhs=[2, 2, 2, 2]), "lhs must be an object, got list"),
        (dict(LANTERN_N5, lhs=dict(LANTERN_N5["lhs"], outer=-1)), "outer must be non-negative, got -1"),
    ],
    ids=["no-n", "no-lhs", "no-exponents", "array", "lhs-array", "negative-outer"],
)
def test_verify_names_a_malformed_relation_object(tmp_path, capsys, obj, message):
    path = write(tmp_path, "rel.json", obj)
    code, out, err = run(capsys, "verify", path, "--fast")
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "obj,message",
    [
        ({"m": 3}, "design has no 'blocks'"),
        ({"blocks": [[1, 2], [2, 3], [1, 3]]}, "design has no 'm'"),
        ([[1, 2], [2, 3], [1, 3]], "design must be an object, got list"),
    ],
    ids=["no-blocks", "no-m", "array"],
)
def test_search_names_a_malformed_design_object(tmp_path, capsys, obj, message):
    path = write(tmp_path, "design.json", obj)
    code, out, err = run(capsys, "search", "--design", path)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_catalog_command(capsys):
    for n, count in ((5, 2), (6, 7)):
        code, out, err = run(capsys, "catalog", "--n", str(n), "--fast")
        assert code == 0
        obj = json.loads(out)
        assert obj["total"] == obj["verified"] == count
        assert [r["label"] for r in obj["relations"]] == [r.label for r in builtin(n)]
        assert all(r["verified"] for r in obj["relations"])
        assert f"{count}/{count} verified" in err


def test_engine_disagreement_exits_one(tmp_path, capsys, monkeypatch):
    # the Lawrence-Krammer engine is the only cross-check, so a disagreement
    # fails the run even when every relation verifies; the JSON is unchanged
    from planar_monoid import catalog

    real = catalog.lk_equal
    monkeypatch.setattr(catalog, "lk_equal", lambda a, b: not real(a, b))
    code, out, err = run(capsys, "catalog", "--n", "5")
    assert code == 1
    obj = json.loads(out)
    assert obj["verified"] == obj["total"] == 2
    assert all(r["oracle_agreement"] is False for r in obj["relations"])
    assert "engines disagree: " + ", ".join(r.label for r in builtin(5)) in err
    path = write(tmp_path, "rel.json", LANTERN_N5)
    code, out, err = run(capsys, "verify", path)
    assert code == 1
    assert json.loads(out)["verified"] is True
    assert "engines disagree: rel" in err
    code, _, err = run(capsys, "verify", path, "--fast")
    assert code == 0 and "disagree" not in err


def test_catalog_rejects_bad_n(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["catalog", "--n", "9"])
    assert exc.value.code == 2


def test_enumerate_command(capsys):
    code, out, _ = run(capsys, "enumerate", "--m", "4", "--sym", "dihedral")
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == 2
    assert len(obj["designs"]) == 2


def test_enumerate_symmetric_m5(capsys):
    code, out, _ = run(capsys, "enumerate", "--m", "5", "--sym", "symmetric")
    assert code == 0
    assert json.loads(out)["count"] == 4


def test_enumerate_out_of_range(capsys):
    code, _, err = run(capsys, "enumerate", "--m", "9")
    assert code == 2
    assert "error:" in err


def test_search_command(tmp_path, capsys):
    path = write(
        tmp_path,
        "design.json",
        {"m": 3, "blocks": [[1, 2], [2, 3], [1, 3]]},
    )
    code, out, _ = run(capsys, "search", "--design", path)
    assert code == 0
    obj = json.loads(out)
    assert obj["status"] == "exhausted"
    assert obj["orderings_found"] == 3
    assert len(obj["orderings"]) == 3
    # K4's 48 orderings, written as the search lists them
    k4 = [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]]
    path = write(tmp_path, "k4.json", {"m": 4, "blocks": k4})
    code, out, _ = run(capsys, "search", "--design", path)
    res = search_orderings(Design(4, tuple(map(tuple, k4))), SearchBudget())
    assert code == 0 and res.orderings_found == 48
    assert out == json.dumps({**res.to_json_obj(), "orderings": res.orderings}, sort_keys=True) + "\n"


def test_search_rejects_design_on_fewer_than_three_points(tmp_path, capsys):
    path = write(tmp_path, "design.json", {"m": 1, "blocks": []})
    code, out, err = run(capsys, "search", "--design", path)
    assert code == 2
    assert out == ""
    assert "at least 3 points" in err


def test_search_rejects_block_repeating_a_point(tmp_path, capsys):
    blocks = [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4, 4]]
    path = write(tmp_path, "design.json", {"m": 4, "blocks": blocks})
    code, out, err = run(capsys, "search", "--design", path)
    assert code == 2
    assert out == ""
    assert "repeats a point" in err


def test_search_budget_flags(tmp_path, capsys):
    path = write(
        tmp_path,
        "design.json",
        {"m": 4, "blocks": [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]]},
    )
    code, out, _ = run(capsys, "search", "--design", path, "--cap", "2", "--tries", "50")
    assert code == 0
    obj = json.loads(out)
    assert (obj["status"], obj["orderings_found"]) == ("budget", 42)


@pytest.mark.parametrize("flag", ["--cap", "--tries"])
def test_search_rejects_negative_budget(tmp_path, capsys, flag):
    path = write(tmp_path, "design.json", {"m": 3, "blocks": [[1, 2], [2, 3], [1, 3]]})
    code, out, err = run(capsys, "search", "--design", path, flag, "-1")
    assert code == 2
    assert out == ""
    assert "must be >= 0" in err


def test_audit_command(capsys):
    code, out, err = run(capsys, "audit", "--n", "5")
    assert code == 0
    assert json.loads(out) == completeness_check(5).to_json_obj()
    assert "2/2 replication classes match the catalog" in err


def test_audit_mismatch_exits_one(capsys, monkeypatch):
    # with its catalogued witness taken out, the three-triples multiset
    # (3,3,3,4,4,4) has one 9-block class, so at cap 9 it is exhausted with
    # 18 orderings and reads as the one mismatch
    from planar_monoid import catalog

    catalogued = catalog._builtin
    witness = [r for r in catalogued(7) if r.label.startswith("n7/17")]
    assert len(witness) == 1
    monkeypatch.setattr(catalog, "_builtin", lambda n: tuple(r for r in catalogued(n) if r not in witness))
    code, out, err = run(capsys, "audit", "--n", "7", "--mode", "symmetric", "--cap", "9")
    assert code == 1
    obj = json.loads(out)
    assert obj == completeness_check(7, "symmetric", SearchBudget(exhaustive_cap=9)).to_json_obj()
    mismatched = [c for c in obj["replication_classes"] if not c["matches_catalog"]]
    assert [(c["replications"], c["realizable"], c["catalog_labels"]) for c in mismatched] == [
        ([3, 3, 3, 4, 4, 4], True, [])
    ]
    three_triples = [
        e for e in obj["entries"] if sorted(a + 1 for a in e["exponents"]) == [3, 3, 3, 4, 4, 4]
    ]
    assert [(e["status"], e["orderings_found"]) for e in three_triples] == [("exhausted", 18)]
    assert "8/9 replication classes match the catalog" in err
    assert "mismatch: replications 3,3,3,4,4,4 realizable True catalog -" in err


def test_audit_rejects_negative_cap(capsys):
    code, out, err = run(capsys, "audit", "--n", "5", "--cap", "-1")
    assert code == 2
    assert out == ""
    assert "must be >= 0" in err


def test_plumb_json(tmp_path, capsys):
    path = write(tmp_path, "rel.json", LANTERN_N5)
    code, out, _ = run(capsys, "plumb", "--file", path)
    assert code == 0
    obj = json.loads(out)
    assert {"id": 0, "weight": -5} in obj["vertices"]
    assert len(obj["vertices"]) == 5


def test_plumb_dot_without_rhs(tmp_path, capsys):
    obj = {"n": 5, "lhs": {"exponents": [2, 2, 2, 2], "outer": 1}}
    path = write(tmp_path, "rel.json", obj)
    code, out, _ = run(capsys, "plumb", "--file", path, "--format", "dot")
    assert code == 0
    assert out.startswith("graph plumbing {")


def test_plumb_rejects_unknown_order_without_rhs(tmp_path, capsys):
    obj = {"n": 5, "lhs": {"exponents": [2, 2, 2, 2], "outer": 1}, "order": "bogus"}
    code, out, err = run(capsys, "plumb", "--file", write(tmp_path, "rel.json", obj))
    assert code == 2
    assert out == ""
    assert "order must be" in err


def test_bounds_command(capsys):
    code, out, _ = run(capsys, "bounds", "--n", "7")
    assert code == 0
    assert json.loads(out) == {
        "n": 7,
        "min_twists": 10,
        "max_twists": 25,
        "min_chi": 5,
        "max_chi": 20,
    }


def test_bounds_rejects_small_n(capsys):
    code, _, err = run(capsys, "bounds", "--n", "3")
    assert code == 2
    assert "error:" in err


def test_console_script_installed():
    out = subprocess.run(
        [sys.executable, "-m", "planar_monoid.cli", "bounds", "--n", "5"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert json.loads(out.stdout)["n"] == 5
