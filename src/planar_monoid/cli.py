"""Command-line front end: parse files, dispatch, print JSON, exit honestly.

Exit codes: 0 success (for `verify`/`catalog`: everything verified and,
unless --fast, the Lawrence-Krammer engine agreeing on every verdict;
for `audit`: every replication class matching the catalog), 1 falsified, the
engines disagree or an audit mismatch, 2 bad arguments or unreadable
input.
Reports go to stdout as JSON with sorted keys; anything human-facing goes
to stderr.

Relation files are read by `surface.read_relation`, which documents
the format; the bundled catalog uses the same one.  A relation file's
label defaults to the file's stem.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .catalog import AUDIT_MODES, CATALOGUED_N, builtin, completeness_check, verify, verify_words
from .designs import SYMMETRY_MODES, Design, SearchBudget, enumerate_designs, search_orderings
from .plumbing import bounds, emit, plumbing_of
from .surface import read_relation


def _emit_json(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def _load_json(path: str):
    """A JSON file's value; nesting past the parser's limit is bad input (exit 2)."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path} nests too deeply to read") from None


def _disagreements(reports) -> list[str]:
    """Labels whose two engines disagree, each also named on stderr."""
    labels = [r.label for r in reports if r.oracle_agreement is False]
    if labels:
        print(f"engines disagree: {', '.join(labels)}", file=sys.stderr)
    return labels


def _cmd_verify(args) -> int:
    label, lhs, rhs = read_relation(_load_json(args.path), Path(args.path).stem)
    if rhs is None:
        raise ValueError("relation file has no rhs")
    report = verify_words(label, lhs, rhs, lk=not args.fast)
    _emit_json(report.to_json_obj())
    disagree = _disagreements([report])
    return 0 if report.verified and not disagree else 1


def _cmd_catalog(args) -> int:
    reports = [verify(r, lk=not args.fast) for r in builtin(args.n)]
    ok = sum(r.verified for r in reports)
    _emit_json(
        {
            "n": args.n,
            "total": len(reports),
            "verified": ok,
            "relations": [r.to_json_obj() for r in reports],
        }
    )
    print(f"{ok}/{len(reports)} verified", file=sys.stderr)
    disagree = _disagreements(reports)
    return 0 if ok == len(reports) and not disagree else 1


def _cmd_audit(args) -> int:
    rep = completeness_check(args.n, mode=args.mode, budget=_budget(args))
    _emit_json(rep.to_json_obj())
    classes = rep.replication_classes
    mismatched = [c for c in classes if not c.matches_catalog]
    print(
        f"{len(classes) - len(mismatched)}/{len(classes)} replication classes "
        f"match the catalog (n={rep.n}, {rep.mode})",
        file=sys.stderr,
    )
    for c in mismatched:
        print(
            f"mismatch: replications {','.join(map(str, c.replications))} "
            f"realizable {c.realizable} catalog {','.join(c.catalog_labels) or '-'}",
            file=sys.stderr,
        )
    return 0 if rep.all_match() else 1


def _cmd_enumerate(args) -> int:
    designs = enumerate_designs(args.m, args.sym)
    _emit_json(
        {
            "m": args.m,
            "mode": args.sym,
            "count": len(designs),
            "designs": [d.to_json_obj() for d in designs],
        }
    )
    return 0


def _cmd_search(args) -> int:
    d = Design.from_json_obj(_load_json(args.design))
    res = search_orderings(d, _budget(args))
    obj = res.to_json_obj()
    obj["orderings"] = [[list(b) for b in o] for o in res.orderings]
    _emit_json(obj)
    return 0


def _cmd_plumb(args) -> int:
    _, lhs, _ = read_relation(_load_json(args.file), Path(args.file).stem)
    sys.stdout.write(emit(plumbing_of(lhs), fmt=args.format))
    return 0


def _cmd_bounds(args) -> int:
    _emit_json(bounds(args.n).to_json_obj())
    return 0


def _add_budget_args(p: argparse.ArgumentParser) -> None:
    """--cap/--tries, with the defaults of SearchBudget()."""
    default = SearchBudget()
    p.add_argument(
        "--cap", type=int, default=default.exhaustive_cap, help="max blocks for exhaustive search"
    )
    p.add_argument(
        "--tries",
        type=int,
        default=default.tries,
        help="most tries (one block against one product), and most orderings, past the cap",
    )


def _budget(args) -> SearchBudget:
    return SearchBudget(exhaustive_cap=args.cap, tries=args.tries)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="planar-monoid",
        description="Twist relations on the holed sphere: verify, enumerate, search.",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    v = sub.add_parser("verify", help="check one relation file")
    v.add_argument("path", help="JSON relation file")
    v.add_argument("--fast", action="store_true", help="skip the second engine")
    v.set_defaults(fn=_cmd_verify)

    c = sub.add_parser("catalog", help="verify the builtin relations for one n")
    c.add_argument("--n", type=int, required=True, choices=CATALOGUED_N)
    c.add_argument("--fast", action="store_true", help="skip the second engine")
    c.set_defaults(fn=_cmd_catalog)

    e = sub.add_parser("enumerate", help="list design classes on m points")
    e.add_argument("--m", type=int, required=True)
    e.add_argument(
        "--sym",
        choices=SYMMETRY_MODES,
        default="dihedral",
        help="relabeling group for class reduction",
    )
    e.set_defaults(fn=_cmd_enumerate)

    s = sub.add_parser("search", help="search block orderings realizing the full twist")
    s.add_argument("--design", required=True, help="JSON design file {m, blocks}")
    _add_budget_args(s)
    s.set_defaults(fn=_cmd_search)

    a = sub.add_parser("audit", help="search every design class for one n, compare to the catalog")
    a.add_argument("--n", type=int, required=True, choices=CATALOGUED_N)
    a.add_argument(
        "--mode",
        choices=AUDIT_MODES,
        default=completeness_check.__defaults__[0],
        help="relabeling group for class reduction",
    )
    _add_budget_args(a)
    a.set_defaults(fn=_cmd_audit)

    g = sub.add_parser("plumb", help="plumbing graph of a relation file's lhs")
    g.add_argument("--file", required=True, help="JSON relation file")
    g.add_argument("--format", choices=("json", "dot"), default="json")
    g.set_defaults(fn=_cmd_plumb)

    b = sub.add_parser("bounds", help="twist-count and chi bounds for one n")
    b.add_argument("--n", type=int, required=True)
    b.set_defaults(fn=_cmd_bounds)

    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError, KeyError, TypeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
