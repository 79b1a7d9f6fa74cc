#!/usr/bin/env python3
"""Design-class audit: enumerate, search for realizing orderings, compare
to the catalog, and summarize by replication class.

The default budget mirrors the library's; crank --tries (and --cap, with
patience) for a more thorough pass on the big n=7 classes.

Usage: python scripts/run_audit.py --n 7 --mode symmetric --tries 20000
"""

import argparse
import json
import sys
import time

from planar_monoid.catalog import AUDIT_MODES, completeness_check
from planar_monoid.designs import SearchBudget


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=7, choices=(5, 6, 7))
    ap.add_argument("--mode", default="symmetric", choices=AUDIT_MODES)
    default = SearchBudget()
    ap.add_argument(
        "--cap", type=int, default=default.exhaustive_cap,
        help="exhaustive search up to this many blocks",
    )
    ap.add_argument("--tries", type=int, default=default.tries, help="random shuffles past the cap")
    ap.add_argument("--seed", type=int, default=default.seed)
    ap.add_argument("--json", metavar="PATH", help="also dump the full report as JSON")
    args = ap.parse_args()

    try:
        budget = SearchBudget(exhaustive_cap=args.cap, tries=args.tries, seed=args.seed)
    except ValueError as e:
        ap.error(str(e))
    t0 = time.time()
    rep = completeness_check(args.n, mode=args.mode, budget=budget)
    elapsed = time.time() - t0

    print(f"n={rep.n} mode={rep.mode}: {len(rep.entries)} design classes ({elapsed:.1f}s)")
    for e in rep.entries:
        labels = ",".join(e.catalog_labels) or "-"
        flag = "" if e.matches_catalog else "  <-- MISMATCH"
        print(
            f"  reps={e.replications} blocks={len(e.design.blocks):>2} "
            f"found={e.orderings_found:>3} {e.status:<9} catalog={labels}{flag}"
        )
    print("replication classes:")
    for c in rep.replication_classes:
        tags = [t for t, keep in (("listed", c.listed), ("catalog", c.in_catalog)) if keep]
        print(
            f"  {c.replications} chi=({c.lhs_chi},{c.rhs_chi}) "
            f"realizable={c.realizable} [{' '.join(tags) or 'unlisted'}]"
        )

    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(rep.to_json_obj(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json}")
    return 0 if rep.all_match() else 1


if __name__ == "__main__":
    sys.exit(main())
