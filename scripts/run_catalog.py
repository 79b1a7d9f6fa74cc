#!/usr/bin/env python3
"""Verify every builtin relation and print a one-line-per-relation table.

Usage: python scripts/run_catalog.py [--fast]
"""

import argparse
import sys
import time

from planar_monoid.catalog import builtin, verify_all


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--fast", action="store_true", help="skip the Lawrence-Krammer pass")
    args = ap.parse_args()

    failures = 0
    t0 = time.time()
    for n in (5, 6, 7):
        rels = builtin(n)
        reports = verify_all(rels, lk=not args.fast)
        print(f"-- n = {n} ({len(rels)} relations)")
        for r, rep in zip(rels, reports):
            mark = "ok " if rep.verified else "FAIL"
            oracle = {True: "agree", False: "DISAGREE", None: "-"}[rep.oracle_agreement]
            print(
                f"  {mark} {rep.label:<7} chi=({rep.lhs_chi},{rep.rhs_chi})"
                f" blocks={len(r.rhs.factors):>2}  oracle={oracle}"
            )
            failures += not rep.verified or rep.oracle_agreement is False
    print(f"total {time.time() - t0:.1f}s, {failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
