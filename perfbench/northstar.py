"""Times the library at the sizes the ROADMAP's baselines quote, on this
benchmark's families, to show which family reproduces which baseline.

    PYTHONHASHSEED=0 PYTHONPATH=src python3 perfbench/northstar.py

Each line is one API call, timed once after one untimed call at the smallest
size.
"""

from __future__ import annotations

import random
import sys
import time

from nomfix import FixpointContext, FreshnessContext, Signature, c_unify, check_alpha_fixp, check_alpha_fresh, unify

import families as fam


def timed(fn, *args) -> float:
    """Seconds one call takes; NaN when it raises RecursionError, which deep
    terms do today (ROADMAP item 5a)."""
    start = time.perf_counter()
    try:
        fn(*args)
    except RecursionError:
        return float("nan")
    return time.perf_counter() - start


def distinct_binders(d: int):
    """[a0]...[a(d-1)](a_o0, ..., z) against itself: the shape of
    renamed-binder without the renaming."""
    s, _, _ = fam.renamed_binder(random.Random(0), d)
    return s, s


def main() -> int:
    sig = Signature()
    rows = []

    def alpha(family: str, make, sizes):
        for d in sizes:
            s, t = make(d)
            rows.append((family, "check_alpha_fixp", d, timed(check_alpha_fixp, sig, FixpointContext(), s, t)))
            rows.append((family, "check_alpha_fresh", d, timed(check_alpha_fresh, sig, FreshnessContext(), s, t)))

    timed(check_alpha_fixp, sig, FixpointContext(), *fam.same_binder(random.Random(0), 10)[:2])
    alpha("same-binder", lambda d: fam.same_binder(random.Random(0), d)[:2], (200, 400))
    alpha("distinct-binders", distinct_binders, (200, 400))
    alpha("renamed-binder", lambda d: fam.renamed_binder(random.Random(0), d)[:2], (100, 200))
    for n in (100, 200):
        case = fam.plain_chain(random.Random(0), n, "solved")
        rows.append(("plain-chain", "unify", n, timed(unify, case.goals)))
    for k in (4, 10):
        case = fam.c_pairs(random.Random(0), k)
        seconds = timed(c_unify, case.goals, case.sig)
        rows.append(("c-pairs", "c_unify per leaf", k, seconds / 2 ** k))
    for family, what, size, seconds in rows:
        shown = "RecursionError" if seconds != seconds else f"{seconds * 1000:10.2f} ms"
        print(f"{family:18s} {what:18s} {size:5d} {shown}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
