"""Set-up of one workload: import fibreconj, parse its presentations, pick strategies.

Set-up ends when the first query can be issued: the package is
imported, each presentation file is parsed by the CLI parser,
auto_strategy and canonical_setup have run, and one warm-up query per
presentation has filled the per-presentation caches.

Run as a script, it sets up the named workload and prints "ready":

    python3 perfbench/boot.py fibre_p

run.py times such processes from their start to that line to measure
set-up time.  This file imports nothing but the standard library and
the package, so that the probe measures the package's set-up alone.
"""

from __future__ import annotations

import os
import sys
from typing import NamedTuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

# workload -> quotient name -> (presentation file under the checkout, expected strategy)
PRESENTATIONS = {
    "area_z2": {"z2": ("presentations/z2.txt", "abelian")},
    "wp_genus2": {"genus2": ("presentations/genus2.txt", "dehn")},
    "fibre_p": {
        "z2": ("presentations/z2.txt", "abelian"),
        "z3": ("presentations/z3.txt", "abelian"),
        "zxz3": ("perfbench/presentations/zxz3.txt", "abelian"),
        "genus2": ("presentations/genus2.txt", "dehn"),
    },
}


class Quotient(NamedTuple):
    name: str
    pres: object
    strat: object
    setup: object


def import_package():
    """Import fibreconj from the checkout's src directory."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "fibreconj")):
        raise ImportError(f"no fibreconj package under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)
    import fibreconj
    import fibreconj.cli  # noqa: F401  (parse_presentation_file lives there)

    return fibreconj


def _warm_up(fb, workload: str, q: Quotient) -> None:
    relator = q.pres.relators[0]
    if workload == "area_z2":
        fb.area_bounded(relator, None, q.pres)
        fb.wp_decide(relator, q.pres, q.strat)
    elif workload == "wp_genus2":
        fb.wp_decide(relator, q.pres, q.strat)
    else:
        g = q.pres.generators[0]
        fb.p_conjugacy((g, g), (g, g), q.setup, q.strat)


def setup(workload: str) -> dict[str, Quotient]:
    """Set up a workload's quotients; calls go through module attributes so tracing sees them."""
    fb = import_package()
    quotients = {}
    for name, (path, kind) in PRESENTATIONS[workload].items():
        pres = fb.cli.parse_presentation_file(os.path.join(ROOT, path))
        strat = fb.auto_strategy(pres)
        if strat.kind != kind or not strat.exactness_claim:
            raise RuntimeError(f"{name}: auto_strategy chose {strat}, the workload needs exact {kind}")
        q = Quotient(name, pres, strat, fb.canonical_setup(pres))
        _warm_up(fb, workload, q)
        quotients[name] = q
    return quotients


if __name__ == "__main__":
    setup(sys.argv[1])
    print("ready", flush=True)
