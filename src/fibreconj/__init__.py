"""Decision procedures for fibre products of free groups.

Free-group arithmetic, van Kampen area machinery, certified word and
power problem strategies, conjugacy in the fibre product P < F x F, and
independent brute-force oracles for cross-checking.  The names below
are the documented API; everything else is reached through its module.
The brute_* references load on first use, so that answering a query
does not import them.
"""

from .area import area_bounded, dehn_function
from .decisions import Verdict
from .oracle import (
    auto_strategy,
    check_decision,
    check_power_decision,
    make_strategy,
    power_decide,
    replay_dehn_trace,
    wp_decide,
)
from .perturb import PerturbConfig, power_avoid
from .presentation import Presentation
from .subdirect import canonical_setup, p_conjugacy, replay_trace
from .words import exponent_vector, reduced_words

__all__ = [
    "PerturbConfig",
    "Presentation",
    "Verdict",
    "area_bounded",
    "auto_strategy",
    "brute_area",
    "brute_p_conjugacy",
    "brute_primitive_root",
    "canonical_setup",
    "check_decision",
    "check_power_decision",
    "dehn_function",
    "exponent_vector",
    "make_strategy",
    "p_conjugacy",
    "power_avoid",
    "power_decide",
    "reduced_words",
    "replay_dehn_trace",
    "replay_trace",
    "wp_decide",
]


_BRUTE = ("brute_area", "brute_p_conjugacy", "brute_primitive_root")


def __getattr__(name: str):
    if name in _BRUTE:
        from . import brute

        return getattr(brute, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
