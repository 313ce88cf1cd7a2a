"""Perturbing words away from proper powers without moving their Q-image.

Appending a power of a kernel element (trivial in Q, nontrivial in F)
changes a word only inside its Q-fibre.  The escape routine starts from
the exact strategy's normal form of the word, then appends increasing
powers of a fixed kernel witness, the first shortest relator, until the
result is not a proper power in F; when no power works, a normal form
that is already not a proper power is returned unchanged.  Words
trivial in Q, whose normal form is empty, are reported as exceptional
instead.  Neither the normal form nor the witness needs a search, so
perturbation costs a few word-problem calls at any word length.
"""

from __future__ import annotations

from typing import NamedTuple

from .decisions import Decision
from .oracle import StrategySpec, normal_form, q_equal
from .subdirect import SubdirectSetup
from .words import is_proper_power, mul, power


class KMaxExhausted(Exception):
    """Every tried perturbation exponent still produced a proper power."""


class _PerturbConfigFields(NamedTuple):
    k_max: int  # its default is PerturbConfig.__new__'s


class PerturbConfig(_PerturbConfigFields):
    """Tuning for power_avoid: k_max bounds the witness exponents tried.

    k_max is a non-negative int, not a bool; every construction, _make
    and _replace included, validates.
    """

    __slots__ = ()

    def __new__(cls, k_max: int = 8):
        if type(k_max) is not int:
            raise TypeError(f"k_max must be an int, not {type(k_max).__name__}")
        if k_max < 0:
            raise ValueError("k_max must be non-negative")
        return super().__new__(cls, k_max)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class PerturbResult(NamedTuple):
    """Outcome of power_avoid.

    word holds the perturbed word, or the empty word in the exceptional
    case.  base_rep is the strategy's normal form of the input, which
    the perturbation starts from.  k is the witness exponent appended,
    None exactly when the result is exceptional, and image_certificate
    witnesses that word agrees with the input in Q.
    """

    word: str
    base_rep: str
    k: int | None = None
    image_certificate: Decision | None = None

    @property
    def perturbed(self) -> bool:
        return self.k is not None

    @property
    def exceptional(self) -> bool:
        return self.k is None


def kernel_witness(setup: SubdirectSetup) -> str:
    """The first shortest relator: nonempty and cyclically reduced, so
    nontrivial in F, and trivial in Q."""
    if not setup.pres.relators:
        raise ValueError("the kernel is trivial: no witness exists")
    return min(setup.pres.relators, key=len)


def _escape(w0: str, witness: str, k_max: int) -> tuple[str, int]:
    """The first w0 * witness^k, 1 <= k <= k_max, that is no proper
    power, else w0 itself with k = 0 when it is no proper power."""
    for k in range(1, k_max + 1):
        cand = mul(w0, power(witness, k))
        if cand and not is_proper_power(cand):
            return cand, k
    if not is_proper_power(w0):
        return w0, 0
    raise KMaxExhausted(f"no primitive perturbation of {w0!r} with exponent <= {k_max}")


def power_avoid(
    w: str,
    cfg: PerturbConfig,
    setup: SubdirectSetup,
    strat: StrategySpec,
) -> PerturbResult:
    """Replace w, within its Q-fibre, by a word that is not a proper power.

    Requires an exact strategy (see oracle.normal_form).  Returns an
    exceptional result with the empty word when w is trivial in Q;
    otherwise appends powers of the kernel witness to the normal form
    until primitivity is reached.  When no exponent up to cfg.k_max
    works, a normal form that is not a proper power is returned itself
    with k = 0; otherwise exhausting cfg.k_max raises rather than
    returning a silently unusable word.  Every result carries the
    q_equal certificate that its word equals w in Q.
    """
    pres = setup.pres
    w0 = normal_form(w, pres, strat)
    word, k = (w0, None) if w0 == "" else _escape(w0, kernel_witness(setup), cfg.k_max)
    cert = q_equal(word, w, pres, strat)
    if not cert.yes:
        raise AssertionError("perturbation moved the Q-image")
    return PerturbResult(word, w0, k, cert)
