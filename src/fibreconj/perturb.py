"""Perturbing words away from proper powers without moving their Q-image.

Appending a power of a kernel element (trivial in Q, nontrivial in F)
changes a word only inside its Q-fibre.  The escape routine first
minimises the word within its fibre, then appends increasing powers of
a fixed kernel witness, by default a shortest relator, until the result
is not a proper power in F; when no power works, a minimal
representative that is already not a proper power is returned
unchanged.  Short minimal representatives are reported as exceptional
instead.  The witness needs no search, and the fibre search queries the
word problem only on ball words with the right abelian image, so
perturbation runs over genus 2 as well.
"""

from __future__ import annotations

from dataclasses import dataclass

from .decisions import Decision
from .oracle import StrategySpec, _model, q_equal, wp_decide
from .subdirect import SubdirectSetup
from .words import (
    free_reduce,
    is_proper_power,
    mul,
    power,
    reduced_words,
    validate_word,
)


class SearchBudgetExceeded(Exception):
    """A ball search hit its candidate budget before finding its target."""


class KMaxExhausted(Exception):
    """Every tried perturbation exponent still produced a proper power."""


@dataclass(frozen=True)
class PerturbConfig:
    """Tuning for power_avoid.

    Words whose minimal representative is shorter than threshold are
    exceptional.  kernel_witness overrides the default witness, the
    first shortest relator; power_avoid checks either one with wp_decide.
    """

    threshold: int = 1
    k_max: int = 8
    kernel_witness: str | None = None


@dataclass(frozen=True)
class PerturbResult:
    """Outcome of power_avoid.

    outcome is "perturbed" or "exceptional".  word holds the perturbed
    word, or the short minimal representative in the exceptional case.
    base_rep is the minimal representative the search started from, and
    image_certificate witnesses that word agrees with the input in Q.
    """

    outcome: str
    word: str
    base_rep: str
    k: int | None = None
    image_certificate: Decision | None = None

    @property
    def perturbed(self) -> bool:
        return self.outcome == "perturbed"

    @property
    def exceptional(self) -> bool:
        return self.outcome == "exceptional"


def kernel_witness(setup: SubdirectSetup) -> str:
    """The first shortest relator: nonempty and cyclically reduced, so
    nontrivial in F, and trivial in Q."""
    if not setup.pres.relators:
        raise ValueError("the kernel is trivial: no witness exists")
    return min(setup.pres.relators, key=len)


def minimal_q_rep(w: str, setup: SubdirectSetup, strat: StrategySpec,
                  budget: int = 500_000) -> str:
    """Shortest word with the same Q-image as w, ties broken by rank order.

    Words equal in Q are equal in the abelianization of Q, so only ball
    words with the abelian image of w are queried; budget bounds the
    ball words enumerated.  Requires an exact strategy: an Unknown
    equality query would make the minimality claim unverifiable.
    """
    pres = setup.pres
    validate_word(w, pres.generators)
    if not strat.exactness_claim:
        raise ValueError("minimal representative search needs an exact strategy")
    w = free_reduce(w)
    image = _model(pres).residues
    target = image(w)
    for seen, cand in enumerate(reduced_words(pres.generators, len(w)), 1):
        if seen > budget:
            raise SearchBudgetExceeded(
                f"minimal representative not found in {budget} ball candidates")
        if image(cand) == target and q_equal(cand, w, pres, strat).yes:
            return cand
    raise AssertionError("ball search ended without reaching the word itself")


def power_avoid(
    w: str,
    cfg: PerturbConfig,
    setup: SubdirectSetup,
    strat: StrategySpec,
) -> PerturbResult:
    """Replace w, within its Q-fibre, by a word that is not a proper power.

    Returns an exceptional result when the fibre's minimal representative
    is shorter than cfg.threshold; otherwise appends powers of a kernel
    witness until primitivity is reached.  When no exponent up to
    cfg.k_max works, a nonempty minimal representative that is not a
    proper power is returned itself with k = 0; otherwise exhausting
    cfg.k_max raises rather than returning a silently unusable word.
    """
    pres = setup.pres
    w0 = minimal_q_rep(w, setup, strat)
    if len(w0) < cfg.threshold:
        cert = q_equal(w0, w, pres, strat)
        return PerturbResult("exceptional", w0, w0, None, cert)

    witness = cfg.kernel_witness
    if witness is None:
        witness = kernel_witness(setup)
    if not wp_decide(witness, pres, strat).yes:
        raise ValueError("supplied kernel witness is not trivial in Q")

    for k in range(1, cfg.k_max + 1):
        cand = mul(w0, power(witness, k))
        if cand == "" or is_proper_power(cand):
            continue
        cert = q_equal(cand, w, pres, strat)
        if not cert.yes:
            raise AssertionError("perturbation moved the Q-image")
        return PerturbResult("perturbed", cand, w0, k, cert)
    if w0 and not is_proper_power(w0):
        return PerturbResult("perturbed", w0, w0, 0, q_equal(w0, w, pres, strat))
    raise KMaxExhausted(
        f"no primitive perturbation of {w0!r} with exponent <= {cfg.k_max}"
    )
