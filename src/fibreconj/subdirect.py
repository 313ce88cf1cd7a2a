"""The fibre product P of two copies of F over Q, and conjugacy inside it.

P consists of the pairs (a, b) of free-group words whose images in Q
agree.  Membership therefore reduces to one word-problem query, and
conjugacy of pairs reduces to finitely many power-problem queries
against the primitive roots of the coordinates.  Every positive answer
ships with an explicit conjugator that is verified by exact free-group
arithmetic before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .area import Presentation
from .decisions import Decision, PowerDecision, Verdict, Verdicted
from .oracle import StrategySpec, check_power_decision, power_decide, q_equal
from .words import (
    free_conjugator,
    free_reduce,
    inverse,
    mul,
    mul2,
    power,
    primitive_root,
    validate_word,
    word_letters,
)


class PairElement(NamedTuple):
    first: str
    second: str


def validate_pair(pair, generators: str) -> PairElement:
    a, b = pair
    validate_word(a, generators)
    validate_word(b, generators)
    return PairElement(free_reduce(a), free_reduce(b))


def pair_mul(*pairs) -> PairElement:
    return PairElement(
        mul(*(p[0] for p in pairs)),
        mul(*(p[1] for p in pairs)),
    )


def pair_inverse(pair) -> PairElement:
    return PairElement(inverse(pair[0]), inverse(pair[1]))


def pair_conjugate(pair, g) -> PairElement:
    """g^-1 * pair * g, coordinatewise."""
    return pair_mul(pair_inverse(g), pair, g)


@dataclass(frozen=True)
class SubdirectSetup:
    """The canonical fibre product P of a presentation."""

    pres: Presentation

    @property
    def p_generators(self) -> tuple[PairElement, ...]:
        """Standard generators: the diagonal plus each relator on one side.

        Conjugating (r, 1) and (1, r) by diagonal elements reaches the whole
        kernel on either coordinate, so these generate P.
        """
        pres = self.pres
        gens = [PairElement(g, g) for g in pres.generators]
        gens += [PairElement(r, "") for r in pres.relators]
        gens += [PairElement("", r) for r in pres.relators]
        return tuple(gens)


def canonical_setup(pres: Presentation) -> SubdirectSetup:
    """The canonical fibre product of pres."""
    return SubdirectSetup(pres)


def p_membership(pair, setup: SubdirectSetup, strat: StrategySpec) -> Decision:
    """(a, b) lies in P iff a and b agree in Q."""
    a, b = validate_pair(pair, setup.pres.generators)
    return q_equal(a, b, setup.pres, strat)


class PowerQuery(NamedTuple):
    """One power-problem probe made while searching for a conjugator: the
    decision whether target is a power of z1 in Q, which verdict and p read."""

    j: int
    target: str
    decision: PowerDecision

    @property
    def verdict(self) -> Verdict:
        return self.decision.verdict

    @property
    def p(self) -> int | None:
        return self.decision.p


@dataclass(frozen=True)
class ConjugacyTrace:
    """Everything needed to replay a conjugacy decision.

    branch is one of "coords", "deg-first", "deg-second", "main".  For
    the main branch the queries record each probe "z2^j * w^-1 is a
    power of z1 in Q", and winner holds the (j, p) pair that produced
    the conjugator, if any.
    """

    branch: str
    x1: str | None = None
    x2: str | None = None
    w: str | None = None
    z1: str | None = None
    e1: int | None = None
    z2: str | None = None
    e2: int | None = None
    queries: tuple[PowerQuery, ...] = ()
    winner: tuple[int, int] | None = None


@dataclass(frozen=True)
class ConjugacyResult(Verdicted):
    verdict: Verdict
    conjugator: PairElement | None
    trace: ConjugacyTrace


def _main_conjugator(trace: ConjugacyTrace, j: int, p: int) -> PairElement:
    """(z1^p * w * x2, z2^j * x2): the main-branch conjugator for the pair (j, p)."""
    zeta = PairElement(mul(power(trace.z1, p), trace.w), power(trace.z2, j))
    return pair_mul(zeta, PairElement(trace.x2, trace.x2))


def _conjugate2(g: str, u: str) -> str:
    """g^-1 u g for reduced g and u, cancelling only at the seams."""
    return mul2(mul2(inverse(g), u), g)


def _finish(U, V, gamma, trace, setup, strat) -> ConjugacyResult:
    """Exact verification of a candidate conjugator, then membership.

    U, V and gamma are freely reduced, so the check needs no reduction
    past the seams.
    """
    if (_conjugate2(gamma[0], U[0]), _conjugate2(gamma[1], U[1])) != V:
        raise AssertionError("constructed conjugator fails exact verification")
    member = q_equal(*gamma, setup.pres, strat)
    if member.no:
        raise AssertionError("constructed conjugator escaped P")
    if member.unknown:
        return ConjugacyResult(Verdict.UNKNOWN, None, trace)
    return ConjugacyResult(Verdict.YES, gamma, trace)


def p_conjugacy(U, V, setup: SubdirectSetup, strat: StrategySpec) -> ConjugacyResult:
    """Decide whether some gamma in P satisfies gamma^-1 * U * gamma = V.

    Both pairs must already lie in P (a definite non-member raises
    ValueError, an undecided membership returns Unknown).  Coordinatewise
    free conjugacy is necessary; past that, the conjugator is pinned
    down by a scan over the finitely many cosets of the second root.

    U and V are validated and reduced once; the words built from them
    are products of reduced words, cancelling only at the seams.
    """
    U = validate_pair(U, setup.pres.generators)
    V = validate_pair(V, setup.pres.generators)
    for name, pair in (("U", U), ("V", V)):
        member = q_equal(*pair, setup.pres, strat)
        if member.no:
            raise ValueError(f"{name} is not an element of P")
        if member.unknown:
            return ConjugacyResult(
                Verdict.UNKNOWN, None, ConjugacyTrace(branch="coords")
            )

    u1, u2 = U
    v1, v2 = V
    x1 = free_conjugator(u1, v1)
    x2 = free_conjugator(u2, v2)
    if x1 is None or x2 is None:
        return ConjugacyResult(
            Verdict.NO, None, ConjugacyTrace(branch="coords", x1=x1, x2=x2)
        )

    if u1 == "" and v1 == "":
        gamma = PairElement(x2, x2)
        trace = ConjugacyTrace(branch="deg-first", x1=x1, x2=x2)
        return _finish(U, V, gamma, trace, setup, strat)
    if u2 == "" and v2 == "":
        gamma = PairElement(x1, x1)
        trace = ConjugacyTrace(branch="deg-second", x1=x1, x2=x2)
        return _finish(U, V, gamma, trace, setup, strat)

    # Main branch: both coordinates nontrivial.  Any conjugator in F x F
    # has the form (z1^p * x1, z2^q * x2) with z_i the primitive root of
    # u_i; such a pair lies in P iff z1^p * w = z2^q in Q, w = x1 * x2^-1.
    # Since u2 = z2^e2 equals u1 = z1^e1 in Q, shifting q by e2 shifts p
    # by e1, so scanning q = j in [0, e2) loses nothing.
    w = mul2(x1, inverse(x2))
    r1 = primitive_root(u1)
    r2 = primitive_root(u2)
    z1, e1 = r1.root, r1.exponent
    z2, e2 = r2.root, r2.exponent

    queries: list[PowerQuery] = []
    winner = None
    saw_unknown = False
    for j in range(e2):
        tgt = mul2(power(z2, j), inverse(w))
        pd: PowerDecision = power_decide(tgt, z1, setup.pres, strat)
        queries.append(PowerQuery(j, tgt, pd))
        if pd.yes:
            winner = (j, pd.p)
            break
        if pd.unknown:
            saw_unknown = True

    trace = ConjugacyTrace("main", x1, x2, w, z1, e1, z2, e2, tuple(queries), winner)
    if winner is not None:
        return _finish(U, V, _main_conjugator(trace, *winner), trace, setup, strat)
    return ConjugacyResult(Verdict.UNKNOWN if saw_unknown else Verdict.NO, None, trace)


def replay_trace(result: ConjugacyResult, U, V, setup: SubdirectSetup, strat: StrategySpec) -> bool:
    """Re-derive a conjugacy result from its trace.

    Matches the whole result: a Yes whose conjugator takes U to V inside
    P and, on the main branch, whose winner (j, p) rebuilds the same
    conjugator and whose last query, the winning one, is query j and
    keeps a Yes with exponent p that check_power_decision accepts for
    its target, all of its words over the generators and its winner a
    pair of ints, not bools.  A coords No replays when free_conjugator,
    run again on U and V, gives exactly its (x1, x2) and one of them is
    None: the coordinates are not conjugate in F, so no pair in P
    conjugates U to V.  Returns False on any other result.
    """
    U = validate_pair(U, setup.pres.generators)
    V = validate_pair(V, setup.pres.generators)
    letters = word_letters(setup.pres.generators)
    match result:
        case ConjugacyResult(
            Verdict.YES,
            PairElement(str(g1), str(g2)) as gamma,
            ConjugacyTrace(branch="deg-first" | "deg-second"),
        ) if letters.issuperset(g1 + g2):
            return pair_conjugate(U, gamma) == V and p_membership(gamma, setup, strat).yes
        case ConjugacyResult(
            Verdict.YES,
            PairElement(str(g1), str(g2)) as gamma,
            ConjugacyTrace(
                branch="main",
                x2=str(x2),
                w=str(w),
                z1=str(z1),
                z2=str(z2),
                queries=(*_, PowerQuery(int(k), str(tgt), PowerDecision(Verdict.YES) as won)),
                winner=(int(j), int(p)),
            ) as trace,
        ) if type(j) is type(p) is int and letters.issuperset(g1 + g2 + x2 + w + z1 + z2):
            return (
                pair_conjugate(U, gamma) == V
                and p_membership(gamma, setup, strat).yes
                and (k, tgt, won.p) == (j, mul(power(z2, j), inverse(w)), p)
                and check_power_decision(won, tgt, z1, setup.pres)
                and _main_conjugator(trace, j, p) == gamma
            )
        case ConjugacyResult(Verdict.NO, None, ConjugacyTrace(branch="coords") as trace):
            xs = (free_conjugator(U[0], V[0]), free_conjugator(U[1], V[1]))
            # equality with the rebuilt trace leaves no other field set,
            # and a str or None is never equal to a bool
            return None in xs and trace == ConjugacyTrace("coords", *xs)
    return False
