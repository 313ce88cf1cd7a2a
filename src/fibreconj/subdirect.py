"""The fibre product P of two copies of F over Q, and conjugacy inside it.

P consists of the pairs (a, b) of free-group words whose images in Q
agree.  Membership therefore reduces to one word-problem query, and
conjugacy of pairs reduces to finitely many power-problem queries
against the primitive roots of the coordinates.  Every positive answer
ships with an explicit conjugator that is verified by exact free-group
arithmetic before being returned.
"""

from __future__ import annotations

from typing import NamedTuple

from .decisions import Decision, PowerDecision, Verdict, Verdicted
from .oracle import StrategySpec, check_power_decision, power_decide, wp_decide
from .presentation import Presentation
from .words import (
    _free_conjugator,
    _primitive_root,
    free_reduce,
    inverse,
    mul,
    mul2,
    power,
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


class SubdirectSetup(NamedTuple):
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
    """(a, b) lies in P iff a and b agree in Q.

    Each coordinate is validated once, so an error names the word at
    fault; the product a * b^-1 is reduced by the strategy wp_decide
    hands it to, so the coordinates are not reduced here.
    """
    a, b = pair
    validate_word(a, setup.pres.generators)
    validate_word(b, setup.pres.generators)
    return wp_decide(a + inverse(b), setup.pres, strat)


class ConjugacyWords(NamedTuple):
    """Free conjugators x_i (None if u_i, v_i are not conjugate in F) and,
    on the main branch only, w = x1 * x2^-1 and the roots u_i = z_i^e_i."""

    x1: str | None
    x2: str | None
    w: str | None = None
    z1: str | None = None
    e1: int | None = None
    z2: str | None = None
    e2: int | None = None

    def target(self, j: int) -> str:
        """z2^j * w^-1, the word of main-branch query j."""
        return mul2(power(self.z2, j), inverse(self.w))

    def conjugator(self, j: int, p: int) -> PairElement:
        """(z1^p * w * x2, z2^j * x2): the main-branch conjugator for the pair (j, p).

        Every factor is reduced, so the products cancel only at the seams.
        """
        return PairElement(
            mul2(mul2(power(self.z1, p), self.w), self.x2), mul2(power(self.z2, j), self.x2)
        )


def conjugacy_words(U: PairElement, V: PairElement) -> ConjugacyWords:
    """The words p_conjugacy works with, derived from reduced U and V,
    which are not reduced again."""
    x1 = _free_conjugator(U[0], V[0])
    x2 = _free_conjugator(U[1], V[1])
    if x1 is None or x2 is None or U[0] == "" or U[1] == "":
        return ConjugacyWords(x1, x2)
    r1, r2 = _primitive_root(U[0]), _primitive_root(U[1])
    return ConjugacyWords(x1, x2, mul2(x1, inverse(x2)), r1.root, r1.exponent, r2.root, r2.exponent)


class ConjugacyTrace(NamedTuple):
    """What p_conjugacy decided; conjugacy_words re-derives its words from U and V.

    branch is one of "coords", "deg-first", "deg-second", "main".  For
    the main branch, entry j of queries is the decision whether
    z2^j * w^-1 is a power of z1 in Q.  A Yes ends the scan, so only the
    last entry can be one, and its (j, p) rebuilds the conjugator.
    """

    branch: str
    queries: tuple[PowerDecision, ...] = ()


class _ConjugacyResultFields(NamedTuple):
    verdict: Verdict
    conjugator: PairElement | None
    trace: ConjugacyTrace


class ConjugacyResult(_ConjugacyResultFields, Verdicted):
    __slots__ = ()


def _conjugate2(g: str, u: str) -> str:
    """g^-1 u g for reduced g and u, cancelling only at the seams."""
    return mul2(mul2(inverse(g), u), g)


def _finish(U, V, gamma, trace, setup, strat) -> ConjugacyResult:
    """Exact verification of a candidate conjugator, then membership.

    U, V and gamma are freely reduced, so the check needs no reduction
    past the seams, and gamma is built from U and V, which are
    validated, so membership asks wp_decide directly.
    """
    if (_conjugate2(gamma[0], U[0]), _conjugate2(gamma[1], U[1])) != V:
        raise AssertionError("constructed conjugator fails exact verification")
    member = wp_decide(gamma[0] + inverse(gamma[1]), setup.pres, strat)
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
    are products of reduced words, cancelling only at the seams, and
    each membership asks wp_decide about a * b^-1 directly.
    """
    U = validate_pair(U, setup.pres.generators)
    V = validate_pair(V, setup.pres.generators)
    for name, (a, b) in (("U", U), ("V", V)):
        member = wp_decide(a + inverse(b), setup.pres, strat)
        if member.no:
            raise ValueError(f"{name} is not an element of P")
        if member.unknown:
            return ConjugacyResult(Verdict.UNKNOWN, None, ConjugacyTrace("coords"))

    words = conjugacy_words(U, V)
    if words.x1 is None or words.x2 is None:
        return ConjugacyResult(Verdict.NO, None, ConjugacyTrace("coords"))
    # the coordinates are conjugate, so U and V have the same trivial ones
    if U[0] == "":
        gamma = PairElement(words.x2, words.x2)
        return _finish(U, V, gamma, ConjugacyTrace("deg-first"), setup, strat)
    if U[1] == "":
        gamma = PairElement(words.x1, words.x1)
        return _finish(U, V, gamma, ConjugacyTrace("deg-second"), setup, strat)

    # Main branch: both coordinates nontrivial.  Any conjugator in F x F
    # has the form (z1^p * x1, z2^q * x2) with z_i the primitive root of
    # u_i; such a pair lies in P iff z1^p * w = z2^q in Q, w = x1 * x2^-1.
    # Since u2 = z2^e2 equals u1 = z1^e1 in Q, shifting q by e2 shifts p
    # by e1, so scanning q = j in [0, e2) loses nothing.
    queries: list[PowerDecision] = []
    saw_unknown = False
    for j in range(words.e2):
        pd = power_decide(words.target(j), words.z1, setup.pres, strat)
        queries.append(pd)
        if pd.yes:
            trace = ConjugacyTrace("main", tuple(queries))
            return _finish(U, V, words.conjugator(j, pd.p), trace, setup, strat)
        if pd.unknown:
            saw_unknown = True

    trace = ConjugacyTrace("main", tuple(queries))
    return ConjugacyResult(Verdict.UNKNOWN if saw_unknown else Verdict.NO, None, trace)


def _replays_query(pd, j: int, verdicts, words: ConjugacyWords, pres) -> bool:
    """check_power_decision accepts pd for main-branch query j, about
    z2^j * w^-1 and z1, and pd has one of these verdicts."""
    return check_power_decision(pd, words.target(j), words.z1, pres) and pd.verdict in verdicts


def _bare(trace, branch: str) -> bool:
    """trace is ConjugacyTrace(branch), matched by class: a plain tuple
    equals the record of its fields, but is no trace."""
    match trace:
        case ConjugacyTrace(b, tuple(())):
            return b == branch
    return False


def replay_trace(result: ConjugacyResult, U, V, setup: SubdirectSetup, strat: StrategySpec) -> bool:
    """Re-derive a conjugacy result from U and V, matching the whole result.

    Its words and its branch come from U and V, never from the result.
    A Yes replays when its conjugator, over the generators, takes U to V
    inside P.  On the main branch its queries must be k = 0 ... j for
    some j < e2: each k < j a No or an Unknown, as the scan went on past
    them, and query j a Yes whose exponent p rebuilds the conjugator
    with j.  A main No replays when its queries are k = 0 ... e2-1, each
    a No: q matters only mod e2 in the conjugators (z1^p * x1, z2^q * x2).
    Query k is the PowerDecision at index k, and check_power_decision
    must accept it for z2^k * w^-1 and z1.  A coords No replays when
    some u_i is not conjugate to v_i in F.  Returns False on any other
    result.
    """
    U = validate_pair(U, setup.pres.generators)
    V = validate_pair(V, setup.pres.generators)
    letters = word_letters(setup.pres.generators)
    words = conjugacy_words(U, V)
    main = words.w is not None
    match result:
        case ConjugacyResult(Verdict.YES, PairElement(str(g1), str(g2)) as gamma, trace) if (
            letters.issuperset(g1 + g2)
            and (mul(inverse(g1), U[0], g1), mul(inverse(g2), U[1], g2)) == V
            and p_membership(gamma, setup, strat).yes
        ):
            if not main:  # the coordinates are conjugate, so U has a trivial one
                return _bare(trace, "deg-first" if U[0] == "" else "deg-second")
            match trace:
                case ConjugacyTrace("main", tuple((*missed, won))) if len(missed) < words.e2:
                    j = len(missed)
                    missed_verdicts = (Verdict.NO, Verdict.UNKNOWN)
                    return (
                        all(
                            _replays_query(pd, k, missed_verdicts, words, setup.pres)
                            for k, pd in enumerate(missed)
                        )
                        and _replays_query(won, j, (Verdict.YES,), words, setup.pres)
                        and words.conjugator(j, won.p) == gamma
                    )
        case ConjugacyResult(Verdict.NO, None, ConjugacyTrace("main", tuple(queries))) if main:
            return len(queries) == words.e2 and all(
                _replays_query(pd, j, (Verdict.NO,), words, setup.pres)
                for j, pd in enumerate(queries)
            )
        case ConjugacyResult(Verdict.NO, None, trace) if _bare(trace, "coords"):
            return words.x1 is None or words.x2 is None
    return False
