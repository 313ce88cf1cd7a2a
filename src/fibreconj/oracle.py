"""Certified strategies for the word and power problems in Q.

A strategy never guesses: definite verdicts carry certificates that
independent checkers validate, and anything past the strategy's reach
comes back Unknown.  Exactness (the claim that Yes and No together
cover all inputs) holds for the free strategy, for the abelian strategy
when the presentation is certifiably abelian, and for the greedy
rewriting strategy under a verified metric small cancellation condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .abelian import AbelianModel, abelian_model, minimal_power, power_solutions
from .area import Presentation, VanKampenProduct, area_bounded, evaluate_vk_product
from .decisions import Decision, PowerDecision, Verdict
from .words import (
    cyclic_core,
    free_reduce,
    inverse,
    mul,
    mul2,
    power,
    primitive_root,
    rotate,
    validate_word,
)

FREE = "free"
ABELIAN = "abelian"
DEHN = "dehn"
SEARCH = "search"

KINDS = (FREE, ABELIAN, DEHN, SEARCH)

_POWER_SCAN_DEFAULT = 8
_ORDER_SCAN_DEFAULT = 16


@dataclass(frozen=True)
class StrategySpec:
    """A word-problem strategy paired with its honesty flags.

    exactness_claim means every query gets a definite answer; it is set
    only when the underlying theory guarantees it for the presentation
    at hand.
    """

    kind: str
    budget: int = 1_000_000
    exactness_claim: bool = False


def make_strategy(pres: Presentation, kind: str, budget: int = 1_000_000) -> StrategySpec:
    """Validate the strategy/presentation pairing and fix the exactness flag."""
    if kind not in KINDS:
        raise ValueError(f"unknown strategy {kind!r}")
    if budget <= 0:
        raise ValueError("budget must be positive")
    if kind == FREE:
        if pres.relators:
            raise ValueError("free strategy requires an empty relator set")
        return StrategySpec(FREE, budget, True)
    if kind == ABELIAN:
        return StrategySpec(ABELIAN, budget, certified_abelian(pres))
    if kind == DEHN:
        if not check_c16(pres):
            raise ValueError("greedy rewriting requires the C'(1/6) condition")
        return StrategySpec(DEHN, budget, True)
    return StrategySpec(SEARCH, budget, False)


def auto_strategy(pres: Presentation, budget: int = 1_000_000) -> StrategySpec:
    """Pick the strongest strategy the presentation certifiably supports."""
    if not pres.relators:
        return make_strategy(pres, FREE, budget)
    if certified_abelian(pres):
        return make_strategy(pres, ABELIAN, budget)
    if check_c16(pres):
        return make_strategy(pres, DEHN, budget)
    return make_strategy(pres, SEARCH, budget)


@lru_cache(maxsize=64)
def certified_abelian(pres: Presentation) -> bool:
    """True when the quotient is provably abelian by syntactic inspection.

    Generators with a single-letter relator (after erasing previously
    killed generators) die in Q; the check succeeds when at most one
    generator survives, or when every pairwise commutator of survivors
    appears among the erased relators up to rotation and inversion.
    """
    killed: set[str] = set()

    def erase(r: str) -> str:
        return free_reduce("".join(c for c in r if c.lower() not in killed))

    changed = True
    while changed:
        changed = False
        for r in pres.relators:
            e = erase(r)
            if len(e) == 1 and e.lower() not in killed:
                killed.add(e.lower())
                changed = True
    effective = [g for g in pres.generators if g not in killed]
    if len(effective) <= 1:
        return True
    rotset: set[str] = set()
    for r in pres.relators:
        e = cyclic_core(erase(r))
        if not e:
            continue
        for base in (e, inverse(e)):
            for t in range(len(base)):
                rotset.add(rotate(base, t))
    for i, x in enumerate(effective):
        for y in effective[i + 1 :]:
            if x + y + x.upper() + y.upper() not in rotset:
                return False
    return True


# --- metric small cancellation -------------------------------------------

@lru_cache(maxsize=64)
def _marked_rotations(pres: Presentation) -> tuple[tuple[str, tuple[int, int, int]], ...]:
    """All rotations of all relators and inverses, tagged by origin.

    Tags are (relator index, sign, offset); rotations with equal words
    but different tags stay distinct, which is what makes proper-power
    relators fail the piece condition.
    """
    out = []
    for i, r in enumerate(pres.relators):
        for sign, base in ((1, r), (-1, inverse(r))):
            for t in range(len(base)):
                out.append((rotate(base, t), (i, sign, t)))
    return tuple(out)


def check_c16(pres: Presentation) -> bool:
    """Metric C'(1/6) test: every piece is shorter than a sixth of its relator.

    A piece is a common prefix of two distinct marked rotations; the
    condition fails as soon as six times a piece length reaches the
    length of either relator involved.
    """
    marks = _marked_rotations(pres)
    for i in range(len(marks)):
        wi, _ = marks[i]
        for j in range(i + 1, len(marks)):
            wj, _ = marks[j]
            lcp = 0
            for a, b in zip(wi, wj):
                if a != b:
                    break
                lcp += 1
            if lcp and (6 * lcp >= len(wi) or 6 * lcp >= len(wj)):
                return False
    return True


@lru_cache(maxsize=64)
def _half_index(pres: Presentation) -> tuple[dict, tuple[int, ...]]:
    """Index of the rewritable prefixes: (prefix -> (length, mark, replacement), lengths).

    Every prefix s[:j] longer than half of a marked rotation s maps to
    its length j, the mark of s and the replacement inverse(s[j:]).
    lengths lists the distinct prefix lengths, longest first.  Only
    built for C'(1/6) presentations, where no two rotations share such
    a prefix (see dehn_greedy_trace).
    """
    index = {}
    for s, mark in _marked_rotations(pres):
        for j in range(len(s) // 2 + 1, len(s) + 1):
            index[s[:j]] = (j, mark, inverse(s[j:]))
    return index, tuple(sorted({j for j, _, _ in index.values()}, reverse=True))


def dehn_greedy_trace(w: str, pres: Presentation):
    """Greedy shortening rewrite; returns (terminal word, replayable steps).

    Whenever the word contains more than half of a marked rotation s,
    that prefix s[:j] is replaced by the inverse of the complement
    s[j:], which is strictly shorter, and the result is freely reduced.
    The rewrite is leftmost-first and longest match first, so the trace
    is deterministic.  Each step records (position, mark, matched
    length).

    Uniqueness: a common prefix of two distinct marked rotations is a
    piece, and under C'(1/6) a piece is shorter than a sixth of its
    relator.  So a prefix longer than half of a marked rotation belongs
    to that rotation alone, and at any position at most one rotation
    matches.  One dictionary lookup per candidate length, longest
    first, therefore finds the match a scan over all rotations finds.

    Resume: the word and the inserted replacement are both reduced, so
    letters cancel only at the two seams of the rewrite.  Let c be the
    first position the rewrite changed and L the longest relator.  Every
    window that starts before c - L + 1 ends by c, so it is unchanged
    and was already found not to match; the scan resumes at
    max(0, c - L + 1) and still finds the leftmost match.

    Cost: every step shortens the word, and the scan backs up at most
    L - 1 letters plus those cancelled, so a whole rewrite looks at
    O(L * |w|) positions, each with at most L dictionary lookups.  Each
    step also copies the word once.
    """
    if not check_c16(pres):
        raise ValueError("greedy rewriting requires the C'(1/6) condition")
    index, lengths = _half_index(pres)
    w = free_reduce(w)
    steps: list[tuple[int, tuple[int, int, int], int]] = []
    start = 0
    while True:
        hit = None
        n = len(w)
        for pos in range(start, n):
            for j in lengths:
                # a window past the end is cut short; then it is the
                # longest window at pos, and a hit has its own length
                hit = index.get(w[pos : pos + j])
                if hit is not None:
                    break
            if hit is not None:
                break
        if hit is None:
            return w, tuple(steps)
        j, mark, piece = hit
        left = mul2(w[:pos], piece)
        w = mul2(left, w[pos + j :])
        steps.append((pos, mark, j))
        cut_left = (pos + len(piece) - len(left)) // 2
        cut_right = (len(left) + n - pos - j - len(w)) // 2
        changed = min(pos - cut_left, len(left) - cut_right)
        start = max(0, changed - lengths[0] + 1)


def dehn_greedy(w: str, pres: Presentation) -> str:
    """Terminal word of the greedy rewrite; empty iff w = 1 in Q under C'(1/6)."""
    return dehn_greedy_trace(w, pres)[0]


def replay_dehn_trace(w: str, steps, pres: Presentation) -> str:
    """Re-apply a recorded greedy trace, validating every step."""
    marks = dict()
    for s, mark in _marked_rotations(pres):
        marks[mark] = s
    w = free_reduce(w)
    for pos, mark, j in steps:
        s = marks[mark]
        if not (len(s) // 2 < j <= len(s)):
            raise ValueError(f"step length {j} out of range for {s!r}")
        if w[pos : pos + j] != s[:j]:
            raise ValueError(f"step does not match the word at position {pos}")
        w = free_reduce(w[:pos] + inverse(s[j:]) + w[pos + j :])
    return w


# --- decisions ------------------------------------------------------------

@lru_cache(maxsize=64)
def _model(pres: Presentation) -> AbelianModel:
    return abelian_model(pres.generators, pres.relators)


def _check_pairing(pres: Presentation, strat: StrategySpec) -> None:
    if strat.kind not in KINDS:
        raise ValueError(f"unknown strategy {strat.kind!r}")
    if strat.kind == FREE and pres.relators:
        raise ValueError("free strategy requires an empty relator set")
    if strat.kind == DEHN and not check_c16(pres):
        raise ValueError("greedy rewriting requires the C'(1/6) condition")


def wp_decide(w: str, pres: Presentation, strat: StrategySpec) -> Decision:
    """Decide whether w represents the identity in Q.

    Yes/No always carry certificates; a non-exact strategy returns
    Unknown where its theory cannot speak.
    """
    _check_pairing(pres, strat)
    validate_word(w, pres.generators)
    w = free_reduce(w)

    if strat.kind == FREE:
        verdict = Verdict.YES if w == "" else Verdict.NO
        return Decision(verdict, ("free", w))

    if strat.kind == ABELIAN:
        model = _model(pres)
        residues = model.residues(w)
        if any(residues):
            return Decision(Verdict.NO, ("abelian", residues, model.moduli))
        if strat.exactness_claim:
            return Decision(Verdict.YES, ("abelian", residues, model.moduli))
        return Decision(Verdict.UNKNOWN, ("budget", "abelianization inconclusive"))

    if strat.kind == DEHN:
        terminal, steps = dehn_greedy_trace(w, pres)
        verdict = Verdict.YES if terminal == "" else Verdict.NO
        return Decision(verdict, ("dehn", steps, terminal))

    # bounded search: sound Yes via an explicit product, otherwise Unknown
    res = area_bounded(w, None, pres, state_budget=strat.budget)
    if res.value is not None:
        return Decision(Verdict.YES, ("product", res.witness))
    return Decision(Verdict.UNKNOWN, ("budget", f"{res.states} states searched"))


def q_equal(u: str, v: str, pres: Presentation, strat: StrategySpec) -> Decision:
    """Decide u = v in Q via triviality of u*v^-1."""
    validate_word(u, pres.generators)
    validate_word(v, pres.generators)
    return wp_decide(mul(u, inverse(v)), pres, strat)


def power_decide(
    w: str,
    u: str,
    pres: Presentation,
    strat: StrategySpec,
    power_bound: int | None = None,
) -> PowerDecision:
    """Decide whether w = u^p in Q for some integer p, reporting minimal |p|.

    The scan order 0, +1, -1, +2, -2, ... makes the reported exponent
    the least in absolute value, ties to the positive one.  power_bound,
    when supplied, must be a certified bound on that least |p|; it turns
    scan exhaustion into a definite No.
    """
    _check_pairing(pres, strat)
    validate_word(w, pres.generators)
    validate_word(u, pres.generators)
    w = free_reduce(w)
    u = free_reduce(u)

    if w == "":
        return PowerDecision(Verdict.YES, 0, ("power", 0, wp_decide("", pres, strat)))

    if strat.kind == FREE:
        if u == "":
            return PowerDecision(Verdict.NO, None, ("roots", None))
        rw = primitive_root(w)
        ru = primitive_root(u)
        cert = ("roots", (rw.root, rw.exponent, ru.root, ru.exponent))
        if rw.exponent % ru.exponent == 0:
            p = rw.exponent // ru.exponent
            if rw.root == ru.root:
                return PowerDecision(Verdict.YES, p, ("power", p, cert))
            if rw.root == inverse(ru.root):
                return PowerDecision(Verdict.YES, -p, ("power", -p, cert))
        return PowerDecision(Verdict.NO, None, cert)

    if strat.kind == ABELIAN:
        model = _model(pres)
        sol = power_solutions(model, w, u)
        if sol is None:
            return PowerDecision(
                Verdict.NO, None, ("lattice", model.coords(w), model.coords(u), model.moduli)
            )
        if not strat.exactness_claim:
            return PowerDecision(Verdict.UNKNOWN, None, ("budget", "abelianization inconclusive"))
        p = minimal_power(sol)
        dec = q_equal(w, power(u, p), pres, strat)
        if not dec.yes:
            raise AssertionError("abelian power solution failed its own check")
        return PowerDecision(Verdict.YES, p, ("power", p, dec))

    return _power_by_scan(w, u, pres, strat, power_bound)


def _scan_order(limit: int):
    yield 0
    for k in range(1, limit + 1):
        yield k
        yield -k


def _power_by_scan(w, u, pres, strat, power_bound) -> PowerDecision:
    """Power decision by direct exponent scan with sound No routes.

    No is reached through a non-commuting obstruction, through a
    certified finite order of u, or through exhaustion of a supplied
    certified exponent bound; everything else inconclusive is Unknown.
    An order No carries the Yes decision for u^k and the No decisions
    of the scan, an exhaustion No the No decisions of the scan.
    """
    exact = strat.exactness_claim

    comm = wp_decide(mul(w, u, inverse(w), inverse(u)), pres, strat)
    if comm.no:
        return PowerDecision(Verdict.NO, None, ("commutator", comm))

    ut = wp_decide(u, pres, strat)
    if ut.yes:
        dw = wp_decide(w, pres, strat)
        if dw.yes:
            return PowerDecision(Verdict.YES, 0, ("power", 0, dw))
        if dw.no:
            return PowerDecision(Verdict.NO, None, ("trivial-u", dw))
        return PowerDecision(Verdict.UNKNOWN, None, ("budget", "undecided w with trivial u"))

    order = None
    if exact:
        for k in range(1, _ORDER_SCAN_DEFAULT + 1):
            dk = wp_decide(power(u, k), pres, strat)
            if dk.yes:
                order = k
                break

    limit = power_bound if power_bound is not None else _POWER_SCAN_DEFAULT
    if order is not None:
        limit = max(limit, (order + 1) // 2 + 1)
    saw_unknown = False
    scanned = []
    for p in _scan_order(limit):
        dec = q_equal(w, power(u, p), pres, strat)
        if dec.yes:
            return PowerDecision(Verdict.YES, p, ("power", p, dec))
        if dec.unknown:
            saw_unknown = True
        scanned.append((p, dec))
        if order is not None and p >= (order + 1) // 2 and -p <= -(order // 2):
            break
    if not saw_unknown:
        if order is not None:
            return PowerDecision(Verdict.NO, None, ("order", order, dk, tuple(scanned)))
        if power_bound is not None:
            return PowerDecision(Verdict.NO, None, ("exhausted", power_bound, tuple(scanned)))
    return PowerDecision(Verdict.UNKNOWN, None, ("budget", f"scanned |p| <= {limit}"))


# --- certificate checking -------------------------------------------------

def check_decision(dec: Decision, w: str, pres: Presentation) -> bool:
    """Independently validate a word-problem certificate against w."""
    w = free_reduce(w)
    cert = dec.certificate
    if dec.unknown:
        return True
    kind = cert[0]
    if kind == "free":
        return cert[1] == w and (dec.yes == (w == ""))
    if kind == "abelian":
        # zero residues prove w = 1 only when Q is certifiably abelian
        if dec.yes and not certified_abelian(pres):
            return False
        model = _model(pres)
        residues = model.residues(w)
        return residues == cert[1] and (dec.yes == (not any(residues)))
    if kind == "dehn":
        try:
            terminal = replay_dehn_trace(w, cert[1], pres)
        except (KeyError, ValueError):  # a step names no rotation or does not match
            return False
        return terminal == cert[2] and (dec.yes == (terminal == ""))
    if kind == "product":
        prod = cert[1]
        return (
            dec.yes
            and isinstance(prod, VanKampenProduct)
            and evaluate_vk_product(prod, pres) == w
        )
    return False


def _refuted_exponents(scanned, w: str, u: str, pres: Presentation) -> set[int] | None:
    """Exponents p whose recorded No for w = u^p checks out; None if any fails."""
    refuted = set()
    for p, dec in scanned:
        if not (isinstance(dec, Decision) and dec.no):
            return None
        if not check_decision(dec, mul(w, inverse(power(u, p))), pres):
            return None
        refuted.add(p)
    return refuted


def check_power_decision(pd: PowerDecision, w: str, u: str, pres: Presentation) -> bool:
    """Independently validate a power-problem certificate against (w, u)."""
    w = free_reduce(w)
    u = free_reduce(u)
    cert = pd.certificate
    if pd.unknown:
        return True
    kind = cert[0]
    if kind == "power":
        p = cert[1]
        inner = cert[2]
        if p != pd.p or not pd.yes:
            return False
        if isinstance(inner, Decision):
            word = mul(w, inverse(power(u, p)))
            return inner.yes and check_decision(inner, word, pres)
        # free strategy: exponent arithmetic reduces to plain cancellation
        return not pres.relators and mul(w, inverse(power(u, p))) == ""
    if kind == "roots":
        if pres.relators or not pd.no:
            return False
        if cert[1] is None:
            return u == "" and w != ""
        rw = primitive_root(w)
        ru = primitive_root(u)
        if (rw.root, rw.exponent, ru.root, ru.exponent) != cert[1]:
            return False
        fits = rw.exponent % ru.exponent == 0 and rw.root in (ru.root, inverse(ru.root))
        return not fits
    if kind == "lattice":
        model = _model(pres)
        return pd.no and power_solutions(model, w, u) is None
    if kind == "commutator":
        inner = cert[1]
        return pd.no and inner.no and check_decision(inner, mul(w, u, inverse(w), inverse(u)), pres)
    if kind == "order":
        if not pd.no or len(cert) != 4:
            return False
        k, dk, scanned = cert[1:]
        refuted = _refuted_exponents(scanned, w, u, pres)
        # u^k = 1, so refuting one exponent per residue class mod k refutes them all
        return (
            isinstance(k, int)
            and k >= 1
            and isinstance(dk, Decision)
            and dk.yes
            and check_decision(dk, power(u, k), pres)
            and refuted is not None
            and {p % k for p in refuted} == set(range(k))
        )
    if kind == "exhausted":
        if not pd.no or len(cert) != 3:
            return False
        bound, scanned = cert[1:]
        refuted = _refuted_exponents(scanned, w, u, pres)
        return (
            isinstance(bound, int)
            and refuted is not None
            and refuted >= set(range(-bound, bound + 1))
        )
    if kind == "trivial-u":
        inner = cert[1]
        return pd.no and inner.no and check_decision(inner, w, pres)
    return False
