"""Certified strategies for the word and power problems in Q.

A strategy never guesses: definite verdicts carry certificates that
independent checkers validate, and anything past the strategy's reach
comes back Unknown.  Exactness (the claim that Yes and No together
cover all inputs) holds for the abelian strategy when the presentation
is certifiably abelian, and for the greedy rewriting strategy under a
verified metric small cancellation condition, which the empty
presentation of a free group passes vacuously.
"""

from __future__ import annotations

from typing import NamedTuple

from .abelian import minimal_power, power_solutions
from .area import STATE_BUDGET, VanKampenProduct, area_bounded, evaluate_vk_product
from .decisions import Decision, PowerDecision, Verdict
from .presentation import Presentation
from .words import (
    free_reduce,
    inverse,
    mul,
    mul2,
    power,
    primitive_root,
    validate_word,
    word_letters,
)

ABELIAN = "abelian"
DEHN = "dehn"
SEARCH = "search"

KINDS = (ABELIAN, DEHN, SEARCH)

_POWER_SCAN_DEFAULT = 8
_ORDER_SCAN_DEFAULT = 16


class StrategySpec(NamedTuple):
    """A word-problem strategy paired with its honesty flags.

    exactness_claim means every query gets a definite answer; it is set
    only when the underlying theory guarantees it for the presentation
    at hand.
    """

    kind: str
    budget: int = STATE_BUDGET
    exactness_claim: bool = False


def make_strategy(pres: Presentation, kind: str, budget: int = STATE_BUDGET) -> StrategySpec:
    """Validate the budget and the strategy/presentation pairing; fix the exactness flag.

    The budget is a positive int, not a bool: True == 1, but a bool is no count.
    """
    if type(budget) is not int:
        raise TypeError(f"budget must be an int, not {type(budget).__name__}")
    if budget <= 0:
        raise ValueError("budget must be positive")
    exact = _exact(pres, kind)
    _check_pairing(pres, kind, exact)
    return StrategySpec(kind, budget, exact)


def _exact(pres: Presentation, kind: str) -> bool:
    """The one exactness rule: abelian iff certifiably abelian, dehn always, search never."""
    return kind == DEHN or (kind == ABELIAN and pres.certified_abelian)


def _check_pairing(pres: Presentation, kind: str, exact: bool) -> None:
    """The one rule for whether a strategy fits a presentation; ValueError if not."""
    if kind not in KINDS:
        raise ValueError(f"unknown strategy {kind!r}")
    if kind == DEHN and not check_c16(pres):
        raise ValueError("greedy rewriting requires the C'(1/6) condition")
    if exact != _exact(pres, kind):
        raise ValueError(f"exactness claim {exact} does not fit a {kind} strategy here")


def auto_strategy(pres: Presentation, budget: int = STATE_BUDGET) -> StrategySpec:
    """Pick the strongest strategy the presentation certifiably supports."""
    if pres.certified_abelian:
        return make_strategy(pres, ABELIAN, budget)
    if check_c16(pres):
        return make_strategy(pres, DEHN, budget)
    return make_strategy(pres, SEARCH, budget)


# --- metric small cancellation -------------------------------------------

def check_c16(pres: Presentation) -> bool:
    """Metric C'(1/6) test: every piece is shorter than a sixth of its relator.

    A piece is a common prefix of two distinct marked rotations; the
    condition fails as soon as six times a piece length reaches the
    length of either relator involved.
    """
    marks = pres.marked_rotations
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
    to that rotation alone, and at any position at most one head of
    pres.rewrite_rules matches.  The leftmost match of the pattern is the
    first a scan over all positions and rotations finds, and counting j
    down from len(s) until s[:j] fits there gives the longest match,
    also one cut short by the end of the word.

    Seams: the word and the inserted replacement are both reduced, so
    letters could cancel only where the replacement meets its
    neighbours.  A nonempty replacement inverse(s[j:]) cancels neither:
    a letter before the match that cancels its first letter is the last
    letter of s, so a match of a rotation of s would start one letter
    earlier, against leftmost-first; a letter after the match that
    cancels its last letter is s[j], so the match would be longer,
    against longest-first.  When the whole of s goes, the letters before
    and after the match cancel against each other, found by index.
    Either way the rewritten word is built with one copy.

    Resume: let i be the number of letters before the match that
    survive the step, and L the longest relator.  Every window that
    starts before i - L + 1 ends by i, so it is unchanged and was
    already found not to match; the search resumes at max(0, i - L + 1)
    and still finds the leftmost match.

    Cost: every step shortens the word, and the search backs up at most
    L - 1 letters plus those cancelled, so a whole rewrite tries the
    pattern at O(L * |w|) positions.  The regular expression engine
    does that in C and follows one branch of the heads per letter; a
    step then compares at most L / 2 prefixes of s and copies the word
    once.  w itself is freely reduced here,
    once; this is the only reduction a dehn wp_decide makes.
    """
    if not check_c16(pres):
        raise ValueError("greedy rewriting requires the C'(1/6) condition")
    pattern, rules = pres.rewrite_rules
    longest = max(map(len, pres.relators), default=0)
    w = free_reduce(w)
    steps: list[tuple[int, tuple[int, int, int], int]] = []
    start = 0
    while (m := pattern.search(w, start)) is not None:
        i = m.start()
        mark, s, s_inv = rules[m.group()]
        j = len(s)
        while not w.startswith(s[:j], i):  # stops by the head, which matched
            j -= 1
        steps.append((i, mark, j))
        e = i + j
        if j == len(s):
            n = len(w)
            while i > 0 and e < n and w[i - 1] == w[e].swapcase():
                i -= 1
                e += 1
        w = w[:i] + s_inv[: len(s) - j] + w[e:]  # inverse(s[j:])
        start = max(0, i - longest + 1)
    return w, tuple(steps)


def dehn_greedy(w: str, pres: Presentation) -> str:
    """Terminal word of the greedy rewrite; empty iff w = 1 in Q under C'(1/6)."""
    return dehn_greedy_trace(w, pres)[0]


def replay_dehn_trace(w: str, steps, pres: Presentation) -> str:
    """Re-apply a recorded greedy trace, validating every step.

    w is freely reduced once; after that each step is two seam-only
    products (mul2), whatever the trace says: the word stays reduced and
    the replacement inverse(s[j:]) is part of a reduced rotation, so
    letters can cancel only where it meets its neighbours.  So a step
    copies the word, as in dehn_greedy_trace, instead of reducing the
    whole of it again.
    """
    marks = pres.rotation_by_mark
    w = free_reduce(w)
    for pos, mark, j in steps:
        # w[-1:] and w[True:] would slice too, and (False, True, 0) == (0, 1, 0)
        if not (type(pos) is int and 0 <= pos and type(j) is int
                and all(type(x) is int for x in mark)):
            raise ValueError(f"step {(pos, mark, j)!r} is no index, mark and length")
        s = marks[mark]
        if not (len(s) // 2 < j <= len(s)):
            raise ValueError(f"step length {j} out of range for {s!r}")
        if w[pos : pos + j] != s[:j]:
            raise ValueError(f"step does not match the word at position {pos}")
        w = mul2(mul2(w[:pos], inverse(s[j:])), w[pos + j :])
    return w


# --- decisions ------------------------------------------------------------

def wp_decide(w: str, pres: Presentation, strat: StrategySpec) -> Decision:
    """Decide whether w represents the identity in Q.

    Yes/No always carry certificates; a non-exact strategy returns
    Unknown where its theory cannot speak.  w is validated here and
    freely reduced at most once, by the strategy that needs it: the
    greedy rewrite and area search reduce their input, and the abelian
    strategy reads w's exponent vector, which free reduction does not
    change.
    """
    _check_pairing(pres, strat.kind, strat.exactness_claim)
    validate_word(w, pres.generators)

    if strat.kind == ABELIAN:
        if any(pres.abelian_model.residues(w)):
            return Decision(Verdict.NO, ("abelian",))
        if strat.exactness_claim:
            return Decision(Verdict.YES, ("abelian",))
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


def normal_form(w: str, pres: Presentation, strat: StrategySpec) -> str:
    """A reduced word equal to w in Q, read off the exact strategy's theory.

    The terminal word of the greedy rewrite under dehn, and the abelian
    normal form under an exact abelian strategy.  Each is empty iff
    w = 1 in Q; the abelian one, and the dehn one without relators (the
    free reduction), are also the same for all words equal in Q.
    """
    _check_pairing(pres, strat.kind, strat.exactness_claim)
    validate_word(w, pres.generators)
    if not strat.exactness_claim:
        raise ValueError("a normal form needs an exact strategy")
    if strat.kind == DEHN:
        return dehn_greedy(w, pres)
    return pres.abelian_model.normal_form(w)


def q_equal(u: str, v: str, pres: Presentation, strat: StrategySpec) -> Decision:
    """Decide u = v in Q via triviality of u*v^-1.

    u and v are validated here, so an error names the word at fault;
    the product u*v^-1 is reduced at most once, by the strategy that
    wp_decide hands it to.
    """
    validate_word(u, pres.generators)
    validate_word(v, pres.generators)
    return wp_decide(u + inverse(v), pres, strat)


def power_decide(w: str, u: str, pres: Presentation, strat: StrategySpec) -> PowerDecision:
    """Decide whether w = u^p in Q for some integer p, reporting minimal |p|.

    The scan order 0, +1, -1, +2, -2, ... makes the reported exponent
    the least in absolute value, ties to the positive one.  Every Yes
    has the certificate ("power", dec), dec a word-problem Yes for
    w * u^-p; the exponent itself is stored only in the decision's p.
    """
    _check_pairing(pres, strat.kind, strat.exactness_claim)
    validate_word(w, pres.generators)
    validate_word(u, pres.generators)
    w = free_reduce(w)
    u = free_reduce(u)

    if w == "":
        return _freely_trivial(0)

    if not pres.relators:  # a free group: compare primitive roots
        p = _free_power(w, u)
        if p is None:
            return PowerDecision(Verdict.NO, None, ("roots",))
        return _freely_trivial(p)

    if strat.kind == ABELIAN:
        model = pres.abelian_model
        sol = power_solutions(model, w, u)
        if sol is None:
            return PowerDecision(Verdict.NO, None, ("lattice",))
        if not strat.exactness_claim:
            return PowerDecision(Verdict.UNKNOWN, None, ("budget", "abelianization inconclusive"))
        p = minimal_power(sol)
        dec = q_equal(w, power(u, p), pres, strat)
        if not dec.yes:
            raise AssertionError("abelian power solution failed its own check")
        return PowerDecision(Verdict.YES, p, ("power", dec))

    return _power_by_scan(w, u, pres, strat)


def _free_power(w: str, u: str) -> int | None:
    """The p with w = u^p in F for reduced nonempty w, or None; u = 1 has none.

    In a free group w = u^p iff their primitive roots agree up to
    inversion and the exponent of u's root divides that of w's.
    """
    if u == "":
        return None
    rw = primitive_root(w)
    ru = primitive_root(u)
    if rw.exponent % ru.exponent or rw.root not in (ru.root, inverse(ru.root)):
        return None
    p = rw.exponent // ru.exponent
    return p if rw.root == ru.root else -p


def _freely_trivial(p: int) -> PowerDecision:
    """Yes, w = u^p, proved by the empty relator product: w * u^-p freely reduces to 1."""
    empty = Decision(Verdict.YES, ("product", VanKampenProduct(())))
    return PowerDecision(Verdict.YES, p, ("power", empty))


def _scan_order(limit: int):
    yield 0
    for k in range(1, limit + 1):
        yield k
        yield -k


def _power_by_scan(w, u, pres, strat) -> PowerDecision:
    """Power decision by direct exponent scan with sound No routes.

    No is reached through a non-commuting obstruction, through a
    trivial u with a nontrivial w, or through a certified finite order
    of u; everything else inconclusive is Unknown.  A trivial-u No
    carries the Yes decision for u and the No decision for w, an order
    No the Yes decision for u^k and the No decisions of the scan.  w and
    u come freely reduced from power_decide, so the commutator is built
    with seam-only products.
    """
    exact = strat.exactness_claim

    comm = wp_decide(mul2(mul2(mul2(w, u), inverse(w)), inverse(u)), pres, strat)
    if comm.no:
        return PowerDecision(Verdict.NO, None, ("commutator", comm))

    ut = wp_decide(u, pres, strat)
    if ut.yes:
        dw = wp_decide(w, pres, strat)
        if dw.yes:
            return PowerDecision(Verdict.YES, 0, ("power", dw))
        if dw.no:
            return PowerDecision(Verdict.NO, None, ("trivial-u", ut, dw))
        return PowerDecision(Verdict.UNKNOWN, None, ("budget", "undecided w with trivial u"))

    order = None
    if exact:
        for k in range(1, _ORDER_SCAN_DEFAULT + 1):
            dk = wp_decide(power(u, k), pres, strat)
            if dk.yes:
                order = k
                break

    limit = _POWER_SCAN_DEFAULT
    if order is not None:
        limit = max(limit, (order + 1) // 2 + 1)
    saw_unknown = False
    scanned = []
    for p in _scan_order(limit):
        dec = q_equal(w, power(u, p), pres, strat)
        if dec.yes:
            return PowerDecision(Verdict.YES, p, ("power", dec))
        if dec.unknown:
            saw_unknown = True
        scanned.append((p, dec))
        if order is not None and p >= (order + 1) // 2 and -p <= -(order // 2):
            break
    if order is not None and not saw_unknown:
        return PowerDecision(Verdict.NO, None, ("order", order, dk, tuple(scanned)))
    return PowerDecision(Verdict.UNKNOWN, None, ("budget", f"scanned |p| <= {limit}"))


# --- certificate checking -------------------------------------------------

def _spelled_in(pres: Presentation, *words: str) -> bool:
    """True when every letter of the words is a generator of pres or its inverse."""
    return word_letters(pres.generators).issuperset("".join(words))


def check_decision(dec: Decision, w: str, pres: Presentation) -> bool:
    """Independently validate a word-problem certificate against w.

    Each case matches one whole certificate shape together with the
    verdict it may back; any other decision is rejected, and so is
    every decision about a word outside the generators.  An Unknown
    passes only as ("budget", reason), the shape the engines give it.
    ("abelian",) is judged on w alone: a No when w's residues are not
    zero, a Yes when they are and Q is certifiably abelian.  A Dehn step
    must hold ints proper, not bools.
    """
    if not _spelled_in(pres, w):
        return False
    w = free_reduce(w)
    match dec:
        case Decision(Verdict.UNKNOWN, ("budget", str())):
            return True
        case Decision(Verdict.YES | Verdict.NO, ("abelian",)) if (
            dec.no or pres.certified_abelian  # zero residues prove w = 1 only then
        ):
            return dec.yes != any(pres.abelian_model.residues(w))
        case Decision(Verdict.YES | Verdict.NO, ("dehn", tuple(steps), str(terminal))):
            try:
                replayed = replay_dehn_trace(w, steps, pres)
            except (KeyError, TypeError, ValueError):  # a step names no rotation or does not fit
                return False
            if dec.yes:
                return replayed == terminal == ""
            # Greendlinger's lemma: under C'(1/6) a reduced word equal to 1 in Q
            # holds more than half of a rotated relator, so a head of a marked
            # rotation; the replayed word is reduced
            return (
                replayed == terminal != ""
                and check_c16(pres)
                and not any(s[: len(s) // 2 + 1] in terminal for s, _ in pres.marked_rotations)
            )
        case Decision(Verdict.YES, ("product", VanKampenProduct() as prod)):
            try:
                return evaluate_vk_product(prod, pres) == w
            except (TypeError, ValueError):  # a factor that is no conjugated relator
                return False
    return False


def check_power_decision(pd: PowerDecision, w: str, u: str, pres: Presentation) -> bool:
    """Independently validate a power-problem certificate against (w, u).

    As in check_decision, each case matches one whole certificate shape
    together with the verdict it may back; any other decision is rejected,
    and so is every decision about words outside the generators.  An
    Unknown passes only with exponent None and ("budget", reason).
    ("roots",) and ("lattice",) are judged on w and u alone: the first
    over a free group, where w is nontrivial and no power of u by their
    primitive roots, the second where w = u^p has no solution in the
    abelianization.  An exponent must be an int proper: True == 1, but a
    bool is no exponent.
    """
    if not _spelled_in(pres, w, u):
        return False
    w = free_reduce(w)
    u = free_reduce(u)
    match pd:
        case PowerDecision(Verdict.UNKNOWN, None, ("budget", str())):
            return True
        case PowerDecision(
            Verdict.YES, int(p), ("power", Decision(Verdict.YES) as inner)
        ) if type(p) is int:
            return check_decision(inner, mul(w, inverse(power(u, p))), pres)
        case PowerDecision(Verdict.NO, None, ("roots",)) if not pres.relators:
            return w != "" and _free_power(w, u) is None
        case PowerDecision(Verdict.NO, None, ("lattice",)):
            return power_solutions(pres.abelian_model, w, u) is None
        case PowerDecision(Verdict.NO, None, ("commutator", Decision(Verdict.NO) as comm)):
            return check_decision(comm, mul(w, u, inverse(w), inverse(u)), pres)
        case PowerDecision(
            Verdict.NO, None, ("trivial-u", Decision(Verdict.YES) as ut, Decision(Verdict.NO) as dw)
        ):
            return check_decision(ut, u, pres) and check_decision(dw, w, pres)
        case PowerDecision(
            Verdict.NO, None, ("order", int(k), Decision(Verdict.YES) as dk, tuple(scanned))
        ) if type(k) is int and k >= 1:
            # u^k = 1, so refuting one exponent per residue class mod k refutes them all
            refuted = set()
            for entry in scanned:
                match entry:
                    case (int(p), Decision(Verdict.NO) as dec) if type(p) is int and (
                        check_decision(dec, mul(w, inverse(power(u, p))), pres)
                    ):
                        refuted.add(p % k)
                    case _:
                        return False
            return len(refuted) == k and check_decision(dk, power(u, k), pres)
    return False
