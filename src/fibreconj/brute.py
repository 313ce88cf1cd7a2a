"""Brute-force reference oracles.

Area, conjugacy in P and primitive roots are recomputed from first
principles with this module's own small helpers, down to free reduction
and pair products, sharing no search or word arithmetic with the main
engines, so that agreement between the two routes carries evidential
weight.  brute_power is the exception: it scans exponents itself but
decides each candidate with the engine's q_equal, so it checks the
power engine's exponent scan and not its word problem.
These functions are meant for desk-scale inputs and tests, not
production use.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Iterator, NamedTuple

from .oracle import StrategySpec, q_equal
from .presentation import Presentation
from .subdirect import PairElement, SubdirectSetup

_FLIP = {c: c.swapcase() for c in "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"}


def _reduce(w: str) -> str:
    out: list[str] = []
    for c in w:
        if out and out[-1] == _FLIP[c]:
            out.pop()
        else:
            out.append(c)
    return "".join(out)


def _inv(w: str) -> str:
    return w[::-1].swapcase()


def _pair_product(*pairs) -> PairElement:
    return PairElement(*(_reduce("".join(p[i] for p in pairs)) for i in (0, 1)))


def _rotations(w: str) -> list[str]:
    return [w[k:] + w[:k] for k in range(len(w))] or [""]


def _relator_rotations(pres: Presentation) -> list[str]:
    out: list[str] = []
    for r in pres.relators:
        for base in (r, _inv(r)):
            for rot in _rotations(base):
                if rot not in out:
                    out.append(rot)
    return out


def brute_area(
    w: str,
    pres: Presentation,
    max_moves: int | None = None,
    max_states: int | None = None,
) -> int | None:
    """Area by breadth-first search over single relator insertions.

    Each move inserts some rotation of a relator or inverse relator at
    some position and freely reduces; the move count to reach the empty
    word is the area.  Returns None when the bound or budget runs out.
    """
    w = _reduce(w)
    if w == "":
        return 0
    inserts = _relator_rotations(pres)
    if not inserts:
        return None
    rotset = frozenset(inserts)

    def dies_in_one(v: str) -> bool:
        for k in range(len(v)):
            t = _reduce(v[k:] + v[:k])
            if _inv(t) in rotset:
                return True
        return False

    visited = {w}
    frontier = deque([w])
    depth = 0
    states = 1
    while frontier:
        depth += 1
        if max_moves is not None and depth > max_moves:
            return None
        nxt: deque[str] = deque()
        for v in frontier:
            if dies_in_one(v):
                return depth
        for v in frontier:
            for s in inserts:
                for k in range(len(v) + 1):
                    child = _reduce(v[:k] + s + v[k:])
                    if child in visited:
                        continue
                    visited.add(child)
                    states += 1
                    if max_states is not None and states > max_states:
                        return None
                    nxt.append(child)
        frontier = nxt
    return None


class BruteConjugacy(NamedTuple):
    """Result of the bounded conjugator search.

    status is FOUND (with a verified conjugator), ABSENT_WITHIN_BOUND
    (nothing in the searched ball, which decides nothing beyond it), or
    EXHAUSTED (the whole group was enumerated, a definite absence).
    """

    status: str
    conjugator: PairElement | None
    states: int


FOUND = "FOUND"
ABSENT_WITHIN_BOUND = "ABSENT_WITHIN_BOUND"
EXHAUSTED = "EXHAUSTED"


def _directions(setup: SubdirectSetup) -> list[PairElement]:
    dirs: list[PairElement] = []
    for g in setup.p_generators:
        dirs.append(PairElement(*g))
        dirs.append(PairElement(*map(_inv, g)))
    return dirs


def brute_p_conjugacy(
    U,
    V,
    setup: SubdirectSetup,
    max_radius: int = 4,
    max_states: int = 50_000,
) -> BruteConjugacy:
    """Search products of the P-generators for a conjugator of U to V.

    Purely free-group arithmetic: a candidate gamma is accepted exactly
    when gamma^-1 * U * gamma equals V coordinatewise after reduction.
    The ball of products of at most max_radius generator steps is
    complete for conjugators constructed from that many steps.
    """
    U = PairElement(_reduce(U[0]), _reduce(U[1]))
    V = PairElement(_reduce(V[0]), _reduce(V[1]))
    dirs = _directions(setup)

    def conjugates(g: PairElement) -> bool:
        for i in (0, 1):
            if _reduce(_inv(g[i]) + U[i] + g[i]) != V[i]:
                return False
        return True

    start = PairElement("", "")
    visited = {start}
    states = 1
    if conjugates(start):
        return BruteConjugacy(FOUND, start, states)
    frontier = [start]
    for _ in range(max_radius):
        nxt: list[PairElement] = []
        for g in frontier:
            for d in dirs:
                h = _pair_product(g, d)
                if h in visited:
                    continue
                visited.add(h)
                states += 1
                if conjugates(h):
                    return BruteConjugacy(FOUND, h, states)
                if states >= max_states:
                    return BruteConjugacy(ABSENT_WITHIN_BOUND, None, states)
                nxt.append(h)
        if not nxt:
            # the whole group was enumerated: a definite absence
            return BruteConjugacy(EXHAUSTED, None, states)
        frontier = nxt
    return BruteConjugacy(ABSENT_WITHIN_BOUND, None, states)


def brute_power(
    w: str,
    u: str,
    pres: Presentation,
    strat: StrategySpec,
    max_abs_p: int = 64,
) -> int | None:
    """Least-|p| solution of w = u^p in Q by direct scan, positive on ties.

    Every candidate exponent is checked through the supplied strategy's
    equality test; None means no solution within the scanned range.
    """
    seq = [0]
    for k in range(1, max_abs_p + 1):
        seq.append(k)
        seq.append(-k)
    for p in seq:
        up = u * p if p >= 0 else _inv(u) * (-p)
        if q_equal(w, _reduce(up), pres, strat).yes:
            return p
    return None


def _reduced_words_of_length(generators: str, n: int) -> Iterator[str]:
    letters = list(generators) + [g.upper() for g in generators]
    if n == 0:
        yield ""
        return
    stack = [""]
    while stack:
        w = stack.pop()
        if len(w) == n:
            yield w
            continue
        for c in letters:
            if w and w[-1] == _FLIP[c]:
                continue
            stack.append(w + c)


def brute_primitive_root(w: str) -> tuple[str, int]:
    """Maximal-exponent root by exhaustive candidate enumeration.

    Any w with w = z^e reduced has the literal shape t^-1 * k^e * t with
    k cyclically reduced, so scanning exponents downward over all (k, t)
    shapes that fit the length finds the primitive root.
    """
    w = _reduce(w)
    if w == "":
        raise ValueError("the empty word has no root decomposition")
    gens = sorted({c.lower() for c in w})
    alphabet = "".join(gens)
    n = len(w)
    for e in range(n, 1, -1):
        for tlen in range(0, (n - e) // 2 + 1):
            rem = n - 2 * tlen
            if rem % e:
                continue
            klen = rem // e
            if klen == 0:
                continue
            for t in _reduced_words_of_length(alphabet, tlen):
                ti = _inv(t)
                for k in _reduced_words_of_length(alphabet, klen):
                    if k[0] == _FLIP[k[-1]]:
                        continue
                    if ti + k * e + t == w:
                        return (ti + k + t, e)
    return (w, 1)


class RandomInstance(NamedTuple):
    """A seeded conjugacy test case.

    constructed marks instances built as an explicit conjugate, in which
    case conjugator records the pair used to build them.
    """

    pair_u: PairElement
    pair_v: PairElement
    constructed: bool
    conjugator: PairElement | None


MIX_RATIO = 0.5  # share of random_instances built as an explicit conjugate
CONJ_LEN = 4  # most P-generators in the conjugator of such an instance


def random_instances(
    setup: SubdirectSetup,
    seed: int,
    count: int,
    max_len: int = 6,
) -> Iterator[RandomInstance]:
    """Deterministic stream of conjugacy instances over P.

    Base pairs are random products of the P-generators, redrawn until
    both coordinates are short; a MIX_RATIO fraction of instances gets a
    partner conjugated by a product of at most CONJ_LEN P-generators,
    the rest an independent draw.
    """
    rng = random.Random(seed)
    dirs = _directions(setup)

    def draw_pair() -> PairElement:
        while True:
            length = rng.randint(1, 2 * max_len)
            g = PairElement("", "")
            for _ in range(length):
                g = _pair_product(g, rng.choice(dirs))
            if len(g.first) <= max_len and len(g.second) <= max_len:
                return g

    for i in range(count):
        flag = int((i + 1) * MIX_RATIO) - int(i * MIX_RATIO) == 1
        u = draw_pair()
        if flag:
            g = PairElement("", "")
            for _ in range(rng.randint(0, CONJ_LEN)):
                g = _pair_product(g, rng.choice(dirs))
            v = _pair_product(PairElement(*map(_inv, g)), u, g)
            yield RandomInstance(u, v, True, g)
        else:
            yield RandomInstance(u, draw_pair(), False, None)
