"""The three workloads: seeded inputs, the queries run on them, and the checks of their outputs.

Inputs are made here from the seed with the benchmark's own generators,
so that no change to the package can change them.  Each workload draws a
fixed number of inputs from each stratum (a class of inputs of like
cost, defined by properties the benchmark computes itself), so that
every seed yields a batch of the same make-up and the same cost.  The
package receives only the generated words.

Every check runs after the timed passes and judges an output with
freegroup.py's arithmetic, with the package's certificate checkers, or
with its brute-force oracles, never with the engine that produced it.
"""

from __future__ import annotations

import math
import random
from typing import Any, Callable, NamedTuple

import freegroup as fg


class Query(NamedTuple):
    group: str                            # stratum, "quotient/kind/detail"
    run: Callable[[], Any]
    decided: Callable[[Any], bool]        # False marks a failed operation
    check: Callable[[Any], str | None]    # error text, None when the output is right


class Workload(NamedTuple):
    name: str
    tail_pct: int    # highest percentile of the batch with at least ten queries beyond it
    build: Callable  # (fb, quotients, seed) -> list[Query]


def _rng(seed: int, *labels) -> random.Random:
    """One generator per stratum, so a change of one quota leaves the others' inputs alone."""
    return random.Random("/".join(map(str, (seed,) + labels)))


def tail_rank(n: int, pct: int) -> int:
    """1-based nearest rank of the pct-th percentile among n samples."""
    return math.ceil(pct * n / 100)


# --- area_z2 ---------------------------------------------------------------

Z2_RELATOR = "abAB"
# (word length, area) -> words per batch.  The counts put the median
# inside the cyclically reduced area-2 words of length 10 and the tail
# (p80) inside the area-3 words of length 10, not on a boundary between
# strata of unlike cost, where it would jump.  Area-2 words of length 10
# are drawn separately by whether they are cyclically reduced: those
# that are not take about a tenth longer, so a median drawn from both
# would follow the seed's mix of the two.  Area-4 words are the 16
# boundary words of the 2x2 square, drawn separately by where they
# start (a corner or the middle of a side: 37,201 or 37,397 search
# states).  Area-4 words of length 10 are left out: over their 26
# symmetry classes the search costs 0.79-1.71 s, so a few of them per
# batch would make the batch cost depend on the seed.
AREA_STRATA = {
    (4, 1): 2, (6, 1): 2, (8, 1): 2, (10, 1): 2,
    (6, 2): 6, (8, 2): 7,
    (8, 3): 5, (10, 3): 11,
}
AREA2_LEN10 = {True: 9, False: 3}  # cyclically reduced -> words per batch
SQUARES_PER_START = 1
DEHN_NS = (4, 5, 6, 7)


def trivial_z2_words(max_len: int) -> dict[tuple[int, int], list[str]]:
    """All nonempty reduced words of length <= max_len trivial in Z^2, keyed by (length, area)."""
    out: dict[tuple[int, int], list[str]] = {}
    step = {"a": (1, 0), "A": (-1, 0), "b": (0, 1), "B": (0, -1)}

    def extend(w: str, x: int, y: int) -> None:
        if w and x == 0 and y == 0:
            out.setdefault((len(w), fg.winding_area(w)), []).append(w)
        room = max_len - len(w)
        for c, (dx, dy) in step.items():
            if (w and w[-1] == c.swapcase()) or abs(x + dx) + abs(y + dy) > room - 1:
                continue
            extend(w + c, x + dx, y + dy)

    extend("", 0, 0)
    return out


def _check_area(w: str, area: int):
    allowed = (Z2_RELATOR, fg.inv(Z2_RELATOR))

    def check(res) -> str | None:
        if res.value != area:
            return f"area_bounded({w}) = {res.value}, winding numbers give {area}"
        factors = res.witness.factors
        if len(factors) != area:
            return f"{w}: witness has {len(factors)} factors for area {area}"
        if any(r not in allowed for _, r in factors):
            return f"{w}: witness factor is not a conjugate of abAB or its inverse"
        if fg.mul(*(fg.inv(t) + r + t for t, r in factors)) != w:
            return f"{w}: witness does not multiply out to the word"
        if fg.noise(factors) > area * len(Z2_RELATOR) + len(w):
            return f"{w}: witness noise {fg.noise(factors)} over the bound"
        return None

    return check


def build_area_z2(fb, quotients, seed: int) -> list[Query]:
    q = quotients["z2"]
    pres, strat = q.pres, q.strat
    pool = trivial_z2_words(10)
    words = []
    for (n, area), count in AREA_STRATA.items():
        picks = _rng(seed, "area", n, area).sample(pool[(n, area)], count)
        words += [(f"z2/area{area}/len{n}", w, area) for w in picks]
    for cyclic, count in AREA2_LEN10.items():
        shape = [w for w in pool[(10, 2)] if (w[0] != w[-1].swapcase()) == cyclic]
        picks = _rng(seed, "area", 10, 2, cyclic).sample(shape, count)
        words += [(f"z2/area2/len10/{'cyclic' if cyclic else 'noncyclic'}", w, 2) for w in picks]
    for corner in (True, False):
        shape = [w for w in pool[(8, 4)] if (w[0].lower() != w[-1].lower()) == corner]
        picks = _rng(seed, "area", 8, 4, corner).sample(shape, SQUARES_PER_START)
        words += [(f"z2/area4/len8/{'corner' if corner else 'side'}", w, 4) for w in picks]

    queries = [
        Query(group, lambda w=w: fb.area_bounded(w, None, pres),
              lambda res: res.value is not None, _check_area(w, area))
        for group, w, area in words
    ]
    for n in DEHN_NS:
        expect = (n // 2) ** 2 // 4
        queries.append(Query(
            f"z2/dehn/n{n}",
            lambda n=n: fb.dehn_function(n, pres, lambda w: fb.wp_decide(w, pres, strat)),
            lambda value: isinstance(value, int),
            lambda value, n=n, expect=expect: None if value == expect
            else f"dehn_function({n}) = {value}, expected {expect}",
        ))
    return queries


# --- wp_genus2 -------------------------------------------------------------

# (word length, words of each kind per batch); the kinds are relator
# products and random words, the latter half plain, half commutators.
# The counts put the median inside the random words of length 300 and
# the tail (p90) inside the words of length 3000.
WP_STRATA = ((30, 8), (100, 9), (300, 10), (1000, 13), (3000, 8), (10000, 2))
THETA_MAX = 8


def relator_product(rng, generators: str, relator: str, n: int) -> str:
    """Reduced product of conjugates theta^-1 r^(+-1) theta, grown until it has n letters."""
    out: list[str] = []
    while len(out) < n:
        theta = fg.random_reduced(rng, generators, rng.randint(0, THETA_MAX))
        r = relator if rng.random() < 0.5 else fg.inv(relator)
        t = rng.randrange(len(r))
        for c in fg.mul(fg.inv(theta), r[t:] + r[:t], theta):
            if out and out[-1] == c.swapcase():
                out.pop()
            else:
                out.append(c)
    return "".join(out)


def dehn_reduced_commutator(rng, generators: str, n: int, k: int, halves) -> str:
    """x y x^-1 y^-1 of n letters, reduced and free of more than half of any relator."""
    while True:
        x = fg.random_reduced(rng, generators, n // 4, k, halves)
        y = fg.random_reduced(rng, generators, n // 2 - n // 4, k, halves, prefix=x)
        w = x + y + fg.inv(x) + fg.inv(y)
        if fg.reduce(w) == w and not fg.has_half_relator(w, k, halves):
            return w


def _check_wp(fb, pres, w: str, expect_yes: bool, k: int, halves):
    def check(dec) -> str | None:
        if dec.yes != expect_yes:
            return f"word of {len(w)} letters: got {dec.verdict}, expected {'YES' if expect_yes else 'NO'}"
        if dec.no:
            terminal = dec.certificate[2]  # ("dehn", steps, terminal word)
            if not terminal or fg.reduce(terminal) != terminal:
                return f"word of {len(w)} letters: NO with terminal word {terminal!r}"
            if fg.has_half_relator(terminal, k, halves):
                return f"word of {len(w)} letters: terminal word holds more than half a relator"
        if not fb.check_decision(dec, w, pres):
            return f"word of {len(w)} letters: certificate does not replay"
        return None

    return check


def build_wp_genus2(fb, quotients, seed: int) -> list[Query]:
    q = quotients["genus2"]
    pres, strat = q.pres, q.strat
    gens, relator = pres.generators, pres.relators[0]
    k, halves = fg.relator_halves(pres.relators)
    words = []
    for n, count in WP_STRATA:
        rng = _rng(seed, "wp", n, "product")
        words += [(f"genus2/product/len{n}", relator_product(rng, gens, relator, n), True)
                  for _ in range(count)]
        # random words avoid more than half of any relator, so Greendlinger's
        # lemma makes them nontrivial and each costs one scan of the word
        rng = _rng(seed, "wp", n, "random")
        words += [(f"genus2/random/len{n}", fg.random_reduced(rng, gens, n, k, halves), False)
                  for _ in range(count - count // 2)]
        rng = _rng(seed, "wp", n, "commutator")
        words += [(f"genus2/commutator/len{n}", dehn_reduced_commutator(rng, gens, n, k, halves), False)
                  for _ in range(count // 2)]
    return [
        Query(group, lambda w=w: fb.wp_decide(w, pres, strat),
              lambda dec: not dec.unknown, _check_wp(fb, pres, w, expect, k, halves))
        for group, w, expect in words
    ]


# --- fibre_p ---------------------------------------------------------------

MAX_LEN, CONJ_LEN = 6, 4   # as in brute.random_instances
DRAW_CAP = 200_000

# Images in the abelian quotients; two words agree in Q iff their images agree.
ABELIAN_IMAGE = {
    "z2": lambda w: (w.count("a") - w.count("A"), w.count("b") - w.count("B")),
    "z3": lambda w: ((w.count("a") - w.count("A")) % 3,),
    "zxz3": lambda w: ((w.count("a") - w.count("A")) % 3, w.count("b") - w.count("B")),
}


def _zxz3_min_len(w: str) -> int:
    """Length of the shortest word with the image of w in Z x Z/3."""
    r, b = ABELIAN_IMAGE["zxz3"](w)
    return min(r, 3 - r) + abs(b)


MIN_REP_LEN = {"z2": lambda w: sum(map(abs, ABELIAN_IMAGE["z2"](w))), "zxz3": _zxz3_min_len}

# (instance kind, class) -> instances per batch.  Genus-2 classes follow
# the cost of p_conjugacy: "coords" instances are not conjugate in F x F;
# "same" ones have equal coordinate conjugators, so the first power query
# asks about the trivial word; "twisted<L>" ones have distinct coordinate
# conjugators and a root of length L, so the power query scans powers of
# that root.
ABELIAN_QUOTAS = {("constructed", "any"): 15, ("independent", "any"): 15}
GENUS2_QUOTAS = {
    ("independent", "coords"): 40,
    ("constructed", "same"): 15,
    ("constructed", "twisted1"): 10,
    ("constructed", "twisted2"): 10,
    ("constructed", "twisted3"): 15,
}
# minimal representative length -> power_avoid inputs per batch
PERTURB_QUOTAS = {0: 1, 1: 1, 2: 2, 3: 2, 4: 2, 5: 2}
# Inputs power_avoid is run on, per quotient.  In Z x Z/3 the kernel
# witness is aaa, so a word whose image is a or a^-1 only ever gets
# perturbed to a power of a and power_avoid raises KMaxExhausted; in Z/3
# that holds for every nontrivial word.  Those inputs are left out.
PERTURB_INPUTS = {
    "z2": lambda w: True,
    "zxz3": lambda w: ABELIAN_IMAGE["zxz3"](w)[1] != 0 or ABELIAN_IMAGE["zxz3"](w)[0] == 0,
}


def p_directions(pres) -> list[tuple[str, str]]:
    """The canonical generators of P and their inverses."""
    gens = [(g, g) for g in pres.generators]
    gens += [(r, "") for r in pres.relators] + [("", r) for r in pres.relators]
    return gens + [(fg.inv(a), fg.inv(b)) for a, b in gens]


def _product(rng, dirs, steps: int) -> tuple[str, str]:
    a = b = ""
    for _ in range(steps):
        da, db = rng.choice(dirs)
        a, b = fg.mul(a, da), fg.mul(b, db)
    return a, b


def draw_instance(rng, dirs, constructed: bool):
    """(U, V, conjugator or None), following brute.random_instances' recipe."""
    def draw_pair():
        while True:
            pair = _product(rng, dirs, rng.randint(1, 2 * MAX_LEN))
            if len(pair[0]) <= MAX_LEN and len(pair[1]) <= MAX_LEN:
                return pair

    u = draw_pair()
    if not constructed:
        return u, draw_pair(), None
    g = _product(rng, dirs, rng.randint(0, CONJ_LEN))
    v = (fg.mul(fg.inv(g[0]), u[0], g[0]), fg.mul(fg.inv(g[1]), u[1], g[1]))
    return u, v, g


def genus2_class(u, v) -> str:
    x1, x2 = fg.conjugator(u[0], v[0]), fg.conjugator(u[1], v[1])
    if x1 is None or x2 is None:
        return "coords"
    if not u[0] or not u[1]:
        return "degenerate"
    if fg.root(u[1])[1] != 1:
        return "root-power"
    if x1 == x2:
        return "same"
    return f"twisted{len(fg.root(u[0])[0])}"


def _draw_quotas(rng, dirs, quotas, classify):
    """Draw instances until every (kind, class) quota is full, listed in quota order; extra draws are dropped."""
    need = dict(quotas)
    drawn: dict[tuple[str, str], list] = {key: [] for key in quotas}
    for _ in range(DRAW_CAP):
        if not any(need.values()):
            return [(key, u, v) for key, pairs in drawn.items() for u, v in pairs]
        kinds = [kind for (kind, _), left in need.items() if left]
        constructed = rng.choice(sorted(set(kinds))) == "constructed"
        u, v, _ = draw_instance(rng, dirs, constructed)
        key = ("constructed" if constructed else "independent", classify(u, v))
        if need.get(key):
            need[key] -= 1
            drawn[key].append((u, v))
    raise RuntimeError(f"quotas {need} not filled in {DRAW_CAP} draws")


def _in_p(fb, q, gamma) -> bool:
    """gamma's coordinates agree in Q: by images for abelian Q, else by a checked certificate."""
    if q.name in ABELIAN_IMAGE:
        image = ABELIAN_IMAGE[q.name]
        return image(gamma[0]) == image(gamma[1])
    word = fg.mul(gamma[0], fg.inv(gamma[1]))
    dec = fb.wp_decide(word, q.pres, q.strat)
    return dec.yes and fb.check_decision(dec, word, q.pres)


def _check_conj(fb, q, u, v, constructed: bool):
    def check(res) -> str | None:
        label = f"{q.name} {u} ~ {v}"
        if constructed and not res.yes:
            return f"{label}: built as conjugates, got {res.verdict}"
        if res.yes:
            gamma = res.conjugator
            for i in (0, 1):
                if fg.mul(fg.inv(gamma[i]), u[i], gamma[i]) != fg.reduce(v[i]):
                    return f"{label}: conjugator {gamma} fails coordinate {i}"
            if not _in_p(fb, q, gamma):
                return f"{label}: conjugator {gamma} is not in P"
            if not fb.replay_trace(res, u, v, q.setup, q.strat):
                return f"{label}: trace does not replay"
        elif fb.brute_p_conjugacy(u, v, q.setup).status == "FOUND":
            return f"{label}: NO, but brute force finds a conjugator"
        return None

    return check


def _check_perturb(q, w: str):
    image = ABELIAN_IMAGE[q.name]

    def check(res) -> str | None:
        if image(res.word) != image(w):
            return f"{q.name} power_avoid({w}) = {res.word} moved the image in Q"
        if fg.is_proper_power(res.word):
            return f"{q.name} power_avoid({w}) = {res.word} is a proper power"
        if res.perturbed and not res.word:
            return f"{q.name} power_avoid({w}) perturbed to the empty word"
        return None

    return check


def build_fibre_p(fb, quotients, seed: int) -> list[Query]:
    queries = []
    for name, q in quotients.items():
        dirs = p_directions(q.pres)
        rng = _rng(seed, "fibre", name, "conj")
        if name == "genus2":
            drawn = _draw_quotas(rng, dirs, GENUS2_QUOTAS, genus2_class)
        else:
            drawn = _draw_quotas(rng, dirs, ABELIAN_QUOTAS, lambda u, v: "any")
        for (kind, cls), u, v in drawn:
            queries.append(Query(
                f"{name}/conj/{kind}" + ("" if cls == "any" else f"/{cls}"),
                lambda u=u, v=v, q=q: fb.p_conjugacy(u, v, q.setup, q.strat),
                lambda res: not res.unknown,
                _check_conj(fb, q, u, v, kind == "constructed"),
            ))
    for name, wanted in PERTURB_INPUTS.items():
        q = quotients[name]
        rng = _rng(seed, "fibre", name, "perturb")
        drawn: dict[int, list[str]] = {m: [] for m in PERTURB_QUOTAS}
        while any(len(drawn[m]) < count for m, count in PERTURB_QUOTAS.items()):
            w = fg.random_reduced(rng, q.pres.generators, rng.randint(1, 8))
            m = MIN_REP_LEN[name](w)
            if m in drawn and len(drawn[m]) < PERTURB_QUOTAS[m] and wanted(w):
                drawn[m].append(w)
        for m, words in drawn.items():
            queries += [Query(
                f"{name}/perturb/min{m}",
                lambda w=w, q=q: fb.power_avoid(w, fb.PerturbConfig(), q.setup, q.strat),
                lambda res: res.perturbed or res.exceptional,
                _check_perturb(q, w),
            ) for w in words]
    return queries


WORKLOADS = {
    "area_z2": Workload("area_z2", 80, build_area_z2),
    "wp_genus2": Workload("wp_genus2", 90, build_wp_genus2),
    "fibre_p": Workload("fibre_p", 95, build_fibre_p),
}
