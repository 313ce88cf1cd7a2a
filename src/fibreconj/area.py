"""Relator-product machinery for a finite presentation.

A word w is trivial in Q = <X | R> exactly when it equals a product of
conjugated relators theta_i^-1 r_i theta_i in the free group; the least
number of factors is the area of w.  This module evaluates such
products, searches for minimal ones with noise control, and computes the
Dehn function and its rel-cyclics variant on desk-scale inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from . import words
from .decisions import OracleUnknown
from .words import (
    cyclic_reduce,
    exponent_vector,
    free_reduce,
    inverse,
    is_cyclically_reduced,
    is_reduced,
    mul,
    power,
    reduced_words,
    rotate,
    validate_word,
)


@dataclass(frozen=True)
class Presentation:
    """Finite presentation <generators | relators> of a quotient Q.

    Generators are distinct lowercase letters in declaration order.
    Relators must be nonempty, freely and cyclically reduced words over
    the generators.
    """

    generators: str
    relators: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.generators:
            raise ValueError("presentation needs at least one generator")
        for g in self.generators:
            if not (g.isascii() and g.isalpha() and g.islower()):
                raise ValueError(f"generator {g!r} is not a lowercase letter")
        if len(set(self.generators)) != len(self.generators):
            raise ValueError(f"duplicate generator in {self.generators!r}")
        for r in self.relators:
            validate_word(r, self.generators)
            if not r:
                raise ValueError("empty relator")
            if not is_reduced(r):
                raise ValueError(f"relator {r!r} is not freely reduced")
            if not is_cyclically_reduced(r):
                raise ValueError(f"relator {r!r} is not cyclically reduced")

    @property
    def max_relator_length(self) -> int:
        if not self.relators:
            raise ValueError("no relators: maximal relator length undefined")
        return max(len(r) for r in self.relators)


@dataclass(frozen=True)
class VanKampenProduct:
    """A product of conjugated relators: factors are (theta, relator) pairs."""

    factors: tuple[tuple[str, str], ...]

    @property
    def area(self) -> int:
        return len(self.factors)

    @property
    def noise(self) -> int:
        """Sum of |theta_i * theta_{i+1}^-1| with empty words at both ends."""
        thetas = [""] + [t for t, _ in self.factors] + [""]
        return sum(len(mul(thetas[i], inverse(thetas[i + 1]))) for i in range(len(thetas) - 1))


def evaluate_vk_product(prod: VanKampenProduct, pres: Presentation) -> str:
    """Reduced value of the product; every r_i must be a relator or inverse."""
    allowed = set(pres.relators) | {inverse(r) for r in pres.relators}
    parts: list[str] = []
    for theta, r in prod.factors:
        validate_word(theta, pres.generators)
        if r not in allowed:
            raise ValueError(f"{r!r} is not a relator or inverse relator")
        parts += [inverse(theta), r, theta]
    return mul(*parts)


@dataclass(frozen=True)
class AreaResult:
    value: int | None
    witness: VanKampenProduct | None
    bound_exhausted: bool
    states: int = 0
    budget_exhausted: bool = False


# --- insertion tables ----------------------------------------------------
#
# The search moves insert a cyclic rotation of a relator (or inverse
# relator) into the current word and freely reduce.  m moves from w down
# to the empty word peel back to a product of m conjugated relators, so
# breadth-first search depth equals area.

@lru_cache(maxsize=64)
def _tables(pres: Presentation):
    """(insertable strings, factor forms, relator length set, L1 step).

    factor forms maps each insertable string z to the ways of writing
    z = g^-1 * r0 * g with r0 an exact relator or inverse relator; they
    drive the conversion of peeled moves into (theta, relator) factors.
    """
    strings: list[str] = []
    forms: dict[str, list[tuple[str, str]]] = {}
    for r in pres.relators:
        for base in (r, inverse(r)):
            for t in range(len(base)):
                z = rotate(base, t)
                if z not in forms:
                    forms[z] = []
                    strings.append(z)
                for g in (base[:t], inverse(base[t:])):
                    if (base, g) not in forms[z]:
                        forms[z].append((base, g))
    lengths = frozenset(len(r) for r in pres.relators)
    step = max((sum(map(abs, exponent_vector(r, pres.generators))) for r in pres.relators), default=0)
    return tuple(strings), forms, lengths, step


def _finishing_moves(v: str, tables) -> list[tuple[str, str]]:
    """All (prefix, inserted string) pairs that cancel v to the empty word.

    Inserting s after prefix x of v = x*y kills v iff s equals the
    inverse of the reduced rotation y*x, which must then be an
    insertable string.
    """
    strings, forms, lengths, _ = tables
    mul2 = words.mul2  # see area_bounded
    out = []
    sset = forms.keys()
    for k in range(len(v) + 1):
        t = mul2(v[k:], v[:k])
        if len(t) in lengths:
            s = inverse(t)
            if s in sset:
                out.append((v[:k], s))
    return out


_PARENT_CAP = 4
_PATH_CAP = 256
_FINISHER_CAP = 16


def _l1(v: str, gens: str) -> int:
    return sum(map(abs, exponent_vector(v, gens)))


def area_bounded(
    w: str,
    maxM: int | None,
    pres: Presentation,
    state_budget: int | None = None,
) -> AreaResult:
    """Least-area product for w among products with at most maxM factors.

    Runs a breadth-first search over reduced words where one step
    inserts a rotated relator; search depth equals product area, so the
    first level that reaches the empty word is minimal.  The returned
    witness is checked to evaluate back to w and to meet the noise bound
    area*L + |w|.  maxM = None searches without an area cap (the caller
    must know w is trivial in Q).  A state budget, when given, turns an
    oversized search into a budget_exhausted result.
    """
    if maxM is not None and maxM < 0:
        raise ValueError("maxM must be nonnegative")
    validate_word(w, pres.generators)
    w = free_reduce(w)
    if w == "":
        return AreaResult(0, VanKampenProduct(()), False)
    if not pres.relators or maxM == 0:
        return AreaResult(None, None, True)

    tables = _tables(pres)
    strings, forms, lengths, step = tables
    gens = pres.generators
    # Read off the module, not imported by name: it runs for every child
    # state, and perfbench's tracer wraps the words functions a module
    # imports, which would record millions of spans per search.
    mul2 = words.mul2
    cap = maxM if maxM is not None else 10_000

    if step and _l1(w, gens) > cap * step:
        return AreaResult(None, None, True)

    dist = {w: 0}
    parents: dict[str, list[tuple[str, int, str]]] = {w: []}
    frontier = [w]
    level = 0
    while True:
        finishers: list[tuple[str, list[tuple[str, str]]]] = []
        for v in frontier:
            opts = _finishing_moves(v, tables)
            if opts:
                finishers.append((v, opts))
                if len(finishers) >= _FINISHER_CAP:
                    break
        if finishers:
            m = level + 1
            witness = _assemble_witness(w, m, finishers, parents, forms, pres)
            return AreaResult(m, witness, False, states=len(dist))
        if level + 1 >= cap:
            return AreaResult(None, None, True, states=len(dist))
        nxt: list[str] = []
        for v in frontier:
            for k in range(len(v) + 1):
                head = v[:k]
                tail = v[k:]
                for s in strings:
                    child = mul2(mul2(head, s), tail)
                    d = dist.get(child)
                    if d is None:
                        if step and _l1(child, gens) > (cap - level - 1) * step:
                            continue
                        dist[child] = level + 1
                        parents[child] = [(v, k, s)]
                        nxt.append(child)
                    elif d == level + 1:
                        plist = parents[child]
                        if len(plist) < _PARENT_CAP:
                            plist.append((v, k, s))
        if state_budget is not None and len(dist) > state_budget:
            return AreaResult(None, None, False, states=len(dist), budget_exhausted=True)
        if not nxt:
            return AreaResult(None, None, True, states=len(dist))
        frontier = nxt
        level += 1


def _paths_to(node: str, parents, budget: list[int]):
    """Yield move lists leading from the BFS root to node, newest move last."""
    if not parents[node]:
        yield []
        return
    for prev, k, s in parents[node]:
        if budget[0] <= 0:
            return
        for head in _paths_to(prev, parents, budget):
            if budget[0] <= 0:
                return
            yield head + [(prev, k, s)]


def _factor_options(u: str, s: str, forms) -> list[tuple[str, str]]:
    """(theta, relator) choices for the factor peeled from inserting s after u."""
    z = inverse(s)
    return [(mul(g, inverse(u)), base) for base, g in forms[z]]


def _best_noise_assignment(option_rows: list[list[tuple[str, str]]]):
    """Dynamic program over per-factor (theta, relator) choices minimizing noise."""
    m = len(option_rows)
    costs = [[len(t) for t, _ in option_rows[0]]]
    back: list[list[int]] = [[-1] * len(option_rows[0])]
    for i in range(1, m):
        row = []
        brow = []
        for theta, _ in option_rows[i]:
            best = None
            arg = -1
            for j, (pt, _) in enumerate(option_rows[i - 1]):
                c = costs[i - 1][j] + len(mul(pt, inverse(theta)))
                if best is None or c < best:
                    best = c
                    arg = j
            row.append(best)
            brow.append(arg)
        costs.append(row)
        back.append(brow)
    best = None
    arg = -1
    for j, (theta, _) in enumerate(option_rows[m - 1]):
        c = costs[m - 1][j] + len(theta)
        if best is None or c < best:
            best = c
            arg = j
    choice = [0] * m
    choice[m - 1] = arg
    for i in range(m - 1, 0, -1):
        choice[i - 1] = back[i][choice[i]]
    factors = tuple(option_rows[i][choice[i]] for i in range(m))
    return best, factors


def _assemble_witness(w, m, finishers, parents, forms, pres) -> VanKampenProduct:
    """Turn shortest insertion paths into a noise-compliant factor product.

    Each path yields one factor per move; per-factor conjugator choices
    are optimized by dynamic programming, and paths are tried in
    deterministic order until one meets the noise bound m*L + |w|.
    """
    bound = m * pres.max_relator_length + len(w)
    best_seen = None
    budget = [_PATH_CAP]
    for v_end, opts in finishers:
        for head in _paths_to(v_end, parents, budget):
            for u_last, s_last in opts:
                # build per-factor option rows in product order
                rows = []
                for prev, k, s in head:
                    rows.append(_factor_options(prev[:k], s, forms))
                rows.append(_factor_options(u_last, s_last, forms))
                noise, factors = _best_noise_assignment(rows)
                if best_seen is None or noise < best_seen:
                    best_seen = noise
                if noise <= bound:
                    prod = VanKampenProduct(factors)
                    got = evaluate_vk_product(prod, pres)
                    if got != w:
                        raise AssertionError(
                            f"witness evaluates to {got!r}, expected {w!r}"
                        )
                    return prod
    raise AssertionError(
        f"no noise-compliant witness found: best noise {best_seen}, bound {bound}"
    )


def _class_key(w: str) -> str:
    """Canonical representative of the conjugacy-and-inversion class of w.

    Area is invariant under cyclic rotation, inversion, and stripping
    the cyclic conjugator, so search results are shared per class.
    """
    core, _ = cyclic_reduce(w)
    alt = inverse(core)
    cands = [rotate(core, k) for k in range(max(1, len(core)))]
    cands += [rotate(alt, k) for k in range(max(1, len(alt)))]
    return min(cands)


def dehn_function(n: int, pres: Presentation, wp) -> int:
    """Largest area among words of length at most n that are trivial in Q.

    wp is a callable word -> Decision deciding triviality; it must be
    definite on every candidate (an Unknown raises OracleUnknown).  Area
    search escalates without a factor cap, which terminates because only
    certified-trivial words are searched.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    cache: dict[str, int] = {}
    best = 0
    for w in reduced_words(pres.generators, n):
        dec = wp(w)
        if dec.unknown:
            raise OracleUnknown(f"word problem oracle undecided on {w!r}")
        if not dec.yes:
            continue
        key = _class_key(w)
        if key not in cache:
            res = area_bounded(key, None, pres)
            if res.value is None:
                raise AssertionError(f"no product found for certified-trivial {key!r}")
            cache[key] = res.value
        best = max(best, cache[key])
    return best


def rel_cyclics_dehn(n: int, pres: Presentation, pp, wp) -> int:
    """Rel-cyclics Dehn function at n.

    Ranges over reduced pairs (w, u) with |w| + |u| <= n, keeps those
    with w in the cyclic subgroup generated by u in Q, and maximizes
    Area(w * u^p) + |p|*n over the exponents p of least absolute value
    with w = u^-p in Q.  pp is a power oracle (w, u) -> PowerDecision,
    wp a triviality oracle; both must be definite on the instance.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    cache: dict[str, int] = {}

    def area_of(v: str) -> int:
        key = _class_key(v)
        if key not in cache:
            res = area_bounded(key, None, pres)
            if res.value is None:
                raise AssertionError(f"no product found for certified-trivial {key!r}")
            cache[key] = res.value
        return cache[key]

    best = 0
    words_w = list(reduced_words(pres.generators, n))
    for w in words_w:
        for u in reduced_words(pres.generators, n - len(w)):
            pd = pp(w, u)
            if pd.unknown:
                raise OracleUnknown(f"power oracle undecided on ({w!r}, {u!r})")
            if pd.no:
                continue
            p0 = pd.p
            # the definition takes p with w = u^-p; the oracle found
            # w = u^p0, so p = -p0 qualifies, and p = +p0 qualifies too
            # when w = u^-p0 also holds in Q
            best = max(best, area_of(mul(w, power(u, -p0))) + abs(p0) * n)
            if p0:
                other = mul(w, power(u, p0))
                dec = wp(other)
                if dec.unknown:
                    raise OracleUnknown(f"word problem oracle undecided on {other!r}")
                if dec.yes:
                    best = max(best, area_of(other) + abs(p0) * n)
    return best
