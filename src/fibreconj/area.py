"""Relator-product machinery for a finite presentation.

A word w is trivial in Q = <X | R> exactly when it equals a product of
conjugated relators theta_i^-1 r_i theta_i in the free group; the least
number of factors is the area of w.  This module evaluates such
products, searches for minimal ones with noise control, and computes the
Dehn function and its rel-cyclics variant on desk-scale inputs.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import NamedTuple

from . import words
from .decisions import OracleUnknown
from .presentation import Presentation, _Tables, _path, _winding
from .words import (
    _split_core,
    cyclic_reduce,
    exponent_vector,
    free_reduce,
    inverse,
    mul,
    power,
    reduced_words,
    rotate,
    validate_word,
)


# the default state budget of area_bounded, the search strategy and the CLI
STATE_BUDGET = 100_000


class VanKampenProduct(NamedTuple):
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


class AreaResult(NamedTuple):
    """Outcome of area_bounded.

    states counts the search states generated over all contours; a
    state that a later contour generates again counts again.
    """

    value: int | None
    witness: VanKampenProduct | None
    states: int = 0
    budget_exhausted: bool = False


def _bounds(v: str, tables: _Tables, gens: str):
    """Lower bounds on the area of v and of each child of v.

    Returns (bound for v, bound(k, s) for v with s inserted after its
    first k letters).  With step > 0, one move changes the exponent
    vector by at most step in L1 norm.  Otherwise, in each plane with
    T > 0, inserting s at the point p of v's path adds the winding
    function of s shifted by p (free reduction only removes
    backtracking), so one move changes sum |winding| by at most T; the
    child's sum is updated from v's table over the cells of s.  Each
    bound drops by at most 1 per move, so it is consistent, and it
    depends only on the child's reduced word, so area_bounded may read
    it before building the child.
    """
    if tables.step:
        step = tables.step
        ev = exponent_vector(v, gens)
        own = -(-sum(map(abs, ev)) // step)
        per_s = {
            s: -(-sum(abs(a + b) for a, b in zip(ev, vec)) // step)
            for s, vec in tables.vectors.items()
        }
        return own, lambda k, s: per_s[s]

    own = 0
    data = []
    for x, y, total, wind in tables.planes:
        path = _path(v, x, y)
        table = _winding(path)
        area = sum(map(abs, table.values()))
        own = max(own, -(-area // total))
        data.append((total, wind, table, area, path))

    def bound(k: int, s: str) -> int:
        h = 0
        for total, wind, table, area, path in data:
            px, py = path[k]
            for cx, cy, n in wind[s]:
                old = table.get((cx + px, cy + py), 0)
                area += abs(old + n) - abs(old)
            if area > h * total:
                h = -(-area // total)
        return h

    return own, bound


def _core_bound(v: str, forms) -> int:
    """1 if the nonempty reduced v conjugates a relator rotation, else 2.

    Area 1 means v = theta^-1 z theta freely with z an insertable
    string, that is, the cyclic core of v is a key of forms.
    """
    i, j = 0, len(v)
    while j - i >= 2 and v[i] == v[j - 1].swapcase():
        i += 1
        j -= 1
    return 1 if v[i:j] in forms else 2


def _finishing_moves(v: str, tables: _Tables):
    """Yield the (prefix, inserted string) pairs that cancel v to the empty word.

    Inserting s after prefix x of v = x*y kills v iff s equals the
    inverse of the reduced rotation y*x, which must then be an
    insertable string.  Pairs come in order of the prefix length, one
    rotation at a time, so a caller that stops at the first pair that
    serves builds no other rotation.
    """
    mul2 = words.mul2  # see area_bounded
    for k in range(len(v) + 1):
        t = mul2(v[k:], v[:k])
        if len(t) in tables.lengths:
            s = inverse(t)
            if s in tables.forms:
                yield v[:k], s


_FINISHER_CAP = 16


def area_bounded(
    w: str,
    maxM: int | None,
    pres: Presentation,
    state_budget: int | None = STATE_BUDGET,
) -> AreaResult:
    """Least-area product for w among products with at most maxM factors.

    Writes w = t^-1 * c * t with c cyclically reduced and runs an A*
    search from c over reduced words, where one step inserts a rotated
    relator and the empty word is the goal.  States leave a heap by
    f = g + h (g moves made, h a consistent lower bound on the moves
    left, see _bounds and _core_bound), larger g first on ties, so the
    first state popped that one move finishes (h = 1) fixes the area m.
    The search runs in at most two contours.  A child whose f would pass
    the contour is left out before its word is built.  The first
    contour is the root bound h0, so when that is the area (always on
    Z^2) no child past the optimal depth is built.  On it every state
    has f = h0, and a state's depth h0 - h is fixed by its word, so the
    search is a depth-first walk, and it builds children lazily (partial
    expansion, Yoshizumi-Miura-Ishida 2000): a popped state builds only
    its next child under the contour, in (k, s) order, and goes back on
    the heap with the index of the candidate after it and its child
    bound, so it is not bounded again when it pops.  The child has
    larger g, so it pops first.  States pop in the order whole
    expansions would pop them, and each candidate is scanned once, so
    the lazy walk builds a subset of their states, the same ones if no
    finisher is found.  If its heap empties without a finisher, the
    search restarts from c under the contour maxM (10,000 when None),
    expanding each popped state whole, so each is bounded once: there
    f varies, and the later children of a lazy state would pop out of
    A* order.  Any contour at or above m pops the states of f <= m in
    the same order, and none past them, so the contours do not change
    the area.  Nor do they change the first route to a state, which
    each state keeps as its one parent: the lazy walk only lacks routes
    that an unfinished scan has not reached yet, and they come later.
    One restart, not a contour raised step by step, keeps a search that
    never finishes (w nontrivial) at the cost of one capped search plus
    the first contour: a low contour builds few children per expansion,
    so stepping would spend far more expansions on the same state
    budget.
    The root's bounds are computed once and give h0 and its children's
    bounds on both contours.
    Every conjugator of the witness is right-multiplied by t.  The
    witness comes from the parents' path to a finisher (see
    _assemble_witness) and should meet the noise bound m*L + |w|:
    finishers with f = m are popped until one gives such a witness, up
    to _FINISHER_CAP of them; if none does, the least-noise one is
    returned.
    maxM = None searches without an area cap.  The state budget counts
    the states of every contour together; it is checked before every
    pop and turns an oversized search into a budget_exhausted result,
    at most one child past the budget on the first contour and one
    expansion's children under the restart.  Without it a search for a
    nontrivial word with zero exponent sum never ends, so only a caller
    that knows w is trivial in Q should pass None.
    """
    if maxM is not None and maxM < 0:
        raise ValueError("maxM must be nonnegative")
    validate_word(w, pres.generators)
    w = free_reduce(w)
    if w == "":
        return AreaResult(0, VanKampenProduct(()))
    if not pres.relators or maxM == 0:
        return AreaResult(None, None)

    tables = pres.area_tables
    strings, forms = tables.strings, tables.forms
    gens = pres.generators
    # Every relator has zero exponent sum, so no product reaches w.
    if not tables.step and any(exponent_vector(w, gens)):
        return AreaResult(None, None)
    # Read off the module, not imported by name: it runs for every child
    # state, and perfbench's tracer wraps the words functions a module
    # imports, which would record millions of spans per search.
    mul2 = words.mul2
    cap = maxM if maxM is not None else 10_000

    core, t = _split_core(w)
    root_h, root_bound = _bounds(core, tables, gens)
    h0 = max(root_h, _core_bound(core, forms))
    if h0 > cap:
        return AreaResult(None, None)

    n = len(strings)
    states = 0  # states generated by the contours searched so far
    for contour in sorted({h0, cap}):  # the root bound, then the cap
        # on the first contour every state has f = h0, and a popped
        # state builds one child, then waits for its next candidate
        lazy = contour == h0
        dist = {core: 0}
        # each state's first route: (previous state, k, s), None at the core
        parent: dict[str, tuple[str, int, str] | None] = {core: None}
        # (f, -g, seq, state, resume): resume is 0 for a state not yet
        # expanded, else (index k * n + j of its next candidate
        # (k, strings[j]), its child bound), so no state is bounded twice
        heap = [(h0, 0, 0, core, (0, root_bound))]
        seq = 1
        m = None
        tried = 0
        best = None  # least-noise (product, noise) of the finishers tried
        while heap:
            if state_budget is not None and states + len(dist) > state_budget:
                return AreaResult(None, None, states + len(dist), budget_exhausted=True)
            f, neg_g, order, v, resume = heappop(heap)
            g = -neg_g
            if dist[v] != g:
                continue  # superseded by a shorter route
            if m is not None and f > m:
                break
            if f == g + 1:
                # one move finishes v, and no open state has smaller f
                m = f
                limit = m * pres.max_relator_length + len(w)
                prod, noise = _assemble_witness(w, t, limit, v, parent, tables)
                if best is None or noise < best[1]:
                    best = prod, noise
                tried += 1
                if noise <= limit or tried == _FINISHER_CAP:
                    break
                continue
            g1 = g + 1
            if resume:
                start, bound = resume
            else:
                start, bound = 0, _bounds(v, tables, gens)[1]
            k0, j0 = divmod(start, n)
            row = strings[j0:]
            for k in range(k0, len(v) + 1):
                head = v[:k]
                tail = v[k:]
                for s in row:
                    h = bound(k, s)
                    # a child past the contour is left out before it is built
                    if g1 + h > contour:
                        continue
                    child = mul2(mul2(head, s), tail)
                    d = dist.get(child)
                    if d is not None and d <= g1:
                        continue
                    if h < 2:
                        h = _core_bound(child, forms)
                    if g1 + h > contour:
                        continue
                    dist[child] = g1
                    parent[child] = (v, k, s)
                    heappush(heap, (g1 + h, -g1, seq, child, 0))
                    seq += 1
                    if lazy:
                        # the child has larger g, so it pops first
                        resume = (k * n + strings.index(s) + 1, bound)
                        heappush(heap, (f, neg_g, order, v, resume))
                        break
                else:
                    row = strings
                    continue
                break
        if m is not None:
            return AreaResult(m, best[0], states + len(dist))
        states += len(dist)
    return AreaResult(None, None, states)


def _factor_options(u: str, s: str, t: str, forms) -> list[tuple[str, str]]:
    """(theta, relator) choices for the factor peeled from inserting s after u.

    t is the conjugator stripped from the input word, appended to theta.
    g, u and t are reduced (a relator piece, a prefix of a reduced state
    and the stripped tail), so theta cancels only at the two seams.
    """
    mul2 = words.mul2  # see area_bounded
    z = inverse(s)
    u_inv = inverse(u)
    return [(mul2(mul2(g, u_inv), t), base) for base, g in forms[z]]


def _best_noise_assignment(option_rows: list[list[tuple[str, str]]]):
    """Dynamic program over per-factor (theta, relator) choices minimizing noise.

    Every theta is reduced (see _factor_options), so each
    theta_i * theta_{i+1}^-1 cancels only at its seam.
    """
    mul2 = words.mul2  # see area_bounded
    m = len(option_rows)
    costs = [[len(t) for t, _ in option_rows[0]]]
    back: list[list[int]] = [[-1] * len(option_rows[0])]
    for i in range(1, m):
        row = []
        brow = []
        for theta, _ in option_rows[i]:
            best = None
            arg = -1
            theta_inv = inverse(theta)
            for j, (pt, _) in enumerate(option_rows[i - 1]):
                c = costs[i - 1][j] + len(mul2(pt, theta_inv))
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


def _assemble_witness(w, t, limit, v_end, parent, tables):
    """Turn the search tree's path to v_end into a product for w.

    The path runs along first routes from the cyclic core c of
    w = t^-1 * c * t to v_end, which one move finishes, and yields one
    factor per move.  The finishing moves of v_end are tried in order,
    built one at a time, with per-factor conjugator choices optimized by
    dynamic programming; the first product whose noise is at most limit
    is taken, and when none is, the least-noise one.
    The product is checked to spell w with seam-only products of its
    parts: mul2 only cancels a letter against its inverse, so the chain
    equals the product in F whatever its inputs, and a chain that
    spells the reduced w proves the product is w.  The parts are
    reduced (see _factor_options), so a sound witness always passes.
    Returns (product, noise).
    """
    mul2 = words.mul2  # see area_bounded
    forms = tables.forms
    # per-factor option rows in product order, the finishing move's last
    rows = []
    v = v_end
    while parent[v] is not None:
        prev, k, s = parent[v]
        rows.append(_factor_options(prev[:k], s, t, forms))
        v = prev
    rows.reverse()
    best = None
    for u, s in _finishing_moves(v_end, tables):
        noise, factors = _best_noise_assignment(rows + [_factor_options(u, s, t, forms)])
        if best is None or noise < best[0]:
            best = noise, factors
        if noise <= limit:
            break
    noise, factors = best
    got = ""
    for theta, r in factors:
        got = mul2(mul2(mul2(got, inverse(theta)), r), theta)
    if got != w:
        raise AssertionError(f"witness evaluates to {got!r}, expected {w!r}")
    return VanKampenProduct(factors), noise


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


def _area_lookup(pres: Presentation):
    """area_of(v) for certified-trivial words v, memoized per class for one call.

    The memo lives as long as the returned function, so it never
    outlives the Dehn-function computation that made it.
    """
    memo: dict[str, int] = {}

    def area_of(v: str) -> int:
        key = _class_key(v)
        if key not in memo:
            res = area_bounded(key, None, pres, state_budget=None)
            if res.value is None:
                raise AssertionError(f"no product found for certified-trivial {key!r}")
            memo[key] = res.value
        return memo[key]

    return area_of


def dehn_function(n: int, pres: Presentation, wp) -> int:
    """Largest area among words of length at most n that are trivial in Q.

    wp is asked about one word of each inverse pair of cyclically
    reduced words: the empty word and each nonempty cyclically reduced
    w with w <= inverse(w) in plain str order.  A reduced word
    x * c * x^-1 is conjugate to its shorter cyclic core c, and w^-1 is
    cyclically reduced of the same length as w; conjugation and
    inversion keep triviality and area (Lyndon-Schupp, Ch. V), so the
    skipped words leave the maximum unchanged.  For cyclically reduced
    w the first letters of w and inverse(w) differ (w[0] = w[-1]^-1
    would cancel), so the first letters decide the order.
    wp is a callable word -> Decision deciding triviality; it must be
    definite on every word asked about (an Unknown raises
    OracleUnknown).  Area search escalates without a factor cap, which
    terminates because only certified-trivial words are searched.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    area_of = _area_lookup(pres)
    best = 0
    for w in reduced_words(pres.generators, n):
        if w and w[-1].swapcase() <= w[0]:
            # equal: conjugate to its cyclic core, asked about on its own;
            # less: inverse(w) < w, asked about in its place
            continue
        dec = wp(w)
        if dec.unknown:
            raise OracleUnknown(f"word problem oracle undecided on {w!r}")
        if dec.yes:
            best = max(best, area_of(w))
    return best


def rel_cyclics_dehn(n: int, pres: Presentation, pp, wp) -> int:
    """Rel-cyclics Dehn function at n.

    Ranges over reduced pairs (w, u) with |w| + |u| <= n, keeps those
    with w in the cyclic subgroup generated by u in Q, and maximizes
    Area(w * u^p) + |p|*n over the exponents p of least absolute value
    with w = u^-p in Q.  pp is a power oracle (w, u) -> PowerDecision,
    wp a triviality oracle; both must be definite on the instance.

    The oracles are asked about the pairs with w <= inverse(w) and
    u <= inverse(u) in plain str order, one of each set (w^+-1, u^+-1).
    Inverting w or u keeps |w| + |u| and negates the exponents, so for
    candidate Area(w * u^p) of (w, u) the pair (w^-1, u) offers
    Area(w^-1 * u^-p) = Area(u^p * w) = Area(w * u^p) (inversion, then
    conjugation by w) and (w, u^-1) offers Area(w * (u^-1)^-p), the
    same word: the skipped pairs offer the same candidates.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    area_of = _area_lookup(pres)
    best = 0
    for w in reduced_words(pres.generators, n):
        if inverse(w) < w:
            continue  # (w^-1, u) is asked about in its place
        for u in reduced_words(pres.generators, n - len(w)):
            if inverse(u) < u:
                continue  # (w, u^-1) is asked about in its place
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
