"""Area search, witnesses, and the two Dehn-type functions."""

import random
from heapq import heappop, heappush

import pytest
from hypothesis import given, settings, strategies as st

from fibreconj import area
from fibreconj.area import (
    VanKampenProduct,
    area_bounded,
    dehn_function,
    evaluate_vk_product,
    rel_cyclics_dehn,
)
from fibreconj.brute import brute_area
from fibreconj.decisions import OracleUnknown
from fibreconj.oracle import (
    auto_strategy,
    check_decision,
    make_strategy,
    power_decide,
    wp_decide,
)
from fibreconj.presentation import Presentation
from fibreconj.words import (
    cyclic_reduce,
    exponent_vector,
    free_reduce,
    inverse,
    is_cyclically_reduced,
    is_reduced,
    mul,
    mul2,
    random_reduced_word,
    reduced_words,
    rotate,
)

Z = Presentation("ab", ("b",))
Z2 = Presentation("ab", ("abAB",))
Z3 = Presentation("a", ("aaa",))
ZA3 = Presentation("ab", ("aaa", "abAB"))
G2 = Presentation("abcd", ("abABcdCD",))


def wp_for(pres):
    strat = auto_strategy(pres)
    return lambda w: wp_decide(w, pres, strat)


def pp_for(pres):
    strat = auto_strategy(pres)
    return lambda w, u: power_decide(w, u, pres, strat)


def test_presentation_validation():
    with pytest.raises(ValueError):
        Presentation("", ())
    with pytest.raises(ValueError):
        Presentation("aA", ())
    with pytest.raises(ValueError):
        Presentation("aa", ())
    with pytest.raises(ValueError):
        Presentation("ab", ("",))
    with pytest.raises(ValueError):
        Presentation("ab", ("abBA",))
    with pytest.raises(ValueError):
        Presentation("ab", ("Aba",))
    with pytest.raises(ValueError):
        Presentation("a", ("ab",))
    assert Presentation("ab", ("abAB",)).max_relator_length == 4


def test_presentation_field_types():
    # a list could change after a fact was computed from it
    with pytest.raises(TypeError, match="relators"):
        Presentation("ab", ["abAB"])
    with pytest.raises(TypeError, match="generators"):
        Presentation(["a", "b"], ("abAB",))


def test_evaluate_product():
    prod = VanKampenProduct((("", "abAB"),))
    assert evaluate_vk_product(prod, Z2) == "abAB"
    assert prod.area == 1 and prod.noise == 0
    conj = VanKampenProduct((("b", "abAB"),))
    assert evaluate_vk_product(conj, Z2) == free_reduce("B" + "abAB" + "b")
    assert conj.noise == 2
    with pytest.raises(ValueError):
        evaluate_vk_product(VanKampenProduct((("", "ab"),)), Z2)


def test_area_spot_values():
    assert area_bounded("", None, Z2).value == 0
    assert area_bounded("abAB", None, Z2).value == 1
    assert area_bounded("aabbAABB", None, Z2).value == 4
    assert area_bounded("bb", None, Z).value == 2
    assert area_bounded("aaa", None, Z3).value == 1
    assert area_bounded("aaaaaa", None, Z3).value == 2


def test_area_bound_exhausted():
    res = area_bounded("aabbAABB", 2, Z2)
    assert res.value is None and not res.budget_exhausted
    res = area_bounded("ab", 0, Z2)
    assert res.value is None
    # no relators: nothing nonempty is trivial
    res = area_bounded("ab", 5, Presentation("ab", ()))
    assert res.value is None


def test_area_budget():
    # aabbAABB needs 4 states, so a budget of 3 runs out
    res = area_bounded("aabbAABB", None, Z2, state_budget=3)
    assert res.value is None and res.budget_exhausted and res.states == 4


def test_area_budget_per_expansion(monkeypatch):
    # acAC has zero exponent sum but is nontrivial in the genus-2 group,
    # so only the budget stops the search; it may overshoot by one child
    # on the first contour and by the children of one expansion, (|v| + 1)
    # per insertable string, under the restart
    expanded = []
    bounds = area._bounds

    def spy(v, *args):
        expanded.append(v)
        return bounds(v, *args)

    monkeypatch.setattr(area, "_bounds", spy)
    strings = len(G2.area_tables.strings)
    for budget in (1, 100, 1000, 3000):
        expanded.clear()
        res = area_bounded("acAC", None, G2, state_budget=budget)
        assert res.value is None and res.budget_exhausted
        longest = max(map(len, expanded))
        assert budget < res.states <= budget + (longest + 1) * strings


def test_area_default_budget():
    # ADCdcBAbaaabABcdCD has zero exponent sum but is nontrivial in the
    # genus-2 group (one relator is reversed, not inverted), so without a
    # budget the search would never end
    res = area_bounded("ADCdcBAbaaabABcdCD", None, G2)
    assert res.value is None and res.budget_exhausted
    assert 100_000 < res.states <= 110_000


def test_area_search_states():
    # the winding bound is exact on Z^2, so the first contour finds the
    # area and builds one child per pop on an optimal path; expanding
    # every child under the contour builds 14 states here, and a
    # breadth-first search 37,201
    assert area_bounded("aabbAABB", None, Z2).states == 4
    # a word with nonzero exponent sum cannot be a product of relators
    # that all have zero exponent sum
    res = area_bounded("aab", None, Z2)
    assert res.value is None and not res.budget_exhausted and res.states == 0


def test_area_contour_restart(monkeypatch):
    # over Z x Z/3 the root bound of these words is 2, below their area,
    # so the first contour runs out and the search restarts once, under
    # maxM, however far the area is above the root bound; states count
    # both contours
    tables = ZA3.area_tables
    expanded = []
    bounds = area._bounds
    popped = []
    pop = area.heappop

    def spy(v, *args):
        expanded.append(v)
        return bounds(v, *args)

    def pop_spy(heap):
        entry = pop(heap)
        popped.append(entry[3])
        return entry

    monkeypatch.setattr(area, "_bounds", spy)
    monkeypatch.setattr(area, "heappop", pop_spy)
    for w, m in (("AABBAbb", 3), ("BaabbAAB", 4)):
        h0 = max(bounds(w, tables, "ab")[0], area._core_bound(w, tables.forms))
        assert h0 == 2
        expanded.clear()
        popped.clear()
        res = area_bounded(w, None, ZA3)
        # one pop of the root per contour: on the first contour it has no
        # child under the contour, so it pops once there; its bounds are
        # computed once for both
        assert popped.count(w) == 2
        assert expanded.count(w) == 1
        assert res.value == brute_area(w, ZA3, max_moves=m) == m, w
        _check_witness(w, res, ZA3)
        # the first contour alone builds the root only
        first = area_bounded(w, 2, ZA3)
        assert first.value is None and not first.budget_exhausted and first.states == 1
        below = area_bounded(w, m - 1, ZA3)
        assert below.value is None and not below.budget_exhausted
        assert first.states <= below.states < res.states


# the older multi-path witness search: up to _PARENT_CAP parents per
# state, and up to _PATH_CAP insertion paths tried per finisher
_PARENT_CAP = 4
_PATH_CAP = 256


def _paths_to(node, parents, budget):
    """Yield move lists leading from the search root to node, newest move last."""
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


def _reference_witness(w, t, m, v_end, parents, tables, pres):
    """The multi-path _assemble_witness, every finishing move built up front.

    Paths to v_end are tried in order, and each path's finishing moves,
    until a product meets the noise bound.  The accepted witness is
    checked by evaluate_vk_product, which reduces the whole product.
    """
    opts = []
    for k in range(len(v_end) + 1):
        s = inverse(mul(v_end[k:], v_end[:k]))
        if s in tables.forms:
            opts.append((v_end[:k], s))
    bound = m * pres.max_relator_length + len(w)
    budget = [_PATH_CAP]
    for head in _paths_to(v_end, parents, budget):
        budget[0] -= 1
        for u_last, s_last in opts:
            rows = [area._factor_options(prev[:k], s, t, tables.forms) for prev, k, s in head]
            rows.append(area._factor_options(u_last, s_last, t, tables.forms))
            noise, factors = area._best_noise_assignment(rows)
            if noise <= bound:
                prod = VanKampenProduct(factors)
                assert evaluate_vk_product(prod, pres) == w
                return prod
    return None


def _reference_area(w, pres, lazy=True, state_budget=100_000):
    """area_bounded(w, None, pres) that bounds every state each time it pops.

    It keeps up to _PARENT_CAP parents per state.  With lazy=False the first contour expands a popped state whole, as
    the restart does, so it builds every sibling on the path it walks.
    Witnesses come from _reference_witness.
    """
    w = free_reduce(w)
    if w == "":
        return area.AreaResult(0, VanKampenProduct(()))
    tables = pres.area_tables
    strings, forms, gens = tables.strings, tables.forms, pres.generators
    if not tables.step and any(exponent_vector(w, gens)):
        return area.AreaResult(None, None)
    core, t = cyclic_reduce(w)
    h0 = max(area._bounds(core, tables, gens)[0], area._core_bound(core, forms))
    n = len(strings)
    states = 0
    for contour in sorted({h0, 10_000}):
        one_child = lazy and contour == h0
        dist = {core: 0}
        parents = {core: []}
        heap = [(h0, 0, 0, core, 0)]
        seq = 1
        m = None
        tried = 0
        while heap:
            if state_budget is not None and states + len(dist) > state_budget:
                return area.AreaResult(None, None, states + len(dist), True)
            f, neg_g, order, v, start = heappop(heap)
            g = -neg_g
            if dist[v] != g:
                continue
            if m is not None and f > m:
                break
            if f == g + 1:
                m = f
                if tried < area._FINISHER_CAP:
                    tried += 1
                    prod = _reference_witness(w, t, m, v, parents, tables, pres)
                    if prod is not None:
                        return area.AreaResult(m, prod, states + len(dist))
                continue
            g1 = g + 1
            bound = area._bounds(v, tables, gens)[1]
            candidates = [(k, j) for k in range(len(v) + 1) for j in range(n)]
            for k, j in candidates[start:]:
                s = strings[j]
                h = bound(k, s)
                if g1 + h > contour:
                    continue
                child = mul2(mul2(v[:k], s), v[k:])
                d = dist.get(child)
                if d is not None and d <= g1:
                    if d == g1 and len(parents[child]) < _PARENT_CAP:
                        parents[child].append((v, k, s))
                    continue
                if h < 2:
                    h = area._core_bound(child, forms)
                if g1 + h > contour:
                    continue
                dist[child] = g1
                parents[child] = [(v, k, s)]
                heappush(heap, (g1 + h, -g1, seq, child, 0))
                seq += 1
                if one_child:
                    heappush(heap, (f, neg_g, order, v, k * n + j + 1))
                    break
        assert m is None
        states += len(dist)
    return area.AreaResult(None, None, states)


def _relator_products(pres, count, rng):
    """count products of 1-2 conjugated relators, conjugators of length <= 2."""
    inserts = list(pres.relators) + [inverse(r) for r in pres.relators]
    out = []
    for _ in range(count):
        w = ""
        for _ in range(rng.randint(1, 2)):
            theta = random_reduced_word(rng, pres.generators, rng.randint(0, 2))
            w = mul(w, inverse(theta), rng.choice(inserts), theta)
        out.append(w)
    return out


def _differential_cases():
    cases = [(Z2, w) for w in reduced_words("ab", 10)
             if w and exponent_vector(w, "ab") == (0, 0)]
    rng = random.Random(17)
    for pres in (G2, ZA3, Z):
        cases += [(pres, w) for w in _relator_products(pres, 150, rng)]
    assert len(cases) == 3050
    return cases


def test_lazy_first_contour_matches_eager_expansion():
    # building one child per pop on the first contour changes neither the
    # area nor the witness, and never builds more states
    fewer = 0
    for pres, w in _differential_cases():
        got, want = area_bounded(w, None, pres), _reference_area(w, pres, lazy=False)
        assert got.value == want.value, (pres, w)
        assert got.witness.factors == want.witness.factors, (pres, w)
        assert got.states <= want.states, (pres, w)
        fewer += got.states < want.states
    assert fewer > 0


def test_area_matches_rebounding_reference():
    # reusing each state's bound, building finishing moves one at a time
    # and checking the witness at the seams change no area, witness or
    # state count
    for pres, w in _differential_cases():
        got, want = area_bounded(w, None, pres), _reference_area(w, pres)
        assert got.value == want.value, (pres, w)
        assert got.witness.factors == want.witness.factors, (pres, w)
        assert got.states == want.states, (pres, w)


def test_corrupt_witness_fails_its_check(monkeypatch):
    # a witness that meets the noise bound but does not spell w raises
    best = area._best_noise_assignment

    def corrupt(rows):
        noise, factors = best(rows)
        theta, r = factors[0]
        return noise, ((theta, inverse(r)),) + factors[1:]

    monkeypatch.setattr(area, "_best_noise_assignment", corrupt)
    for pres, w in ((Z2, "aabbAABB"), (Z2, "abAB"), (ZA3, "AABBAbb")):
        with pytest.raises(AssertionError, match="witness evaluates to"):
            area_bounded(w, None, pres)


def _check_witness(w, res, pres):
    """The witness multiplies back to w and meets the noise bound."""
    w = free_reduce(w)
    allowed = set(pres.relators) | {inverse(r) for r in pres.relators}
    thetas = [t for t, _ in res.witness.factors]
    assert len(thetas) == res.value
    assert all(r in allowed for _, r in res.witness.factors)
    assert mul(*(inverse(t) + r + t for t, r in res.witness.factors)) == w
    ends = [""] + thetas + [""]
    noise = sum(len(mul(a, inverse(b))) for a, b in zip(ends, ends[1:]))
    assert noise <= res.value * pres.max_relator_length + len(w)


def _winding_area(w):
    """Sum of |winding number| over the unit squares, by vertical ray casting.

    The winding number of the square with lower-left corner (x, y) is the
    signed count of horizontal edges crossing the ray from its centre
    straight up: a leftward edge above it counts +1, a rightward one -1.
    """
    x = y = 0
    edges = []
    for c in w:
        if c in "aA":
            dx = 1 if c == "a" else -1
            edges.append((min(x, x + dx), y, -dx))
            x += dx
        else:
            y += 1 if c == "b" else -1
    cols = {ex for ex, _, _ in edges}
    rows = [ey for _, ey, _ in edges]
    total = 0
    for cx in cols:
        for cy in range(min(rows), max(rows)):
            total += abs(sum(s for ex, ey, s in edges if ex == cx and ey > cy))
    return total


def test_area_exhaustive_z2():
    # every nonempty word of length <= 10 trivial in Z^2: the area is
    # the sum of |winding numbers| of its lattice path
    trivial = [w for w in reduced_words("ab", 10)
               if w and exponent_vector(w, "ab") == (0, 0)]
    assert len(trivial) == 2600
    for w in trivial:
        res = area_bounded(w, None, Z2)
        assert res.value == _winding_area(w), w
        _check_witness(w, res, Z2)


def test_area_cyclic_core():
    # a conjugated word is searched on its cyclic core, and the witness
    # conjugators absorb the stripped tail
    cases = [
        (Z2, "aabbAABB"), (Z2, "abAB"), (Z2, "abABabAB"),
        (Z, "AAAbababaB"), (G2, "abABcdCDabABcdCD"),
        (ZA3, "aabAABaaa"),
    ]
    for pres, core in cases:
        base = area_bounded(core, None, pres)
        tails = [t for t in reduced_words(pres.generators, 3)
                 if t and is_reduced(inverse(t) + core + t)]
        assert tails
        for tail in tails[::7]:
            w = inverse(tail) + core + tail
            res = area_bounded(w, None, pres)
            assert res.value == base.value, (core, tail)
            assert res.states == base.states
            _check_witness(w, res, pres)


def test_area_noise_regression_over_z():
    # with L = 1 the noise bound m + |w| leaves little slack, and the
    # path to a finisher can miss it; the search keeps popping finishers
    # of the optimal depth until a witness meets the bound.  The last
    # three words of the loop get another witness from one parent per
    # state than from several parents
    for w, m in (("AAAbababaB", 4), ("abAAABaBBa", 4), ("aaBBBABBAb", 6),
                 ("aabAbbABB", 5), ("aaBABBAbb", 5), ("abbbABBBB", 7)):
        res = area_bounded(w, None, Z)
        assert res.value == m
        _check_witness(w, res, Z)
    # no finisher of this word meets the bound 4 + 28 = 32, so the
    # least-noise witness is returned, still a product for w
    w = "aababABAAbABaBBaaBAAbABABaba"
    res = area_bounded(w, None, Z)
    assert res.value == brute_area(w, Z, max_moves=4) == 4
    assert evaluate_vk_product(res.witness, Z) == w
    assert res.witness.noise == 34
    dec = wp_decide(w, Z, make_strategy(Z, "search"))
    assert dec.yes and check_decision(dec, w, Z)


def test_area_matches_brute_force_small():
    rng = random.Random(4)
    inserts = [r for r in G2.relators] + [inverse(r) for r in G2.relators]
    for _ in range(40):
        w = ""
        for _ in range(rng.randint(1, 2)):
            theta = random_reduced_word(rng, G2.generators, rng.randint(0, 1))
            w = mul(w, inverse(theta), rng.choice(inserts), theta)
        res = area_bounded(w, 2, G2)
        assert res.value == brute_area(w, G2, max_moves=2), w
        if res.value:
            _check_witness(w, res, G2)
    for _ in range(40):
        w = random_reduced_word(rng, G2.generators, rng.choice((4, 6)))
        if any(exponent_vector(w, G2.generators)):
            continue
        assert area_bounded(w, 2, G2).value == brute_area(w, G2, max_moves=2), w
    for w in reduced_words("ab", 7):
        a, b = exponent_vector(w, "ab")
        if a % 3 or b:
            continue
        res = area_bounded(w, 3, ZA3)
        assert res.value == brute_area(w, ZA3, max_moves=3), w
        if res.value:
            _check_witness(w, res, ZA3)


def test_witness_invariants():
    for w in ("abAB", "aabABA", "aabbAABB", "baBA"):
        res = area_bounded(w, None, Z2)
        assert res.value is not None
        assert res.witness.area == res.value
        assert evaluate_vk_product(res.witness, Z2) == free_reduce(w)
        L = Z2.max_relator_length
        assert res.witness.noise <= res.value * L + len(free_reduce(w))


@settings(max_examples=60)
@given(st.integers(0, 10_000))
def test_area_invariance(seed):
    rng = random.Random(seed)
    # build a short trivial word as a product of conjugated relators
    m = rng.randint(1, 2)
    parts = []
    for _ in range(m):
        theta = random_reduced_word(rng, "ab", rng.randint(0, 2))
        base = rng.choice(["abAB", "BAba"])
        parts.append(mul(inverse(theta), base, theta))
    w = mul(*parts)
    a = area_bounded(w, None, Z2).value
    assert a is not None and a <= m
    # area is invariant under inversion and rotation
    assert area_bounded(inverse(w), None, Z2).value == a
    if w:
        assert area_bounded(rotate(w, len(w) // 2), None, Z2).value == a


def test_dehn_function_values():
    wp = wp_for(Z2)
    vals = {n: dehn_function(n, Z2, wp) for n in range(9)}
    assert vals[4] == 1
    assert vals[8] == 4
    assert [vals[n] for n in range(9)] == sorted(vals[n] for n in range(9))
    assert dehn_function(4, Z, wp_for(Z)) == 4
    assert dehn_function(3, Z3, wp_for(Z3)) == 1


def _dehn_every_word(n, pres, wp):
    """dehn_function as it was before the cyclic-word skip: it asks about every reduced word."""
    area_of = area._area_lookup(pres)
    best = 0
    for w in reduced_words(pres.generators, n):
        dec = wp(w)
        if dec.unknown:
            raise OracleUnknown(f"word problem oracle undecided on {w!r}")
        if dec.yes:
            best = max(best, area_of(w))
    return best


FREE = Presentation("ab", ())


@pytest.mark.parametrize("pres, top", [
    (Z, 7), (Z2, 8), (Z3, 6), (ZA3, 6), (FREE, 6),
], ids=["z", "z2", "z3", "zxz3", "free"])
def test_dehn_function_matches_every_word_loop(monkeypatch, pres, top):
    # the skipped words x * c * x^-1 change neither the value nor the
    # words searched, and the oracle hears about cyclically reduced words only
    searched = []
    real = area.area_bounded

    def recording(w, *args, **kwargs):
        searched.append(w)
        return real(w, *args, **kwargs)

    monkeypatch.setattr(area, "area_bounded", recording)
    wp = wp_for(pres)
    asked = []

    def counting(w):
        asked.append(w)
        return wp(w)

    for n in range(top + 1):
        searched.clear()
        want = _dehn_every_word(n, pres, wp)
        want_searched = set(searched)
        searched.clear()
        asked.clear()
        assert dehn_function(n, pres, counting) == want, n
        assert set(searched) == want_searched, n
        cyclic = [w for w in reduced_words(pres.generators, n) if is_cyclically_reduced(w)]
        assert asked == cyclic, n


def test_dehn_function_asks_about_cyclically_reduced_words():
    wp = wp_for(Z2)
    calls = []

    def counting(w):
        calls.append(w)
        return wp(w)

    for n in range(4, 8):
        dehn_function(n, Z2, counting)
    assert len(calls) == 4900


def test_dehn_function_needs_definite_oracle():
    strat = make_strategy(Z2, "search", 50)
    with pytest.raises(OracleUnknown):
        dehn_function(4, Z2, lambda w: wp_decide(w, Z2, strat))


def test_rel_cyclics_values():
    assert rel_cyclics_dehn(4, Z, pp_for(Z), wp_for(Z)) == 12
    for n in range(7):
        d = dehn_function(n, Z, wp_for(Z))
        dc = rel_cyclics_dehn(n, Z, pp_for(Z), wp_for(Z))
        assert dc >= d
    for n in range(7):
        d = dehn_function(n, Z3, wp_for(Z3))
        dc = rel_cyclics_dehn(n, Z3, pp_for(Z3), wp_for(Z3))
        assert dc >= d
