"""End-to-end acceptance battery.

Each test is one numbered criterion with a pinned runtime budget.  A
passing run appends one summary line per criterion to the terminal
report; any exhaustion, contradiction, or overrun fails the suite.
"""

import random
import time
from collections import Counter

import pytest

from conftest import record
from fibreconj.area import (
    area_bounded,
    dehn_function,
    rel_cyclics_dehn,
)
from fibreconj.brute import (
    EXHAUSTED,
    FOUND,
    _inv,
    _reduce,
    _rotations,
    brute_area,
    brute_p_conjugacy,
    brute_primitive_root,
    random_instances,
)
from fibreconj.oracle import (
    auto_strategy,
    check_c16,
    check_decision,
    dehn_greedy,
    power_decide,
    q_equal,
    wp_decide,
)
from fibreconj.perturb import PerturbConfig, power_avoid
from fibreconj.presentation import Presentation
from fibreconj.subdirect import canonical_setup, p_conjugacy, replay_trace
from fibreconj.words import (
    exponent_vector,
    free_reduce,
    inverse,
    is_proper_power,
    mul,
    primitive_root,
    random_reduced_word,
    reduced_words,
)

Z = Presentation("ab", ("b",))
Z2 = Presentation("ab", ("abAB",))
Z3 = Presentation("a", ("aaa",))
ZA3 = Presentation("ab", ("b", "aaa"))
G2 = Presentation("abcd", ("abABcdCD",))

CONJ_SEED = 20260817


def _area_class(w: str) -> str:
    """Key of w's class under cyclic permutation and inversion, built from brute.py's helpers.

    Area is invariant under both, so brute force runs once per class.
    """
    core = _reduce(w)
    while len(core) > 1 and core[0] == _inv(core[-1]):
        core = core[1:-1]
    return min(_rotations(core) + _rotations(_inv(core)))


@pytest.mark.acceptance(1)
def test_criterion_1_area_matches_brute_force():
    t0 = time.monotonic()
    strat = auto_strategy(Z2)
    trivial = [w for w in reduced_words("ab", 8) if wp_decide(w, Z2, strat).yes]
    assert len(trivial) == 361
    areas: dict[str, set[int]] = {}
    for w in trivial:
        mine = area_bounded(w, None, Z2).value
        assert mine is not None, w
        areas.setdefault(_area_class(w), set()).add(mine)
    assert len(areas) == 18
    for key, values in areas.items():
        assert values == {brute_area(key, Z2)}, (key, values)
    assert area_bounded("abAB", None, Z2).value == 1
    assert area_bounded("aabbAABB", None, Z2).value == 4
    elapsed = time.monotonic() - t0
    assert elapsed <= 60.0
    record(1, "361 commutator-trivial words of length <= 8 agree with brute "
              f"force; Area(abAB)=1, Area(aabbAABB)=4; {elapsed:.1f}s")


@pytest.mark.acceptance(2)
def test_criterion_2_dehn_function_values():
    t0 = time.monotonic()
    strat = auto_strategy(Z2)

    def wp(w):
        return wp_decide(w, Z2, strat)

    values = [dehn_function(n, Z2, wp) for n in range(9)]
    assert values[4] == 1
    assert values[8] == 4
    assert all(a <= b for a, b in zip(values, values[1:]))
    elapsed = time.monotonic() - t0
    assert elapsed <= 120.0
    record(2, f"delta(0..8) = {values}, nondecreasing; {elapsed:.1f}s")


@pytest.mark.acceptance(3)
def test_criterion_3_rel_cyclics_dominates():
    t0 = time.monotonic()
    profiles = {}
    for pres in (Z, Z3):
        strat = auto_strategy(pres)

        def wp(w, _p=pres, _s=strat):
            return wp_decide(w, _p, _s)

        def pp(w, u, _p=pres, _s=strat):
            return power_decide(w, u, _p, _s)

        deltas = [dehn_function(n, pres, wp) for n in range(7)]
        cyclics = [rel_cyclics_dehn(n, pres, pp, wp) for n in range(7)]
        assert all(c >= d for c, d in zip(cyclics, deltas))
        profiles[pres] = (deltas, cyclics)
    assert profiles[Z][1][4] == 12
    # attained at w = aaa, u = a: a zero-area pair with exponent 3
    pd = power_decide("aaa", "a", Z, auto_strategy(Z))
    assert pd.yes and pd.p == 3
    assert 0 + abs(pd.p) * 4 == 12
    elapsed = time.monotonic() - t0
    assert elapsed <= 120.0
    record(3, f"deltac(4)=12 attained by (aaa, a); deltac >= delta for n <= 6 "
              f"on both presentations; {elapsed:.1f}s")


@pytest.fixture(scope="module")
def conjugacy_battery():
    start = time.monotonic()
    batteries = {}
    for key, pres in (("Z", Z), ("Z/3", Z3), ("Z^2", Z2)):
        setup = canonical_setup(pres)
        strat = auto_strategy(pres)
        rows = []
        for inst in random_instances(setup, CONJ_SEED, 200):
            res = p_conjugacy(inst.pair_u, inst.pair_v, setup, strat)
            ref = brute_p_conjugacy(inst.pair_u, inst.pair_v, setup)
            rows.append((inst, res, ref))
        batteries[key] = (setup, strat, rows)
    return batteries, time.monotonic() - start


@pytest.mark.acceptance(4)
def test_criterion_4_conjugacy_vs_brute_force(conjugacy_battery):
    batteries, elapsed = conjugacy_battery
    definite = positives = 0
    for _key, (_setup, _strat, rows) in batteries.items():
        for inst, res, ref in rows:
            if res.yes:
                positives += 1
                g = res.conjugator
                for i in (0, 1):
                    moved = free_reduce(inverse(g[i]) + inst.pair_u[i] + g[i])
                    assert moved == inst.pair_v[i]
                assert ref.status != EXHAUSTED
            if res.no:
                assert ref.status != FOUND
            if not res.unknown:
                definite += 1
            if inst.constructed:
                assert res.yes
    assert definite >= 0.95 * 600
    assert elapsed <= 600.0
    record(4, f"600 instances over 3 presentations: zero contradictions with "
              f"brute force, {definite}/600 definite, {positives} positives "
              f"all exactly verified; {elapsed:.1f}s")


@pytest.mark.acceptance(5)
def test_criterion_5_positive_traces_replay(conjugacy_battery):
    # every definite answer replays, Yes and No alike, counted per branch
    batteries, _ = conjugacy_battery
    t0 = time.monotonic()
    replayed = Counter()
    for _key, (setup, strat, rows) in batteries.items():
        for inst, res, _ref in rows:
            if not res.unknown:
                assert replay_trace(res, inst.pair_u, inst.pair_v, setup, strat), inst
                replayed[f"{res.verdict.name} {res.trace.branch}"] += 1
    assert {key.split()[0] for key in replayed} == {"YES", "NO"}
    total = sum(replayed.values())
    per_branch = ", ".join(f"{key} {n}" for key, n in sorted(replayed.items()))
    elapsed = time.monotonic() - t0
    record(5, f"{total}/{total} definite traces replay ({per_branch}); {elapsed:.1f}s")


@pytest.mark.acceptance(6)
def test_criterion_6_power_avoidance_certified():
    t0 = time.monotonic()
    cfg = PerturbConfig()
    splits = []
    for pres, max_len in ((Z, 6), (Z2, 6), (ZA3, 6), (G2, 4)):
        setup = canonical_setup(pres)
        strat = auto_strategy(pres)
        rng = random.Random(42)
        perturbed = exceptional = 0
        for _ in range(200):
            w = random_reduced_word(rng, pres.generators, rng.randint(0, max_len))
            res = power_avoid(w, cfg, setup, strat)
            assert res.image_certificate is not None and res.image_certificate.yes
            assert check_decision(res.image_certificate, mul(res.word, inverse(w)), pres)
            assert q_equal(res.word, w, pres, strat).yes
            if res.perturbed:
                perturbed += 1
                assert res.word != "" and not is_proper_power(res.word)
                assert res.k is not None and res.k <= cfg.k_max
            else:
                exceptional += 1
                assert res.word == ""
        splits.append(f"{perturbed}p/{exceptional}e")
    elapsed = time.monotonic() - t0
    assert elapsed <= 60.0
    record(6, f"4 x 200 words: image certificates replay, perturbed outputs "
              f"primitive, no exponent exhaustion ({', '.join(splits)}); "
              f"{elapsed:.1f}s")


@pytest.mark.acceptance(7)
def test_criterion_7_greedy_reduction_soundness():
    t0 = time.monotonic()
    assert check_c16(G2)
    strat = auto_strategy(G2)
    assert strat.kind == "dehn"
    rng = random.Random(7)
    inserts = []
    for r in G2.relators:
        inserts.extend((r, inverse(r)))
    for _ in range(100):
        w = ""
        for _ in range(rng.randint(1, 3)):
            theta = random_reduced_word(rng, G2.generators, rng.randint(0, 2))
            w = mul(w, theta, rng.choice(inserts), inverse(theta))
        assert dehn_greedy(w, G2) == ""
    survivors = 0
    zero = (0,) * len(G2.generators)
    while survivors < 100:
        w = random_reduced_word(rng, G2.generators, rng.randint(1, 10))
        if dehn_greedy(w, G2) == "":
            continue
        survivors += 1
        assert wp_decide(w, G2, strat).no
        if exponent_vector(w, G2.generators) == zero:
            # bounded search must fail to fill a word the verdict rejects
            assert area_bounded(w, 3, G2, state_budget=20_000).value is None
    elapsed = time.monotonic() - t0
    assert elapsed <= 60.0
    record(7, "100 relator products reduce to empty, 100 survivors confirmed "
              f"nontrivial with no bounded-search contradiction; {elapsed:.1f}s")


@pytest.mark.acceptance(8)
def test_criterion_8_roots_match_exhaustive_search():
    t0 = time.monotonic()
    rng = random.Random(11)
    for _ in range(500):
        w = random_reduced_word(rng, "ab", rng.randint(1, 10))
        dec = primitive_root(w)
        assert (dec.root, dec.exponent) == brute_primitive_root(w)
        assert not is_proper_power(dec.root)
    elapsed = time.monotonic() - t0
    assert elapsed <= 30.0
    record(8, f"500 random words of length <= 10: root decompositions agree "
              f"and roots are primitive; {elapsed:.1f}s")
