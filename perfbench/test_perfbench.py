"""Tests of the benchmark itself: its checkers, inputs, tracer and a tiny pass of each workload.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

import boot
import freegroup as fg
import run
import workloads
from tracing import Tracer

fb = boot.import_package()
Z2 = fb.Presentation("ab", ("abAB",))
Z3 = fb.Presentation("a", ("aaa",))
GENUS2 = fb.Presentation("abcd", ("abABcdCD",))


@pytest.fixture(scope="module")
def quotients():
    return {name: boot.setup(name) for name in workloads.WORKLOADS}


def test_winding_area_matches_brute_area():
    pool = workloads.trivial_z2_words(8)
    words = [w for (n, _), ws in sorted(pool.items()) if n <= 6 for w in ws]
    rng = random.Random(0)
    words += rng.sample(pool[(8, 2)], 3) + rng.sample(pool[(8, 3)], 2)
    for w in words:
        assert fg.winding_area(w) == fb.brute_area(w, Z2), w


def test_trivial_z2_words_are_all_of_them():
    pool = workloads.trivial_z2_words(8)
    expected = [w for w in fb.reduced_words("ab", 8) if w and fb.exponent_vector(w, "ab") == (0, 0)]
    assert sorted(w for ws in pool.values() for w in ws) == sorted(expected)


@pytest.mark.parametrize("pres,name", [(Z2, "z2"), (Z3, "z3")])
def test_conjugacy_checks_agree_with_brute_force(pres, name):
    """What brute force finds passes the benchmark's checks; what they rule out it never finds."""
    setup = fb.canonical_setup(pres)
    dirs = workloads.p_directions(pres)
    image = workloads.ABELIAN_IMAGE[name]
    rng = random.Random(1)
    for i in range(30):
        u, v, g = workloads.draw_instance(rng, dirs, constructed=i % 2 == 0)
        if g is not None:
            assert image(g[0]) == image(g[1])
            assert all(fg.mul(fg.inv(g[k]), u[k], g[k]) == v[k] for k in (0, 1))
        found = fb.brute_p_conjugacy(u, v, setup, max_radius=3)
        coords = fg.conjugator(u[0], v[0]) is not None and fg.conjugator(u[1], v[1]) is not None
        if found.status == "FOUND":
            gamma = found.conjugator
            assert coords
            assert image(gamma[0]) == image(gamma[1])
            assert all(fg.mul(fg.inv(gamma[k]), u[k], gamma[k]) == fg.reduce(v[k]) for k in (0, 1))
        if not coords:
            assert found.status != "FOUND"


def test_greendlinger_rescan_agrees_with_brute_area():
    k, halves = fg.relator_halves(GENUS2.relators)
    rng = random.Random(2)
    for _ in range(10):
        w = fg.random_reduced(rng, "abcd", rng.randint(1, 5), k, halves)
        assert not fg.has_half_relator(w, k, halves)
        assert fb.brute_area(w, GENUS2, max_moves=1) is None
        theta = fg.random_reduced(rng, "abcd", rng.randint(0, 3))
        conj = fg.mul(fg.inv(theta), "abABcdCD", theta)
        assert fg.has_half_relator(conj, k, halves)
        assert fb.brute_area(conj, GENUS2, max_moves=1) == 1


def test_roots_match_brute_primitive_root():
    rng = random.Random(3)
    for _ in range(200):
        w = fg.random_reduced(rng, "ab", rng.randint(1, 8))
        if rng.random() < 0.3:
            w = fg.mul(w, w)
        assert fg.root(w) == fb.brute_primitive_root(w), w
        assert fg.is_proper_power(w) == (fb.brute_primitive_root(w)[1] >= 2)


def test_conjugator_is_a_conjugator():
    rng = random.Random(4)
    for _ in range(200):
        u = fg.random_reduced(rng, "ab", rng.randint(0, 6))
        g = fg.random_reduced(rng, "ab", rng.randint(0, 4))
        v = fg.mul(fg.inv(g), u, g)
        x = fg.conjugator(u, v)
        assert x is not None and fg.mul(fg.inv(x), u, x) == v
    assert fg.conjugator("ab", "aab") is None and fg.conjugator("ab", "aB") is None


def test_generated_words_have_their_promised_shape():
    k, halves = fg.relator_halves(GENUS2.relators)
    rng = random.Random(5)
    w = workloads.relator_product(rng, "abcd", "abABcdCD", 200)
    assert len(w) >= 200 and fg.reduce(w) == w
    c = workloads.dehn_reduced_commutator(rng, "abcd", 200, k, halves)
    assert len(c) == 200 and fg.reduce(c) == c and not fg.has_half_relator(c, k, halves)
    assert fb.exponent_vector(c, "abcd") == (0, 0, 0, 0)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_inputs_follow_the_seed_and_keep_their_make_up(name, quotients):
    wl = workloads.WORKLOADS[name]
    q = quotients[name]
    a = wl.build(fb, q, 11)
    b = wl.build(fb, q, 11)
    c = wl.build(fb, q, 12)
    assert [x.group for x in a] == [x.group for x in b] == [x.group for x in c]
    assert Counter(x.group for x in a) == Counter(x.group for x in c)
    assert len(a) - workloads.tail_rank(len(a), wl.tail_pct) >= run.MIN_TAIL_BEYOND


def _tiny(queries):
    """The first query of every stratum."""
    seen, out = set(), []
    for q in queries:
        if q.group not in seen:
            seen.add(q.group)
            out.append(q)
    return out


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_pass_has_no_failures(name, quotients):
    queries = _tiny(workloads.WORKLOADS[name].build(fb, quotients[name], 7))
    if name == "wp_genus2":
        queries = [q for q in queries if not q.group.endswith("len10000")]
    scales = []
    _, _, results, failed = run.run_pass(queries, scales=scales)
    assert failed == 0
    assert run.verify(queries, results) == []
    assert len(scales) == len(queries) and min(scales) > 0


def test_tracer_counts_and_restores(quotients):
    q = quotients["fibre_p"]["genus2"]
    queries = _tiny(workloads.build_fibre_p(fb, quotients["fibre_p"], 3))
    original = fb.oracle.wp_decide
    tracer = Tracer()
    tracer.install()
    try:
        assert fb.oracle.wp_decide is not original
        _, _, results, failed = run.run_pass(queries, tracer)
    finally:
        tracer.uninstall()
    assert fb.oracle.wp_decide is original and fb.wp_decide is original
    assert failed == 0
    summary = tracer.summarize(0, len(tracer.spans))
    total_self = sum(entry["self_s"] for entry in summary.values())
    assert total_self == pytest.approx(summary["query"]["incl_s"], rel=1e-6)
    conj = [r for r in results if hasattr(r, "trace")]
    assert tracer.counts["subdirect.power_queries"] == sum(len(r.trace.queries) for r in conj)
    assert summary["subdirect.p_conjugacy"]["calls"] == len(conj)
    assert tracer.counts["perturb.q_equal_calls"] > 0
    assert q.strat.kind == "dehn"
