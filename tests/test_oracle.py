"""Strategy selection, certification, greedy rewriting, and deciders."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from fibreconj.abelian import abelian_model
from fibreconj.area import Presentation
from fibreconj.decisions import Decision, PowerDecision, Verdict
from fibreconj.oracle import (
    _marked_rotations,
    _power_by_scan,
    auto_strategy,
    certified_abelian,
    check_c16,
    check_decision,
    check_power_decision,
    dehn_greedy,
    dehn_greedy_trace,
    make_strategy,
    power_decide,
    q_equal,
    replay_dehn_trace,
    wp_decide,
)
from fibreconj.words import free_reduce, inverse, mul, mul2, random_reduced_word, rotate

Z = Presentation("ab", ("b",))
Z2 = Presentation("ab", ("abAB",))
Z3 = Presentation("a", ("aaa",))
ZXZ3 = Presentation("ab", ("aaa", "abAB"))
G2 = Presentation("abcd", ("abABcdCD",))
G3 = Presentation("abcdef", ("abABcdCDefEF",))
FREE = Presentation("ab", ())


def test_certified_abelian():
    assert certified_abelian(Z)
    assert certified_abelian(Z2)
    assert certified_abelian(Z3)
    assert certified_abelian(Presentation("ab", ("b", "aaa")))
    assert not certified_abelian(G2)
    assert not certified_abelian(FREE)


def test_check_c16():
    assert check_c16(G2)
    assert check_c16(Z)
    assert not check_c16(Z2)
    # a proper-power relator forms pieces with its own shifted copies
    assert not check_c16(Z3)


def test_strategy_selection():
    assert auto_strategy(FREE).kind == "free"
    assert auto_strategy(Z).kind == "abelian"
    assert auto_strategy(Z2).kind == "abelian"
    assert auto_strategy(G2).kind == "dehn"
    noisy = Presentation("ab", ("aba",))
    s = auto_strategy(noisy)
    assert s.kind == "search" and not s.exactness_claim


def test_strategy_pairing_errors():
    with pytest.raises(ValueError):
        make_strategy(Z2, "free")
    with pytest.raises(ValueError):
        make_strategy(Z2, "dehn")
    with pytest.raises(ValueError):
        make_strategy(Z2, "nonsense")
    with pytest.raises(ValueError):
        make_strategy(Z2, "abelian", budget=0)
    assert make_strategy(FREE, "free").exactness_claim
    assert make_strategy(G2, "abelian").exactness_claim is False


def test_dehn_greedy_examples():
    assert dehn_greedy("bab", Z) == "a"
    assert dehn_greedy("bb", Z) == ""
    assert dehn_greedy("abABcdCD", G2) == ""
    assert dehn_greedy("ab", G2) == "ab"
    # conjugated relator product
    w = mul("D", "abABcdCD", "d", "cdCDabAB")
    assert dehn_greedy(w, G2) == ""


def test_dehn_trace_replay():
    w = mul("ba", inverse("abABcdCD"), "AB")
    terminal, steps = dehn_greedy_trace(w, G2)
    assert terminal == ""
    assert replay_dehn_trace(w, steps, G2) == ""
    with pytest.raises(ValueError):
        replay_dehn_trace("ab", steps, G2)
    # the checker rejects a trace that does not fit the word
    dec = wp_decide(w, G2, auto_strategy(G2))
    assert check_decision(dec, w, G2)
    assert not check_decision(dec, "ab", G2)


def test_dehn_greedy_strictly_shortens():
    w = mul("c", "abABcdCD", "C")
    seen = free_reduce(w)
    lengths = [len(seen)]
    terminal, steps = dehn_greedy_trace(w, G2)
    cur = seen
    for pos, mark, j in steps:
        cur = replay_dehn_trace(cur, [(pos, mark, j)], G2)
        lengths.append(len(cur))
    assert terminal == "" and all(a > b for a, b in zip(lengths, lengths[1:]))


def _leftmost_rescan(w: str, pres: Presentation):
    """Reference greedy rewrite: rescan from the start after every step.

    Tries every marked rotation and every match length at every position
    and freely reduces the whole word after each step.  dehn_greedy_trace
    must produce exactly its (terminal, steps).
    """
    marks = _marked_rotations(pres)
    w = free_reduce(w)
    steps = []
    while True:
        hit = None
        for pos in range(len(w)):
            for s, mark in marks:
                top = min(len(s), len(w) - pos)
                for j in range(top, len(s) // 2, -1):
                    if w[pos : pos + j] == s[:j]:
                        hit = (pos, mark, j, s)
                        break
                if hit:
                    break
            if hit:
                break
        if hit is None:
            return w, tuple(steps)
        pos, mark, j, s = hit
        w = free_reduce(w[:pos] + inverse(s[j:]) + w[pos + j :])
        steps.append((pos, mark, j))


def _surface_words(pres: Presentation, max_size: int):
    return st.text(alphabet=pres.generators + pres.generators.upper(), max_size=max_size)


def _relator_products(pres: Presentation):
    """Products of conjugated rotations of the relator or its inverse."""
    r = pres.relators[0]
    factor = st.tuples(_surface_words(pres, 6), st.booleans(), st.integers(0, len(r) - 1))

    def product(factors):
        return mul(*(
            inverse(g) + rotate(r if sign else inverse(r), t) + g for g, sign, t in factors
        ))

    return st.lists(factor, min_size=1, max_size=12).map(product)


def _rewrite_inputs(pres: Presentation):
    return st.one_of(
        _surface_words(pres, 120),
        _relator_products(pres),
        st.tuples(_relator_products(pres), _surface_words(pres, 12)).map("".join),
    )


@settings(max_examples=300, deadline=None)
# the whole relator goes, CCCC cancels cccc across the gap, and the next
# match starts four letters before where the relator was
@example((G2, "abAB" + "CCCC" + "abABcdCD" + "cccc" + "cdCD"))
@given(st.sampled_from([G2, G3]).flatmap(lambda p: st.tuples(st.just(p), _rewrite_inputs(p))))
def test_dehn_trace_matches_leftmost_rescan(case):
    pres, w = case
    assert dehn_greedy_trace(w, pres) == _leftmost_rescan(w, pres)


def test_dehn_long_relator_product():
    rng = random.Random(20_000)
    rels = ("abABcdCD", inverse("abABcdCD"))
    w = ""
    while len(w) < 20_000:
        g = random_reduced_word(rng, "abcd", rng.randint(0, 3))
        w = mul2(w, mul(inverse(g), rotate(rng.choice(rels), rng.randrange(8)), g))
    terminal, steps = dehn_greedy_trace(w, G2)
    assert terminal == ""
    assert replay_dehn_trace(w, steps, G2) == ""


def test_dehn_requires_c16():
    with pytest.raises(ValueError):
        dehn_greedy("ab", Z2)


def test_wp_certificates():
    cases = [
        (FREE, "abA", Verdict.NO),
        (FREE, "aA", Verdict.YES),
        (Z2, "abAB", Verdict.YES),
        (Z2, "ab", Verdict.NO),
        (G2, "abABcdCD", Verdict.YES),
        (G2, "abc", Verdict.NO),
    ]
    for pres, w, verdict in cases:
        strat = auto_strategy(pres)
        dec = wp_decide(w, pres, strat)
        assert dec.verdict is verdict
        assert check_decision(dec, w, pres)


def test_wp_search_yes_with_product_certificate():
    strat = make_strategy(Z2, "search", 100_000)
    dec = wp_decide("abAB", Z2, strat)
    assert dec.yes and dec.certificate[0] == "product"
    assert check_decision(dec, "abAB", Z2)
    # search never answers No
    assert wp_decide("ab", Z2, make_strategy(Z2, "search", 200)).unknown


def test_abelian_non_exact_is_sound():
    strat = make_strategy(G2, "abelian")
    dec = wp_decide("a", G2, strat)
    assert dec.no and check_decision(dec, "a", G2)
    assert wp_decide("abAB", G2, strat).unknown


def test_q_equal():
    strat = auto_strategy(Z2)
    assert q_equal("ab", "ba", Z2, strat).yes
    assert q_equal("a", "b", Z2, strat).no
    with pytest.raises(ValueError):
        q_equal("x", "a", Z2, strat)


def test_power_free_strategy():
    s = auto_strategy(FREE)
    assert power_decide("abab", "ab", FREE, s).p == 2
    assert power_decide("BABA", "ab", FREE, s).p == -2
    assert power_decide("aba", "ab", FREE, s).no
    assert power_decide("", "ab", FREE, s).p == 0
    assert power_decide("a", "", FREE, s).no
    for w, u in (("abab", "ab"), ("aba", "ab"), ("a", "")):
        pd = power_decide(w, u, FREE, s)
        assert check_power_decision(pd, w, u, FREE)


def test_power_abelian_strategy():
    s = auto_strategy(Z)
    pd = power_decide("aaa", "a", Z, s)
    assert pd.yes and pd.p == 3
    assert check_power_decision(pd, "aaa", "a", Z)
    pd = power_decide("ab", "b", Z, s)
    assert pd.no and check_power_decision(pd, "ab", "b", Z)
    # torsion: minimal exponent through the congruence
    s3 = auto_strategy(Z3)
    pd = power_decide("aa", "a", Z3, s3)
    assert pd.yes and pd.p == -1
    assert check_power_decision(pd, "aa", "a", Z3)


def test_power_dehn_strategy():
    s = auto_strategy(G2)
    pd = power_decide("aaaa", "a", G2, s)
    assert pd.yes and pd.p == 4
    assert check_power_decision(pd, "aaaa", "a", G2)
    pd = power_decide("b", "a", G2, s)
    assert pd.no and pd.certificate[0] == "commutator"
    assert check_power_decision(pd, "b", "a", G2)
    pd = power_decide("A", "a", G2, s)
    assert pd.yes and pd.p == -1


def test_power_bound_exhaustion():
    s = auto_strategy(G2)
    # a^9 is not a power of a within |p| <= 4; with a certified bound the
    # scan exhaustion becomes a definite No
    pd = power_decide("a" * 9, "aa", G2, s, power_bound=4)
    assert pd.no and pd.certificate[0] == "exhausted"
    assert check_power_decision(pd, "a" * 9, "aa", G2)
    # without a bound the same scan stays agnostic beyond its default range
    pd = power_decide("a" * 9, "aa", G2, s)
    assert pd.unknown


def test_forged_exhausted_no_is_rejected():
    s = auto_strategy(G2)
    real = power_decide("a" * 9, "aa", G2, s, power_bound=4)
    _, bound, scanned = real.certificate
    # a^8 = (aa)^4: no scan up to |p| <= 4 can refute it
    w = "a" * 8
    assert power_decide(w, "aa", G2, s, power_bound=4).yes
    for cert in (
        ("exhausted", 4),
        ("exhausted", bound, scanned),
        ("exhausted", 3, tuple((p, d) for p, d in scanned if abs(p) <= 3)),
    ):
        assert not check_power_decision(PowerDecision(Verdict.NO, None, cert), w, "aa", G2)
    # the real evidence does not cover a larger bound
    wider = PowerDecision(Verdict.NO, None, ("exhausted", 5, scanned))
    assert not check_power_decision(wider, "a" * 9, "aa", G2)


def test_order_no_carries_evidence():
    # a has order 3 in Z x Z/3 and b is no power of it
    s = auto_strategy(ZXZ3)
    pd = _power_by_scan("b", "a", ZXZ3, s, None)
    assert pd.no and pd.certificate[:2] == ("order", 3)
    assert check_power_decision(pd, "b", "a", ZXZ3)
    _, k, dk, scanned = pd.certificate
    for w, cert in (
        ("aa", ("order", 3)),  # aa = a^2: no evidence at all
        ("aa", pd.certificate),  # evidence for another word
        ("b", ("order", 2, dk, scanned)),  # dk proves a^3 = 1, not a^2 = 1
        ("b", ("order", 3, dk, tuple(e for e in scanned if e[0] != 1))),  # nothing = 1 mod 3
    ):
        assert not check_power_decision(PowerDecision(Verdict.NO, None, cert), w, "a", ZXZ3)


def test_forged_abelian_yes_is_rejected():
    # abAB is nontrivial in <a,b | aabbAABB>, but its abelian image is zero
    pres = Presentation("ab", ("aabbAABB",))
    assert not certified_abelian(pres)
    model = abelian_model(pres.generators, pres.relators)
    forged = Decision(Verdict.YES, ("abelian", model.residues("abAB"), model.moduli))
    assert not check_decision(forged, "abAB", pres)
    # an abelian No stays sound without the certification
    dec = wp_decide("a", pres, make_strategy(pres, "abelian"))
    assert dec.no and check_decision(dec, "a", pres)


def test_power_trivial_base():
    s = auto_strategy(Z)
    pd = power_decide("bbb", "b", Z, s)
    assert pd.yes and pd.p == 0
    assert check_power_decision(pd, "bbb", "b", Z)
    pd = power_decide("a", "b", Z, s)
    assert pd.no
