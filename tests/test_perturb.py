"""Power-avoiding perturbation and the normal forms it starts from."""

import random
from functools import cache
from itertools import count

import pytest

from fibreconj import perturb
from fibreconj.oracle import (
    auto_strategy,
    check_decision,
    make_strategy,
    normal_form,
    q_equal,
    wp_decide,
)
from fibreconj.perturb import KMaxExhausted, PerturbConfig, kernel_witness, power_avoid
from fibreconj.presentation import Presentation
from fibreconj.subdirect import canonical_setup
from fibreconj.words import (
    exponent_vector,
    free_reduce,
    inverse,
    is_proper_power,
    mul,
    random_reduced_word,
    reduced_words,
)

Z = Presentation("ab", ("b",))
Z2 = Presentation("ab", ("abAB",))
Z3 = Presentation("a", ("aaa",))
ZXZ3 = Presentation("ab", ("aaa", "abAB"))
G2 = Presentation("abcd", ("abABcdCD",))
Z4XZ6 = Presentation("ab", ("aaaa", "bbbbbb", "abAB"))
FREE = Presentation("ab", ())


def setup_for(pres):
    return canonical_setup(pres), auto_strategy(pres)


@cache
def _unfiltered_min_rep(w, pres, strat):
    """Reference: the ball search that queries q_equal on every ball word."""
    w = free_reduce(w)
    for cand in reduced_words(pres.generators, len(w)):
        if q_equal(cand, w, pres, strat).yes:
            return cand
    raise AssertionError("ball search ended without reaching the word itself")


@cache
def _rank_order_witness(pres, strat):
    """Reference: the first nonempty reduced word trivial in Q, in
    length-then-rank order.

    When every relator has exponent sum zero in each generator, so has
    every trivial word; prefixes that cannot get back to zero within the
    length are skipped unqueried, which makes genus 2 affordable.
    """
    gens = pres.generators
    letters = [c for g in gens for c in (g, g.upper())]
    balanced = not any(any(exponent_vector(r, gens)) for r in pres.relators)

    def of_length(prefix, n):
        if balanced and sum(map(abs, exponent_vector(prefix, gens))) > n - len(prefix):
            return
        if len(prefix) == n:
            yield prefix
            return
        for c in letters:
            if not prefix or prefix[-1] != c.swapcase():
                yield from of_length(prefix + c, n)

    for n in count(1):
        for w in of_length("", n):
            if wp_decide(w, pres, strat).yes:
                return w


REFERENCE_CASES = [(Z, 5), (Z2, 5), (Z3, 5), (ZXZ3, 5), (G2, 3)]


@pytest.mark.parametrize("pres,max_len", REFERENCE_CASES, ids=["Z", "Z2", "Z3", "ZxZ3", "genus2"])
def test_outputs_match_unfiltered_references(monkeypatch, pres, max_len):
    setup, strat = setup_for(pres)
    cfg = PerturbConfig()
    words = list(reduced_words(pres.generators, max_len))
    assert kernel_witness(setup) == _rank_order_witness(pres, strat)
    for w in words:
        assert normal_form(w, pres, strat) == _unfiltered_min_rep(w, pres, strat)
    fast = [power_avoid(w, cfg, setup, strat) for w in words]
    # with both reference searches in place, power_avoid runs as it did
    # when it started from the ball search's minimal representative and
    # searched the ball for its witness
    monkeypatch.setattr(perturb, "normal_form", _unfiltered_min_rep)
    monkeypatch.setattr(perturb, "kernel_witness",
                        lambda setup: _rank_order_witness(setup.pres, strat))
    assert fast == [power_avoid(w, cfg, setup, strat) for w in words]


def test_kernel_witness_values():
    for pres, expect in ((Z, "b"), (Z2, "abAB"), (Z3, "aaa"), (ZXZ3, "aaa"), (G2, "abABcdCD")):
        setup, _ = setup_for(pres)
        assert kernel_witness(setup) == expect


def test_kernel_witness_free_quotient():
    pres = Presentation("ab", ())
    setup, _ = setup_for(pres)
    with pytest.raises(ValueError):
        kernel_witness(setup)


def test_normal_form_spots():
    cases = [
        (Z, "baB", "a"), (Z, "bb", ""), (Z, "a", "a"),
        (Z2, "ba", "ab"),  # among the length-2 words equal to ba, rank order picks ab
        (Z3, "aaaa", "a"),
        (G2, "abABc", "dcD"),  # Dehn: abAB is more than half of the relator
    ]
    for pres, w, nf in cases:
        assert normal_form(w, pres, auto_strategy(pres)) == nf


NORMAL_FORM_CASES = [(FREE, 4), (Z, 4), (Z2, 4), (Z3, 5), (ZXZ3, 4), (Z4XZ6, 4), (G2, 3)]


@pytest.mark.parametrize("pres,max_len", NORMAL_FORM_CASES,
                         ids=["free", "Z", "Z2", "Z3", "ZxZ3", "Z4xZ6", "genus2"])
def test_normal_form_is_certified_and_empty_iff_trivial(pres, max_len):
    strat = auto_strategy(pres)
    for w in reduced_words(pres.generators, max_len):
        nf = normal_form(w, pres, strat)
        assert nf == free_reduce(nf)
        assert check_decision(q_equal(nf, w, pres, strat), mul(nf, inverse(w)), pres)
        assert (nf == "") == wp_decide(w, pres, strat).yes


def test_normal_form_needs_exact_strategy():
    loose = make_strategy(Z2, "search", 1000)
    with pytest.raises(ValueError):
        normal_form("ab", Z2, loose)
    with pytest.raises(ValueError):
        normal_form("ac", Z2, auto_strategy(Z2))


def test_long_genus2_word_perturbs():
    setup, strat = setup_for(G2)
    w = random_reduced_word(random.Random(11), G2.generators, 400)
    res = power_avoid(w, PerturbConfig(), setup, strat)
    assert res.perturbed and not is_proper_power(res.word)
    assert check_decision(res.image_certificate, mul(res.word, inverse(w)), G2)


def test_power_avoid_spots():
    setup, strat = setup_for(Z)
    cfg = PerturbConfig()
    res = power_avoid("baB", cfg, setup, strat)
    assert res.perturbed and res.word == "ab" and res.k == 1
    assert res.base_rep == "a"
    assert res.image_certificate.yes

    res = power_avoid("bb", cfg, setup, strat)
    assert res.exceptional and res.word == ""

    setup2, strat2 = setup_for(Z2)
    res = power_avoid("ba", cfg, setup2, strat2)
    assert res.perturbed and res.word == "ababAB" and res.k == 1
    assert not is_proper_power(res.word)
    assert q_equal(res.word, "ba", Z2, strat2).yes


def test_power_avoid_exceptional_iff_trivial():
    setup, strat = setup_for(Z)
    # a nonempty normal form is perturbed, however short
    res = power_avoid("a", PerturbConfig(), setup, strat)
    assert res.perturbed and res.word == "ab"
    res = power_avoid("aBAb", PerturbConfig(), setup, strat)
    assert res.exceptional and res.word == res.base_rep == "" and res.k is None
    assert res.image_certificate.yes


def test_perturb_config_validates_k_max():
    assert PerturbConfig() == PerturbConfig(8) and PerturbConfig(0).k_max == 0
    with pytest.raises(ValueError, match="non-negative"):
        PerturbConfig(-1)
    # True == 1, but a bool is no exponent bound; nor is a float
    for bad in (True, False, 2.5, "8", None):
        with pytest.raises(TypeError, match="k_max must be an int"):
            PerturbConfig(k_max=bad)
    # _make and _replace build through __new__ as well
    with pytest.raises(ValueError, match="non-negative"):
        PerturbConfig()._replace(k_max=-1)
    with pytest.raises(TypeError):
        PerturbConfig._make((True,))
    assert type(PerturbConfig()._replace(k_max=3)) is PerturbConfig


def test_power_avoid_rank_one_exhausts():
    # over a single generator every word of length >= 2 is a proper
    # power, so no perturbation exponent can ever succeed, and the
    # normal form aa of a^2 in Z/5 is itself a proper power
    setup, strat = setup_for(Presentation("a", ("aaaaa",)))
    with pytest.raises(KMaxExhausted):
        power_avoid("aa", PerturbConfig(), setup, strat)


def test_power_avoid_keeps_primitive_minimal_rep():
    # every candidate a^(3k +- 1) is a proper power, but the normal form
    # a or A already is not one: it comes back with k = 0
    cases = [(Z3, w, w0) for w, w0 in (("a", "a"), ("A", "A"), ("aa", "A"), ("AAAA", "A"))]
    cases += [(ZXZ3, w, w0)
              for w, w0 in (("a", "a"), ("A", "A"), ("bAAB", "a"), ("aaaaa", "A"))]
    for pres, w, w0 in cases:
        setup, strat = setup_for(pres)
        res = power_avoid(w, PerturbConfig(), setup, strat)
        assert res.perturbed and res.k == 0
        assert res.word == res.base_rep == w0
        assert res.image_certificate.yes
        assert q_equal(res.word, w, pres, strat).yes
