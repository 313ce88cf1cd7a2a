"""Strategy selection, certification, greedy rewriting, and deciders."""

import functools
import random
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import pad, seeded_relator
from fibreconj import area, oracle, words
from fibreconj.area import VanKampenProduct, area_bounded
from fibreconj.brute import brute_power
from fibreconj.cli import parse_presentation_file
from fibreconj.decisions import Decision, PowerDecision, Verdict
from fibreconj.oracle import (
    StrategySpec,
    _power_by_scan,
    auto_strategy,
    check_c16,
    check_decision,
    check_power_decision,
    dehn_greedy,
    dehn_greedy_trace,
    make_strategy,
    normal_form,
    power_decide,
    q_equal,
    replay_dehn_trace,
    wp_decide,
)
from fibreconj.presentation import Presentation
from fibreconj.words import (
    free_reduce,
    inverse,
    mul,
    mul2,
    power,
    random_reduced_word,
    reduced_words,
    rotate,
)

Z = Presentation("ab", ("b",))
Z2 = Presentation("ab", ("abAB",))
Z3 = Presentation("a", ("aaa",))
ZXZ3 = Presentation("ab", ("aaa", "abAB"))
G2 = Presentation("abcd", ("abABcdCD",))
G3 = Presentation("abcdef", ("abABcdCDefEF",))
# genus 2 and genus 3 on disjoint letters: relators of lengths 8 and 12
G2G3 = Presentation("abcdefghij", ("abABcdCD", "efEFghGHijIJ"))
FREE = Presentation("ab", ())


# one relator of 32 letters: a whole-relator match ends 15 letters past its head
LONG = Presentation("ab", (seeded_relator(32, "ab", 32),))


def test_certified_abelian():
    assert Z.certified_abelian
    assert Z2.certified_abelian
    assert Z3.certified_abelian
    assert Presentation("ab", ("b", "aaa")).certified_abelian
    assert not G2.certified_abelian
    assert not FREE.certified_abelian


def test_check_c16():
    assert check_c16(G2)
    assert check_c16(G2G3)
    assert check_c16(LONG)
    assert check_c16(Z)
    assert not check_c16(Z2)
    # a proper-power relator forms pieces with its own shifted copies
    assert not check_c16(Z3)


def test_strategy_selection():
    # a free group is the empty-presentation case of Dehn's algorithm
    s = auto_strategy(FREE)
    assert s.kind == "dehn" and s.exactness_claim
    s = auto_strategy(Presentation("a", ()))
    assert s.kind == "abelian" and s.exactness_claim
    assert auto_strategy(Z).kind == "abelian"
    assert auto_strategy(Z2).kind == "abelian"
    assert auto_strategy(G2).kind == "dehn"
    noisy = Presentation("ab", ("aba",))
    s = auto_strategy(noisy)
    assert s.kind == "search" and not s.exactness_claim


def test_strategy_pairing_errors():
    with pytest.raises(ValueError):
        make_strategy(FREE, "free")
    with pytest.raises(ValueError):
        make_strategy(Z2, "dehn")
    with pytest.raises(ValueError):
        make_strategy(Z2, "nonsense")
    with pytest.raises(ValueError):
        make_strategy(Z2, "abelian", budget=0)
    # True == 1, but a bool is no budget; nor is a float
    for bad in (True, False, 2.5, "1000", None):
        with pytest.raises(TypeError, match="budget must be an int"):
            make_strategy(Z2, "abelian", bad)
        with pytest.raises(TypeError, match="budget must be an int"):
            auto_strategy(G2, bad)
    assert make_strategy(FREE, "dehn").exactness_claim
    assert make_strategy(G2, "abelian").exactness_claim is False
    # a spec is checked against the presentation of every query it serves
    exact_abelian = make_strategy(Z2, "abelian")
    with pytest.raises(ValueError):
        wp_decide("abAB", G2, exact_abelian)
    with pytest.raises(ValueError):
        power_decide("abAB", "a", G2, exact_abelian)
    with pytest.raises(ValueError):
        wp_decide("ab", Z2, make_strategy(FREE, "dehn"))
    with pytest.raises(ValueError):
        wp_decide("ab", Z2, make_strategy(G2, "dehn"))
    assert wp_decide("abAB", G2, make_strategy(G2, "abelian")).unknown


@pytest.mark.parametrize(
    "spec",
    [StrategySpec("search", 1000, True), StrategySpec("dehn", 1000, False),
     StrategySpec("abelian", 1000, True)],
    ids=["exact-search", "inexact-dehn", "exact-abelian"],
)
def test_hand_built_specs_obey_the_exactness_rule(spec):
    # an exact search spec once gave normal_form("abAB", G2) == "", though
    # [a, b] != 1 in genus 2
    for query in (
        lambda: wp_decide("abAB", G2, spec),
        lambda: normal_form("abAB", G2, spec),
        lambda: power_decide("abAB", "a", G2, spec),
    ):
        with pytest.raises(ValueError):
            query()


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
    marks = pres.marked_rotations
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


def _full_reduction_replay(w: str, steps, pres: Presentation) -> str:
    """Reference replay: the step rule of _leftmost_rescan, which freely
    reduces the whole word after every step."""
    marks = {mark: s for s, mark in pres.marked_rotations}
    w = free_reduce(w)
    for pos, mark, j in steps:
        s = marks[mark]
        assert len(s) // 2 < j <= len(s) and w[pos : pos + j] == s[:j]
        w = free_reduce(w[:pos] + inverse(s[j:]) + w[pos + j :])
    return w


def _seeded_relator_product(rng, pres: Presentation, factors: int) -> str:
    """A product of conjugated rotations of the relators and their inverses."""
    rotations = [s for s, _ in pres.marked_rotations]
    w = ""
    for _ in range(factors):
        g = random_reduced_word(rng, pres.generators, rng.randint(0, 4))
        w = mul(w, inverse(g), rng.choice(rotations), g)
    return w


def _any_step(rng, w: str, pres: Presentation):
    """A step that passes every check of replay_dehn_trace, greedy or not, or None."""
    fits = [
        (pos, mark, j)
        for s, mark in pres.marked_rotations
        for pos in range(len(w))
        for j in range(len(s) // 2 + 1, len(s) + 1)
        if w[pos : pos + j] == s[:j]
    ]
    return rng.choice(fits) if fits else None


@pytest.mark.parametrize("pres", [G2, G2G3], ids=["genus2", "genus2xgenus3"])
def test_replay_dehn_trace_matches_full_reduction_replay(pres):
    # replay multiplies at the two seams of each step only; the answer must
    # be the one of reducing the whole word after every step
    rng = random.Random(20)
    letters = pres.generators + pres.generators.upper()
    for _ in range(60):
        w = _seeded_relator_product(rng, pres, rng.randint(1, 8))
        w += random_reduced_word(rng, pres.generators, rng.randint(0, 6))
        w = pad(w, rng, letters)
        terminal, steps = dehn_greedy_trace(w, pres)
        assert replay_dehn_trace(w, steps, pres) == _full_reduction_replay(w, steps, pres) == terminal
        # steps the greedy rewrite would not take: the replacement may
        # cancel against its neighbours
        cur, taken = free_reduce(w), []
        while (step := _any_step(rng, cur, pres)) is not None:
            taken.append(step)
            cur = _full_reduction_replay(cur, [step], pres)
        assert replay_dehn_trace(w, taken, pres) == cur


def _surface_words(pres: Presentation, max_size: int):
    return st.text(alphabet=pres.generators + pres.generators.upper(), max_size=max_size)


def _relator_products(pres: Presentation):
    """Products of conjugated rotations of the relators and their inverses."""
    rotations = [s for s, _ in pres.marked_rotations]
    factor = st.tuples(_surface_words(pres, 6), st.sampled_from(rotations))

    def product(factors):
        return mul(*(inverse(g) + s + g for g, s in factors))

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
# the whole relator goes and the cancellation runs on through both
# neighbours to the empty word.  A nonempty replacement never cancels
# (see dehn_greedy_trace), so this is the only way a step cancels
@example((G2, "bCCC" + "abABcdCD" + "cccB"))
# the neighbours of a nonempty replacement are inverse to each other but
# not adjacent, so nothing cancels
@example((G2, "a" + "abABc" + "A"))
# the word ends eight letters into the twelve-letter relator: the match
# is cut short by the end of the word
@example((G2G3, "aa" + "efEFghGH"))
# the second b starts exactly at the resume point c - L + 1 = 1.  With
# L >= 3 no match can: its first L - 1 letters were unchanged and
# already more than half a relator
@example((Z, "abb"))
# the word ends seven letters past the head of the 32-letter relator
@example((LONG, LONG.relators[0][:24]))
@given(
    st.sampled_from([G2, G3, G2G3, LONG]).flatmap(lambda p: st.tuples(st.just(p), _rewrite_inputs(p)))
)
def test_dehn_trace_matches_leftmost_rescan(case):
    pres, w = case
    assert dehn_greedy_trace(w, pres) == _leftmost_rescan(w, pres)


def _flat_pattern(pres: Presentation) -> re.Pattern:
    """One alternative per marked rotation s: its head s[:len(s) // 2 + 1]."""
    return re.compile("|".join(s[: len(s) // 2 + 1] for s, _ in pres.marked_rotations))


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([G2, G3, G2G3, LONG]).flatmap(lambda p: st.tuples(st.just(p), _rewrite_inputs(p)))
)
def test_trie_pattern_matches_flat_pattern(case):
    pres, w = case
    trie, flat = pres.rewrite_rules[0], _flat_pattern(pres)
    for start in range(len(w) + 1):
        got, want = trie.match(w, start), flat.match(w, start)
        assert (got and got.span()) == (want and want.span())


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


def test_dehn_relator_of_a_thousand_letters():
    # one rule per marked rotation, keyed by its head; a relator this long
    # once overflowed the recursion of re's parser
    pres = Presentation("ab", (seeded_relator(1000, "ab", 1000),))
    w = _seeded_relator_product(random.Random(1000), pres, 20)
    dec = wp_decide(w, pres, StrategySpec("dehn", exactness_claim=True))  # checks C'(1/6)
    rules = pres.rewrite_rules[1]
    marks = pres.marked_rotations
    assert sorted(rules.values()) == sorted((mark, s, inverse(s)) for s, mark in marks)
    assert all(head == s[: len(s) // 2 + 1] for head, (_, s, _) in rules.items())
    assert dec.yes and dec.certificate[2] == ""
    assert replay_dehn_trace(w, dec.certificate[1], pres) == ""
    assert check_decision(dec, w, pres)


def _near_heads(rng, pres: Presentation, count: int):
    """Seeded reduced words, about half of them around a slice of a marked
    rotation s that is a few letters shorter or longer than its head."""
    rotations = [s for s, _ in pres.marked_rotations]
    for _ in range(count):
        w = random_reduced_word(rng, pres.generators, rng.randint(0, 12))
        if rng.random() < 0.5:
            s = rng.choice(rotations)
            j = min(len(s), len(s) // 2 + rng.randint(-2, 3))
            w = mul(w, s[:j], random_reduced_word(rng, pres.generators, rng.randint(0, 12)))
        yield w


@pytest.mark.parametrize("name", ["genus2", "long", "thousand"])
def test_no_head_iff_the_rewrite_leaves_the_word(monkeypatch, name):
    # the checker's Dehn-No condition against the engine: on a reduced word,
    # no head s[:len(s) // 2 + 1] of a marked rotation occurs exactly when
    # dehn_greedy changes nothing
    pres = {
        "genus2": G2,
        "long": LONG,
        "thousand": Presentation("ab", (seeded_relator(1000, "ab", 1000),)),
    }[name]
    monkeypatch.setattr(oracle, "check_c16", functools.cache(check_c16))  # 1.2 s a call at 1,000
    heads = [s[: len(s) // 2 + 1] for s, _ in pres.marked_rotations]
    kept = 0
    for t in _near_heads(random.Random(7), pres, 300):
        no_head = not any(h in t for h in heads)
        assert no_head == (dehn_greedy(t, pres) == t), t
        assert check_decision(Decision(Verdict.NO, ("dehn", (), t)), t, pres) == (no_head and t != "")
        kept += no_head
    assert 50 < kept < 250  # both sides of the condition are reached


def test_dehn_no_with_a_head_in_its_terminal_word_is_rejected():
    s = auto_strategy(G2)
    # heads of the inverse relator dcDCbaBA and of the rotation cdCDabAB
    for w in ("dcDCb", "cdCDa", "adcDCb"):
        real = wp_decide(w, G2, s)
        assert real.no and real.certificate[1] and check_decision(real, w, G2), w
        assert not check_decision(Decision(Verdict.NO, ("dehn", (), w)), w, G2), w


def test_dehn_no_check_tests_c16_once_and_never_rewrites(monkeypatch):
    calls = []

    def counted(pres):
        calls.append(pres)
        return check_c16(pres)

    def no_rewrite(w, pres):
        raise AssertionError("the checker ran the rewrite engine")

    s = auto_strategy(G2)
    real = [(wp_decide(w, G2, s), w, True) for w in ("ab", "dcDCb", "abABcdCDa")]
    forged = [(Decision(Verdict.NO, ("dehn", (), w)), w, False) for w in ("dcDCb", "cdCDa")]
    monkeypatch.setattr(oracle, "check_c16", counted)
    monkeypatch.setattr(oracle, "dehn_greedy_trace", no_rewrite)
    for dec, w, accepted in real + forged:
        assert dec.no
        calls.clear()
        assert check_decision(dec, w, G2) == accepted, (dec, w)
        assert calls == [G2], (dec, w)


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


NOISY = Presentation("ab", ("aba",))  # neither abelian by inspection nor C'(1/6)


@pytest.mark.parametrize(
    "pres, kind",
    [(Z2, "abelian"), (ZXZ3, "abelian"), (G2, "dehn"), (FREE, "dehn"), (NOISY, "search")],
    ids=["z2-abelian", "zxz3-abelian", "genus2-dehn", "free-dehn", "search"],
)
def test_unreduced_words_get_the_answers_of_reduced_ones(pres, kind):
    # wp_decide hands the raw word to its strategy, which reduces it once
    # or, abelian, reads only its exponent vector
    strat = make_strategy(pres, kind, 2_000)
    rng = random.Random(20)
    letters = pres.generators + pres.generators.upper()
    answered = set()
    for _ in range(60):
        if pres.relators and rng.random() < 0.5:
            w = _seeded_relator_product(rng, pres, rng.randint(1, 2))
        else:
            w = random_reduced_word(rng, pres.generators, rng.randint(0, 8))
        padded = pad(w, rng, letters)
        dec = wp_decide(padded, pres, strat)
        assert dec == wp_decide(w, pres, strat), (w, padded)
        assert check_decision(dec, padded, pres) and check_decision(dec, w, pres)
        answered.add(dec.verdict)
        if strat.exactness_claim:
            assert normal_form(padded, pres, strat) == normal_form(w, pres, strat)
        got = area_bounded(padded, 3, pres, state_budget=500)
        assert got == area_bounded(w, 3, pres, state_budget=500), (w, padded)
    assert Verdict.YES in answered and len(answered) == 2


def _count_free_reduce(monkeypatch) -> list[str]:
    """Record the argument of every free_reduce call made through oracle, area or words."""
    seen = []
    real = words.free_reduce

    def counting(w):
        seen.append(w)
        return real(w)

    for module in (oracle, area, words):
        monkeypatch.setattr(module, "free_reduce", counting)
    return seen


def test_wp_decide_reduces_once(monkeypatch):
    # compute the presentations' facts, which reduce relators on first use
    for pres in (G2, Z2):
        wp_decide("", pres, auto_strategy(pres))
    padded = "aA" + "abABcdCD" + "dD" + "c"  # trivial times c
    seen = _count_free_reduce(monkeypatch)
    dec = wp_decide(padded, G2, auto_strategy(G2))
    assert dec.no and dec.certificate[2] == "c"
    assert seen == [padded]  # by dehn_greedy_trace, and only there
    seen.clear()
    assert wp_decide("aA" + "abAB" + "bB", Z2, auto_strategy(Z2)).yes
    assert seen == []  # the abelian strategy reads the exponent vector
    seen.clear()
    # a nontrivial word with zero exponent sum: the search runs out of budget
    assert wp_decide("bB" + "acAC", G2, make_strategy(G2, "search", 200)).unknown
    assert seen == ["bB" + "acAC"]  # by area_bounded, which splits the core off its reduction


@pytest.mark.parametrize("pres", [Z2, ZXZ3, G2, FREE], ids=["z2", "zxz3", "genus2", "free"])
def test_power_decide_on_unreduced_words(pres):
    # power_decide reduces w once and u only where it reads u reduced;
    # cancelling pairs in either word change neither answer nor certificate
    strat = auto_strategy(pres)
    rng = random.Random(f"power/{pres.generators}/{len(pres.relators)}")
    letters = pres.generators + pres.generators.upper()
    answered = set()
    for _ in range(60):
        u = random_reduced_word(rng, pres.generators, rng.randint(1, 5))
        if rng.random() < 0.5:
            kernel = _seeded_relator_product(rng, pres, 1) if pres.relators else ""
            w = mul(power(u, rng.randint(-3, 3)), kernel)
        else:
            w = random_reduced_word(rng, pres.generators, rng.randint(0, 8))
        pw, pu = pad(w, rng, letters), pad(u, rng, letters)
        pd = power_decide(pw, pu, pres, strat)
        assert repr(pd) == repr(power_decide(w, u, pres, strat)), (w, u, pw, pu)
        assert check_power_decision(pd, pw, pu, pres) and check_power_decision(pd, w, u, pres)
        answered.add(pd.verdict)
    assert {Verdict.YES, Verdict.NO} <= answered


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


FREE_TXT = parse_presentation_file(
    str(Path(__file__).resolve().parents[1] / "presentations" / "free.txt")
)


def test_free_group_is_dehn_on_the_empty_presentation():
    s = auto_strategy(FREE_TXT)
    assert s.kind == "dehn" and s.exactness_claim
    for r in reduced_words("ab", 6):
        k = len(r) // 2
        for w in (r, r[:k] + "bB" + r[k:], r + "Aa", mul(r, "ab") + "BA"):
            reduced = free_reduce(w)
            dec = wp_decide(w, FREE_TXT, s)
            assert dec.yes == (reduced == "") and dec.no == (reduced != ""), w
            assert normal_form(w, FREE_TXT, s) == reduced, w
            assert check_decision(dec, w, FREE_TXT), w


def test_free_powers_past_the_scan_bound():
    # the exponent scan stops at |p| <= 8; primitive roots have no such bound
    s = make_strategy(FREE_TXT, "dehn")
    pd = power_decide("a" * 20, "a", FREE_TXT, s)
    assert pd.yes and pd.p == 20
    assert check_power_decision(pd, "a" * 20, "a", FREE_TXT)


@pytest.mark.parametrize("pres", [G2, Presentation("ab", ("aba",)), FREE], ids=["G2", "aba", "free"])
def test_trivial_power_under_a_non_exact_strategy(pres):
    s = make_strategy(pres, "abelian")
    assert not s.exactness_claim
    for w in ("", "aA"):
        pd = power_decide(w, "a", pres, s)
        assert pd.yes and pd.p == 0
        assert check_power_decision(pd, w, "a", pres)


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
    # a^9 = (aa)^p has no solution, but the scan stops at |p| <= 8 and
    # cannot tell
    assert power_decide("a" * 9, "aa", G2, s).unknown


def test_order_no_carries_evidence():
    # a has order 3 in Z x Z/3 and b is no power of it
    s = auto_strategy(ZXZ3)
    pd = _power_by_scan("b", "a", ZXZ3, s)
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
    assert not pres.certified_abelian
    forged = Decision(Verdict.YES, ("abelian",))
    assert not any(pres.abelian_model.residues("abAB"))
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


def test_malformed_certificates_are_rejected():
    s = auto_strategy(G2)
    dk = wp_decide("aaa", ZXZ3, auto_strategy(ZXZ3))
    scanned = _power_by_scan("b", "a", ZXZ3, auto_strategy(ZXZ3)).certificate[3]
    four = power_decide("aaaa", "a", G2, s)
    words = [
        (Decision(Verdict.YES, None), "abABcdCD", G2),
        (Decision(Verdict.NO, ("dehn",)), "ab", G2),
        (Decision(Verdict.NO, ("dehn", (None,), "ab")), "ab", G2),
        (Decision(Verdict.YES, ("dehn", None, "")), "abABcdCD", G2),
        (Decision(Verdict.NO, ("dehn", ((0, (0, 1, 0), "x"),), "ab")), "ab", G2),
        # a step position must be an index into the word, not one from its end or a bool
        (Decision(Verdict.YES, ("dehn", ((-9, (0, 1, 0), 8),), "")), "cabABcdCDC", G2),
        (Decision(Verdict.YES, ("dehn", ((True, (0, 1, 0), 8),), "")), "cabABcdCDC", G2),
        (Decision(Verdict.YES, ("product", VanKampenProduct((("", "ab"),)))), "ab", Z2),
        (Decision(Verdict.YES, ("product", VanKampenProduct(None))), "abAB", Z2),
        (Decision(Verdict.YES, ("product", VanKampenProduct(((None, "abAB"),)))), "abAB", Z2),
        (Decision(Verdict.YES, ("free",)), "", FREE),
        # a No for a trivial word, a Yes for a nontrivial one, and a Yes over a
        # group that is not certifiably abelian, though abABcdCD = 1 there
        (Decision(Verdict.NO, ("abelian",)), "abAB", Z2),
        (Decision(Verdict.YES, ("abelian",)), "a", Z2),
        (Decision(Verdict.YES, ("abelian",)), "abABcdCD", G2),
        (Decision(Verdict.YES, ("abelian", (0, 0))), "abAB", Z2),  # the former residues
        (None, "ab", G2),
        (power_decide("b", "a", G2, s), "b", G2),  # a power decision is no decision
    ]
    for dec, w, pres in words:
        assert check_decision(dec, w, pres) is False, dec
    no = Verdict.NO
    powers = [
        (PowerDecision(no, None, ("commutator", None)), "b", "a", G2),
        (PowerDecision(Verdict.YES, 1, ("power",)), "a", "a", G2),
        (PowerDecision(no, None, ("commutator", Decision(no, None))), "b", "a", G2),
        (PowerDecision(no, None, ("trivial-u", "x")), "a", "abABcdCD", G2),
        (PowerDecision(no, None, ("order", 3, None, None)), "b", "a", ZXZ3),
        (PowerDecision(no, None, ("order", 3, dk, (1,))), "b", "a", ZXZ3),
        (PowerDecision(no, None, ("order", 0, dk, ())), "b", "a", ZXZ3),
        # Nos where w = u^p: abab = (ab)^2, ab = a over Z, 1 = u^0
        (PowerDecision(no, None, ("roots",)), "abab", "ab", FREE),
        (PowerDecision(no, None, ("roots",)), "", "", FREE),
        (PowerDecision(no, None, ("lattice",)), "ab", "a", Z),
        (PowerDecision(no, None, ("roots",)), "ab", "b", Z),  # roots speak for free groups only
        (PowerDecision(no, None, ("roots", ("a", 1, "", 0))), "a", "", FREE),  # the former roots
        (PowerDecision(no, None, ("abelian",)), "ab", "b", Z),
        (PowerDecision(no, None, ("exhausted", 4, ())), "a" * 9, "aa", G2),
        (PowerDecision(Verdict.YES, 2, ("power", Decision(Verdict.YES, ("dehn", None, "")))),
         "aa", "a", G2),
        (PowerDecision(no, None, ("order", 3, dk, (("x", scanned[0][1]),))), "b", "a", ZXZ3),
        # the exponent of a Yes must be the one its certificate proves
        (PowerDecision(Verdict.YES, 3, four.certificate), "aaaa", "a", G2),
        # the exponent is stored once, in p: the former copies in the certificate are rejected
        (PowerDecision(Verdict.YES, 4, ("power", 4, four.certificate[1])), "aaaa", "a", G2),
        (PowerDecision(Verdict.YES, 2, ("power", 2, ("roots", ("ab", 2, "ab", 1)))),
         "abab", "ab", FREE),
        (PowerDecision(no, None, ("lattice", (1, 1), (0, 1))), "ab", "b", Z),  # the former vectors
    ]
    for pd, w, u, pres in powers:
        assert check_power_decision(pd, w, u, pres) is False, pd


def test_forged_well_formed_certificates_are_rejected():
    s = auto_strategy(G2)
    # "trivial-u" must prove u = 1 as well as w != 1: a is a power of a
    dw = wp_decide("a", G2, s)
    for cert in (("trivial-u", dw), ("trivial-u", wp_decide("abABcdCD", G2, s), dw)):
        assert not check_power_decision(PowerDecision(Verdict.NO, None, cert), "a", "a", G2)
    real = power_decide("a", "abABcdCD", G2, s)
    assert real.no and real.certificate[0] == "trivial-u"
    assert check_power_decision(real, "a", "abABcdCD", G2)
    # a commutator No needs a No for the commutator, a power Yes a Yes
    trivial = wp_decide("", G2, s)
    forged = PowerDecision(Verdict.NO, None, ("commutator", trivial))
    assert not check_power_decision(forged, "a", "a", G2)
    forged = PowerDecision(Verdict.YES, 1, ("power", wp_decide("bA", G2, s)))
    assert not check_power_decision(forged, "b", "a", G2)
    # the empty relator product proves only a free reduction to 1: w * u^-1 below is a
    # relator, trivial in Q but not in F
    empty = power_decide("", "a", G2, s).certificate
    assert check_power_decision(PowerDecision(Verdict.YES, 0, empty), "cC", "a", G2)
    for w, p in (("abABcdCDa", 1), ("a", 0), ("aa", 1)):
        assert not check_power_decision(PowerDecision(Verdict.YES, p, empty), w, "a", G2), w
    # "free" is no certificate tag, with relators or without
    assert not check_decision(Decision(Verdict.NO, ("free", "abABcdCD")), "abABcdCD", G2)
    # a Dehn No must end in a word that holds no head of a marked rotation:
    # a truncated trace of a relator product does not
    w = mul("c", "abABcdCD", "C")
    assert wp_decide(w, G2, s).yes
    assert not check_decision(Decision(Verdict.NO, ("dehn", (), w)), w, G2)
    # a Dehn No is sound only under C'(1/6)
    assert not check_decision(Decision(Verdict.NO, ("dehn", (), "abAB")), "abAB", Z2)


def test_forged_unknowns_are_rejected():
    # an Unknown asserts nothing, but it passes only in the shape the
    # engines give it: ("budget", reason), with exponent None for a power
    unknown = Verdict.UNKNOWN
    assert not check_decision(Decision(unknown, "junk"), "a", Z2)
    assert not check_power_decision(PowerDecision(unknown, 5, None), "a", "b", Z2)
    assert not check_power_decision(PowerDecision(unknown, True, ("x",)), "a", "b", Z2)
    for cert in (None, ("budget",), ("budget", 5), ("budget", "", "x"), ("dehn", (), "")):
        assert not check_decision(Decision(unknown, cert), "a", Z2), cert
        assert not check_power_decision(PowerDecision(unknown, None, cert), "a", "b", Z2), cert
    assert not check_power_decision(PowerDecision(unknown, 0, ("budget", "")), "a", "b", Z2)
    # engine-made Unknowns still pass
    s = make_strategy(G2, "search", 50)
    made = [(wp_decide("acAC", G2, s), ("acAC",))]
    made += [(power_decide(w, "a", G2, s), (w, "a")) for w in ("ac", "acAC")]
    made.append((Decision(unknown, ("budget", "")), ("a",)))
    made.append((PowerDecision(unknown, None, ("budget", "")), ("a", "b")))
    for dec, ws in made:
        assert dec.unknown and dec.certificate[0] == "budget", dec
        check = check_decision if isinstance(dec, Decision) else check_power_decision
        assert check(dec, *ws, G2), dec


def test_bool_exponents_are_rejected():
    # True == 1, so each forgery below certifies a true fact, but a bool is
    # no exponent, as a bool is no step position in a Dehn trace
    for w, pres in (("ab", Z2), ("a", FREE)):
        pd = power_decide(w, w, pres, auto_strategy(pres))
        assert pd.p == 1 and check_power_decision(pd, w, w, pres)
        forged = PowerDecision(Verdict.YES, True, pd.certificate)
        assert check_power_decision(forged, w, w, pres) is False, forged
    # u = aaa = 1 over Z x Z/3, and b is not 1, so b is no power of u
    s = auto_strategy(ZXZ3)
    dk, db = wp_decide("aaa", ZXZ3, s), wp_decide("b", ZXZ3, s)
    for k, p, ok in ((1, 0, True), (True, 0, False), (1, False, False)):
        order = PowerDecision(Verdict.NO, None, ("order", k, dk, ((p, db),)))
        assert check_power_decision(order, "b", "aaa", ZXZ3) is ok, order
    # (False, True, 0) == (0, 1, 0) and True == 1: bools are no Dehn step entries
    for step, w, pres, ok in (
        ((0, (0, 1, 0), 8), "abABcdCD", G2, True),
        ((0, (False, True, 0), 8), "abABcdCD", G2, False),
        ((0, (0, 1, 0), 1), "b", Z, True),
        ((0, (0, 1, 0), True), "b", Z, False),
    ):
        dehn = Decision(Verdict.YES, ("dehn", (step,), ""))
        assert check_decision(dehn, w, pres) is ok, dehn


@pytest.mark.parametrize("pres", [FREE_TXT, Z2, ZXZ3, G2], ids=["free", "z2", "zxz3", "genus2"])
def test_tag_only_nos_are_judged_on_truth(pres):
    # ("roots",), ("lattice",) and ("abelian",) hold nothing but their tag, so
    # the checker must judge them on w and u: accepted whenever an engine
    # emits them, and never when brute_power finds an exponent, nor for a
    # word that such an exponent makes trivial
    exact = auto_strategy(pres)
    strategies = {exact, make_strategy(pres, "abelian")}
    rng = random.Random(30)
    gens = pres.generators
    emitted, refuted = set(), 0
    for _ in range(60):
        u = random_reduced_word(rng, gens, rng.choice((0, 1, 2, 3)))
        w = random_reduced_word(rng, gens, rng.randint(0, 4))
        if rng.random() < 0.5:
            w = mul(power(u, rng.randint(-3, 3)), w if rng.random() < 0.3 else "")
        ref = brute_power(w, u, pres, exact, max_abs_p=16)
        trivial = None if ref is None else mul(w, inverse(power(u, ref)))
        for strat in strategies:
            pd = power_decide(w, u, pres, strat)
            dec = wp_decide(w, pres, strat)
            if pd.certificate in (("roots",), ("lattice",)):
                emitted.add(pd.certificate)
                assert check_power_decision(pd, w, u, pres), (w, u, pd)
            if dec.certificate == ("abelian",) and dec.no:
                emitted.add(dec.certificate)
                assert check_decision(dec, w, pres), (w, dec)
        for tag in ("roots", "lattice"):
            ok = check_power_decision(PowerDecision(Verdict.NO, None, (tag,)), w, u, pres)
            assert not (ok and ref is not None), (tag, w, u, ref)
        if trivial is not None:
            refuted += 1
            assert not check_decision(Decision(Verdict.NO, ("abelian",)), trivial, pres), trivial
    assert refuted >= 20
    power_tag = ("roots",) if pres is FREE_TXT else ("lattice",)
    assert emitted == {power_tag, ("abelian",)}


def test_certificates_for_words_outside_the_generators_are_rejected():
    # each certificate would fit x if x were a letter of the presentation
    zero = Decision(Verdict.YES, ("abelian",))
    assert not check_decision(zero, "x", Z2)
    assert not check_power_decision(PowerDecision(Verdict.YES, 0, ("power", zero)), "x", "a", Z2)
    empty = Decision(Verdict.YES, ("product", VanKampenProduct(())))
    assert not check_power_decision(PowerDecision(Verdict.YES, 0, ("power", empty)), "xX", "a", Z2)
    assert not check_decision(Decision(Verdict.NO, ("dehn", (), "x")), "x", G2)
    assert not check_decision(Decision(Verdict.NO, ("free", "x")), "x", FREE)


def _real_certificates():
    """One or two real decisions of every certificate tag, with the truth they certify.

    Word entries are (Decision, w, pres); power entries are
    (PowerDecision, w, u, pres).  Every presentation here has an exact
    strategy, so the truth is the decision's own verdict.
    """
    search = make_strategy(Z2, "search", 100_000)
    words = [
        (wp_decide("abA", FREE, auto_strategy(FREE)), "abA", FREE),  # dehn without relators
        (wp_decide("aA", FREE, auto_strategy(FREE)), "aA", FREE),
        (wp_decide("ab", Z2, auto_strategy(Z2)), "ab", Z2),  # abelian
        (wp_decide("abAB", Z2, auto_strategy(Z2)), "abAB", Z2),
        (wp_decide("cabABcdCDC", G2, auto_strategy(G2)), "cabABcdCDC", G2),  # dehn
        (wp_decide("abc", G2, auto_strategy(G2)), "abc", G2),
        (wp_decide("abAB", Z2, search), "abAB", Z2),  # product
    ]
    s = auto_strategy(G2)
    powers = [
        (power_decide("aaaa", "a", G2, s), "aaaa", "a", G2),  # power
        # w = 1 and free-group Yes: the empty relator product, whatever the strategy
        (power_decide("cC", "a", G2, s), "cC", "a", G2),
        (power_decide("bB", "a", Z2, auto_strategy(Z2)), "bB", "a", Z2),
        (power_decide("", "ab", Z2, search), "", "ab", Z2),
        (power_decide("abab", "ab", FREE, auto_strategy(FREE)), "abab", "ab", FREE),
        (power_decide("aba", "ab", FREE, auto_strategy(FREE)), "aba", "ab", FREE),  # roots
        (power_decide("a", "", FREE, auto_strategy(FREE)), "a", "", FREE),
        (power_decide("ab", "b", Z, auto_strategy(Z)), "ab", "b", Z),  # lattice
        (power_decide("b", "a", G2, s), "b", "a", G2),  # commutator
        (power_decide("a", "abABcdCD", G2, s), "a", "abABcdCD", G2),  # trivial-u
        (_power_by_scan("b", "a", ZXZ3, auto_strategy(ZXZ3)), "b", "a", ZXZ3),  # order
    ]
    return words, powers


REAL_WORDS, REAL_POWERS = _real_certificates()


def _entries(node):
    """Every entry nested anywhere inside a certificate, the certificate included."""
    yield node
    if isinstance(node, Decision):
        yield from _entries(node.certificate)
    elif isinstance(node, tuple):
        for item in node:
            yield from _entries(item)


TAGS = ("abelian", "dehn", "product", "power", "roots", "lattice",
        "commutator", "trivial-u", "order")
# fillers, plus every real decision, checked word and certificate entry
POOL = [None, "x", 0, ()] + [
    e
    for dec, *words in REAL_WORDS + REAL_POWERS
    for e in (dec, *words[:-1], *_entries(dec.certificate))
]


@st.composite
def _forged(draw, node):
    """node with one edit at a random depth.

    The edit swaps a tag or a nested verdict, truncates or extends a
    tuple, or replaces an entry by a draw from POOL.
    """
    if isinstance(node, Decision):
        if draw(st.booleans()):
            return Decision(draw(st.sampled_from((Verdict.YES, Verdict.NO))), node.certificate)
        return Decision(node.verdict, draw(_forged(node.certificate)))
    if not isinstance(node, tuple) or not node or draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from(POOL))
    i = draw(st.integers(0, len(node) - 1))
    edit = draw(st.sampled_from(("tag", "truncate", "extend", "replace", "descend")))
    if edit == "tag":
        return (draw(st.sampled_from(TAGS)),) + node[1:]
    if edit == "truncate":
        return node[:i]
    if edit == "extend":
        return node + (draw(st.sampled_from(POOL)),)
    if edit == "replace":
        return node[:i] + (draw(st.sampled_from(POOL)),) + node[i + 1 :]
    return node[:i] + (draw(_forged(node[i])),) + node[i + 1 :]


@settings(max_examples=1000, deadline=None)
@given(st.data())
def test_forged_certificates_never_raise_or_back_a_wrong_verdict(data):
    cert_of = data.draw(st.sampled_from(REAL_WORDS + REAL_POWERS))
    real = cert_of[0]
    cert = real.certificate
    for _ in range(data.draw(st.integers(1, 3))):
        cert = data.draw(_forged(cert))
    if isinstance(real, Decision):
        _, w, pres = cert_of
        for verdict in (Verdict.YES, Verdict.NO):
            ok = check_decision(Decision(verdict, cert), w, pres)
            assert isinstance(ok, bool)
            assert not ok or verdict is real.verdict, cert
        return
    _, w, u, pres = cert_of
    for p in {real.p, data.draw(st.integers(-4, 4))}:
        ok = check_power_decision(PowerDecision(Verdict.YES, p, cert), w, u, pres)
        assert isinstance(ok, bool)
        # a Yes may name any exponent that works, but only one that works
        assert not ok or q_equal(w, power(u, p), pres, auto_strategy(pres)).yes, (p, cert)
    ok = check_power_decision(PowerDecision(Verdict.NO, None, cert), w, u, pres)
    assert isinstance(ok, bool)
    assert not ok or real.no, cert
