"""Fibre product membership and conjugacy."""

import random

import pytest

from conftest import pad
from fibreconj.brute import random_instances
from fibreconj.decisions import PowerDecision, Verdict
from fibreconj.oracle import auto_strategy, check_power_decision, power_decide, q_equal
from fibreconj.presentation import Presentation
from fibreconj.subdirect import (
    ConjugacyResult,
    ConjugacyTrace,
    PairElement,
    canonical_setup,
    conjugacy_words,
    p_conjugacy,
    p_membership,
    replay_trace,
    validate_pair,
)
from fibreconj.words import free_reduce, inverse, mul, random_reduced_word

Z = Presentation("ab", ("b",))
Z2 = Presentation("ab", ("abAB",))
Z3 = Presentation("a", ("aaa",))
ZXZ3 = Presentation("ab", ("aaa", "abAB"))
G2 = Presentation("abcd", ("abABcdCD",))


def setup_for(pres):
    return canonical_setup(pres), auto_strategy(pres)


def test_validate_pair():
    assert validate_pair(("aA", "b"), "ab") == PairElement("", "b")
    with pytest.raises(ValueError):
        validate_pair(("x", ""), "ab")


def test_canonical_generators_order():
    setup = canonical_setup(Z2)
    assert setup.p_generators == (
        PairElement("a", "a"),
        PairElement("b", "b"),
        PairElement("abAB", ""),
        PairElement("", "abAB"),
    )


def test_membership():
    setup, strat = setup_for(Z2)
    assert p_membership(("b", ""), canonical_setup(Z), auto_strategy(Z)).yes
    assert p_membership(("a", ""), setup, strat).no
    assert p_membership(("ab", "ba"), setup, strat).yes
    assert p_membership(("a", "b"), setup, strat).no


def test_conjugacy_worked_example():
    setup, strat = setup_for(Z)
    res = p_conjugacy(("b", "b"), ("abA", "abA"), setup, strat)
    assert res.yes
    g = res.conjugator
    # the defining invariant, not a particular output value
    for i in (0, 1):
        assert free_reduce(inverse(g[i]) + "b" + g[i]) == "abA"
    assert p_membership(g, setup, strat).yes
    assert res.trace.branch == "main"
    assert res.trace.queries[-1].yes
    assert replay_trace(res, ("b", "b"), ("abA", "abA"), setup, strat)


def test_conjugacy_negative_example():
    setup, strat = setup_for(Z)
    res = p_conjugacy(("b", "b"), ("abA", "b"), setup, strat)
    assert res.no
    assert res.trace.branch == "main"
    assert all(pd.no for pd in res.trace.queries)


def test_conjugacy_coordinate_obstruction():
    setup, strat = setup_for(Z2)
    # all four words share one Q-image, but abab and aabb are not even
    # conjugate in F
    res = p_conjugacy(("abab", "abab"), ("abab", "aabb"), setup, strat)
    assert res.no and res.trace.branch == "coords"


def test_conjugacy_membership_errors():
    setup, strat = setup_for(Z2)
    with pytest.raises(ValueError):
        p_conjugacy(("a", "b"), ("a", "a"), setup, strat)
    with pytest.raises(ValueError):
        p_conjugacy(("a", "a"), ("a", "b"), setup, strat)


def test_conjugacy_degenerate_branches():
    setup, strat = setup_for(Z2)
    # first coordinates trivial; conjugation only constrains the second
    U = ("", "abAB")
    V = ("", free_reduce("B" + "abAB" + "b"))
    res = p_conjugacy(U, V, setup, strat)
    assert res.yes and res.trace.branch == "deg-first"
    g = res.conjugator
    assert g.first == g.second
    for i in (0, 1):
        assert free_reduce(inverse(g[i]) + U[i] + g[i]) == V[i]
    assert replay_trace(res, U, V, setup, strat)

    # symmetric case
    U2 = ("abAB", "")
    V2 = (free_reduce("A" + "abAB" + "a"), "")
    res2 = p_conjugacy(U2, V2, setup, strat)
    assert res2.yes and res2.trace.branch == "deg-second"
    assert replay_trace(res2, U2, V2, setup, strat)
    # the branch must be the one U takes, and a degenerate trace holds nothing else
    for bad, (u, v) in (
        (res._replace(trace=ConjugacyTrace("deg-second")), (U, V)),
        (res._replace(trace=ConjugacyTrace("deg-first", (power_decide("a", "b", Z2, strat),))),
         (U, V)),
        (res2._replace(trace=ConjugacyTrace("deg-first")), (U2, V2)),
        (res2._replace(trace=ConjugacyTrace("deg-second", ((0, "", None),))), (U2, V2)),
        # plain tuples equal to the right traces, but no ConjugacyTrace
        (res._replace(trace=("deg-first", ())), (U, V)),
        (res2._replace(trace=("deg-second", ())), (U2, V2)),
    ):
        assert replay_trace(bad, u, v, setup, strat) is False, bad

    # mixed trivial/nontrivial first coordinates fail coordinatewise
    res3 = p_conjugacy(("", "abAB"), ("abAB", "abAB"), setup, strat)
    assert res3.no and res3.trace.branch == "coords"


def test_conjugacy_identity_pair():
    setup, strat = setup_for(Z2)
    res = p_conjugacy(("", ""), ("", ""), setup, strat)
    assert res.yes
    assert res.conjugator == PairElement("", "")


def test_constructed_conjugates_found():
    for pres in (Z, Z2, Z3):
        setup, strat = setup_for(pres)
        rng = random.Random(5)
        dirs = []
        for g in setup.p_generators:
            dirs.append(g)
            dirs.append(PairElement(*map(inverse, g)))
        for _ in range(25):
            u = PairElement("", "")
            for _ in range(rng.randint(1, 8)):
                u = PairElement(*map(mul, u, rng.choice(dirs)))
            gamma = PairElement("", "")
            for _ in range(rng.randint(0, 4)):
                gamma = PairElement(*map(mul, gamma, rng.choice(dirs)))
            v = PairElement(*(mul(inverse(x), y, x) for x, y in zip(gamma, u)))
            res = p_conjugacy(u, v, setup, strat)
            assert res.yes, (pres.relators, u, gamma)
            g = res.conjugator
            for i in (0, 1):
                assert free_reduce(inverse(g[i]) + u[i] + g[i]) == v[i]
            assert replay_trace(res, u, v, setup, strat)


def test_replay_rejects_non_positive():
    # a main-branch No replays; the same trace claimed as an Unknown does not
    setup, strat = setup_for(Z)
    U, V = ("b", "b"), ("abA", "b")
    res = p_conjugacy(U, V, setup, strat)
    assert res.no and res.trace.branch == "main"
    assert replay_trace(res, U, V, setup, strat) is True
    assert replay_trace(res._replace(verdict=Verdict.UNKNOWN), U, V, setup, strat) is False


def test_replay_rejects_malformed_results():
    setup, strat = setup_for(Z)
    U, V = ("b", "b"), ("abA", "abA")
    res = p_conjugacy(U, V, setup, strat)
    assert res.yes and res.trace.branch == "main"
    trace = res.trace
    *missed, won = trace.queries
    no = power_decide("a", "b", Z, strat)  # a real No about a, not about query 0's target
    assert no.no
    forged = [
        res._replace(trace=None),
        res._replace(conjugator=None),
        res._replace(conjugator=tuple(res.conjugator)),
        res._replace(trace=trace._replace(branch="coords")),
        # a true Yes, but U is on the main branch
        res._replace(trace=ConjugacyTrace("deg-first")),
        res._replace(trace=trace._replace(branch="deg-second")),
        # the last query a No, so no query rebuilds the conjugator
        res._replace(trace=trace._replace(queries=(*missed, no))),
        # the exponent of the last query forged
        res._replace(trace=trace._replace(queries=(*missed, won._replace(p=won.p + 1)))),
        res._replace(trace=trace._replace(queries=())),
        res._replace(trace=trace._replace(queries=None)),
        res._replace(trace=trace._replace(queries=(None,))),
        ConjugacyResult(Verdict.YES, res.conjugator, None),
        None,
    ]
    for bad in forged:
        assert replay_trace(bad, U, V, setup, strat) is False, bad
    assert replay_trace(res, U, V, setup, strat) is True

    # words with a letter outside the generators
    empty = ("", "")
    deg = ConjugacyResult(Verdict.YES, PairElement("x", "x"), ConjugacyTrace("deg-first"))
    assert replay_trace(deg, empty, empty, setup, strat) is False
    U, V = ("Ba", "BBBab"), ("aBBabA", "aBaBBBabAbA")
    res = p_conjugacy(U, V, setup, strat)
    assert [pd.p for pd in res.trace.queries] == [-1]
    assert replay_trace(res, U, V, setup, strat) is True
    gamma = res.conjugator
    bad = res._replace(conjugator=PairElement(gamma.first + "xX", gamma.second))
    assert replay_trace(bad, U, V, setup, strat) is False


def test_replay_checks_the_winning_decision():
    setup, strat = setup_for(G2)
    U, V = ("d", "d"), ("BadAb", "dcDCbaBABadcDCbaBAdabABcdCDAbabABcdCD")
    res = p_conjugacy(U, V, setup, strat)
    assert res.yes and res.trace.branch == "main" and replay_trace(res, U, V, setup, strat)
    trace = res.trace
    *missed, won = trace.queries
    j = len(missed)
    Ur, Vr = validate_pair(U, "abcd"), validate_pair(V, "abcd")
    words = conjugacy_words(Ur, Vr)
    unknown = PowerDecision(Verdict.UNKNOWN, None, ("budget", ""))
    # a decision about another target, equal in Q: same verdict and exponent,
    # but its Dehn trace does not fit the winning target
    other = power_decide(words.target(j) + "abABcdCD", words.z1, G2, strat)
    assert other.yes and other.p == won.p
    for last in (
        other,
        unknown,
        None,
        tuple(won),  # a plain tuple, no PowerDecision
        won._replace(p=won.p + 1),
    ):
        bad = res._replace(trace=trace._replace(queries=(*missed, last)))
        assert replay_trace(bad, U, V, setup, strat) is False, last
    # The scan stops at e2 queries.  Query e2 is a Yes, and the conjugator it
    # rebuilds takes U to V inside P, but e2 Unknowns and then that Yes are
    # no scan's trace.
    late = power_decide(words.target(words.e2), words.z1, G2, strat)
    gamma = words.conjugator(words.e2, late.p)
    assert late.yes and p_membership(gamma, setup, strat).yes
    assert all(mul(inverse(g), u, g) == v for g, u, v in zip(gamma, Ur, Vr))
    queries = (unknown,) * words.e2 + (late,)
    bad = ConjugacyResult(Verdict.YES, gamma, ConjugacyTrace("main", queries))
    assert replay_trace(bad, U, V, setup, strat) is False


def test_replay_rejects_queries_past_the_first_yes():
    # U = V = (aa, aa): x1 = x2 = w = 1 and z1 = z2 = a, e2 = 2.  Query 0
    # is a Yes with p = 0, so the scan stops there with conjugator (1, 1).
    setup, strat = setup_for(Z2)
    U = V = ("aa", "aa")
    res = p_conjugacy(U, V, setup, strat)
    words = conjugacy_words(validate_pair(U, "ab"), validate_pair(V, "ab"))
    assert res.yes and res.conjugator == ("", "") and len(res.trace.queries) == 1
    assert replay_trace(res, U, V, setup, strat) is True
    # query 1 is a Yes too, and its conjugator (a, a) takes U to V inside P,
    # but the scan never reaches it, and query 0 rebuilds (1, 1), not (a, a)
    yes1 = power_decide(words.target(1), words.z1, Z2, strat)
    gamma = words.conjugator(1, yes1.p)
    assert yes1.yes and gamma == ("a", "a") and p_membership(gamma, setup, strat).yes
    queries = (*res.trace.queries, yes1)
    past = res._replace(conjugator=gamma, trace=res.trace._replace(queries=queries))
    assert replay_trace(past, U, V, setup, strat) is False
    assert replay_trace(res._replace(conjugator=gamma), U, V, setup, strat) is False


@pytest.mark.parametrize("pres", [Z2, ZXZ3, G2], ids=["z2", "zxz3", "genus2"])
def test_coords_nos_replay(pres):
    setup, strat = setup_for(pres)
    nos = 0
    for inst in random_instances(setup, 5, 200):
        u, v = inst.pair_u, inst.pair_v
        res = p_conjugacy(u, v, setup, strat)
        if res.no and res.trace.branch == "coords":
            nos += 1
            assert replay_trace(res, u, v, setup, strat) is True, (u, v)
    assert nos >= 90


def test_replay_rejects_forged_coords_nos():
    setup, strat = setup_for(Z2)
    # the first coordinates are not conjugate in F, the second ones are
    U, V = ("ab", "ab"), ("aBAbab", "ba")
    res = p_conjugacy(U, V, setup, strat)
    assert res.no and res.trace == ConjugacyTrace("coords")
    assert replay_trace(res, U, V, setup, strat) is True
    trace = res.trace
    query = power_decide("a", "b", Z2, strat)
    forged = [
        # queries, which the coords branch leaves empty
        res._replace(trace=trace._replace(queries=(query,))),
        res._replace(trace=trace._replace(queries=[])),  # a list, not the empty tuple
        res._replace(trace=trace._replace(branch="main")),
        res._replace(verdict=Verdict.YES),  # a Yes with a coords trace
        res._replace(verdict=Verdict.YES, conjugator=PairElement("", "a")),
        res._replace(verdict=Verdict.UNKNOWN),
        res._replace(conjugator=PairElement("", "a")),
        res._replace(trace=("coords", ())),  # equal to the trace, but a plain tuple
    ]
    for bad in forged:
        assert replay_trace(bad, U, V, setup, strat) is False, bad
    # both coordinates conjugate, so the coords branch does not end in No
    W = ("ba", "ba")
    assert replay_trace(res, U, W, setup, strat) is False
    assert p_conjugacy(U, W, setup, strat).yes


def test_replay_rejects_forged_main_nos():
    setup, strat = setup_for(Z2)
    U, V = ("aa", "aa"), ("baaB", "aa")
    res = p_conjugacy(U, V, setup, strat)
    assert res.no and res.trace.branch == "main" and len(res.trace.queries) == 2
    assert replay_trace(res, U, V, setup, strat) is True
    trace = res.trace
    q0, q1 = trace.queries
    unknown = PowerDecision(Verdict.UNKNOWN, None, ("budget", ""))
    yes = power_decide("aa", "a", Z2, strat)  # a real Yes about another target
    assert yes.yes and check_power_decision(yes, "aa", "a", Z2)
    roots = PowerDecision(Verdict.NO, None, ("roots",))  # a free-group No, but Q has a relator
    # query 2 as p_conjugacy would make it, but e2 = 2 stops the scan at j = 1
    extra = power_decide("aab", "a", Z2, strat)
    assert extra.no

    def with_queries(*queries):
        return res._replace(trace=trace._replace(queries=queries))

    forged = [
        with_queries(q0),  # one query short
        with_queries(q0, q1, extra),  # an extra query
        with_queries(q0, q1, q0),
        with_queries(q0, unknown),  # an Unknown
        with_queries(yes, q1),  # a Yes
        with_queries(q0, roots),
        with_queries(q0, tuple(q1)),  # a plain tuple, no PowerDecision
    ]
    for bad in forged:
        assert replay_trace(bad, U, V, setup, strat) is False, bad
    # the first coordinates of U and W are not conjugate in F
    W = ("abaB", "aa")
    assert p_conjugacy(U, W, setup, strat).trace.branch == "coords"
    assert replay_trace(res, U, W, setup, strat) is False


@pytest.mark.parametrize("pres, U, V, winner", [
    (Z2, ("abaB", "aa"), ("aabaBA", "abABaabaBA"), (1, 1)),
    (Z, ("abaa", "aaa"), ("Baabab", "Baaab"), (2, 0)),
], ids=["z2", "z"])
def test_replay_checks_every_query_before_the_winner(pres, U, V, winner):
    # a main Yes whose query j has exponent p holds queries 0 ... j, each
    # k < j a No or Unknown about z2^k * w^-1 that the scan went on past
    setup, strat = setup_for(pres)
    res = p_conjugacy(U, V, setup, strat)
    trace = res.trace
    *missed, won = trace.queries
    assert res.yes and trace.branch == "main" and (len(missed), won.p) == winner
    assert replay_trace(res, U, V, setup, strat) is True
    q0, *rest = trace.queries
    unknown = PowerDecision(Verdict.UNKNOWN, None, ("budget", ""))

    def with_queries(*queries):
        return res._replace(trace=trace._replace(queries=queries))

    # an Unknown before the winner is what the scan passes over
    assert replay_trace(with_queries(unknown, *rest), U, V, setup, strat)
    forged = [
        with_queries((None, "junk"), *trace.queries),  # a junk prefix
        with_queries(*rest),  # a query dropped
        with_queries(q0, *missed),  # the winner dropped: the last query a No
        with_queries(q0, *trace.queries),  # a query duplicated: e2 + 1 queries
        with_queries(*missed[:-1], won, missed[-1]),  # the winner and the query before it swapped
        with_queries(won, *rest),  # a prefix Yes
        with_queries(unknown._replace(p=0), *rest),
        # the winner's exponent forged: True == 1, but a bool is no exponent
        with_queries(*missed, won._replace(p=won.p + 1)),
        with_queries(*missed, won._replace(p=True)),
        with_queries(*missed, tuple(won)),  # a plain tuple, no PowerDecision
    ]
    for bad in forged:
        assert replay_trace(bad, U, V, setup, strat) is False, bad


def test_main_yeses_replay_only_whole():
    setup, strat = setup_for(Z2)
    yeses = 0
    for inst in random_instances(setup, 5, 300):
        u, v = inst.pair_u, inst.pair_v
        res = p_conjugacy(u, v, setup, strat)
        if res.yes and res.trace.branch == "main":
            yeses += 1
            assert replay_trace(res, u, v, setup, strat) is True, (u, v)
            trace = res.trace._replace(queries=((None, "junk"),) + res.trace.queries)
            assert replay_trace(res._replace(trace=trace), u, v, setup, strat) is False, (u, v)
    assert yeses == 128


@pytest.mark.parametrize("pres", [Z2, ZXZ3, G2], ids=["z2", "zxz3", "genus2"])
def test_unreduced_inputs_get_the_answers_of_reduced_ones(pres):
    # the queries reduce their inputs once and then multiply reduced words
    # at the seams only, so a word left unreduced would change the answer
    setup, strat = setup_for(pres)
    letters = pres.generators + pres.generators.upper()
    rng = random.Random(18)
    found = 0
    for inst in random_instances(setup, 7, 40):
        u, v = inst.pair_u, inst.pair_v
        pu = PairElement(pad(u[0], rng, letters), pad(u[1], rng, letters))
        pv = PairElement(pad(v[0], rng, letters), pad(v[1], rng, letters))
        res = p_conjugacy(u, v, setup, strat)
        found += res.yes
        assert p_conjugacy(pu, pv, setup, strat) == res, (u, v)
        assert p_membership(pu, setup, strat) == p_membership(u, setup, strat)
        assert power_decide(pu[0], pv[0], pres, strat) == power_decide(u[0], v[0], pres, strat)
        assert q_equal(pu[0], pv[1], pres, strat) == q_equal(u[0], v[1], pres, strat)
    assert found >= 5


def _outcome(f, *args):
    """f's result, or the type and text of the exception it raises."""
    try:
        return f(*args)
    except (TypeError, ValueError) as e:
        return type(e), str(e)


@pytest.mark.parametrize("pres", [Z2, ZXZ3, G2], ids=["z2", "zxz3", "genus2"])
def test_membership_is_q_equal_on_reduced_coordinates(pres):
    # p_membership validates each coordinate and asks about a * b^-1
    # unreduced: the decision, its certificate and every error are those
    # of q_equal on the reduced coordinates
    setup, strat = setup_for(pres)
    gens = pres.generators
    letters = gens + gens.upper()
    rng = random.Random(32)

    def reference(pair):
        a, b = validate_pair(pair, gens)
        return q_equal(a, b, pres, strat)

    pairs = []
    for _ in range(60):
        a = random_reduced_word(rng, gens, rng.randint(0, 8))
        theta = random_reduced_word(rng, gens, rng.randint(0, 3))
        r = rng.choice(pres.relators)
        member = mul(a, inverse(theta), r, theta)
        other = random_reduced_word(rng, gens, rng.randint(0, 8))
        pairs += [(a, member), (member, a), (a, other)]
    pairs += [(pad(a, rng, letters), pad(b, rng, letters)) for a, b in pairs]
    pairs += [("x", "a"), ("a", "x"), ("ax", "bX"), (None, "a"), ("a", 3), ("a",), ("a", "b", "c")]
    yeses = 0
    for pair in pairs:
        got = _outcome(p_membership, pair, setup, strat)
        assert repr(got) == repr(_outcome(reference, pair)), pair
        yeses += getattr(got, "yes", False)
    assert yeses >= 200
