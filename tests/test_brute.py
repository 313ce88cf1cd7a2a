"""Brute-force baselines: exhaustive engines kept independent of the fast paths."""

import random

import pytest

from fibreconj.brute import (
    ABSENT_WITHIN_BOUND,
    FOUND,
    brute_area,
    brute_p_conjugacy,
    brute_power,
    brute_primitive_root,
    random_instances,
)
from fibreconj.oracle import auto_strategy
from fibreconj.presentation import Presentation
from fibreconj.subdirect import canonical_setup
from fibreconj.words import free_reduce, inverse, is_proper_power, mul, primitive_root

Z = Presentation("ab", ("b",))
Z2 = Presentation("ab", ("abAB",))
Z3 = Presentation("a", ("aaa",))


def test_brute_area_spots():
    assert brute_area("", Z2) == 0
    assert brute_area("abAB", Z2) == 1
    assert brute_area("aabbAABB", Z2) == 4
    assert brute_area("bb", Z) == 2
    assert brute_area("aaa", Z3) == 1


def test_brute_area_bounds():
    # move cap below the true area yields no answer
    assert brute_area("aabbAABB", Z2, max_moves=3) is None
    assert brute_area("ab", Presentation("ab", ())) is None


def test_brute_conjugacy_found():
    setup = canonical_setup(Z)
    res = brute_p_conjugacy(("b", "b"), ("abA", "abA"), setup)
    assert res.status == FOUND
    g = res.conjugator
    for i in (0, 1):
        assert free_reduce(inverse(g[i]) + ("b", "b")[i] + g[i]) == "abA"


def test_brute_conjugacy_absent():
    setup = canonical_setup(Z)
    res = brute_p_conjugacy(("a", "a"), ("aa", "aa"), setup, max_radius=3)
    assert res.status == ABSENT_WITHIN_BOUND
    assert res.conjugator is None


def test_brute_power():
    strat_z = auto_strategy(Z)
    strat_z3 = auto_strategy(Z3)
    assert brute_power("aaa", "a", Z, strat_z) == 3
    assert brute_power("aa", "a", Z3, strat_z3) == -1
    assert brute_power("ab", "b", Z, strat_z) is None


def test_brute_primitive_root_spots():
    with pytest.raises(ValueError):
        brute_primitive_root("")
    assert brute_primitive_root("aa") == ("a", 2)
    assert brute_primitive_root("abab") == ("ab", 2)
    assert brute_primitive_root("ab") == ("ab", 1)
    # conjugated square: baabA = b(a^2)B with inner part aa
    assert brute_primitive_root("baaB") == ("baB", 2)


def test_brute_primitive_root_matches_fast_path():
    rng = random.Random(3)
    from fibreconj.words import random_reduced_word

    for _ in range(200):
        w = random_reduced_word(rng, "ab", rng.randint(1, 8))
        root, e = brute_primitive_root(w)
        dec = primitive_root(w)
        assert (dec.root, dec.exponent) == (root, e)
        assert not is_proper_power(root)


def test_brute_shares_no_free_reduction_with_the_engines(monkeypatch):
    setup = canonical_setup(Z2)
    pairs = [(("ab", "ab"), ("ba", "ba")), (("ab", "ba"), ("ba", "ab"))]  # found, absent

    def run():
        found = [brute_p_conjugacy(U, V, setup) for U, V in pairs]
        return found, list(random_instances(setup, 3, 20))

    expected = run()
    assert [r.status for r in expected[0]] == [FOUND, ABSENT_WITHIN_BOUND]

    def engine(*args):
        raise AssertionError("brute force called engine word arithmetic")

    for name in ("fibreconj.words.free_reduce", "fibreconj.subdirect.mul",
                 "fibreconj.subdirect.inverse"):
        monkeypatch.setattr(name, engine)
    assert run() == expected


def test_random_instances_deterministic():
    setup = canonical_setup(Z2)
    a = list(random_instances(setup, 99, 20))
    b = list(random_instances(setup, 99, 20))
    assert [(i.pair_u, i.pair_v, i.constructed) for i in a] == [
        (i.pair_u, i.pair_v, i.constructed) for i in b
    ]


def test_random_instances_mix_and_bounds():
    setup = canonical_setup(Z2)
    instances = list(random_instances(setup, 7, 100))
    assert len(instances) == 100
    assert sum(1 for i in instances if i.constructed) == 50
    for inst in instances:
        assert max(len(inst.pair_u[0]), len(inst.pair_u[1])) <= 6
        if inst.constructed:
            # recorded conjugator really produces pair_v from pair_u
            moved = tuple(mul(inverse(g), u, g) for g, u in zip(inst.conjugator, inst.pair_u))
            assert moved == inst.pair_v
