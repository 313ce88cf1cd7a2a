"""Facts derived from a presentation: computed once per object, read in a fixed order."""

import random

import pytest

from conftest import seeded_relator
from fibreconj import abelian
from fibreconj.area import area_bounded
from fibreconj.oracle import auto_strategy, wp_decide
from fibreconj.presentation import Presentation
from fibreconj.words import inverse, mul, random_reduced_word, rotate

Z2 = Presentation("ab", ("abAB",))
ZXZ3 = Presentation("ab", ("aaa", "abAB"))
G2 = Presentation("abcd", ("abABcdCD",))
LONG = Presentation("ab", (seeded_relator(32, "ab", 32),))

FACTS = (
    "marked_rotations",
    "rotation_by_mark",
    "rewrite_rules",
    "certified_abelian",
    "abelian_model",
    "area_tables",
)


@pytest.mark.parametrize("fact", FACTS)
def test_fact_is_built_once_per_object(fact):
    pres = Presentation("abcd", ("abABcdCD",))
    assert fact not in vars(pres)
    assert getattr(pres, fact) is getattr(pres, fact)


def test_abelian_model_built_once_across_queries(monkeypatch):
    built = []
    real = abelian.abelian_model

    def counting(generators, relators):
        built.append((generators, relators))
        return real(generators, relators)

    monkeypatch.setattr(abelian, "abelian_model", counting)
    pres = Presentation("ab", ("abAB",))
    strat = auto_strategy(pres)
    rng = random.Random(50)
    for _ in range(50):
        wp_decide(random_reduced_word(rng, "ab", rng.randint(0, 12)), pres, strat)
    assert built == [("ab", ("abAB",))]


def test_facts_leave_equality_hash_and_repr():
    pres = Presentation("abcd", ("abABcdCD",))
    before = hash(pres), repr(pres)
    for fact in FACTS:
        getattr(pres, fact)
    other = Presentation("abcd", ("abABcdCD",))
    assert (hash(pres), repr(pres)) == before == (hash(other), repr(other))
    assert pres == other and {pres: "genus 2"}[other] == "genus 2"
    # equal presentations built separately each compute their own facts
    assert not any(fact in vars(other) for fact in FACTS)
    assert other.marked_rotations == pres.marked_rotations
    assert other.marked_rotations is not pres.marked_rotations


def test_every_construction_path_validates():
    # _make and _replace build through __new__, so no path skips the checks
    with pytest.raises(ValueError, match="not freely reduced"):
        Z2._replace(relators=("aA",))
    with pytest.raises(ValueError, match="duplicate generator"):
        Presentation._make(("aa", ()))
    with pytest.raises(TypeError, match="relators"):
        Presentation._make(("ab", ["abAB"]))
    assert Z2._replace(relators=("aaa", "abAB")) == ZXZ3
    assert type(Presentation._make(("ab", ("abAB",)))) is Presentation


def test_fields_and_facts_refuse_assignment():
    pres = Presentation("ab", ("abAB",))
    assert pres.marked_rotations  # the facts live in the instance __dict__
    for name in ("generators", "relators", "marked_rotations", "other"):
        with pytest.raises(AttributeError):
            setattr(pres, name, ())
        with pytest.raises(AttributeError):
            delattr(pres, name)
    assert pres == ("ab", ("abAB",)) and "marked_rotations" in vars(pres)


@pytest.mark.parametrize("pres", [G2, Z2, ZXZ3, LONG], ids=["genus2", "Z2", "ZxZ3", "long"])
def test_area_tables_read_off_marked_rotations(pres):
    # strings are the distinct marked rotations in first-seen order, which
    # fixes the order of a state's children in the area search
    tables = pres.area_tables
    marked = pres.marked_rotations
    assert tables.strings == tuple(dict.fromkeys(s for s, _ in marked))
    forms = {}
    for s, (i, sign, t) in marked:
        base = pres.relators[i] if sign == 1 else inverse(pres.relators[i])
        assert s == rotate(base, t)
        options = forms.setdefault(s, [])
        for g in (base[:t], inverse(base[t:])):
            assert mul(inverse(g), base, g) == s
            if (base, g) not in options:
                options.append((base, g))
    assert tables.forms == forms


def test_area_tables_order_pins_the_witness():
    assert Z2.area_tables.strings == (
        "abAB", "bABa", "ABab", "BabA", "baBA", "aBAb", "BAba", "AbaB",
    )
    res = area_bounded("aabbAABB", None, Z2)
    assert res.value == 4
    assert res.witness.factors == (
        ("", "abAB"), ("B", "abAB"), ("abAABB", "abAB"), ("babAABB", "abAB"),
    )
