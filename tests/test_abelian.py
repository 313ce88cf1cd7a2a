"""Abelianized model: lattice membership, normal forms and power solutions."""

from hypothesis import given, strategies as st

from fibreconj.abelian import abelian_model, minimal_power, power_solutions
from fibreconj.words import inverse, mul, power


def test_triviality():
    m = abelian_model("ab", ("abAB",))
    assert m.residues("") == (0, 0)
    assert m.residues("abAB") == (0, 0)
    assert m.residues("aBAb") == (0, 0)
    assert m.residues("ab") != (0, 0)
    z3 = abelian_model("a", ("aaa",))
    assert z3.residues("aaa") == (0,)
    assert z3.residues("AAA") == (0,)
    assert z3.residues("a") != (0,)


def test_coprime_orders_stay_trivial():
    # Z/2 x Z/3 is cyclic of order 6, but b^3 and a^2 are still trivial
    m = abelian_model("ab", ("aa", "bbb"))
    assert m.residues("bbb") == m.residues("aa") == (0, 0)
    assert m.residues("ab") != (0, 0)


_relators = st.lists(st.text("aAbBc", min_size=1, max_size=8), min_size=1, max_size=3)


@given(_relators)
def test_relators_vanish(relators):
    m = abelian_model("abc", tuple(relators))
    for r in relators:
        assert not any(m.residues(r))


@given(_relators, st.text("aAbBc", max_size=10))
def test_normal_form_names_the_image(relators, w):
    m = abelian_model("abc", tuple(relators))
    nf = m.normal_form(w)
    assert m.residues(nf) == m.residues(w)
    assert m.normal_form(nf) == nf
    assert (nf == "") == (not any(m.residues(w)))


def test_normal_form_examples():
    assert abelian_model("ab", ("abAB",)).normal_form("baBAba") == "ab"
    assert abelian_model("ab", ("b",)).normal_form("bAAb") == "AA"
    z4 = abelian_model("a", ("aaaa",))
    # (-2, 2] keeps the positive exponent on the tie
    assert [z4.normal_form("a" * e) for e in range(4)] == ["", "a", "aa", "A"]


def test_normal_form_spells_the_generators_not_the_smith_basis():
    # Z/4 x Z/6: b^4 is spelled in b alone, not in a basis that mixes a and b
    z4z6 = abelian_model("ab", ("aaaa", "bbbbbb", "abAB"))
    assert z4z6.normal_form("bbbb") == "BB"
    assert z4z6.normal_form("aaabbb") == "Abbb"


def test_power_solutions_point():
    m = abelian_model("ab", ("b",))
    sol = power_solutions(m, "aaa", "a")
    assert sol is not None
    assert minimal_power(sol) == 3
    assert power_solutions(m, "aab", "b") is None


def test_power_solutions_modular():
    z3 = abelian_model("a", ("aaa",))
    sol = power_solutions(z3, "aa", "a")
    assert sol is not None
    # p = -1 and p = 2 both work; the minimum in absolute value wins
    assert minimal_power(sol) == -1
    sol0 = power_solutions(z3, "", "a")
    assert sol0 is not None and minimal_power(sol0) == 0


def test_minimal_power_tie_is_positive():
    z4 = abelian_model("a", ("aaaa",))
    sol = power_solutions(z4, "aa", "a")
    assert sol is not None
    # p = 2 and p = -2 both solve; ties go to the positive exponent
    assert minimal_power(sol) == 2


@given(st.integers(-6, 6), st.integers(1, 5))
def test_power_solutions_complete_cyclic(target, order):
    m = abelian_model("a", ("a" * order,))
    w = "a" * target if target >= 0 else "A" * (-target)
    sol = power_solutions(m, w, "a")
    assert sol is not None
    p = minimal_power(sol)
    assert (p - target) % order == 0
    assert abs(p) <= order // 2


def _in_solutions(p, sol):
    if sol is None:
        return False
    base, step = sol
    return p == base if step == 0 else (p - base) % step == 0


@given(_relators, st.text("aAbBc", max_size=10), st.text("aAbBc", max_size=6))
def test_power_solutions_are_exactly_the_powers(relators, w, u):
    m = abelian_model("abc", tuple(relators))
    sol = power_solutions(m, w, u)
    for p in range(-40, 41):
        assert _in_solutions(p, sol) == (not any(m.residues(mul(w, inverse(power(u, p))))))


def test_power_solutions_z4_x_z6():
    z4z6 = abelian_model("ab", ("aaaa", "bbbbbb", "abAB"))
    # ab has order 12; a^3 b^3 = (ab)^3, and a^-3 b^3 = a b^3 = (ab)^9 = (ab)^-3
    assert power_solutions(z4z6, "aaabbb", "ab") == (3, 12)
    assert minimal_power(power_solutions(z4z6, "AAAbbb", "ab")) == -3
    assert power_solutions(z4z6, "aa", "bb") is None
    assert power_solutions(z4z6, "ab", "aabb") is None
    # b^4 = (b^2)^2 = (b^2)^-1 and b^2 has order 3
    assert power_solutions(z4z6, "bbbb", "bb") == (2, 3)
    assert minimal_power(power_solutions(z4z6, "bbbb", "bb")) == -1


def test_power_solutions_coprime_orders():
    # <a, b | a^2, b^3>: b^3 = 1 = (ab)^0 = (ab)^6, and b = (ab)^4
    m = abelian_model("ab", ("aa", "bbb"))
    assert power_solutions(m, "bbb", "ab") == (0, 6)
    assert power_solutions(m, "b", "ab") == (4, 6)
    assert minimal_power(power_solutions(m, "b", "ab")) == -2
    assert power_solutions(m, "a", "b") is None
