"""Abelianized model: lattice membership and power congruences."""

from hypothesis import given, strategies as st

from fibreconj.abelian import abelian_model, minimal_power, power_solutions


def test_moduli_examples():
    assert abelian_model("a", ("aaa",)).moduli == (3,)
    assert abelian_model("ab", ("abAB",)).moduli == (0, 0)
    assert abelian_model("ab", ("b",)).moduli == (1, 0)
    assert abelian_model("ab", ()).moduli == (0, 0)


def test_divisibility_chain():
    m = abelian_model("abc", ("aa", "bbbb", "cccccc")).moduli
    nonzero = [d for d in m if d]
    for x, y in zip(nonzero, nonzero[1:]):
        assert y % x == 0


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
    # Z/2 x Z/3 has invariant factor 6 alone; the coordinate change that
    # merges 2 and 3 into 6 must reach the transform too, or b^3 reads
    # as nontrivial
    m = abelian_model("ab", ("aa", "bbb"))
    assert m.moduli == (1, 6)
    assert m.residues("bbb") == m.residues("aa") == (0, 0)
    assert m.residues("ab") != (0, 0)


_relators = st.lists(st.text("aAbBc", min_size=1, max_size=8), min_size=1, max_size=3)


@given(_relators)
def test_relators_vanish_and_transform_inverts(relators):
    m = abelian_model("abc", tuple(relators))
    for r in relators:
        assert not any(m.residues(r))
    # V is invertible over the integers: its determinant is a unit
    (a, b, c), (d, e, f), (g, h, i) = m.transform
    assert a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g) in (1, -1)
    nonzero = [d for d in m.moduli if d]
    assert all(y % x == 0 for x, y in zip(nonzero, nonzero[1:]))


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
    # Z/4 x Z/6: the Smith basis mixes a and b, the echelon basis does not
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
