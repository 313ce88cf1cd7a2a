"""Free-group word arithmetic."""

import random
from itertools import product

import pytest
from hypothesis import given, strategies as st

from conftest import pad
from fibreconj.brute import brute_primitive_root
from fibreconj.words import (
    RootDecomposition,
    _free_conjugator,
    _primitive_root,
    cyclic_core,
    cyclic_reduce,
    exponent_vector,
    free_conjugator,
    free_reduce,
    inverse,
    is_cyclically_reduced,
    is_proper_power,
    is_word,
    is_reduced,
    mul,
    mul2,
    parse_word,
    power,
    primitive_root,
    random_reduced_word,
    reduced_words,
    rotate,
    validate_word,
    word_str,
)

letters = st.text(alphabet="abAB", max_size=12)
small_words = st.builds(
    lambda seed, n: random_reduced_word(random.Random(seed), "ab", n),
    st.integers(0, 10_000),
    st.integers(0, 10),
)


def test_reduce_examples():
    assert free_reduce("aA") == ""
    assert free_reduce("abBA") == ""
    assert free_reduce("abA") == "abA"
    assert free_reduce("") == ""


@given(letters)
def test_reduce_idempotent(w):
    r = free_reduce(w)
    assert free_reduce(r) == r
    assert is_reduced(r)


@given(letters)
def test_inverse_involution(w):
    assert free_reduce(inverse(inverse(w))) == free_reduce(w)
    assert mul(w, inverse(w)) == ""


@given(letters, letters, letters)
def test_mul_associative(a, b, c):
    assert mul(mul(a, b), c) == mul(a, mul(b, c))


@given(letters, letters)
def test_mul2_cancels_at_the_seam(a, b):
    a, b = free_reduce(a), free_reduce(b)
    ab = mul2(a, b)
    assert ab == mul(a, b)
    cut = (len(a) + len(b) - len(ab)) // 2
    assert ab == a[: len(a) - cut] + b[cut:]


def test_power():
    assert power("ab", 3) == "ababab"
    assert power("ab", -2) == "BABA"
    assert power("ab", 0) == ""


def test_cyclic_reduce_examples():
    assert cyclic_reduce("Aba") == ("b", "a")
    assert cyclic_reduce("aba") == ("aba", "")
    assert cyclic_reduce("") == ("", "")


@given(small_words)
def test_cyclic_reduce_invariant(w):
    core, tail = cyclic_reduce(w)
    assert free_reduce(inverse(tail) + core + tail) == w
    assert core == "" or core[0] != core[-1].swapcase()


def test_rotations():
    assert rotate("abc", 1) == "bca"
    assert rotate("abc", -1) == "cab"
    assert rotate("", 3) == ""


def test_free_conjugator_examples():
    assert free_conjugator("ab", "ba") == "a"
    assert free_conjugator("", "") == ""
    assert free_conjugator("aa", "bb") is None
    assert free_conjugator("a", "") is None


@given(small_words, small_words)
def test_free_conjugator_correct(w, g):
    v = free_reduce(inverse(g) + w + g)
    x = free_conjugator(w, v)
    assert x is not None
    assert free_reduce(inverse(x) + w + x) == v


def test_primitive_root_examples():
    assert primitive_root("abab") == RootDecomposition("ab", 2)
    assert primitive_root("ab") == RootDecomposition("ab", 1)
    assert primitive_root("Abba") == RootDecomposition("Aba", 2)
    assert primitive_root("aaa") == RootDecomposition("a", 3)
    with pytest.raises(ValueError):
        primitive_root("")


@given(small_words.filter(lambda w: w != ""), st.integers(-3, 3).filter(bool))
def test_primitive_root_invariant(w, e):
    v = free_reduce(power(w, e))
    if v == "":
        return
    dec = primitive_root(v)
    assert free_reduce(power(dec.root, dec.exponent)) == v
    assert not is_proper_power(dec.root)
    # roots of inverses are inverse roots
    di = primitive_root(inverse(v))
    assert di.root == inverse(dec.root) and di.exponent == dec.exponent


@given(small_words, small_words.filter(bool), st.integers(1, 4))
def test_primitive_root_of_a_conjugated_power_is_reduced(t, z, e):
    w = free_reduce(inverse(t) + z * e + t)
    dec = primitive_root(w)
    assert is_reduced(dec.root)
    assert dec.exponent % e == 0
    assert power(dec.root, dec.exponent) == w


@pytest.mark.parametrize("generators", ["ab", "abcd"])
def test_primitive_root_of_a_conjugated_primitive_core(generators):
    # t^-1 z^k t, reduced as written, with z cyclically reduced and primitive
    # (by exhaustive search): the root is t^-1 z t and the exponent k
    rng = random.Random(f"root/{generators}")
    for n in range(1, 6):  # one-letter cores first
        for k in range(1, 7):
            while not (is_cyclically_reduced(z := random_reduced_word(rng, generators, n))
                       and brute_primitive_root(z) == (z, 1)):
                pass
            while (t := random_reduced_word(rng, generators, rng.randint(0, 4))) and (
                t[0] in (z[0], inverse(z[-1]))
            ):
                pass
            w = inverse(t) + z * k + t
            assert is_reduced(w)
            assert primitive_root(w) == RootDecomposition(inverse(t) + z + t, k), (t, z, k)


@pytest.mark.parametrize("generators", ["ab", "abcd"])
def test_reduced_word_helpers_agree_with_the_public_functions(generators):
    # _free_conjugator and _primitive_root take reduced words; the public
    # functions reduce first, so padded input gets the same answers
    rng = random.Random(f"helpers/{generators}")
    letters = generators + generators.upper()
    conjugate = 0
    for _ in range(200):
        w = random_reduced_word(rng, generators, rng.randint(0, 8))
        if rng.random() < 0.5:
            g = random_reduced_word(rng, generators, rng.randint(0, 4))
            v = free_reduce(inverse(g) + w + g)
        else:
            v = random_reduced_word(rng, generators, len(w))
        x = _free_conjugator(w, v)
        conjugate += x is not None
        assert free_conjugator(w, v) == free_conjugator(pad(w, rng, letters), pad(v, rng, letters)) == x
        if w:
            root = _primitive_root(w)
            assert primitive_root(w) == primitive_root(pad(w, rng, letters)) == root
    assert 50 <= conjugate <= 150


def test_is_proper_power():
    assert is_proper_power("aa")
    assert is_proper_power("abab")
    assert not is_proper_power("ab")
    assert not is_proper_power("")


def test_reduced_words_order_and_count():
    ws = list(reduced_words("ab", 2))
    assert ws[:5] == ["", "a", "A", "b", "B"]
    assert len(ws) == 1 + 4 + 12
    assert all(is_reduced(w) for w in ws)
    # length first, then letter by letter in the order a < A < b < B
    rank = {c: i for i, c in enumerate("aAbB")}
    assert ws == sorted(ws, key=lambda w: (len(w), [rank[c] for c in w]))
    # single generator enumeration
    assert list(reduced_words("a", 2)) == ["", "a", "A", "aa", "AA"]
    # every length up to max_len, the longest included, against all strings
    for gens in ("a", "ab", "abc"):
        alphabet = "".join(g + g.upper() for g in gens)
        rank = {c: i for i, c in enumerate(alphabet)}
        for n in range(6):
            every = ["".join(t) for k in range(n + 1) for t in product(alphabet, repeat=k)]
            want = sorted(filter(is_reduced, every), key=lambda w: (len(w), [rank[c] for c in w]))
            assert list(reduced_words(gens, n)) == want, (gens, n)


def test_exponent_vector():
    assert exponent_vector("abAAB", "ab") == (-1, 0)
    assert exponent_vector("", "ab") == (0, 0)


def test_validate_and_io():
    assert parse_word("1") == ""
    assert parse_word("aB") == "aB"
    assert word_str("") == "1"
    assert word_str("aB") == "aB"
    with pytest.raises(ValueError):
        parse_word("a!b")
    with pytest.raises(ValueError):
        validate_word("ab", "a")
    validate_word("ab", None)


def test_validate_word_names_the_first_bad_letter():
    long = "ab" * 2_000 + "c" + "AB" * 500 + "d"
    assert len(long) == 5_002
    with pytest.raises(ValueError) as e:
        validate_word(long, "ab")
    assert str(e.value) == f"letter 'c' in word {long!r} is not over generators 'ab'"
    with pytest.raises(ValueError) as e:
        validate_word("abCa", "ab")
    assert str(e.value) == "letter 'C' in word 'abCa' is not over generators 'ab'"
    # a non-ASCII letter is no letter of any word, whatever the generators
    for gens in ("ab", None):
        with pytest.raises(ValueError) as e:
            validate_word("abéab1", gens)
        assert str(e.value) == "invalid letter 'é' in word 'abéab1'"
    assert not is_word("aé") and not is_word("a b") and is_word("") and is_word("aBz")
    with pytest.raises(TypeError):
        is_word(None)
    with pytest.raises(TypeError):
        validate_word(None, "ab")
    validate_word("", "ab")
    validate_word("aBAb" * 1_000, "ab")


@given(st.integers(0, 10_000), st.integers(0, 10))
def test_random_reduced_word(seed, n):
    w = random_reduced_word(random.Random(seed), "ab", n)
    assert len(w) == n and is_reduced(w)
