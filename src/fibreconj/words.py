"""Free group words and their elementary arithmetic.

A word over a free group F(a, b, ...) is stored as a plain Python string:
lowercase letters are generators, uppercase letters are their inverses,
and the empty string is the identity.  "aBc" means a * b^-1 * c.  All
functions here expect and return words in this encoding; most expect
freely reduced input and all produce freely reduced output.
"""

from __future__ import annotations

import string
from functools import lru_cache
from typing import NamedTuple


def is_word(s: str) -> bool:
    """True if every character is an ASCII letter; TypeError if s is not a str."""
    if not isinstance(s, str):
        raise TypeError(f"a word is a str, not {type(s).__name__}")
    return s == "" or (s.isascii() and s.isalpha())


@lru_cache(maxsize=64)
def word_letters(generators: str) -> frozenset[str]:
    """The letters of words over the generators: each generator and its inverse."""
    return frozenset(generators + generators.upper())


def validate_word(s: str, generators: str | None = None) -> None:
    """Raise ValueError unless s is a word, optionally over the given generators.

    generators, when given, is a string of lowercase letters.  The error
    names the first offending letter.
    """
    if not is_word(s):
        bad = next(c for c in s if not (c.isascii() and c.isalpha()))
        raise ValueError(f"invalid letter {bad!r} in word {s!r}")
    if generators is not None:
        allowed = word_letters(generators)
        if not allowed.issuperset(s):
            bad = next(c for c in s if c not in allowed)
            raise ValueError(f"letter {bad!r} in word {s!r} is not over generators {generators!r}")


def inverse(w: str) -> str:
    """Inverse of a word: reverse it and swap the case of every letter."""
    return w[::-1].swapcase()


_SWAP = {c: c.swapcase() for c in string.ascii_letters}


def free_reduce(w: str) -> str:
    """Freely reduce a word by cancelling adjacent inverse pairs."""
    out: list[str] = []
    for c in w:
        if out and out[-1] == c.swapcase():
            out.pop()
        else:
            out.append(c)
    return "".join(out)


def is_reduced(w: str) -> bool:
    return all(w[i] != w[i + 1].swapcase() for i in range(len(w) - 1))


def mul(*words: str) -> str:
    """Freely reduced product of words, left to right."""
    return free_reduce("".join(words))


def mul2(a: str, b: str) -> str:
    """Product of two reduced words, cancelling only at the seam between them.

    Both inputs must be freely reduced; then letters can only cancel
    where a ends and b begins, and the result is freely reduced.  The
    number of letters cancelled from each side is
    (len(a) + len(b) - len(result)) // 2.
    """
    i = len(a)
    j = 0
    n = len(b)
    while i > 0 and j < n and a[i - 1] == _SWAP[b[j]]:
        i -= 1
        j += 1
    return a[:i] + b[j:]


def power(w: str, p: int) -> str:
    """w**p, freely reduced.  Negative p uses the inverse."""
    if p == 0:
        return ""
    base = w if p > 0 else inverse(w)
    return free_reduce(base * abs(p))


def rotate(w: str, k: int) -> str:
    """Cyclic rotation moving the first k letters to the end."""
    if not w:
        return w
    k %= len(w)
    return w[k:] + w[:k]


def cyclic_reduce(w: str) -> tuple[str, str]:
    """Split a reduced word as (core, tail) with w = tail^-1 * core * tail.

    The core is cyclically reduced (its first and last letters are not
    inverse to each other) and the tail is the stripped suffix.
    """
    return _split_core(free_reduce(w))


def _split_core(w: str) -> tuple[str, str]:
    """cyclic_reduce of a word that is already freely reduced."""
    i, j = 0, len(w)
    while j - i >= 2 and w[i] == w[j - 1].swapcase():
        i += 1
        j -= 1
    return w[i:j], w[j:]


def cyclic_core(w: str) -> str:
    return cyclic_reduce(w)[0]


def is_cyclically_reduced(w: str) -> bool:
    if not is_reduced(w):
        return False
    return len(w) < 2 or w[0] != w[-1].swapcase()


def exponent_vector(w: str, generators: str) -> tuple[int, ...]:
    """Image of w in the free abelianization, ordered by the generator string."""
    return tuple(w.count(g) - w.count(g.upper()) for g in generators)


def free_conjugator(w: str, v: str) -> str | None:
    """A word x with x^-1 w x = v in the free group, or None.

    Two words are conjugate iff their cyclic cores are rotations of each
    other; the conjugator is assembled from the stripped tails and the
    rotation offset.  Each input is freely reduced once; the pieces of x
    and the check x^-1 w x = v are products of reduced words, so they
    cancel only at the seams (mul2).
    """
    w = free_reduce(w)
    v = free_reduce(v)
    cw, tw = _split_core(w)
    cv, tv = _split_core(v)
    if len(cw) != len(cv):
        return None
    if not cw:
        return ""
    # find r with rotate(cw, r) == cv
    r = (cw + cw).find(cv)
    if r == -1:
        return None
    x = mul2(mul2(inverse(tw), cw[:r]), tv)
    if mul2(mul2(inverse(x), w), x) != v:
        raise AssertionError("free conjugator fails exact verification")
    return x


class RootDecomposition(NamedTuple):
    """w = root^exponent exactly, with root primitive (not a proper power)."""

    root: str
    exponent: int


def primitive_root(w: str) -> RootDecomposition:
    """Primitive root decomposition of a nontrivial reduced word.

    Writes w = t^-1 K t with K cyclically reduced, finds the shortest
    period z of K (so K = z^e), and returns (t^-1 z t, e); the returned
    root raised to the exponent freely reduces to w exactly, and the
    centralizer of w in the free group is generated by the root.
    Raises ValueError on the empty word.

    The input is freely reduced once.  The root t^-1 z t needs no
    reduction: z is a piece of the reduced core and starts and ends with
    the core's first and last letters, so its seams with t^-1 and t are
    the seams of the reduced w.
    """
    w = free_reduce(w)
    if not w:
        raise ValueError("the trivial word has no primitive root")
    core, tail = _split_core(w)
    n = len(core)
    for d in range(1, n + 1):
        if n % d:
            continue
        if core[:d] * (n // d) == core:
            return RootDecomposition(inverse(tail) + core[:d] + tail, n // d)
    raise AssertionError("unreachable: the core is a power of itself")


def is_proper_power(w: str) -> bool:
    """True if w = u^k for some k >= 2 (false for the trivial word)."""
    w = free_reduce(w)
    return bool(w) and primitive_root(w).exponent >= 2


def reduced_words(generators: str, max_len: int):
    """Yield all freely reduced words of length <= max_len in length-lex order.

    Words compare by length first, then letter by letter, where each
    generator's inverse follows it, before the next generator: with
    generators "ab" the letter order is a < A < b < B.
    """
    letters = []
    for g in generators:
        letters.append(g)
        letters.append(g.upper())
    yield ""
    frontier = [""]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            last = w[-1] if w else ""
            for c in letters:
                if last and last == c.swapcase():
                    continue
                u = w + c
                yield u
                nxt.append(u)
        frontier = nxt


def random_reduced_word(rng, generators: str, length: int) -> str:
    """Uniformly random freely reduced word of exactly the given length."""
    letters = []
    for g in generators:
        letters.append(g)
        letters.append(g.upper())
    out: list[str] = []
    while len(out) < length:
        c = rng.choice(letters)
        if out and out[-1] == c.swapcase():
            continue
        out.append(c)
    return "".join(out)


def word_str(w: str) -> str:
    """Display form of a word; the identity prints as "1"."""
    return w if w else "1"


def parse_word(s: str) -> str:
    """Parse a display-form word: "1" is the identity, letters otherwise."""
    if s == "1":
        return ""
    if not is_word(s):
        raise ValueError(f"cannot parse word {s!r}")
    return s
