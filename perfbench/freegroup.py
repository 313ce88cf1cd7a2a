"""Free-group arithmetic and output checkers that share no code with fibreconj.

Words use the package's encoding: lowercase letters are generators,
uppercase letters their inverses, "" is the identity.  Everything the
benchmark uses to judge an engine's answer is computed here, from first
principles, so that a fault in the engines cannot hide itself.
"""

from __future__ import annotations

from collections import defaultdict


def reduce(w: str) -> str:
    """Free reduction by cancelling adjacent inverse letters."""
    out: list[str] = []
    for c in w:
        if out and out[-1] == c.swapcase():
            out.pop()
        else:
            out.append(c)
    return "".join(out)


def inv(w: str) -> str:
    return w[::-1].swapcase()


def mul(*words: str) -> str:
    return reduce("".join(words))


def split_cyclic(w: str) -> tuple[str, str]:
    """(core, tail) of a reduced word, with w = tail^-1 core tail and core cyclically reduced."""
    i, j = 0, len(w)
    while j - i >= 2 and w[i] == w[j - 1].swapcase():
        i += 1
        j -= 1
    return w[i:j], w[j:]


def root(w: str) -> tuple[str, int]:
    """(z, e) with w = z^e in the free group and z not a proper power; w nonempty and reduced."""
    core, tail = split_cyclic(w)
    n = len(core)
    # the least period of the core is the offset of its first reappearance in core + core
    period = (core + core).find(core, 1)
    return mul(inv(tail), core[:period], tail), n // period


def is_proper_power(w: str) -> bool:
    w = reduce(w)
    return bool(w) and root(w)[1] >= 2


def conjugator(u: str, v: str) -> str | None:
    """A word x with x^-1 u x = v in the free group, or None when u and v are not conjugate.

    u and v are reduced.  x is tail(u)^-1 * core(u)[:r] * tail(v), where r
    rotates core(u) onto core(v).
    """
    cu, tu = split_cyclic(u)
    cv, tv = split_cyclic(v)
    if len(cu) != len(cv):
        return None
    r = (cu + cu).find(cv) if cu else 0
    if r < 0:
        return None
    return mul(inv(tu), cu[:r], tv)


def winding_area(w: str) -> int:
    """Sum over unit squares of |winding number| of the lattice path of w in Z^2.

    a steps +x and b steps +y.  For a word trivial in Z^2 = <a,b | abAB>
    this is its van Kampen area.
    """
    x = y = 0
    columns: dict[int, dict[int, int]] = defaultdict(lambda: defaultdict(int))
    for c in w:
        if c == "a":
            columns[x][y] += 1
            x += 1
        elif c == "A":
            x -= 1
            columns[x][y] -= 1
        elif c == "b":
            y += 1
        elif c == "B":
            y -= 1
        else:
            raise ValueError(f"letter {c!r} is not over a, b")
    if (x, y) != (0, 0):
        raise ValueError(f"{w!r} is not trivial in Z^2")
    area = 0
    for edges in columns.values():
        heights = sorted(edges, reverse=True)
        run = 0
        for hi, lo in zip(heights, heights[1:]):
            run += edges[hi]
            area += abs(run) * (hi - lo)
    return area


def noise(factors) -> int:
    """Sum of |theta_i theta_{i+1}^-1| over a factor list, with empty words at both ends."""
    thetas = [""] + [theta for theta, _ in factors] + [""]
    return sum(len(mul(a, inv(b))) for a, b in zip(thetas, thetas[1:]))


def relator_halves(relators) -> tuple[int, frozenset[str]]:
    """(k, S): S holds the k-letter prefixes of all rotations of the relators and inverses.

    For relators of one length L, k = L // 2 + 1, so a word contains more
    than half of a rotated relator exactly when one of its k-letter
    subwords lies in S.
    """
    lengths = {len(r) for r in relators}
    if len(lengths) != 1:
        raise ValueError("relators of several lengths")
    k = lengths.pop() // 2 + 1
    halves = set()
    for r in relators:
        for base in (r, inv(r)):
            for t in range(len(base)):
                halves.add((base[t:] + base[:t])[:k])
    return k, frozenset(halves)


def has_half_relator(w: str, k: int, halves: frozenset[str]) -> bool:
    return any(w[i : i + k] in halves for i in range(len(w) - k + 1))


def random_reduced(rng, generators: str, n: int, k: int = 0, halves: frozenset[str] = frozenset(),
                   prefix: str = "") -> str:
    """A random reduced word of n letters drawn after prefix, avoiding every subword in halves.

    Each letter is uniform among those that keep prefix + word freely
    reduced and free of k-letter subwords from halves.  Returns the new
    letters only.
    """
    alphabet = generators + generators.upper()
    out = list(prefix)
    start = len(out)
    while len(out) - start < n:
        tail = "".join(out[-(k - 1):]) if k > 1 else ""
        choices = [
            c for c in alphabet
            if not (out and out[-1] == c.swapcase()) and (not halves or tail + c not in halves)
        ]
        out.append(rng.choice(choices))
    return "".join(out[start:])
