"""A finite presentation of Q and the facts every strategy reads off it.

Each fact is a functools.cached_property, computed once per Presentation
object and kept in its __dict__; equality, hashing and repr read the two
immutable fields only, so a fact never goes stale.
"""

from __future__ import annotations

import re
from functools import cached_property
from itertools import combinations, groupby
from operator import itemgetter
from os.path import commonprefix
from typing import NamedTuple

from . import abelian
from .words import (
    cyclic_core,
    exponent_vector,
    free_reduce,
    inverse,
    is_cyclically_reduced,
    is_reduced,
    rotate,
    validate_word,
)


class _Tables(NamedTuple):
    """Per-presentation area search data, described in Presentation.area_tables."""

    strings: tuple[str, ...]
    forms: dict[str, list[tuple[str, str]]]
    lengths: frozenset[int]
    vectors: dict[str, tuple[int, ...]]
    step: int
    planes: tuple[tuple[str, str, int, dict[str, tuple[tuple[int, int, int], ...]]], ...]


class _PresentationFields(NamedTuple):
    generators: str
    relators: tuple[str, ...] = ()


class Presentation(_PresentationFields):
    """Finite presentation <generators | relators> of a quotient Q.

    Generators are distinct lowercase letters in declaration order.
    Relators must be nonempty, freely and cyclically reduced words over
    the generators.  Every construction, _make and _replace included,
    validates.  The instance __dict__ holds only the cached facts:
    assigning or deleting an attribute raises AttributeError.
    """

    def __new__(cls, generators: str, relators: tuple[str, ...] = ()):
        # immutable fields, so a fact computed once cannot go stale
        if not isinstance(generators, str):
            raise TypeError(f"generators must be a str, not {type(generators).__name__}")
        if not isinstance(relators, tuple):
            raise TypeError(f"relators must be a tuple, not {type(relators).__name__}")
        if not generators:
            raise ValueError("presentation needs at least one generator")
        for g in generators:
            if not (g.isascii() and g.isalpha() and g.islower()):
                raise ValueError(f"generator {g!r} is not a lowercase letter")
        if len(set(generators)) != len(generators):
            raise ValueError(f"duplicate generator in {generators!r}")
        for r in relators:
            validate_word(r, generators)
            if not r:
                raise ValueError("empty relator")
            if not is_reduced(r):
                raise ValueError(f"relator {r!r} is not freely reduced")
            if not is_cyclically_reduced(r):
                raise ValueError(f"relator {r!r} is not cyclically reduced")
        return super().__new__(cls, generators, relators)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    @property
    def max_relator_length(self) -> int:
        if not self.relators:
            raise ValueError("no relators: maximal relator length undefined")
        return max(len(r) for r in self.relators)

    @cached_property
    def marked_rotations(self) -> tuple[tuple[str, tuple[int, int, int]], ...]:
        """All rotations of all relators and inverses, tagged by origin.

        Tags are (relator index, sign, offset); rotations with equal words
        but different tags stay distinct, which is what makes proper-power
        relators fail the piece condition.
        """
        return tuple(
            (rotate(base, t), (i, sign, t))
            for i, r in enumerate(self.relators)
            for sign, base in ((1, r), (-1, inverse(r)))
            for t in range(len(base))
        )

    @cached_property
    def rotation_by_mark(self) -> dict[tuple[int, int, int], str]:
        """The marked rotations, keyed by their marks."""
        return {mark: s for s, mark in self.marked_rotations}

    @cached_property
    def rewrite_rules(self) -> tuple[re.Pattern, dict]:
        """The rewrite rules: (pattern that finds a head, head -> (mark, s, inverse(s))).

        One entry per marked rotation s, keyed by its head s[:len(s) // 2 + 1],
        the shortest prefix longer than half of s.  The pattern (_trie_regex)
        has about the sum of |r|^2 characters over the relators r.

        Only built for C'(1/6) presentations.  There a common prefix of two
        distinct marked rotations is a piece, shorter than a sixth of either
        relator, so no head is a prefix of another and at most one head
        matches at any position.  Without relators nothing matches.
        """
        rules = {s[: len(s) // 2 + 1]: (mark, s, inverse(s)) for s, mark in self.marked_rotations}
        return re.compile(_trie_regex(sorted(rules)) if rules else "(?!)"), rules

    @cached_property
    def certified_abelian(self) -> bool:
        """True when the quotient is provably abelian by syntactic inspection.

        Generators with a single-letter relator (after erasing previously
        killed generators) die in Q; the check succeeds when at most one
        generator survives, or when every pairwise commutator of survivors
        appears among the erased relators up to rotation and inversion.
        """
        killed: set[str] = set()

        def erase(r: str) -> str:
            return free_reduce("".join(c for c in r if c.lower() not in killed))

        changed = True
        while changed:
            changed = False
            for r in self.relators:
                e = erase(r)
                if len(e) == 1 and e.lower() not in killed:
                    killed.add(e.lower())
                    changed = True
        effective = [g for g in self.generators if g not in killed]
        cores = [cyclic_core(erase(r)) for r in self.relators]
        rotset = {rotate(b, t) for e in cores for b in (e, inverse(e)) for t in range(len(b))}
        return all(x + y + x.upper() + y.upper() in rotset for x, y in combinations(effective, 2))

    @cached_property
    def abelian_model(self) -> abelian.AbelianModel:
        """The abelianization Z^n / L of Q."""
        return abelian.abelian_model(self.generators, self.relators)

    @cached_property
    def area_tables(self) -> _Tables:
        """Insertable strings, factor forms and lower-bound data for area search.

        A search move inserts an insertable string into the current word
        and freely reduces; m moves down to the empty word peel back to m
        conjugated relators, so the least number of moves is the area.
        strings are the distinct marked rotations in first-seen order,
        which fixes the order of a state's children.  forms maps each
        insertable string z to the ways of writing z = g^-1 * r0 * g with
        r0 an exact relator or inverse relator; they drive the conversion
        of peeled moves into (theta, relator) factors.  vectors holds each
        string's exponent vector and step the largest L1 norm among them.
        When step is 0 (every relator has zero exponent sum), planes lists
        each generator pair (x, y) on which some relator winds as
        (x, y, T, winding cells of each string), with T the largest total
        |winding| of a relator there.
        """
        forms: dict[str, list[tuple[str, str]]] = {}
        for z, (_, _, t) in self.marked_rotations:
            cut = len(z) - t  # z = base[t:] + base[:t]
            base = z[cut:] + z[:cut]
            options = forms.setdefault(z, [])
            for g in (z[cut:], inverse(z[:cut])):  # base[:t] and inverse(base[t:])
                if (base, g) not in options:
                    options.append((base, g))
        strings = tuple(forms)
        lengths = frozenset(len(r) for r in self.relators)
        gens = self.generators
        vectors = {z: exponent_vector(z, gens) for z in strings}
        step = max((sum(map(abs, vec)) for vec in vectors.values()), default=0)
        planes = []
        if step == 0:
            for i, x in enumerate(gens):
                for y in gens[i + 1:]:
                    wind = {
                        z: tuple((cx, cy, n) for (cx, cy), n in _winding(_path(z, x, y)).items())
                        for z in strings
                    }
                    total = max((sum(abs(n) for _, _, n in cells) for cells in wind.values()), default=0)
                    if total:
                        planes.append((x, y, total, wind))
        return _Tables(strings, forms, lengths, vectors, step, tuple(planes))


def _trie_regex(heads: list[str], depth: int = 0) -> str:
    """Regular expression for sorted heads that agree on their first depth letters.

    It spells their common prefix once and branches on the next letter,
    so the engine follows one branch per letter instead of trying every
    head.  Heads that agree up to a branch point share a piece, so the
    recursion is at most the longest piece plus one deep.
    """
    if len(heads) == 1:
        return heads[0][depth:]
    k = len(commonprefix((heads[0], heads[-1])))  # that of all the sorted heads
    branches = [_trie_regex(list(g), k) for _, g in groupby(heads, itemgetter(k))]
    return heads[0][depth:k] + "(?:" + "|".join(branches) + ")"


def _path(w: str, x: str, y: str) -> list[tuple[int, int]]:
    """Lattice points visited by w projected to the (x, y) plane.

    x steps right, y steps up, and every other letter stays put.
    """
    X, Y = x.upper(), y.upper()
    i = j = 0
    out = [(0, 0)]
    for c in w:
        if c == x:
            i += 1
        elif c == X:
            i -= 1
        elif c == y:
            j += 1
        elif c == Y:
            j -= 1
        out.append((i, j))
    return out


def _winding(path: list[tuple[int, int]]) -> dict[tuple[int, int], int]:
    """Nonzero winding numbers of a closed lattice path, by unit cell.

    Cell (i, j) is the square with lower-left corner (i, j); its winding
    number is the signed count of horizontal edges of column i at or
    below height j (rightward +1, leftward -1).
    """
    edges: dict[int, dict[int, int]] = {}
    for (i0, j), (i1, _) in zip(path, path[1:]):
        if i1 != i0:
            col = edges.setdefault(min(i0, i1), {})
            col[j] = col.get(j, 0) + i1 - i0
    out = {}
    for i, col in edges.items():
        heights = sorted(col)
        run = 0
        for lo, hi in zip(heights, heights[1:]):
            run += col[lo]
            if run:
                for j in range(lo, hi):
                    out[(i, j)] = run
    return out
