"""Integer lattice arithmetic for abelianized quotients.

The quotient Q = F(X)/<<R>> maps onto Z^n / L where n is the number of
generators and L is the sublattice spanned by the exponent vectors of
the relators.  Reducing that pair to a diagonal normal form gives exact
membership tests in the abelianization, which are sound No-certificates
for the word problem in Q and exact decisions whenever Q is abelian,
and one normal form word for each element of the abelianization.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .words import exponent_vector


def _smith_moduli(rows: list[list[int]], n: int) -> tuple[list[int], list[list[int]]]:
    """Diagonalize the integer row lattice, returning (moduli, V).

    V is the unimodular column transform: a vector x lies in the row
    lattice iff (x V)_i == 0 modulo moduli[i] for every i, where a
    modulus of 0 demands exact equality.  The nonzero moduli form a
    divisibility chain d_1 | d_2 | ...
    """
    a = [row[:] for row in rows]
    k = len(a)
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def col_swap(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def col_addmul(dst, src, m):
        for r in a:
            r[dst] += m * r[src]
        for r in v:
            r[dst] += m * r[src]

    def col_neg(i):
        for r in a:
            r[i] = -r[i]
        for r in v:
            r[i] = -r[i]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]

    def row_addmul(dst, src, m):
        a[dst] = [x + m * y for x, y in zip(a[dst], a[src])]

    diag: list[int] = []
    top = 0
    left = 0
    while top < k and left < n:
        # locate a minimal nonzero pivot in the remaining block
        pivot = None
        for i in range(top, k):
            for j in range(left, n):
                x = a[i][j]
                if x and (pivot is None or abs(x) < abs(pivot[2])):
                    pivot = (i, j, x)
        if pivot is None:
            break
        pi, pj, _ = pivot
        row_swap(top, pi)
        if pj != left:
            col_swap(left, pj)
        # clear the pivot row and column by Euclidean steps, until the
        # pivot also divides the whole remaining block
        while True:
            dirty = False
            p = a[top][left]
            for i in range(top + 1, k):
                if a[i][left]:
                    q = a[i][left] // p
                    row_addmul(i, top, -q)
                    if a[i][left]:
                        row_swap(top, i)
                        dirty = True
                        p = a[top][left]
            for j in range(left + 1, n):
                if a[top][j]:
                    q = a[top][j] // p
                    col_addmul(j, left, -q)
                    if a[top][j]:
                        col_swap(left, j)
                        dirty = True
                        p = a[top][left]
            if dirty:
                continue
            # a row of the remaining block that the pivot does not divide
            # moves into the pivot row, where the column steps leave its
            # remainders as smaller pivots
            rest = next((i for i in range(top + 1, k)
                         if any(x % p for x in a[i][left + 1 :])), None)
            if rest is None:
                break
            row_addmul(top, rest, 1)
        if a[top][left] < 0:
            col_neg(left)
        diag.append(a[top][left])
        top += 1
        left += 1

    moduli = diag + [0] * (n - len(diag))
    return moduli, v


def _echelon_rows(rows: list[list[int]], n: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """A basis of the integer row lattice in echelon form, as (pivot column, row).

    Each row is zero before its pivot column, its pivot is positive, and
    the pivot columns strictly increase.  This is the Hermite normal
    form without the reduction above the pivots, which reducing a vector
    against the rows (AbelianModel.normal_form) does not depend on.
    """
    rest = [row[:] for row in rows]
    basis = []
    for col in range(n):
        live = [r for r in rest if r[col]]
        while len(live) > 1:
            # Euclid on the column: every other row keeps its remainder
            piv = min(live, key=lambda r: abs(r[col]))
            for r in live:
                if r is not piv:
                    q = r[col] // piv[col]
                    r[:] = [x - q * y for x, y in zip(r, piv)]
            live = [r for r in rest if r[col]]
        if live:
            piv = live[0]
            rest = [r for r in rest if r is not piv]
            basis.append((col, tuple(x if piv[col] > 0 else -x for x in piv)))
    return tuple(basis)


@dataclass(frozen=True)
class AbelianModel:
    """Coordinates for Z^n modulo the relator lattice.

    coords(w) transforms the exponent vector of w; w maps into the
    lattice iff every coordinate vanishes modulo the matching modulus
    (modulus 0 means exact zero).  echelon is an echelon basis of the
    lattice (see _echelon_rows), which normal_form reduces against.
    """

    generators: str
    moduli: tuple[int, ...]
    transform: tuple[tuple[int, ...], ...]
    echelon: tuple[tuple[int, tuple[int, ...]], ...]

    def coords(self, w: str) -> tuple[int, ...]:
        x = exponent_vector(w, self.generators)
        n = len(self.generators)
        return tuple(sum(x[i] * self.transform[i][j] for i in range(n)) for j in range(n))

    def residues(self, w: str) -> tuple[int, ...]:
        return tuple(c % m if m else c for c, m in zip(self.coords(w), self.moduli))

    def normal_form(self, w: str) -> str:
        """The word a_1^e_1 ... a_n^e_n naming the image of w.

        The exponent vector of w is reduced against the echelon rows in
        pivot order, each bringing its pivot coordinate into (-d/2, d/2]
        for its pivot d.  Two reduced vectors that differ by a lattice
        vector agree at the first pivot, then at the next, and so on, so
        words with the same image get the same normal form.
        """
        x = list(exponent_vector(w, self.generators))
        for col, row in self.echelon:
            d = row[col]
            r = x[col] % d
            r -= d if 2 * r > d else 0
            q = (x[col] - r) // d
            x = [a - q * b for a, b in zip(x, row)]
        return "".join(g * e if e >= 0 else g.upper() * -e
                       for g, e in zip(self.generators, x))


def abelian_model(generators: str, relators: tuple[str, ...]) -> AbelianModel:
    n = len(generators)
    rows = [list(exponent_vector(r, generators)) for r in relators]
    moduli, v = _smith_moduli(rows, n)
    return AbelianModel(generators, tuple(moduli), tuple(tuple(r) for r in v),
                        _echelon_rows(rows, n))


def _solve_congruence(a: int, y: int, m: int):
    """Solution set of a*p == y (mod m) as (base, step), or None if empty.

    step 0 encodes a single point; m == 0 means exact equality over Z.
    """
    if m == 0:
        if a == 0:
            return (0, 1) if y == 0 else None
        if y % a:
            return None
        return (y // a, 0)
    a %= m
    y %= m
    if a == 0:
        return (0, 1) if y == 0 else None
    g = gcd(a, m)
    if y % g:
        return None
    a2, y2, m2 = a // g, y // g, m // g
    base = (y2 * pow(a2, -1, m2)) % m2
    return (base, m2)


def _intersect(s1, s2):
    """Intersect two (base, step) solution sets; None is empty."""
    if s1 is None or s2 is None:
        return None
    b1, k1 = s1
    b2, k2 = s2
    if k1 == 0 and k2 == 0:
        return s1 if b1 == b2 else None
    if k1 == 0:
        return s1 if (b1 - b2) % k2 == 0 else None
    if k2 == 0:
        return s2 if (b2 - b1) % k1 == 0 else None
    g = gcd(k1, k2)
    if (b2 - b1) % g:
        return None
    lcm = k1 * k2 // g
    # CRT: find t with b1 + k1*t == b2 (mod k2)
    t = ((b2 - b1) // g * pow(k1 // g, -1, k2 // g)) % (k2 // g)
    return ((b1 + k1 * t) % lcm, lcm)


def power_solutions(model: AbelianModel, w: str, u: str):
    """All integers p with w == u^p in the abelianized quotient.

    Returns (base, step) with step 0 a single point and step 1 all of Z,
    or None when no integer satisfies the system.
    """
    yw = model.coords(w)
    au = model.coords(u)
    sol = (0, 1)
    for a, y, m in zip(au, yw, model.moduli):
        sol = _intersect(sol, _solve_congruence(a, y, m))
        if sol is None:
            return None
    return sol


def minimal_power(sol) -> int | None:
    """Pick from a solution set the p minimizing |p|, ties to positive."""
    if sol is None:
        return None
    base, step = sol
    if step == 0:
        return base
    r = base % step
    if r == 0:
        return 0
    # candidates r and r - step straddle zero
    if r <= step - r:
        return r
    return r - step
