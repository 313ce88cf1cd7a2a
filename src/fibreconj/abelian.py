"""Integer lattice arithmetic for abelianized quotients.

The quotient Q = F(X)/<<R>> maps onto Z^n / L where n is the number of
generators and L is the sublattice spanned by the exponent vectors of
the relators.  Reducing exponent vectors against an echelon basis of L
gives one representative for each coset: exact membership tests in the
abelianization, which are sound No-certificates for the word problem
in Q and exact decisions whenever Q is abelian, one normal form word
for each element of the abelianization, and the exponents p with
w = u^p there.
"""

from __future__ import annotations

from typing import NamedTuple

from .words import exponent_vector


def _echelon_rows(rows: list[list[int]], n: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """A basis of the integer row lattice in echelon form, as (pivot column, row).

    Each row is zero before its pivot column, its pivot is positive, and
    the pivot columns strictly increase.  This is the Hermite normal
    form without the reduction above the pivots, which reducing a vector
    against the rows (_reduce) does not depend on.
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


def _reduce(x, echelon) -> tuple[int, ...]:
    """The representative of x + L, for L the lattice spanned by echelon.

    The rows are taken in pivot order, each bringing its pivot
    coordinate into (-d/2, d/2] for its pivot d; later rows are zero
    there, so it stays.  Two vectors that differ by a lattice vector
    agree after the first pivot is reduced, then the next, and so on, so
    the result depends only on the coset, and it is zero iff x lies in L.
    """
    x = list(x)
    for col, row in echelon:
        d = row[col]
        r = x[col] % d
        r -= d if 2 * r > d else 0
        q = (x[col] - r) // d
        x = [a - q * b for a, b in zip(x, row)]
    return tuple(x)


class AbelianModel(NamedTuple):
    """Z^n modulo the relator lattice, held as an echelon basis (see _echelon_rows).

    coords(w) is the exponent vector of w; residues(w) is its reduced
    representative, which is zero iff w maps to 0 and the same for all
    words with the same image.
    """

    generators: str
    echelon: tuple[tuple[int, tuple[int, ...]], ...]

    def coords(self, w: str) -> tuple[int, ...]:
        return exponent_vector(w, self.generators)

    def residues(self, w: str) -> tuple[int, ...]:
        return _reduce(self.coords(w), self.echelon)

    def normal_form(self, w: str) -> str:
        """The word a_1^e_1 ... a_n^e_n spelling residues(w)."""
        return "".join(g * e if e >= 0 else g.upper() * -e
                       for g, e in zip(self.generators, self.residues(w)))


def abelian_model(generators: str, relators: tuple[str, ...]) -> AbelianModel:
    rows = [list(exponent_vector(r, generators)) for r in relators]
    return AbelianModel(generators, _echelon_rows(rows, len(generators)))


def power_solutions(model: AbelianModel, w: str, u: str):
    """All integers p with w == u^p in the abelianized quotient.

    Returns (base, step) with step 0 a single point and step 1 all of Z,
    or None when no integer satisfies the system.  The rows (r, 0) for r
    in L and (x_u, 1) span the lattice M of Z^(n+1) holding (x, t)
    exactly when x - t x_u lies in L.  Reducing (x_w, 0) against an
    echelon basis of M leaves (y, s), and (x_w, p) lies in M iff (y, s + p)
    does.  That needs y = 0, and then s + p must be a multiple of the
    last-column pivot o, or zero when M has none.
    """
    n = len(model.generators)
    rows = [list(row) + [0] for _, row in model.echelon]
    rows.append(list(model.coords(u)) + [1])
    echelon = _echelon_rows(rows, n + 1)
    *y, s = _reduce(model.coords(w) + (0,), echelon)
    if any(y):
        return None
    o = echelon[-1][1][n] if echelon[-1][0] == n else 0
    return (-s % o, o) if o else (-s, 0)


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
