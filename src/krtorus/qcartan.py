"""Integer coefficients of the inverse quantum Cartan matrix.

The z-deformed Cartan matrix C(z) has z + 1/z on the diagonal and -1 at
adjacent pairs; the power-series expansion of its inverse has integer
coefficients determined by a three-term recurrence, which is what gets
evaluated here (exactly, no rational intermediates).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import ConsistencyError, InvalidInputError

if TYPE_CHECKING:
    from .cartan import ARFrame, DynkinDatum

__all__ = ["QuantumCartanInverse", "pairing_value"]


class QuantumCartanInverse:
    """One period of series coefficients, built in the constructor.

    coeff(i, j, m) is 0 for m <= 0, the identity at m = 1, and satisfies
    coeff(i, j, m+1) = sum over k adjacent to j of coeff(i, k, m)
    minus coeff(i, j, m-1).  The coefficients repeat with period 2h, h the
    Coxeter number: the constructor runs the recurrence to m = 2h + 1 and
    certifies that rows 2h and 2h + 1 equal rows 0 and 1, which, the
    recurrence being two-step, proves the period for every m.  It keeps
    ``rows``, the 2h rows m = 0..2h-1, each one flat tuple:
    ``rows[m % period][(i-1)*n + j-1]`` is coeff(i, j, m) for m >= 1.
    The table is a pure function of the diagram: each ``DynkinDatum``
    holds one, ``datum.qcartan``, for all its users.
    """

    def __init__(self, datum: DynkinDatum):
        self.datum = datum
        n = datum.rank
        self.period = 2 * datum.h
        adjacent = [[k - 1 for k in datum.adjacency[j]] for j in datum.vertices()]
        rows = [(0,) * (n * n), tuple(int(i == j) for i in range(n) for j in range(n))]
        while len(rows) < self.period + 2:
            prev, prev2 = rows[-1], rows[-2]
            rows.append(tuple(
                sum(prev[row + k] for k in ks) - prev2[row + j]
                for row in range(0, n * n, n)
                for j, ks in enumerate(adjacent)
            ))
        if rows[-2:] != rows[:2]:
            raise ConsistencyError(f"coefficients do not repeat with period {self.period}")
        self.rows = tuple(rows[: self.period])

    def coeff(self, i: int, j: int, m: int) -> int:
        n = self.datum.rank
        if not (1 <= i <= n and 1 <= j <= n):
            raise InvalidInputError(f"vertex pair ({i},{j}) out of range")
        if m <= 0:
            return 0
        return self.rows[m % self.period][(i - 1) * n + j - 1]


def pairing_value(table: QuantumCartanInverse, frame: ARFrame, a, b) -> int:
    """coeff(i,j,s-p+1) - coeff(i,j,s-p-1) for torus points a=(i,p), b=(j,s).

    Equals the (sign-adjusted) Cartan pairing of the attached roots when
    s > p, and the Kronecker delta of the two points otherwise.
    """
    i, p = a
    j, s = b
    frame.check_point(i, p)
    frame.check_point(j, s)
    return table.coeff(i, j, s - p + 1) - table.coeff(i, j, s - p - 1)
