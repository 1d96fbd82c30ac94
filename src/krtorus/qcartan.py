"""Integer coefficients of the inverse quantum Cartan matrix.

The z-deformed Cartan matrix C(z) has z + 1/z on the diagonal and -1 at
adjacent pairs; the power-series expansion of its inverse has integer
coefficients determined by a three-term recurrence, which is what gets
evaluated here (exactly, no rational intermediates).
"""

from __future__ import annotations

import threading

from .cartan import ARFrame, DynkinDatum
from .errors import InvalidInputError

__all__ = ["QuantumCartanInverse", "pairing_value"]


class QuantumCartanInverse:
    """Memoized table of series coefficients, filled level by level in m.

    coeff(i, j, m) is 0 for m <= 0, the identity at m = 1, and satisfies
    coeff(i, j, m+1) = sum over k adjacent to j of coeff(i, k, m)
    minus coeff(i, j, m-1).  The table is a pure function of the diagram.
    A lock guards the growing rows, since library callers may share one
    table between calculators.
    """

    def __init__(self, datum: DynkinDatum):
        self.datum = datum
        n = datum.rank
        zero = tuple(tuple(0 for _ in range(n)) for _ in range(n))
        ident = tuple(
            tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
        )
        self._rows = [zero, ident]
        self._lock = threading.Lock()

    def _extend_to(self, m: int):
        if len(self._rows) > m:
            return
        with self._lock:
            self._extend_locked(m)

    def _extend_locked(self, m: int):
        datum = self.datum
        n = datum.rank
        while len(self._rows) <= m:
            prev = self._rows[-1]
            prev2 = self._rows[-2]
            nxt = tuple(
                tuple(
                    sum(prev[i][k - 1] for k in datum.adjacency[j + 1])
                    - prev2[i][j]
                    for j in range(n)
                )
                for i in range(n)
            )
            self._rows.append(nxt)

    def coeff(self, i: int, j: int, m: int) -> int:
        if not (1 <= i <= self.datum.rank and 1 <= j <= self.datum.rank):
            raise InvalidInputError(f"vertex pair ({i},{j}) out of range")
        if m <= 0:
            return 0
        self._extend_to(m)
        return self._rows[m][i - 1][j - 1]


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
