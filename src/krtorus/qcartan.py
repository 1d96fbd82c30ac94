"""Integer coefficients of the inverse quantum Cartan matrix.

The z-deformed Cartan matrix C(z) has z + 1/z on the diagonal and -1 at
adjacent pairs; the power-series expansion of its inverse has integer
coefficients determined by a three-term recurrence, which is what gets
evaluated here (exactly, no rational intermediates).
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

from .errors import InvalidInputError

if TYPE_CHECKING:
    from .cartan import ARFrame, DynkinDatum

__all__ = ["QuantumCartanInverse", "pairing_value"]


class QuantumCartanInverse:
    """Memoized table of series coefficients, filled level by level in m.

    coeff(i, j, m) is 0 for m <= 0, the identity at m = 1, and satisfies
    coeff(i, j, m+1) = sum over k adjacent to j of coeff(i, k, m)
    minus coeff(i, j, m-1).  The table is a pure function of the diagram:
    each ``DynkinDatum`` holds one, ``datum.qcartan``, for all its users.
    A lock guards the growing rows, since library callers may share one
    table between calculators.
    """

    def __init__(self, datum: DynkinDatum):
        self.datum = datum
        n = datum.rank
        zero = (0,) * (n * n)
        ident = tuple(int(i == j) for i in range(n) for j in range(n))
        self._rows = [zero, ident]
        self._lock = threading.Lock()

    def rows(self, m: int):
        """The rows filled at least to ``m``, each one flat tuple:
        ``rows(m)[k][(i-1)*n + j-1]`` is coeff(i, j, k) for 0 <= k <= m.
        The list only grows."""
        if len(self._rows) <= m:
            with self._lock:
                self._extend_locked(m)
        return self._rows

    def _extend_locked(self, m: int):
        datum = self.datum
        n = datum.rank
        adjacent = [[k - 1 for k in datum.adjacency[j]] for j in datum.vertices()]
        while len(self._rows) <= m:
            prev = self._rows[-1]
            prev2 = self._rows[-2]
            nxt = tuple(
                sum(prev[row + k] for k in ks) - prev2[row + j]
                for row in range(0, n * n, n)
                for j, ks in enumerate(adjacent)
            )
            self._rows.append(nxt)

    def coeff(self, i: int, j: int, m: int) -> int:
        n = self.datum.rank
        if not (1 <= i <= n and 1 <= j <= n):
            raise InvalidInputError(f"vertex pair ({i},{j}) out of range")
        if m <= 0:
            return 0
        return self.rows(m)[m][(i - 1) * n + j - 1]


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
