"""Independent oracles used by the tests.

These deliberately avoid the production code paths: root systems are
enumerated by closing the simple roots under all reflections, and the
coefficient table is recomputed by generic truncated power-series
inversion of the deformed Cartan matrix.
"""

from fractions import Fraction


def weyl_positive_roots(cartan):
    """Close {simple roots} under all simple reflections; keep positives."""
    n = len(cartan)
    simples = [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]

    def reflect(i, v):
        c = sum(cartan[i][j] * v[j] for j in range(n))
        return tuple(v[k] - c if k == i else v[k] for k in range(n))

    roots = set(simples)
    frontier = list(roots)
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(n):
                w = reflect(i, v)
                if w not in roots:
                    roots.add(w)
                    nxt.append(w)
        frontier = nxt
    return sorted(r for r in roots if all(c >= 0 for c in r))


def _mat_mul(a, b):
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def _mat_inv(a):
    """Exact inverse of a rational matrix by Gauss-Jordan elimination."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[pivot] = m[pivot], m[col]
        pv = m[col][col]
        m[col] = [x / pv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [row[n:] for row in m]


def series_inverse_coeffs(adjacency, rank, order):
    """Coefficients of z * (z C(z))^(-1) as a power series up to ``order``.

    z*C(z) = (1 + z^2) I - z A; the inverse series N(z) of a polynomial
    matrix M(z) with M(0) invertible satisfies N_k = -M(0)^(-1) * sum of
    M_j N_(k-j).  Returns coeffs[m][i][j] for 1 <= m <= order (1-based
    vertex labels flattened to 0-based here).
    """
    n = rank
    ident = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    m1 = [
        [Fraction(-1) if (j + 1) in adjacency[i + 1] else Fraction(0) for j in range(n)]
        for i in range(n)
    ]
    m2 = ident
    inv0 = _mat_inv(ident)  # M(0) = I
    series = [ident]
    for k in range(1, order):
        acc = [[Fraction(0)] * n for _ in range(n)]
        for j, mj in ((1, m1), (2, m2)):
            if k - j < 0:
                continue
            prod = _mat_mul(mj, series[k - j])
            for r in range(n):
                for c in range(n):
                    acc[r][c] += prod[r][c]
        series.append(_mat_inv_apply_neg(inv0, acc))
    # C(z)^(-1) = z * (zC)^(-1): coefficient of z^m is series[m-1]
    return {m: series[m - 1] for m in range(1, order + 1)}


def _mat_inv_apply_neg(inv0, acc):
    neg = [[-x for x in row] for row in acc]
    return _mat_mul(inv0, neg)


def dense_reflect(cartan, i, vec):
    """s_i on a coordinate vector, through the full Cartan row of vertex i."""
    c = sum(a * v for a, v in zip(cartan[i - 1], vec))
    return tuple(v - c if k == i - 1 else v for k, v in enumerate(vec))


def coxeter_orbit_lengths(cartan, arrows):
    """For each vertex i, how many of gamma_i, c(gamma_i), c^2(gamma_i), ...
    are positive before the first negative one, where gamma_i sums the
    simple roots with a directed path to i and c is the Coxeter element of
    the orientation (sources reflect last, so act first on the left)."""
    n = len(cartan)
    ins = {i: {a for a, b in arrows if b == i} for i in range(1, n + 1)}
    order, left = [], set(range(1, n + 1))
    while left:
        ready = sorted(v for v in left if not ins[v] & left)
        order.extend(ready)
        left -= set(ready)
    counts = {}
    for i in range(1, n + 1):
        reach, stack = {i}, [i]
        while stack:
            for a in ins[stack.pop()] - reach:
                reach.add(a)
                stack.append(a)
        root = tuple(int(k + 1 in reach) for k in range(n))
        count = 0
        while all(c >= 0 for c in root):
            count += 1
            for v in reversed(order):
                root = dense_reflect(cartan, v, root)
        counts[i] = count
    return counts


def longest_word_involution(cartan, word):
    """{i: i*} with w(a_i) = -a_(i*) for the product w of ``word``, which
    must be a word of the longest element."""
    n = len(cartan)
    star = {}
    for i in range(1, n + 1):
        vec = tuple(int(k == i - 1) for k in range(n))
        for letter in reversed(word):
            vec = dense_reflect(cartan, letter, vec)
        neg = tuple(-v for v in vec)
        assert sorted(neg) == [0] * (n - 1) + [1], f"w(a_{i}) = {vec} is not a negative simple root"
        star[i] = neg.index(1) + 1
    return star
