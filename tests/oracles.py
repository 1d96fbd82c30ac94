"""Independent oracles used by the tests.

These deliberately avoid the production code paths: root systems are
enumerated by closing the simple roots under all reflections, and the
coefficient table is recomputed by generic truncated power-series
inversion of the deformed Cartan matrix.
"""


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


def series_inverse_coeffs(adjacency, rank, order):
    """Coefficients of z * (z C(z))^(-1) as a power series up to ``order``.

    z*C(z) = M(z) = I - z A + z^2 I, with A the adjacency matrix.  The
    inverse series N(z) of a polynomial matrix M(z) with M(0) = I has
    N_0 = I and N_k = -(sum of M_j N_(k-j) over j = 1, 2), integers
    throughout.  Returns coeffs[m][i][j] for 1 <= m <= order (1-based
    vertex labels flattened to 0-based here).
    """
    n = rank
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    m1 = [[-int((j + 1) in adjacency[i + 1]) for j in range(n)] for i in range(n)]
    m2 = ident
    series = [ident]
    for k in range(1, order):
        acc = [[0] * n for _ in range(n)]
        for j, mj in ((1, m1), (2, m2)):
            if k - j < 0:
                continue
            prod = _mat_mul(mj, series[k - j])
            for r in range(n):
                for c in range(n):
                    acc[r][c] -= prod[r][c]
        series.append(acc)
    # C(z)^(-1) = z * (zC)^(-1): coefficient of z^m is series[m-1]
    return {m: series[m - 1] for m in range(1, order + 1)}


def dense_reflect(cartan, i, vec):
    """s_i on a coordinate vector, through the full Cartan row of vertex i."""
    c = sum(a * v for a, v in zip(cartan[i - 1], vec))
    return tuple(v - c if k == i - 1 else v for k, v in enumerate(vec))


def _coxeter_data(cartan, arrows):
    """The vertices in the order their reflections act under the Coxeter
    element c of the orientation (sources reflect last, so act first on
    the left), and {i: gamma_i}, where gamma_i sums the simple roots with a
    directed path to i."""
    n = len(cartan)
    ins = {i: {a for a, b in arrows if b == i} for i in range(1, n + 1)}
    order, left = [], set(range(1, n + 1))
    while left:
        ready = sorted(v for v in left if not ins[v] & left)
        order.extend(ready)
        left -= set(ready)
    gammas = {}
    for i in range(1, n + 1):
        reach, stack = {i}, [i]
        while stack:
            for a in ins[stack.pop()] - reach:
                reach.add(a)
                stack.append(a)
        gammas[i] = tuple(int(k + 1 in reach) for k in range(n))
    return order[::-1], gammas


def _apply_coxeter(cartan, acting, vec):
    for v in acting:
        vec = dense_reflect(cartan, v, vec)
    return vec


def coxeter_orbit_lengths(cartan, arrows):
    """For each vertex i, how many of gamma_i, c(gamma_i), c^2(gamma_i), ...
    are positive before the first negative one."""
    acting, gammas = _coxeter_data(cartan, arrows)
    counts = {}
    for i, root in gammas.items():
        count = 0
        while all(c >= 0 for c in root):
            count += 1
            root = _apply_coxeter(cartan, acting, root)
        counts[i] = count
    return counts


def coxeter_columns(cartan, arrows, depth):
    """{i: [(root, sign) for m = 0..depth]} with sign * root = c^m(gamma_i)
    and root positive, by dense iteration of c."""
    acting, gammas = _coxeter_data(cartan, arrows)
    columns = {}
    for i, vec in gammas.items():
        column = []
        for _ in range(depth + 1):
            sign = 1 if all(c >= 0 for c in vec) else -1
            column.append((tuple(sign * c for c in vec), sign))
            vec = _apply_coxeter(cartan, acting, vec)
        columns[i] = column
    return columns


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


def is_adapted(arrows, word):
    """Whether each letter of ``word`` is a source of the orientation got
    by turning round the arrows at every earlier letter."""
    arrows = set(arrows)
    for letter in word:
        if any(b == letter for _, b in arrows):
            return False
        arrows = {(b, a) if letter in (a, b) else (a, b) for a, b in arrows}
    return True
