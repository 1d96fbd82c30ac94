"""Independent oracles used by the tests.

These deliberately avoid the production code paths and import nothing
from the package: root systems are enumerated by closing the simple roots
under all reflections, the coefficient table is recomputed by generic
truncated power-series inversion of the deformed Cartan matrix, word
positions are found by scanning an explicitly built piece of the infinite
word, and torus values are products over the whole window.  The field
oracles at the end take a ``RootContext`` and reach its ``build`` and the
kernel's plain product and sum, never its sums of products.
"""

from math import lcm


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


# -- the infinite word, scanned ---------------------------------------------


def infinite_word(base_word, star, length):
    """The first ``length`` letters of the infinite adapted word: the base
    word, then its image under ``star``, over and over."""
    flipped = [star[v] for v in base_word]
    word = []
    while len(word) < length:
        word += list(base_word) + flipped
    return word[:length]


def scanned_positions(word, xi):
    """{t: (letter, torus point, next position, previous position)} for
    every position t of a finite piece of the infinite word, read by
    scanning it: the point of t is (i, xi_i - 2 * number of earlier i's);
    the next position is None past the end and the previous one 0."""
    seen, last, out = {}, {}, {}
    for t, i in enumerate(word, 1):
        depth = seen.get(i, 0)
        seen[i] = depth + 1
        out[t] = [i, (i, xi[i] - 2 * depth), None, last.get(i, 0)]
        if i in last:
            out[last[i]][2] = t
        last[i] = t
    return {t: tuple(v) for t, v in out.items()}


def scanning_seed(word, adjacency, window):
    """(sorted arrows, frozen set) of the initial seed on positions
    1..window: vertical arrows t+ -> t, and oblique arrows k -> l for
    adjacent letters with k < l < k+ < l+ and k+ in the window, found by
    scanning every l between k and k+.  ``word`` must reach past the next
    occurrence of every letter in the window."""
    nxt = {t: _next_position(word, t) for t in range(1, window + 1)}
    arrows = {}
    for t in range(1, window + 1):
        if nxt[t] <= window:
            arrows[nxt[t], t] = arrows.get((nxt[t], t), 0) + 1
    for k in range(1, window + 1):
        kp = nxt[k]
        if kp > window:
            continue
        for l in range(k + 1, kp):
            if word[l - 1] in adjacency[word[k - 1]] and kp < _next_position(word, l):
                arrows[k, l] = arrows.get((k, l), 0) + 1
    frozen = {t for t in range(1, window + 1) if nxt[t] > window}
    return tuple(sorted((a, b, m) for (a, b), m in arrows.items())), frozen


# -- torus values from the coefficient series -------------------------------


def window_exponents(coeffs, columns, xi, i, p, lag):
    """{root: exponent} of the product over the torus points (j, s) with
    s >= p of root(j, s) to the power -(c(m) - c(m - lag)), m = s - p + 1,
    c(m) = coeffs[m][i-1][j-1] and c(m) = 0 for m < 1; a ``lag`` of None
    drops the second term.  ``columns[j][d]`` is the (root, sign) of the
    point of vertex j at depth d, as ``coxeter_columns`` gives it."""
    exps = {}
    for j, top in xi.items():
        for s in range(top, p - 1, -2):
            m = s - p + 1
            e = coeffs[m][i - 1][j - 1]
            if lag is not None and m > lag:
                e -= coeffs[m - lag][i - 1][j - 1]
            root = columns[j][(top - s) // 2][0]
            exps[root] = exps.get(root, 0) - e
    return {r: e for r, e in exps.items() if e}


def full_period_exponents(coeffs, columns, xi, h, i, p):
    """{root: exponent} of G(i, p) = F(i, p - 2h) / F(i, p), F the window
    product with no lag: the roots of the points (j, s) with
    p - 2h <= s < p to the powers -c(s - p + 2h + 1)."""
    exps = {}
    for j, top in xi.items():
        for s in range(p - 1, p - 2 * h - 1, -1):
            if s <= top and (top - s) % 2 == 0:
                root = columns[j][(top - s) // 2][0]
                exps[root] = exps.get(root, 0) - coeffs[s - p + 2 * h + 1][i - 1][j - 1]
    return {r: e for r, e in exps.items() if e}


# -- finite words, scanned ----------------------------------------------------


def dense_inversion_roots(cartan, word):
    """The roots s_{i1}...s_{i(k-1)}(a_{ik}) by dense reflections, or None
    if one of them is not positive (the word is not reduced)."""
    n = len(cartan)
    roots = []
    for k, letter in enumerate(word):
        vec = tuple(int(c == letter - 1) for c in range(n))
        for prev in reversed(word[:k]):
            vec = dense_reflect(cartan, prev, vec)
        if not all(c >= 0 for c in vec):
            return None
        roots.append(vec)
    return roots


def _next_position(word, t):
    """Next position of the letter at t (1-based) in the word, or None."""
    return next((s + 1 for s in range(t, len(word)) if word[s] == word[t - 1]), None)


def _previous_position(word, t):
    """Previous position of the letter at t (1-based), with 0 for none."""
    return next((s + 1 for s in range(t - 2, -1, -1) if word[s] == word[t - 1]), 0)


def scanning_word_classes(adjacency, word):
    """(fully commutative, dominant minuscule) for a reduced word, by
    counting the neighbours between each letter and its next occurrence,
    or after its last one."""
    fc = dm = True
    for t in range(1, len(word) + 1):
        tp = _next_position(word, t)
        nbrs = adjacency[word[t - 1]]
        end = len(word) if tp is None else tp - 1
        between = sum(1 for s in range(t, end) if word[s] in nbrs)
        if tp is None:
            dm = dm and between <= 1
        else:
            fc = fc and between >= 2
            dm = dm and between == 2
    return fc, dm


def scanning_seed_minors(cartan, adjacency, word):
    """The exponent maps {root: exponent} of P_1..P_N of a reduced word
    of the longest element, from P_j * P_(j-) = beta_j * prod of P_l over
    l < j with an adjacent letter and no occurrence of it in (l, j]."""
    betas = dense_inversion_roots(cartan, word)
    products = []
    for j in range(1, len(word) + 1):
        p = {betas[j - 1]: 1}
        for l in range(1, j):
            lp = _next_position(word, l)
            if (lp is None or lp > j) and word[l - 1] in adjacency[word[j - 1]]:
                for r, e in products[l - 1].items():
                    p[r] = p.get(r, 0) + e
        jm = _previous_position(word, j)
        if jm:
            for r, e in products[jm - 1].items():
                p[r] = p.get(r, 0) - e
        products.append({r: e for r, e in p.items() if e})
    return products


def vanishing_order(coeffs, s, p):
    """Order of vanishing at s of sum(coeffs[d] * t^d) over F_p, by
    repeated synthetic division by (t - s) until the remainder is nonzero;
    a polynomial that is zero mod p gets len(coeffs) - 1."""
    a = coeffs[::-1]
    order = 0
    while len(a) > 1:
        acc = 0
        out = []
        for c in a:
            acc = (acc * s + c) % p
            out.append(acc)
        if acc:
            break
        a = out[:-1]
        order += 1
    return order


def sum_by_common_denominator(ctx, values, divisor=None):
    """(sum of ``values``) / ``divisor``, normalized by one ``ctx.build``.

    The summands go over one common numerator and denominator: each root
    keeps its least exponent over the values (a missing root counting 0)
    factored, the rest of each value expands into a cofactor, the units
    share one denominator, and each distinct denominator residual is
    multiplied in once.  The divisor's residuals multiply in crosswise.
    The numerator is folded with the kernel's plain product and sum.
    """
    from krtorus.field import kernel

    inv = ctx.one() if divisor is None else divisor.inverse()
    values = [v for v in values if not v.is_zero()]
    if not values:
        return ctx.zero()
    if divisor is None and len(values) == 1:
        return values[0]
    one = ctx.one().num
    shared = {r: min(v.fac.get(r, 0) for v in values) for v in values for r in v.fac}
    q = lcm(*(v.unit.denominator for v in values))
    dens = []
    for v in values:
        if v.den != one and v.den not in dens:
            dens.append(v.den)
    snum = {}
    for v in values:
        exps = [(r, v.fac.get(r, 0) - s) for r, s in shared.items()]
        term = kernel.poly_form_product(ctx.n, exps, int(v.unit * q))
        for factor in [v.num, *(d for d in dens if d != v.den)]:
            term = kernel.poly_mul(term, factor)
        snum = kernel.poly_add(snum, term)
    sden = inv.den
    for d in dens:
        sden = kernel.poly_mul(sden, d)
    for r, e in inv.fac.items():
        shared[r] = shared.get(r, 0) + e
    return ctx.build(inv.unit / q, shared, kernel.poly_mul(snum, inv.num), sden)


def exchange_by_composition(ctx, left, right, divisor):
    """(prod left + prod right) / divisor as two products and one sum over
    a common denominator, each normalized on its own."""
    return sum_by_common_denominator(
        ctx, (ctx.product_over(left), ctx.product_over(right)), divisor
    )
