"""Computations the benchmark checks krtorus against, written without krtorus.

Nothing here imports the package: the Dynkin diagrams, root systems,
height functions, coefficient series, reduced words, exchange matrices and
exact evaluations are rebuilt from their definitions, so a fault in the
program cannot hide behind the same fault in its checker.
"""

from fractions import Fraction


# -- diagrams, roots and heights ------------------------------------------------


def dynkin_edges(family, rank):
    """Edges of the simply-laced diagram with the package's vertex labels.

    Type D forks at n-2 (leaves n-1 and n); type E hangs leaf 4 off the
    branch vertex 3, with the long arm labelled 1, 2, 3, 5, ..., n.
    """
    if family == "A":
        return [(i, i + 1) for i in range(1, rank)]
    if family == "D":
        return [(i, i + 1) for i in range(1, rank - 1)] + [(rank - 2, rank)]
    if family == "E":
        arm = [1, 2, 3] + list(range(5, rank + 1))
        return list(zip(arm, arm[1:])) + [(3, 4)]
    raise ValueError(f"unknown family {family}")


def adjacency(family, rank):
    adj = {v: set() for v in range(1, rank + 1)}
    for a, b in dynkin_edges(family, rank):
        adj[a].add(b)
        adj[b].add(a)
    return adj


def positive_roots(family, rank):
    """Close the simple roots under all simple reflections; keep positives."""
    adj = adjacency(family, rank)
    simples = [tuple(int(k == i) for k in range(rank)) for i in range(rank)]

    def reflect(i, v):
        c = 2 * v[i] - sum(v[j - 1] for j in adj[i + 1])
        return v[:i] + (v[i] - c,) + v[i + 1 :]

    roots = set(simples)
    frontier = list(simples)
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(rank):
                w = reflect(i, v)
                if w not in roots:
                    roots.add(w)
                    nxt.append(w)
        frontier = nxt
    return sorted(r for r in roots if all(c >= 0 for c in r))


def away_from_one(family, rank):
    """The monotonic orientation: every edge points away from vertex 1."""
    adj = adjacency(family, rank)
    arrows, seen, queue = [], {1}, [1]
    while queue:
        v = queue.pop(0)
        for w in sorted(adj[v]):
            if w not in seen:
                seen.add(w)
                arrows.append((v, w))
                queue.append(w)
    return arrows


def heights(family, rank, arrows, anchor=None):
    """Height function: an arrow v -> w puts w one below v.

    Anchored at (vertex, value) when given, else so that the maximum is 0.
    """
    adj = adjacency(family, rank)
    arrows = set(arrows)
    xi, queue = {1: 0}, [1]
    while queue:
        v = queue.pop(0)
        for w in sorted(adj[v]):
            if w not in xi:
                xi[w] = xi[v] - 1 if (v, w) in arrows else xi[v] + 1
                queue.append(w)
    shift = anchor[1] - xi[anchor[0]] if anchor else -max(xi.values())
    return {v: x + shift for v, x in xi.items()}


# -- the coefficient series -------------------------------------------------------


def _mat_mul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _mat_inverse(a):
    """Exact inverse by Gauss-Jordan elimination."""
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


def cartan_series_inverse(family, rank, order):
    """Coefficients of C(z)^(-1) for the deformed Cartan matrix C(z).

    z C(z) = M0 + M1 z + M2 z^2 with M0 = M2 = I and M1 = -adjacency; the
    inverse series N of M is N_k = -M0^(-1) (M1 N_(k-1) + M2 N_(k-2)), and
    C(z)^(-1) = z N(z), so the z^m coefficient is N_(m-1).  Returns
    {m: matrix} for 1 <= m <= order, 0-based inside each matrix.
    """
    adj = adjacency(family, rank)
    ident = [[Fraction(int(i == j)) for j in range(rank)] for i in range(rank)]
    m1 = [[Fraction(-1) if j + 1 in adj[i + 1] else Fraction(0) for j in range(rank)]
          for i in range(rank)]
    coeffs = [(1, m1), (2, ident)]
    inv0 = _mat_inverse(ident)
    series = [ident]
    for k in range(1, order):
        acc = [[Fraction(0)] * rank for _ in range(rank)]
        for j, mj in coeffs:
            if k >= j:
                prod = _mat_mul(mj, series[k - j])
                acc = [[x + y for x, y in zip(ra, rp)] for ra, rp in zip(acc, prod)]
        series.append(_mat_mul(inv0, [[-x for x in row] for row in acc]))
    return {m: series[m - 1] for m in range(1, order + 1)}


# -- reduced words of the longest element -------------------------------------------


def _reflect_vec(adj, i, v):
    c = 2 * v[i - 1] - sum(v[j - 1] for j in adj[i])
    return v[: i - 1] + (v[i - 1] - c,) + v[i:]


def longest_word(family, rank):
    """A reduced word of w0: append s_i while w(alpha_i) stays positive."""
    adj = adjacency(family, rank)
    word = []
    while True:
        for i in range(1, rank + 1):
            v = tuple(int(k == i - 1) for k in range(rank))
            for letter in reversed(word):
                v = _reflect_vec(adj, letter, v)
            if all(c >= 0 for c in v):
                word.append(i)
                break
        else:
            return tuple(word)


def braid_shuffle(family, rank, word, steps, rng):
    """Apply ``steps`` random commutation or braid moves to a reduced word."""
    adj = adjacency(family, rank)
    word = list(word)
    for _ in range(steps):
        moves = []
        for t in range(len(word) - 1):
            a, b = word[t], word[t + 1]
            if a != b and b not in adj[a]:
                moves.append((t, 2))
            if t + 2 < len(word) and word[t + 2] == a and b in adj[a]:
                moves.append((t, 3))
        t, size = rng.choice(moves)
        if size == 2:
            word[t], word[t + 1] = word[t + 1], word[t]
        else:
            a, b = word[t], word[t + 1]
            word[t : t + 3] = [b, a, b]
    return tuple(word)


# -- exchange matrices -----------------------------------------------------------------


def exchange_matrix(arrows):
    """Skew-symmetric matrix {(a, b): b_ab} of an arrow list (a, b, count)."""
    b = {}
    for a, c, m in arrows:
        b[(a, c)] = b.get((a, c), 0) + m
        b[(c, a)] = b.get((c, a), 0) - m
    return {k: v for k, v in b.items() if v}


def mutate_matrix(b, k):
    """Matrix mutation: b'_ij = -b_ij if k in (i, j), else
    b_ij + sgn(b_ik) * max(b_ik * b_kj, 0)."""
    out = {}
    col = {i: v for (i, j), v in b.items() if j == k}
    row = {j: v for (i, j), v in b.items() if i == k}
    for (i, j), v in b.items():
        out[(i, j)] = -v if k in (i, j) else v
    for i, bik in col.items():
        for j, bkj in row.items():
            if i != j and bik * bkj > 0:
                sign = 1 if bik > 0 else -1
                out[(i, j)] = out.get((i, j), 0) + sign * bik * bkj
    return {key: v for key, v in out.items() if v}


def neighbours(b, v):
    return {j for (i, j) in b if i == v}


# -- exact evaluation ----------------------------------------------------------------------


def eval_terms(terms, point):
    """Exact value of a polynomial {exponent tuple: coefficient}."""
    total = 0
    for exps, coeff in terms.items():
        t = coeff
        for x, k in zip(point, exps):
            if k:
                t *= x**k
        total += t
    return Fraction(total)


def eval_form(coords, point):
    return sum(c * x for c, x in zip(coords, point))


def eval_value(value, point):
    """Exact value of a RootRational at an integer point, from its public parts."""
    total = Fraction(value.unit)
    for root, e in value.root_factors.items():
        total *= Fraction(eval_form(root, point)) ** e
    num = eval_terms(value.numerator.terms, point)
    return total * num / eval_terms(value.denominator.terms, point)


def eval_json(data, point):
    """Exact value of a serialized rational function (the CLI's JSON form)."""
    total = Fraction(data["unit"])
    for f in data["root_factors"]:
        total *= Fraction(eval_form(f["root"], point)) ** f["exp"]
    num = {tuple(t["exp"]): Fraction(t["coeff"]) for t in data["num_terms"]}
    den = {tuple(t["exp"]): Fraction(t["coeff"]) for t in data["den_terms"]}
    return total * eval_terms(num, point) / eval_terms(den, point)


def random_point(rng, n):
    """A point with large positive integer coordinates: every positive-root
    form is nonzero there, and a nonzero polynomial vanishes at it only
    with probability (degree / 2^31)."""
    return tuple(rng.randrange(1, 2**31) for _ in range(n))


class NumericTSystem:
    """The T-system recurrence evaluated in exact rationals at one point.

    kr(i, p, k) for the string Y[i,p]..Y[i,p+2k-2]: the product of the
    variable values when the string top reaches the height function, else
    (kr(i,p,k+1) kr(i,p+2,k-1) + prod over neighbours j of kr(j,p+1,k))
    / kr(i,p+2,k).  ``y_at(i, p)`` supplies the variable values.
    """

    def __init__(self, xi, adj, y_at):
        self.xi = xi
        self.adj = adj
        self.y_at = y_at
        self.values = {}

    def kr(self, i, p, k):
        if k == 0:
            return Fraction(1)
        key = (i, p, k)
        if key not in self.values:
            if p + 2 * k - 2 == self.xi[i]:
                out = Fraction(1)
                for j in range(k):
                    out *= self.y_at(i, p + 2 * j)
            else:
                nbrs = Fraction(1)
                for j in sorted(self.adj[i]):
                    nbrs *= self.kr(j, p + 1, k)
                grow = self.kr(i, p, k + 1) * self.kr(i, p + 2, k - 1)
                out = (grow + nbrs) / self.kr(i, p + 2, k)
            self.values[key] = out
        return self.values[key]
