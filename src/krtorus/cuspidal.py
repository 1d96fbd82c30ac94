"""Values on dual root vectors and flag minors.

Three independent routes to the same rational functions live here: the
weight-space sum over words, the colored hook product for dominant
minuscule words, and closed formulas for the cuspidal classes over the
monotonic orientation in types A and D.  The minimal-pair machinery ties
them together through a two-term recursion; the flag-minor recursion
computes the whole standard seed from the word alone.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, gcd

from .cartan import (
    ARFrame,
    inversion_roots,
    is_dominant_minuscule,
    q0_orientation,
)
from .errors import ConsistencyError, InvalidInputError
from .field.rational import RootRational, form_str
from .segments import segment_d, theta_d

__all__ = [
    "CuspidalRecursion",
    "FlagMinorTable",
    "cuspidal_value",
    "cuspidal_word",
    "dimension_ratio",
    "hook_product",
    "minimal_pair",
    "standard_seed_minors",
    "weight_sum",
    "weight_sum_size",
]


# -- the weight-space sum ------------------------------------------------------


def _word_weight(datum, word):
    wt = [0] * datum.rank
    for letter in word:
        if not isinstance(letter, int) or not 1 <= letter <= datum.rank:
            raise InvalidInputError(f"letter {letter!r} outside 1..{datum.rank}")
        wt[letter - 1] += 1
    return tuple(wt)


def _prefix_forms(n, word):
    """The forms a_{j1}, a_{j1}+a_{j2}, ..., a_{j1}+...+a_{jd} of a word."""
    acc = [0] * n
    forms = []
    for letter in word:
        acc[letter - 1] += 1
        forms.append(tuple(acc))
    return forms


def _prefix_form_value(frame, word):
    """1 / (a_{j1} (a_{j1}+a_{j2}) ... (a_{j1}+...+a_{jd}))."""
    forms = _prefix_forms(frame.datum.rank, word)
    return frame.root_context.from_root_factors((f, -1) for f in forms)


def weight_sum_size(frame: ARFrame, words):
    """(D, terms) for the words of weight data, read from the words alone
    before any arithmetic: D is the largest degree that ``weight_sum``
    expands, and terms bounds the monomials it writes in all, the number
    of distinct words (``weight_sum`` merges repeated ones) times the
    monomials of degree D in the letters used.

    A word's value keeps its root prefix forms factored and multiplies its
    other prefix forms (made primitive) into one residual denominator.
    ``sum_of_products`` keeps each root form factored in the common
    denominator, to its largest multiplicity among the words, and expands
    for each word its cofactor (the root forms it lacks up to that
    multiplicity) times the distinct residual denominators other than its
    own; a root form that every word has to the same multiplicity is never
    expanded.  So D is the larger of that numerator degree E and the
    degree R of the product of distinct residual denominators.  A single
    word expands only its own residual (E = 0).  Both are homogeneous in
    the letters used."""
    n = frame.datum.rank
    distinct = {}
    for word in words:
        _word_weight(frame.datum, word)
        distinct[tuple(word)] = None
    counts, residuals, letters = [], set(), set()
    for word in distinct:
        letters.update(word)
        roots, rest = Counter(), []
        for form in _prefix_forms(n, word):
            g = gcd(*form)
            form = tuple(c // g for c in form)
            if form in frame.root_context.root_set:
                roots[form] += 1
            else:
                rest.append(form)
        rest = tuple(sorted(rest))
        counts.append((roots, len(rest)))
        residuals.add(rest)
    top = Counter()
    for roots, _ in counts:
        top |= roots
    r = sum(len(rest) for rest in residuals)
    e = max((sum((top - roots).values()) + r - own for roots, own in counts), default=0)
    degree = max(e, r)
    monomials = comb(degree + len(letters) - 1, len(letters) - 1) if letters else 1
    return degree, len(counts) * monomials


def weight_sum(frame: ARFrame, entries) -> RootRational:
    """Value attached to weight data [(word, dimension), ...].

    All words must have the same letter-count vector; the result is the
    dimension-weighted sum of the reciprocal prefix-form products.  A word
    that recurs is summed once, with its dimensions added.
    """
    entries = list(entries)
    if not entries:
        raise InvalidInputError("weight data is empty")
    wt0 = _word_weight(frame.datum, entries[0][0])
    dims = {}
    for word, dim in entries:
        if dim < 1:
            raise InvalidInputError("dimensions must be positive")
        if _word_weight(frame.datum, word) != wt0:
            raise InvalidInputError(
                f"word {list(word)} has a different weight than the first entry"
            )
        word = tuple(word)
        dims[word] = dims.get(word, 0) + dim
    values = [dim * _prefix_form_value(frame, word) for word, dim in dims.items()]
    return frame.root_context.sum_over(values)


# -- hook product for dominant minuscule words ---------------------------------


def hook_product(frame: ARFrame, word) -> RootRational:
    """Reciprocal product of the inversion roots of a dominant minuscule word."""
    if not is_dominant_minuscule(frame.datum, word):
        raise InvalidInputError(
            f"word {list(word)} is not dominant minuscule; the hook product "
            "does not apply"
        )
    roots = inversion_roots(frame.datum, word)
    return frame.root_context.root_product(dict.fromkeys(roots, -1))


# -- closed cuspidal values over the monotonic orientation ---------------------


def _require_q0_ad(frame: ARFrame):
    if frame.datum.family not in ("A", "D") or frame.orientation != q0_orientation(
        frame.datum
    ):
        raise InvalidInputError(
            "closed cuspidal values cover types A and D with the monotonic "
            "orientation; use the minimal-pair recursion elsewhere"
        )


def _decode_root_d(n: int, beta):
    """Classify a type-D positive root as ('alpha', p, q) or ('theta', p, q)."""
    for p in range(1, n):
        for q in range(p + 1, n):
            if beta == theta_d(n, p, q):
                return ("theta", p, q)
    for p in range(1, n + 1):
        for q in range(p, n + 1):
            if beta == segment_d(n, p, q):
                return ("alpha", p, q)
    raise InvalidInputError(f"{form_str(beta)} is not a positive root here")


def cuspidal_word(frame: ARFrame, beta):
    """The segment word attached to a segment root (types A and D)."""
    _require_q0_ad(frame)
    beta = tuple(beta)
    n = frame.datum.rank
    if frame.datum.family == "A":
        support = [t + 1 for t, c in enumerate(beta) if c]
        if beta not in frame.root_context.root_set:
            raise InvalidInputError(f"{form_str(beta)} is not a positive root here")
        return tuple(range(support[0], support[-1] + 1))
    kind, p, q = _decode_root_d(n, beta)
    if kind != "alpha":
        raise InvalidInputError("doubled-tail roots have no segment word")
    if q < n:
        return tuple(range(p, q + 1))
    return tuple(range(p, n - 1)) + (n,)


def cuspidal_value(frame: ARFrame, beta) -> RootRational:
    """Closed value on the cuspidal class of a positive root (A/D, monotonic).

    Segment roots give reciprocal prefix products of their words; the
    doubled-tail roots of type D carry the extra theta factors.
    """
    _require_q0_ad(frame)
    beta = tuple(beta)
    n = frame.datum.rank
    ctx = frame.root_context
    if frame.datum.family == "A":
        return _prefix_form_value(frame, cuspidal_word(frame, beta))
    kind, p, q = _decode_root_d(n, beta)
    if kind == "alpha":
        return _prefix_form_value(frame, cuspidal_word(frame, beta))
    pairs = [(theta_d(n, p, p), +1), (theta_d(n, p, q), -1)]
    for t in range(q, n - 1):
        pairs.append((segment_d(n, q, t), -1))
    for t in range(p, n + 1):
        pairs.append((segment_d(n, p, t), -1))
    return ctx.from_root_factors(pairs)


# -- minimal pairs and the two-term recursion ----------------------------------


def _ordered_decompositions(frame: ARFrame, beta):
    """All (gamma, delta) with gamma + delta = beta, ordered by the word order."""
    pos = frame.root_position
    out = []
    for gamma in frame.positive_roots:
        delta = tuple(b - g for b, g in zip(beta, gamma))
        if delta in frame.root_context.root_set and pos(gamma) < pos(delta):
            out.append((gamma, delta))
    return out


def minimal_pair(frame: ARFrame, beta):
    """A minimal decomposition of beta in the frame's convex order.

    Among pairs (gamma, delta) with gamma + delta = beta and gamma below
    delta, a pair is minimal when no other pair sits strictly inside it;
    ties are broken towards the tallest gamma (largest coordinate sum),
    then the latest gamma in the word order.
    """
    beta = tuple(beta)
    if beta not in frame.root_context.root_set:
        raise InvalidInputError(f"{form_str(beta)} is not a positive root here")
    if sum(beta) == 1:
        raise InvalidInputError("simple roots have no minimal pair")
    pos = frame.root_position
    decomps = _ordered_decompositions(frame, beta)
    minimal = []
    for g, d in decomps:
        inside = any(
            (g2, d2) != (g, d) and pos(g) < pos(g2) and pos(d2) < pos(d)
            for g2, d2 in decomps
        )
        if not inside:
            minimal.append((g, d))
    if not minimal:
        raise ConsistencyError(f"no minimal pair found for {form_str(beta)}")
    return max(minimal, key=lambda gd: (sum(gd[0]), pos(gd[0])))


class CuspidalRecursion:
    """Cuspidal values from minimal pairs and the hook product alone.

    value(beta) follows the two-term relation: the product of the values
    of a minimal pair minus the hook product of the concatenated pair
    word, provided that word is dominant minuscule at every level.  When
    it is not, the value is reported as None (unknown, not an error) --
    no guessing.
    """

    def __init__(self, frame: ARFrame):
        self.frame = frame
        self.ctx = frame.root_context
        self._words = {}
        self._values = {}

    def pair_of(self, beta):
        return minimal_pair(self.frame, beta)

    def word(self, beta):
        """The recursively built word: word(gamma) + word(delta)."""
        beta = tuple(beta)
        if beta not in self._words:
            if sum(beta) == 1:
                self._words[beta] = (beta.index(1) + 1,)
            else:
                gamma, delta = self.pair_of(beta)
                self._words[beta] = self.word(gamma) + self.word(delta)
        return self._words[beta]

    def value(self, beta):
        beta = tuple(beta)
        if beta not in self._values:
            self._values[beta] = self._compute(beta)
        return self._values[beta]

    def _compute(self, beta):
        if beta not in self.ctx.root_set:
            raise InvalidInputError(f"{form_str(beta)} is not a positive root here")
        if sum(beta) == 1:
            return self.ctx.from_root_factors([(beta, -1)])
        gamma, delta = self.pair_of(beta)
        vg = self.value(gamma)
        vd = self.value(delta)
        if vg is None or vd is None:
            return None
        head_word = self.word(delta) + self.word(gamma)
        try:
            hook = hook_product(self.frame, head_word)
        except InvalidInputError:
            return None
        return vd * vg - hook

    def coverage(self):
        """(applicable, inapplicable) root lists for this frame's order."""
        good, bad = [], []
        for beta in self.frame.positive_roots:
            (good if self.value(beta) is not None else bad).append(beta)
        return good, bad


# -- flag minors of a standard seed ---------------------------------------------


@dataclass
class FlagMinorTable:
    """Products P_1..P_N with value(x_j) = 1 / P_j along one reduced word."""

    word: tuple
    products: list

    def value(self, j: int) -> RootRational:
        return 1 / self.products[j - 1]


def standard_seed_minors(frame: ARFrame, word=None) -> FlagMinorTable:
    """Run the seed recursion P_j * P_(j-) = beta_j * prod of neighbours.

    The neighbours' P and P_(j-) are read from one map of each letter's
    latest P, kept along the word.  Works for any reduced word of the
    longest element, not only adapted ones.  Every P_j must come out as a
    plain product of positive roots; anything else signals a broken invariant.
    """
    word = tuple(word) if word is not None else frame.base_word
    if len(word) != frame.N:
        raise InvalidInputError(
            f"need a reduced word of the longest element (length {frame.N})"
        )
    betas = inversion_roots(frame.datum, word)  # also certifies reducedness
    ctx = frame.root_context
    products = []
    latest = {}  # letter -> P at its latest position so far
    for j, (letter, beta) in enumerate(zip(word, betas), 1):
        pairs = [(ctx.root_product({beta: 1}), 1)]
        pairs += [(latest[k], 1) for k in frame.datum.adjacency[letter] if k in latest]
        if letter in latest:
            pairs.append((latest[letter], -1))
        p = ctx.product_over(pairs)
        if not p.is_factored() or p.unit != 1 or any(
            e < 0 for e in p.root_factors.values()
        ):
            raise ConsistencyError(
                f"P_{j} is not a product of positive roots: {p}"
            )
        products.append(p)
        latest[letter] = p
    return FlagMinorTable(word=word, products=products)


# -- the dimension-ratio formula -------------------------------------------------


def dimension_ratio(n: int, exponents) -> Fraction:
    """(sum of i*m[i,r])! times prod of ((r-1)!/(r+i-1)!)^m[i,r].

    ``exponents`` maps (i, r) to a nonnegative integer; i indexes the
    type-A vertex, r the depth of the torus column.
    """
    total = 0
    ratio = Fraction(1)
    for (i, r), m in exponents.items():
        if not 1 <= i <= n:
            raise InvalidInputError(f"vertex {i} outside 1..{n}")
        if r < 1:
            raise InvalidInputError(f"depth {r} must be >= 1")
        if m < 0:
            raise InvalidInputError("exponents must be nonnegative")
        total += i * m
        ratio *= Fraction(factorial(r - 1), factorial(r + i - 1)) ** m
    return factorial(total) * ratio
