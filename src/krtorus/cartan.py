"""Simply-laced Cartan data and the combinatorics of adapted words.

Covers the Dynkin diagram bookkeeping (types A, D, E), orientations and
height functions, the infinite adapted word with its position/torus-point
bijection, the root-and-sign sequence obtained by iterating the Coxeter
transformation, Euler-Ringel forms, inversion sets of reduced words, and
the dominant-minuscule / fully-commutative word tests.

Vertices are labelled 1..n.  Type D forks at n-2 (leaves n-1 and n);
type E hangs leaf 4 off the branch vertex 3, with the long arm labelled
1,2,3,5,...,r.  Roots are dense integer coordinate tuples on the simple
roots a1..an.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right
from collections import deque

from .errors import ConsistencyError, InvalidInputError
from .field.rational import RootContext

__all__ = [
    "ARFrame",
    "DynkinDatum",
    "apply_word",
    "braid_moves",
    "braid_shuffle",
    "build_frame",
    "finite_t_minus",
    "finite_t_plus",
    "inversion_roots",
    "is_dominant_minuscule",
    "is_fully_commutative",
    "is_positive",
    "parse_orientation",
    "q0_orientation",
    "render_orientation",
]


def _diagram_edges(family: str, rank: int):
    if family == "A":
        if rank < 1:
            raise InvalidInputError("type A needs rank >= 1")
        return [(i, i + 1) for i in range(1, rank)]
    if family == "D":
        if rank < 4:
            raise InvalidInputError("type D needs rank >= 4")
        edges = [(i, i + 1) for i in range(1, rank - 1)]
        edges.append((rank - 2, rank))
        return edges
    if family == "E":
        if rank not in (6, 7, 8):
            raise InvalidInputError("type E needs rank 6, 7 or 8")
        edges = [(1, 2), (2, 3), (3, 4), (3, 5)]
        edges += [(i, i + 1) for i in range(5, rank)]
        return edges
    raise InvalidInputError(f"unsupported family {family!r} (expected A, D or E)")


class DynkinDatum:
    """Diagram, Cartan matrix and path distances for one simply-laced type."""

    def __init__(self, family: str, rank: int):
        self.family = family
        self.rank = rank
        self.edges = tuple(_diagram_edges(family, rank))
        nbrs = {i: [] for i in range(1, rank + 1)}
        for a, b in self.edges:
            nbrs[a].append(b)
            nbrs[b].append(a)
        self.adjacency = {i: tuple(sorted(v)) for i, v in nbrs.items()}
        self.cartan = tuple(
            tuple(
                2 if i == j else (-1 if j in self.adjacency[i] else 0)
                for j in range(1, rank + 1)
            )
            for i in range(1, rank + 1)
        )
        self._dist = self._distances()
        self._positive_roots = None

    def _distances(self):
        dist = {}
        for s in range(1, self.rank + 1):
            d = {s: 0}
            queue = deque([s])
            while queue:
                v = queue.popleft()
                for w in self.adjacency[v]:
                    if w not in d:
                        d[w] = d[v] + 1
                        queue.append(w)
            if len(d) != self.rank:
                raise InvalidInputError("diagram is not connected")
            for t, dd in d.items():
                dist[s, t] = dd
        return dist

    def d(self, i: int, j: int) -> int:
        """Shortest-path distance on the diagram."""
        return self._dist[i, j]

    def vertices(self):
        return range(1, self.rank + 1)

    def alpha(self, i: int):
        """Coordinate tuple of the simple root attached to vertex i."""
        return tuple(1 if k == i - 1 else 0 for k in range(self.rank))

    def pairing(self, beta, gamma) -> int:
        """Symmetric Cartan pairing (beta, gamma)."""
        return sum(
            self.cartan[i][j] * beta[i] * gamma[j]
            for i in range(self.rank)
            for j in range(self.rank)
            if beta[i] and gamma[j]
        )

    def reflect(self, i: int, vec):
        """Simple reflection s_i acting on a coordinate vector."""
        c = sum(self.cartan[i - 1][j] * vec[j] for j in range(self.rank) if vec[j])
        if not c:
            return tuple(vec)
        return tuple(
            v - c if k == i - 1 else v for k, v in enumerate(vec)
        )

    def positive_roots(self):
        """All positive roots, sorted by height then coordinates.

        Uses the simply-laced fact that beta + a_i is a root exactly when
        (beta, a_i) = -1, growing the set from the simple roots.
        """
        if self._positive_roots is None:
            simples = [self.alpha(i) for i in self.vertices()]
            found = set(simples)
            frontier = list(simples)
            while frontier:
                nxt = []
                for beta in frontier:
                    for i in self.vertices():
                        if self.pairing(beta, self.alpha(i)) == -1:
                            gamma = tuple(
                                b + (1 if k == i - 1 else 0)
                                for k, b in enumerate(beta)
                            )
                            if gamma not in found:
                                found.add(gamma)
                                nxt.append(gamma)
                frontier = nxt
            self._positive_roots = tuple(sorted(found, key=lambda r: (sum(r), r)))
        return self._positive_roots


def is_positive(vec) -> bool:
    return all(v >= 0 for v in vec) and any(v > 0 for v in vec)


# -- orientations ----------------------------------------------------------


def parse_orientation(text: str):
    """Parse 'a>b,c>d' into a set of (source, target) arrows."""
    arrows = set()
    text = text.strip()
    if not text:
        return frozenset()
    for piece in text.split(","):
        piece = piece.strip()
        if ">" not in piece:
            raise InvalidInputError(f"bad arrow {piece!r}, expected 'a>b'")
        a, b = piece.split(">", 1)
        try:
            arrows.add((int(a), int(b)))
        except ValueError as exc:
            raise InvalidInputError(f"bad arrow {piece!r}: {exc}") from exc
    return frozenset(arrows)


def render_orientation(arrows) -> str:
    return ",".join(f"{a}>{b}" for a, b in sorted(arrows))


def q0_orientation(datum: DynkinDatum):
    """The monotonic orientation: every edge points away from vertex 1."""
    return frozenset(
        (a, b) if datum.d(1, a) < datum.d(1, b) else (b, a) for a, b in datum.edges
    )


def _validate_orientation(datum: DynkinDatum, arrows):
    edge_set = {frozenset(e) for e in datum.edges}
    seen = set()
    for a, b in arrows:
        e = frozenset((a, b))
        if e not in edge_set:
            raise InvalidInputError(f"arrow {a}>{b} is not along a diagram edge")
        if e in seen:
            raise InvalidInputError(f"edge {{{a},{b}}} oriented twice")
        seen.add(e)
    if len(seen) != len(edge_set):
        missing = edge_set - seen
        a, b = sorted(next(iter(missing)))
        raise InvalidInputError(f"edge {{{a},{b}}} has no orientation")


# -- finite-word utilities ---------------------------------------------------


def apply_word(datum: DynkinDatum, word, vec):
    """Apply s_{i1} ... s_{ik} to a vector (rightmost letter acts first)."""
    for letter in reversed(word):
        vec = datum.reflect(letter, vec)
    return vec


def inversion_roots(datum: DynkinDatum, word):
    """Roots b_k = s_{i1}...s_{i(k-1)}(a_{ik}); fails if the word is not reduced."""
    images = {j: datum.alpha(j) for j in datum.vertices()}
    out = []
    for k, letter in enumerate(word):
        beta = images[letter]
        if not is_positive(beta):
            raise InvalidInputError(
                f"word is not reduced: position {k + 1} gives the negative root "
                f"of {tuple(-v for v in beta)}"
            )
        out.append(beta)
        # images <- images o s_letter
        base = images[letter]
        images = {
            j: tuple(
                images[j][t] - datum.cartan[letter - 1][j - 1] * base[t]
                for t in range(datum.rank)
            )
            for j in datum.vertices()
        }
    return out


def braid_moves(datum: DynkinDatum, word):
    """All words one commutation or braid move away from ``word``."""
    word = tuple(word)
    out = []
    for idx in range(len(word) - 1):
        a, b = word[idx], word[idx + 1]
        if a != b and b not in datum.adjacency[a]:
            out.append(word[:idx] + (b, a) + word[idx + 2 :])
    for idx in range(len(word) - 2):
        a, b, c = word[idx : idx + 3]
        if a == c and b in datum.adjacency[a]:
            out.append(word[:idx] + (b, a, b) + word[idx + 3 :])
    return out


def braid_shuffle(datum: DynkinDatum, word, steps: int, rng):
    """Random walk on the reduced-word graph starting from ``word``."""
    word = tuple(word)
    for _ in range(steps):
        nbrs = braid_moves(datum, word)
        if not nbrs:
            break
        word = rng.choice(nbrs)
    return word


def finite_t_plus(word, t: int):
    """Next position of letter word[t-1] within the word, or None."""
    for s in range(t, len(word)):
        if word[s] == word[t - 1]:
            return s + 1
    return None


def finite_t_minus(word, t: int) -> int:
    """Previous position of letter word[t-1], with 0 when there is none."""
    for s in range(t - 2, -1, -1):
        if word[s] == word[t - 1]:
            return s + 1
    return 0


def _check_word_letters(datum, word):
    for letter in word:
        if not 1 <= letter <= datum.rank:
            raise InvalidInputError(f"letter {letter} outside 1..{datum.rank}")


def is_fully_commutative(datum: DynkinDatum, word) -> bool:
    """Between consecutive occurrences of a letter, at least two neighbours."""
    _check_word_letters(datum, word)
    inversion_roots(datum, word)
    for t in range(1, len(word) + 1):
        tp = finite_t_plus(word, t)
        if tp is not None:
            between = sum(
                1 for s in range(t, tp - 1) if word[s] in datum.adjacency[word[t - 1]]
            )
            if between < 2:
                return False
    return True


def is_dominant_minuscule(datum: DynkinDatum, word) -> bool:
    """Exactly two neighbours between repeats; at most one after the last.

    This is Stembridge's reduced-word criterion for dominant minuscule
    elements, specialized to the simply-laced case.
    """
    _check_word_letters(datum, word)
    inversion_roots(datum, word)
    for t in range(1, len(word) + 1):
        tp = finite_t_plus(word, t)
        nbrs = datum.adjacency[word[t - 1]]
        if tp is not None:
            between = sum(1 for s in range(t, tp - 1) if word[s] in nbrs)
            if between != 2:
                return False
        else:
            after = sum(1 for s in range(t, len(word)) if word[s] in nbrs)
            if after > 1:
                return False
    return True


# -- the frame ----------------------------------------------------------------


class ARFrame:
    """Everything attached to (diagram, orientation, height function).

    Immutable after construction; all lookups are cached, so sharing one
    frame across threads for reads is safe once it has been built.
    """

    def __init__(self, datum: DynkinDatum, orientation, anchor=None):
        _validate_orientation(datum, orientation)
        self.datum = datum
        self.orientation = frozenset(orientation)
        self.out_arrows = {i: [] for i in datum.vertices()}
        self.in_arrows = {i: [] for i in datum.vertices()}
        for a, b in sorted(self.orientation):
            self.out_arrows[a].append(b)
            self.in_arrows[b].append(a)
        self.xi = self._heights(anchor)
        self.positive_roots = datum.positive_roots()
        self.N = len(self.positive_roots)
        if (2 * self.N) % datum.rank:
            raise InvalidInputError("2N/n is not an integer; bad root data")
        self.h = 2 * self.N // datum.rank
        self._tau_order = self._topological_order()
        self.gamma = self._gammas()
        self.n_letters = self._letter_counts()
        self.base_word = self._adapted_word()
        self.star = self._star()
        self.root_context = RootContext(self.positive_roots)
        self._beta_cache = {i: [(self.gamma[i], 1)] for i in datum.vertices()}
        self._beta_lock = threading.Lock()
        self._occ2 = self._occurrences_double_period()
        self._root_position = None

    # -- construction pieces -------------------------------------------

    def _heights(self, anchor):
        datum = self.datum
        xi = {1: 0}
        queue = deque([1])
        while queue:
            v = queue.popleft()
            for w in datum.adjacency[v]:
                if w in xi:
                    continue
                xi[w] = xi[v] - 1 if (v, w) in self.orientation else xi[v] + 1
                queue.append(w)
        if anchor is None:
            shift = -max(xi.values())
        else:
            v, val = anchor
            if v not in xi:
                raise InvalidInputError(f"anchor vertex {v} not on the diagram")
            shift = val - xi[v]
        return {v: x + shift for v, x in xi.items()}

    def _letter_counts(self):
        """How often each vertex appears in the adapted word of the longest
        element: the length of its Coxeter orbit inside the positive roots."""
        counts = {}
        for i in self.datum.vertices():
            root = self.gamma[i]
            r = 1
            while True:
                root = self.coxeter(root)
                if not is_positive(root):
                    break
                r += 1
            counts[i] = r
        if sum(counts.values()) != self.N:
            raise InvalidInputError("Coxeter orbit lengths do not sum to N")
        return counts

    def _adapted_word(self):
        """Adapted reduced word of the longest element.

        Sweeps the topological order of the orientation over and over,
        dropping each letter once its Coxeter-orbit count is used up.
        For the monotonic orientation this reads (1..n)(1..n-1)... in
        type A and (1..n) repeated in type D.  The result is certified
        adapted and reduced; a word that fails certification is a bug.
        """
        counts = dict(self.n_letters)
        word = []
        while len(word) < self.N:
            before = len(word)
            for v in self._tau_order:
                if counts[v] > 0:
                    counts[v] -= 1
                    word.append(v)
            if len(word) == before:
                break
        word = tuple(word)
        if len(word) != self.N or not self._word_certified(word):
            raise ConsistencyError("adapted word not certified")
        return word

    def _word_certified(self, word) -> bool:
        arrows = set(self.orientation)
        images = {j: self.datum.alpha(j) for j in self.datum.vertices()}
        for letter in word:
            if any(b == letter for _, b in arrows):
                return False  # not a source at its turn
            if not is_positive(images[letter]):
                return False  # word stopped being reduced
            base = images[letter]
            images = {
                j: tuple(
                    images[j][t] - self.datum.cartan[letter - 1][j - 1] * base[t]
                    for t in range(self.datum.rank)
                )
                for j in self.datum.vertices()
            }
            arrows = {(b, a) if letter in (a, b) else (a, b) for a, b in arrows}
        return True

    def _star(self):
        datum = self.datum
        star = {}
        for i in datum.vertices():
            img = apply_word(datum, self.base_word, datum.alpha(i))
            neg = tuple(-v for v in img)
            if not is_positive(neg) or sum(neg) != 1:
                raise ConsistencyError("adapted word does not represent w0")
            star[i] = neg.index(1) + 1
        return star

    def _topological_order(self):
        indeg = {v: len(self.in_arrows[v]) for v in self.datum.vertices()}
        ready = sorted(v for v, d in indeg.items() if d == 0)
        order = []
        while ready:
            v = ready.pop(0)
            order.append(v)
            for w in self.out_arrows[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    ready.append(w)
            ready.sort()
        if len(order) != self.datum.rank:
            raise InvalidInputError("orientation has a cycle")
        return tuple(order)

    def _gammas(self):
        """gamma_i = sum of a_j over vertices j with a directed path j -> i."""
        gammas = {}
        for i in self.datum.vertices():
            reach = {i}
            queue = deque([i])
            while queue:
                v = queue.popleft()
                for w in self.in_arrows[v]:
                    if w not in reach:
                        reach.add(w)
                        queue.append(w)
            gammas[i] = tuple(
                1 if (k + 1) in reach else 0 for k in range(self.datum.rank)
            )
        return gammas

    def _occurrences_double_period(self):
        occ = {i: [] for i in self.datum.vertices()}
        for t in range(1, 2 * self.N + 1):
            occ[self.letter(t)].append(t)
        for i, lst in occ.items():
            if len(lst) != self.h:
                raise InvalidInputError("letter frequencies break the 2N period")
        return occ

    # -- the infinite word ------------------------------------------------

    def letter(self, t: int) -> int:
        """t-th letter (1-based) of the infinite adapted word."""
        if t < 1:
            raise InvalidInputError("word positions start at 1")
        k = (t - 1) % self.N
        base = self.base_word[k]
        return base if ((t - 1) // self.N) % 2 == 0 else self.star[base]

    def word_prefix(self, k: int):
        return tuple(self.letter(t) for t in range(1, k + 1))

    def coxeter(self, vec):
        """Coxeter transformation adapted to the orientation."""
        for v in reversed(self._tau_order):
            vec = self.datum.reflect(v, vec)
        return vec

    # -- torus points -------------------------------------------------------

    def in_torus(self, i: int, p: int) -> bool:
        if i not in self.xi:
            return False
        return p <= self.xi[i] and (self.xi[i] - p) % 2 == 0

    def check_point(self, i: int, p: int):
        if not self.in_torus(i, p):
            raise InvalidInputError(
                f"({i},{p}) is not a torus point: need p <= xi({i}) = "
                f"{self.xi.get(i, '?')} with matching parity"
            )

    def phi(self, i: int, p: int) -> int:
        """Position of (i, p) in the infinite word."""
        self.check_point(i, p)
        m = (self.xi[i] - p + 2) // 2
        blocks, rem = divmod(m - 1, self.h)
        return blocks * 2 * self.N + self._occ2[i][rem]

    def phi_inv(self, t: int):
        """Torus point at word position t."""
        if t < 1:
            raise InvalidInputError("word positions start at 1")
        i = self.letter(t)
        blocks, pos = divmod(t - 1, 2 * self.N)
        count = blocks * self.h + bisect_right(self._occ2[i], pos + 1)
        return (i, self.xi[i] - 2 * count + 2)

    def t_plus(self, t: int) -> int:
        i = self.letter(t)
        blocks, pos = divmod(t - 1, 2 * self.N)
        idx = bisect_right(self._occ2[i], pos + 1)
        if idx < len(self._occ2[i]):
            return blocks * 2 * self.N + self._occ2[i][idx]
        return (blocks + 1) * 2 * self.N + self._occ2[i][0]

    def t_minus(self, t: int) -> int:
        i = self.letter(t)
        blocks, pos = divmod(t - 1, 2 * self.N)
        idx = bisect_left(self._occ2[i], pos + 1) - 1
        if idx >= 0:
            return blocks * 2 * self.N + self._occ2[i][idx]
        if blocks > 0:
            return (blocks - 1) * 2 * self.N + self._occ2[i][-1]
        return 0

    # -- roots and signs ------------------------------------------------------

    def beta_eps(self, i: int, p: int):
        """(positive root, sign) attached to the torus point (i, p)."""
        self.check_point(i, p)
        m = (self.xi[i] - p) // 2
        cache = self._beta_cache[i]
        if len(cache) <= m:
            with self._beta_lock:
                while len(cache) <= m:
                    root, eps = cache[-1]
                    img = self.coxeter(root)
                    if is_positive(img):
                        cache.append((img, eps))
                    else:
                        cache.append((tuple(-v for v in img), -eps))
        return cache[m]

    def beta_at(self, t: int):
        """Positive root attached to word position t."""
        return self.beta_eps(*self.phi_inv(t))[0]

    def root_position(self, root) -> int:
        """Position t in 1..N with beta_t = root (the convex order)."""
        if self._root_position is None:
            self._root_position = {self.beta_at(t): t for t in range(1, self.N + 1)}
        return self._root_position[tuple(root)]

    # -- bilinear forms ---------------------------------------------------------

    def euler_form(self, beta, gamma) -> int:
        """Euler-Ringel form of the oriented quiver."""
        total = sum(b * g for b, g in zip(beta, gamma))
        for a, b in self.orientation:
            total -= beta[a - 1] * gamma[b - 1]
        return total

    def cartan_pairing(self, beta, gamma) -> int:
        return self.datum.pairing(beta, gamma)

    # -- misc --------------------------------------------------------------------

    def describe(self):
        return {
            "family": self.datum.family,
            "rank": self.datum.rank,
            "orientation": render_orientation(self.orientation),
            "xi": dict(sorted(self.xi.items())),
            "N": self.N,
            "h": self.h,
            "word": list(self.base_word),
            "star": dict(sorted(self.star.items())),
        }


def build_frame(family: str, rank: int, orientation=None, height_anchor=None) -> ARFrame:
    """Construct the full combinatorial frame for one orientation.

    ``orientation`` may be a set of (source, target) pairs or the text
    form 'a>b,c>d'; None selects the monotonic orientation.  The height
    function is anchored so max xi = 0 unless an (vertex, value) anchor
    is given.
    """
    datum = DynkinDatum(family, rank)
    if orientation is None:
        orientation = q0_orientation(datum)
    elif isinstance(orientation, str):
        orientation = parse_orientation(orientation)
    return ARFrame(datum, frozenset(orientation), anchor=height_anchor)
