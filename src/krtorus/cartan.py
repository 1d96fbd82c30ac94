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

from collections import deque
from functools import lru_cache

from .errors import ConsistencyError, InvalidInputError
from .field.rational import RootContext
from .qcartan import QuantumCartanInverse

__all__ = [
    "ARFrame",
    "DynkinDatum",
    "apply_word",
    "braid_moves",
    "braid_shuffle",
    "build_frame",
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


def _nakayama(family: str, rank: int):
    """The involution i -> i* with w0(a_i) = -a_(i*): the diagram flip in
    A, in D of odd rank and in E6 (this labelling), else the identity."""
    star = {i: i for i in range(1, rank + 1)}
    if family == "A":
        star = {i: rank + 1 - i for i in star}
    elif family == "D" and rank % 2:
        star[rank - 1], star[rank] = rank, rank - 1
    elif family == "E" and rank == 6:
        star.update({1: 6, 6: 1, 2: 5, 5: 2})
    return star


class DynkinDatum:
    """Diagram, Cartan matrix, path distances, positive roots, their
    ``RootContext``, the Coxeter number ``h``, the involution ``star`` and
    the ``qcartan`` table for one simply-laced type.

    Everything is computed in the constructor and fixed after, so
    ``build_frame`` shares one datum between all frames of a type.
    """

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
        self._positive_roots = self._root_closure()
        self.root_context = RootContext(self._positive_roots)
        self.h = 2 * len(self._positive_roots) // rank  # certified by qcartan
        self.star = _nakayama(family, rank)
        self.qcartan = QuantumCartanInverse(self)

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

    def _simple_pairing(self, i: int, vec) -> int:
        """Cartan pairing (a_i, vec) = 2 vec_i - sum of vec_j over neighbours j."""
        return 2 * vec[i - 1] - sum(vec[j - 1] for j in self.adjacency[i])

    def pairing(self, beta, gamma) -> int:
        """Symmetric Cartan pairing (beta, gamma)."""
        return sum(
            b * self._simple_pairing(i, gamma) for i, b in enumerate(beta, 1) if b
        )

    def reflect(self, i: int, vec):
        """Simple reflection s_i acting on a coordinate vector."""
        c = self._simple_pairing(i, vec)
        if not c:
            return tuple(vec)
        out = list(vec)
        out[i - 1] -= c
        return tuple(out)

    def positive_roots(self):
        """All positive roots, sorted by height then coordinates."""
        return self._positive_roots

    def _root_closure(self):
        """Grow the positive roots from the simple roots, using the
        simply-laced fact that beta + a_i is a root exactly when
        (beta, a_i) = -1."""
        simples = [self.alpha(i) for i in self.vertices()]
        found = set(simples)
        frontier = list(simples)
        while frontier:
            nxt = []
            for beta in frontier:
                for i in self.vertices():
                    if self._simple_pairing(i, beta) == -1:
                        gamma = list(beta)
                        gamma[i - 1] += 1
                        gamma = tuple(gamma)
                        if gamma not in found:
                            found.add(gamma)
                            nxt.append(gamma)
            frontier = nxt
        return tuple(sorted(found, key=lambda r: (sum(r), r)))


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
    return _inversion_pass(datum, word)[0]


def _inversion_pass(datum: DynkinDatum, word):
    """The inversion roots of ``word`` and the images w(a_j) of the simple
    roots under its product w, as a {j: image} map."""
    images = {j: datum.alpha(j) for j in datum.vertices()}
    out = []
    for k, letter in enumerate(word):
        if letter not in images:
            raise InvalidInputError(
                f"word letter {letter!r} at position {k + 1} is not a vertex 1..{datum.rank}"
            )
        beta = images[letter]
        if not is_positive(beta):
            raise InvalidInputError(
                f"word is not reduced: position {k + 1} gives the negative root "
                f"of {tuple(-v for v in beta)}"
            )
        out.append(beta)
        # images <- images o s_letter: only the letter and its neighbours move
        images[letter] = tuple(-v for v in beta)
        for j in datum.adjacency[letter]:
            images[j] = tuple(a + b for a, b in zip(images[j], beta))
    return out, images


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


def _neighbour_gaps(datum: DynkinDatum, word):
    """One pass over a reduced word: the number of neighbour letters
    between each pair of consecutive occurrences of a letter, and the
    number after the last occurrence of each letter, as (gaps, tails)."""
    inversion_roots(datum, word)
    since, gaps = {}, []
    for letter in word:
        if letter in since:
            gaps.append(since[letter])
        since[letter] = 0
        for j in datum.adjacency[letter]:
            if j in since:
                since[j] += 1
    return gaps, since.values()


def is_fully_commutative(datum: DynkinDatum, word) -> bool:
    """Between consecutive occurrences of a letter, at least two neighbours."""
    gaps, _ = _neighbour_gaps(datum, word)
    return all(g >= 2 for g in gaps)


def is_dominant_minuscule(datum: DynkinDatum, word) -> bool:
    """Exactly two neighbours between repeats; at most one after the last.

    This is Stembridge's reduced-word criterion for dominant minuscule
    elements, specialized to the simply-laced case.
    """
    gaps, tails = _neighbour_gaps(datum, word)
    return all(g == 2 for g in gaps) and all(a <= 1 for a in tails)


# -- the frame ----------------------------------------------------------------


class ARFrame:
    """Everything attached to (diagram, orientation, height function).

    The datum, its positive roots and ``root_context`` depend on the type
    alone and are the datum's own, shared by every frame built on it;
    everything else here depends on the orientation.  Immutable after
    construction; each table holds one period: the letters of the infinite
    word with their depths and the positions of each vertex, the (root,
    sign) columns behind ``beta_eps`` and the root positions.
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
        self.h = datum.h
        self._tau_order = self._topological_order()
        self.gamma = self._gammas()
        self.n_letters = self._letter_counts()
        self.base_word, self.star, roots = self._adapted_word()
        self.root_context = datum.root_context
        self.beta_columns = self._beta_columns(roots)
        self._root_position = {beta: t for t, beta in enumerate(roots, 1)}
        self._letters, self._depths, self._positions = self._period_tables()

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
        element: the length n_i = (h + xi_i - xi_(i*)) / 2 of its row in the
        Auslander-Reiten quiver of the orientation (Hernandez-Leclerc,
        arXiv:1109.0862), with i* from the datum's involution.  Every
        adapted reduced word of w0 has these counts, so ``_adapted_word``
        certifies them along with the word."""
        star = self.datum.star
        counts = {
            i: (self.h + self.xi[i] - self.xi[star[i]]) // 2
            for i in self.datum.vertices()
        }
        if sum(counts.values()) != self.N:
            raise InvalidInputError("letter counts do not sum to N")
        return counts

    def _adapted_word(self):
        """Adapted reduced word of the longest element, its ``star`` and
        its inversion roots.

        Sweeps the topological order of the orientation over and over,
        dropping each letter once its count is used up.  For the monotonic
        orientation this reads (1..n)(1..n-1)... in type A and (1..n)
        repeated in type D.  The result is certified adapted, reduced and
        of length N, so a word of w0, which must send a_i to -a_(i*) for
        the datum's involution *.  A word that fails this is a bug.
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
        certified = self._word_certified(word) if len(word) == self.N else None
        if certified is None:
            raise ConsistencyError("adapted word not certified")
        roots, images = certified
        datum = self.datum
        for i, img in images.items():
            if img != tuple(-v for v in datum.alpha(datum.star[i])):
                raise ConsistencyError("adapted word does not represent w0")
        return word, dict(datum.star), roots

    def _word_certified(self, word):
        """The inversion roots of ``word`` and the images w(a_j) of the
        simple roots under its product w if the word is reduced and
        adapted, else None."""
        try:
            roots, images = _inversion_pass(self.datum, word)
        except InvalidInputError:
            return None  # not reduced
        indeg = {v: len(self.in_arrows[v]) for v in self.datum.vertices()}
        for letter in word:
            if indeg[letter]:
                return None  # not a source at its turn
            # reflecting at a source turns its arrows round
            nbrs = self.datum.adjacency[letter]
            for j in nbrs:
                indeg[j] -= 1
            indeg[letter] = len(nbrs)
        return roots, images

    def _beta_columns(self, roots):
        """{i: (root, sign) of the points (i, xi_i - 2m), m = 0..h-1}: the
        inversion roots at the occurrences of i in the adapted word with
        sign +1, then those of i* with sign -1, one period of row i of the
        Auslander-Reiten quiver (Hernandez-Leclerc, arXiv:1109.0862)."""
        by_letter = {i: [] for i in self.datum.vertices()}
        for letter, beta in zip(self.base_word, roots):
            by_letter[letter].append(beta)
        columns = {
            i: tuple((b, 1) for b in own) + tuple((b, -1) for b in by_letter[self.star[i]])
            for i, own in by_letter.items()
        }
        if any(columns[i][0] != (g, 1) for i, g in self.gamma.items()):
            raise ConsistencyError("a root column does not start at its gamma")
        return columns

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

    def _period_tables(self):
        """One period of the infinite word: its 2N letters (the adapted word,
        then its image under ``star``), their depths (earlier occurrences of
        the letter) and each vertex's h positions.  Position t is the point
        (i, xi_i - 2d) when t = b * 2N + positions[i][r], d = b * h + r."""
        letters = self.base_word + tuple(self.star[v] for v in self.base_word)
        positions = {i: [] for i in self.datum.vertices()}
        depths = []
        for t, v in enumerate(letters, 1):
            depths.append(len(positions[v]))
            positions[v].append(t)
        return letters, depths, positions

    # -- the infinite word ------------------------------------------------

    def _letter_depth(self, t: int):
        """(letter, depth) at word position t."""
        if t < 1:
            raise InvalidInputError("word positions start at 1")
        blocks, k = divmod(t - 1, 2 * self.N)
        return self._letters[k], blocks * self.h + self._depths[k]

    def _position(self, i: int, depth: int) -> int:
        """Word position of the point of vertex i at the given depth."""
        blocks, r = divmod(depth, self.h)
        return blocks * 2 * self.N + self._positions[i][r]

    def letter(self, t: int) -> int:
        """t-th letter (1-based) of the infinite adapted word."""
        return self._letter_depth(t)[0]

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
        if i not in self.xi:
            raise InvalidInputError(
                f"({i},{p}) is not a torus point: vertex {i} is not on the diagram "
                f"(vertices 1..{self.datum.rank})"
            )
        if not self.in_torus(i, p):
            raise InvalidInputError(
                f"({i},{p}) is not a torus point: need p <= xi({i}) = "
                f"{self.xi[i]} with matching parity"
            )

    def phi(self, i: int, p: int) -> int:
        """Position of (i, p) in the infinite word."""
        self.check_point(i, p)
        return self._position(i, (self.xi[i] - p) // 2)

    def phi_inv(self, t: int):
        """Torus point at word position t."""
        i, depth = self._letter_depth(t)
        return (i, self.xi[i] - 2 * depth)

    def t_plus(self, t: int) -> int:
        """Next position of the letter at t."""
        i, depth = self._letter_depth(t)
        return self._position(i, depth + 1)

    def t_minus(self, t: int) -> int:
        """Previous position of the letter at t, with 0 when there is none."""
        i, depth = self._letter_depth(t)
        return self._position(i, depth - 1) if depth else 0

    # -- roots and signs ------------------------------------------------------

    def beta_eps(self, i: int, p: int):
        """(positive root, sign) attached to the torus point (i, p)."""
        self.check_point(i, p)
        return self.beta_columns[i][(self.xi[i] - p) // 2 % self.h]

    def beta_at(self, t: int):
        """Positive root attached to word position t."""
        return self.beta_eps(*self.phi_inv(t))[0]

    def root_position(self, root) -> int:
        """Position t in 1..N with beta_t = root (the convex order)."""
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


@lru_cache(maxsize=32)  # every type the CLI accepts: A1-A14, D4-D14, E6-E8
def _shared_datum(family: str, rank: int) -> DynkinDatum:
    return DynkinDatum(family, rank)


def build_frame(family: str, rank: int, orientation=None, height_anchor=None) -> ARFrame:
    """Construct the full combinatorial frame for one orientation.

    ``orientation`` may be a set of (source, target) pairs or the text
    form 'a>b,c>d'; None selects the monotonic orientation.  The height
    function is anchored so max xi = 0 unless an (vertex, value) anchor
    is given.  Frames of one type share one ``DynkinDatum``, built on the
    first call for that (family, rank) and kept in a bounded cache; a type
    that fails to build is not cached.
    """
    datum = _shared_datum(family, rank)
    if orientation is None:
        orientation = q0_orientation(datum)
    elif isinstance(orientation, str):
        orientation = parse_orientation(orientation)
    return ARFrame(datum, frozenset(orientation), anchor=height_anchor)
