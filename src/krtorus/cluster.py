"""Cluster mutation on a finite window of the initial quiver.

The window [1, M] of word positions carries the initial seed: vertical
arrows t+ -> t between consecutive occurrences of a letter, oblique
arrows k -> l between interleaved occurrences of adjacent letters, and
values given by the torus morphism on the initial cluster variables.
Positions whose next occurrence lies beyond the window are frozen; the
quotient seed specializes their values to 1.  A quiver keeps a map of
in-arrows and one of out-arrows per vertex, so one mutation reads and
rewires only the maps of the mutated vertex and its neighbours.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import ConsistencyError, InvalidInputError
from .torusmap import TorusMorphism

__all__ = ["Quiver", "Seed", "initial_seed", "mutate", "mutate_sequence"]


def _arrow_tuple(outs):
    """The sorted ``((source, target, multiplicity), ...)`` tuple of out-maps."""
    return tuple(sorted((a, b, m) for a, out in outs.items() for b, m in out.items()))


class Quiver:
    """Arrow multiset on the window vertices with a frozen subset.

    Immutable after construction.  Each vertex has a map of in-arrows
    {source: multiplicity} and one of out-arrows {target: multiplicity};
    ``mutated`` reads and copies only the maps of the mutated vertex and
    its neighbours, and every other vertex shares its maps with the
    parent quiver.  ``arrows`` is the sorted ``((source, target,
    multiplicity), ...)`` tuple, built on first read and then kept.
    Equality and hashing go by (vertices, arrows, frozen).
    """

    __slots__ = ("vertices", "frozen", "_in", "_out", "_arrows")

    def __init__(self, vertices, arrows, frozen):
        self.vertices = vertices
        self.frozen = frozen
        self._arrows = arrows
        self._in = {v: {} for v in vertices}
        self._out = {v: {} for v in vertices}
        for a, b, m in arrows:
            self._out.setdefault(a, {})[b] = m
            self._in.setdefault(b, {})[a] = m

    @property
    def arrows(self) -> tuple:
        if self._arrows is None:
            self._arrows = _arrow_tuple(self._out)
        return self._arrows

    def arrow_counter(self) -> Counter:
        return Counter({(a, b): m for a, b, m in self.arrows})

    def arrows_in(self, v: int):
        return sorted(self._in.get(v, {}).items())

    def arrows_out(self, v: int):
        return sorted(self._out.get(v, {}).items())

    def mutated(self, v: int) -> "Quiver":
        """The quiver mutated at v: arrows at v reverse, and each path
        a -> v -> b adds ma * mb arrows a -> b, less any b -> a.

        The quiver has no 2-cycles, so the only ones this can create are
        a -> b against an existing b -> a, and they cancel here.
        """
        incoming, outgoing = self._in[v], self._out[v]
        ins, outs = dict(self._in), dict(self._out)
        for u in (*incoming, *outgoing):
            ins[u], outs[u] = dict(ins[u]), dict(outs[u])
        ins[v], outs[v] = dict(outgoing), dict(incoming)
        for a, ma in incoming.items():
            del outs[a][v]
            ins[a][v] = ma
        for b, mb in outgoing.items():
            del ins[b][v]
            outs[b][v] = mb
        for a, ma in incoming.items():
            for b, mb in outgoing.items():
                back = ins[a].pop(b, 0)
                if back:
                    del outs[b][a]
                m = ma * mb - back
                if m > 0:
                    outs[a][b] = ins[b][a] = outs[a].get(b, 0) + m
                elif m < 0:
                    outs[b][a] = ins[a][b] = -m
        out = Quiver.__new__(Quiver)
        out.vertices, out.frozen, out._arrows = self.vertices, self.frozen, None
        out._in, out._out = ins, outs
        return out

    @staticmethod
    def from_counter(vertices, counter: Counter, frozen) -> "Quiver":
        arrows = tuple(
            (a, b, m) for (a, b), m in sorted(counter.items()) if m > 0
        )
        return Quiver(tuple(vertices), arrows, frozenset(frozen))

    def _key(self):
        return (self.vertices, self.arrows, self.frozen)

    def __eq__(self, other):
        if other.__class__ is not Quiver:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"Quiver(vertices={self.vertices!r}, arrows={self.arrows!r}, frozen={self.frozen!r})"


@dataclass(frozen=True)
class Seed:
    """Quiver plus exact values at every vertex."""

    quiver: Quiver
    values: dict
    calc: TorusMorphism


def initial_seed(calc: TorusMorphism, window: int, specialize_frozen: bool = False) -> Seed:
    """Initial seed on word positions 1..window.

    Vertical arrows t+ -> t; oblique arrows k -> l whenever the letters
    at k and l are adjacent and k < l < k+ < l+ with k+ inside the
    window.  For k = phi(i, p) these are the arrows to l = phi(j, p - 1),
    one per neighbour j of i.  Frozen vertices are those whose next
    occurrence falls outside the window; with ``specialize_frozen`` their
    values become 1 (the quotient in which the full-period classes are
    units).
    """
    if window < 1:
        raise InvalidInputError("window must contain at least vertex 1")
    frame = calc.frame
    arrows = Counter()
    frozen = set()
    for t in range(1, window + 1):
        tp = frame.t_plus(t)
        if tp > window:
            frozen.add(t)
            continue
        arrows[(tp, t)] += 1
        i, p = frame.phi_inv(t)
        for j in frame.datum.adjacency[i]:
            arrows[(t, frame.phi(j, p - 1))] += 1
    values = {}
    for t in range(1, window + 1):
        if specialize_frozen and t in frozen:
            values[t] = calc.ctx.one()
        else:
            values[t] = calc.initial_value(t)
    quiver = Quiver.from_counter(range(1, window + 1), arrows, frozen)
    return Seed(quiver=quiver, values=values, calc=calc)


def mutate(seed: Seed, v: int) -> Seed:
    """One cluster mutation: exchange the value at v, rewire the quiver."""
    quiver = seed.quiver
    if v not in quiver.vertices:
        raise InvalidInputError(f"vertex {v} is not in the window")
    if v in quiver.frozen:
        raise InvalidInputError(f"vertex {v} is frozen")
    old = seed.values[v]
    if old.is_zero():
        raise InvalidInputError(f"cannot mutate at a zero value (vertex {v})")
    new_value = seed.calc.ctx.sum_of_products(
        (
            [(seed.values[a], m) for a, m in quiver.arrows_in(v)],
            [(seed.values[b], m) for b, m in quiver.arrows_out(v)],
        ),
        old,
    )
    if new_value.is_zero():
        raise ConsistencyError(f"exchange at vertex {v} produced zero")
    values = dict(seed.values)
    values[v] = new_value
    return Seed(quiver=quiver.mutated(v), values=values, calc=seed.calc)


def mutate_sequence(seed: Seed, vertices) -> Seed:
    """Left-to-right fold of single mutations."""
    for v in vertices:
        seed = mutate(seed, v)
    return seed
