"""Cluster mutation on a finite window of the initial quiver.

The window [1, M] of word positions carries the initial seed: vertical
arrows t+ -> t between consecutive occurrences of a letter, oblique
arrows k -> l between interleaved occurrences of adjacent letters, and
values given by the torus morphism on the initial cluster variables.
Positions whose next occurrence lies beyond the window are frozen; the
quotient seed specializes their values to 1.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import ConsistencyError, InvalidInputError
from .torusmap import TorusMorphism

__all__ = ["Quiver", "Seed", "initial_seed", "mutate", "mutate_sequence"]


@dataclass(frozen=True)
class Quiver:
    """Arrow multiset on the window vertices with a frozen subset."""

    vertices: tuple
    arrows: tuple  # ((source, target, multiplicity), ...)
    frozen: frozenset

    def arrow_counter(self) -> Counter:
        return Counter({(a, b): m for a, b, m in self.arrows})

    def arrows_in(self, v: int):
        return [(a, m) for a, b, m in self.arrows if b == v]

    def arrows_out(self, v: int):
        return [(b, m) for a, b, m in self.arrows if a == v]

    @staticmethod
    def from_counter(vertices, counter: Counter, frozen) -> "Quiver":
        arrows = tuple(
            (a, b, m) for (a, b), m in sorted(counter.items()) if m > 0
        )
        return Quiver(tuple(vertices), arrows, frozenset(frozen))


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
    window.  Frozen vertices are those whose next occurrence falls
    outside the window; with ``specialize_frozen`` their values become 1
    (the quotient in which the full-period classes are units).
    """
    if window < 1:
        raise InvalidInputError("window must contain at least vertex 1")
    frame = calc.frame
    arrows = Counter()
    for t in range(1, window + 1):
        tp = frame.t_plus(t)
        if tp <= window:
            arrows[(tp, t)] += 1
    for k in range(1, window + 1):
        kp = frame.t_plus(k)
        if kp > window:
            continue
        nbrs = frame.datum.adjacency[frame.letter(k)]
        for l in range(k + 1, min(kp, window + 1)):
            if frame.letter(l) in nbrs and kp < frame.t_plus(l):
                arrows[(k, l)] += 1
    frozen = frozenset(
        t for t in range(1, window + 1) if frame.t_plus(t) > window
    )
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
    # One pass splits the arrows at v from the rest.  The quiver has no
    # 2-cycles, so the only ones mutation can create are a -> b against
    # an existing b -> a, for a an in- and b an out-neighbour of v.
    incoming, outgoing, arr = [], [], {}
    for a, b, m in quiver.arrows:
        if b == v:
            incoming.append((a, m))
        elif a == v:
            outgoing.append((b, m))
        else:
            arr[(a, b)] = m
    prod_in = seed.calc.ctx.one()
    for a, m in incoming:
        prod_in = prod_in * seed.values[a] ** m
    prod_out = seed.calc.ctx.one()
    for b, m in outgoing:
        prod_out = prod_out * seed.values[b] ** m
    new_value = seed.calc.ctx.sum_over((prod_in, prod_out), old)
    if new_value.is_zero():
        raise ConsistencyError(f"exchange at vertex {v} produced zero")

    for a, ma in incoming:
        arr[(v, a)] = ma
        for b, mb in outgoing:
            m = ma * mb - arr.pop((b, a), 0)
            if m > 0:
                arr[(a, b)] = arr.get((a, b), 0) + m
            elif m < 0:
                arr[(b, a)] = -m
    for b, mb in outgoing:
        arr[(b, v)] = mb

    values = dict(seed.values)
    values[v] = new_value
    arrows = tuple((a, b, m) for (a, b), m in sorted(arr.items()))
    return Seed(
        quiver=Quiver(quiver.vertices, arrows, quiver.frozen),
        values=values,
        calc=seed.calc,
    )


def mutate_sequence(seed: Seed, vertices) -> Seed:
    """Left-to-right fold of single mutations."""
    for v in vertices:
        seed = mutate(seed, v)
    return seed
