"""Orchestrated verification suites behind the ``verify`` CLI command.

Every suite recomputes values from scratch and compares them against
structural identities or pinned constants.  A check states its cases in
one call, ``SuiteResult.expect``: a failing check carries a witness
naming the first input that fails, with the value got and the value
wanted.  The constants embedded here are the hand-checked tables for the
rank-3 sink-source frame and its coefficient series; everything else is
recomputed on both sides.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import factorial

from .cartan import braid_shuffle, q0_orientation
from .cluster import initial_seed, mutate
from .cuspidal import (
    CuspidalRecursion,
    cuspidal_value,
    dimension_ratio,
    minimal_pair,
    standard_seed_minors,
)
from .errors import InvalidInputError
from .segments import segment_d, sigma_d, theta_d
from .torusmap import (
    TorusMorphism,
    check_value_properties,
    closed_form_type_a,
    closed_form_type_d,
)

__all__ = ["SUITES", "SuiteResult", "run_suite"]


@dataclass
class SuiteResult:
    name: str
    ok: bool = True
    lines: list = field(default_factory=list)
    witnesses: list = field(default_factory=list)

    def check(self, cond: bool, label: str, witness=None):
        if cond:
            self.lines.append(f"ok   {label}")
        else:
            self.ok = False
            self.lines.append(f"FAIL {label}")
            if witness is not None:
                self.witnesses.append({"label": label, "witness": str(witness)})
        return cond

    def expect(self, label: str, name: str, cases):
        """``check`` that got == want for every (input, got, want) of
        ``cases``; the first case that differs is the witness, naming its
        input ``name``.  Values are formatted only for that case."""
        for x, got, want in cases:
            if not got == want:
                return self.check(False, label, f"{name}={x}: got {got}, want {want}")
        return self.check(True, label)


# The rank-3 sink-source frame: reciprocal values at the first 15 nodes,
# as lists of root coordinate tuples (empty product = value 1).
SINK_SOURCE_A3_TABLE = {
    (2, 0): [(0, 1, 0)],
    (1, -1): [(0, 1, 0), (1, 1, 0)],
    (3, -1): [(0, 1, 0), (0, 1, 1)],
    (2, -2): [(0, 1, 0), (1, 1, 0), (0, 1, 1), (1, 1, 1)],
    (1, -3): [(0, 0, 1), (0, 1, 1), (1, 1, 1)],
    (3, -3): [(1, 0, 0), (1, 1, 0), (1, 1, 1)],
    (2, -4): [(1, 0, 0), (0, 0, 1), (1, 1, 1)],
    (1, -5): [(1, 0, 0)],
    (3, -5): [(0, 0, 1)],
    (2, -6): [],
    (1, -7): [],
    (3, -7): [],
    (2, -8): [(0, 1, 0)],
    (1, -9): [(0, 1, 0), (1, 1, 0)],
    (3, -9): [(0, 1, 0), (0, 1, 1)],
}

# Series coefficients for the rank-3 diagram, m = 1..16 (symmetric pairs
# omitted).
A3_COEFF_SERIES = {
    (1, 1): {1: 1, 7: -1, 9: 1, 15: -1},
    (1, 2): {2: 1, 6: -1, 10: 1, 14: -1},
    (1, 3): {3: 1, 5: -1, 11: 1, 13: -1},
    (2, 2): {1: 1, 3: 1, 5: -1, 7: -1, 9: 1, 11: 1, 13: -1, 15: -1},
    (2, 3): {2: 1, 6: -1, 10: 1, 14: -1},
    (3, 3): {1: 1, 7: -1, 9: 1, 15: -1},
}

# Single mutations of the quotient seed at vertices 4, 5, 6: numerator
# form followed by the denominator root list.
SINK_SOURCE_A3_MUTATIONS = {
    4: ((1, 2, 1), [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]),
    5: ((0, 1, 2), [(1, 0, 0), (0, 1, 0), (1, 1, 0)]),
    6: ((2, 1, 0), [(0, 1, 0), (0, 0, 1), (0, 1, 1)]),
}


def _sink_source_frame(frame):
    if (
        frame.datum.family != "A"
        or frame.datum.rank != 3
        or frame.orientation != frozenset({(2, 1), (2, 3)})
    ):
        raise InvalidInputError(
            "this suite runs on the rank-3 sink-source frame "
            "(--type A --rank 3 --orientation '2>1,2>3')"
        )
    return frame


def suite_figure2(frame, **_):
    """KR values at the 15 displayed sink-source nodes."""
    frame = _sink_source_frame(frame)
    calc = TorusMorphism(frame)
    res = SuiteResult("figure2")
    for (i, p), roots in SINK_SOURCE_A3_TABLE.items():
        k = 1 + (frame.xi[i] - p) // 2
        got = calc.kr_value(i, p, k)
        want = calc.ctx.from_root_factors((r, -1) for r in roots)
        res.expect(f"node ({i},{p}) k={k}", "(i, p, k)", [((i, p, k), got, want)])
    return res


def suite_mutations(frame, **_):
    """Single mutations of the quotient seed at vertices 4, 5, 6."""
    frame = _sink_source_frame(frame)
    calc = TorusMorphism(frame)
    seed = initial_seed(calc, 2 * frame.N, specialize_frozen=True)
    res = SuiteResult("mutations")
    for v, (num, dens) in SINK_SOURCE_A3_MUTATIONS.items():
        got = mutate(seed, v).values[v]
        want = calc.ctx.from_root_factors([(num, 1)] + [(r, -1) for r in dens])
        res.expect(f"mutation at {v}", "vertex", [(v, got, want)])
    return res


def suite_properties(frame, tmax=None, **_):
    """The A/B/C sweep over initial cluster variables."""
    calc = TorusMorphism(frame)
    tmax = tmax or 2 * frame.N
    report = check_value_properties(calc, tmax)
    res = SuiteResult("properties")
    res.lines.extend(report.lines())
    if not report.ok:
        res.ok = False
        res.witnesses.extend(report.violations)
    return res


def _full_period_exponents(frame, i, p):
    """{root: exponent} of G(i, p) of ``TorusMorphism.initial_value``, {}
    when G is 1, read from ``table.coeff`` and ``beta_eps`` alone."""
    table, h = frame.datum.qcartan, frame.h
    exps = {}
    for j in frame.datum.vertices():
        for s in range(p - 2 * h + (frame.xi[j] - p) % 2, min(p, frame.xi[j] + 1), 2):
            root = frame.beta_eps(j, s)[0]
            exps[root] = exps.get(root, 0) - table.coeff(i, j, s - p + 2 * h + 1)
    return {r: e for r, e in exps.items() if e}


def suite_periodicity(frame, tmax=None, **_):
    """Window shift by 2N, full-period triviality, frozen values."""
    calc = TorusMorphism(frame)
    res = SuiteResult("periodicity")
    tmax = tmax or frame.N
    # t and t + 2N share one memo entry and one G, so check G for t <= 2N
    ts = range(1, min(tmax, 2 * frame.N) + 1)
    cases = ((t, _full_period_exponents(frame, *frame.phi_inv(t)), {}) for t in ts)
    res.expect(f"values repeat after 2N for t <= {tmax}", "t", cases)
    for i in frame.datum.vertices():
        p = frame.xi[i] - 2 * frame.h + 2
        cases = [((i, p, frame.h), calc.kr_value(i, p, frame.h), 1)]
        res.expect(f"full-period class at vertex {i} is 1", "(i, p, k)", cases)
        mono = {(i, p + 2 * j): 1 for j in range(frame.h)}
        cases = [(mono, calc.monomial_value(mono), 1)]
        res.expect(f"full-period monomial at vertex {i} maps to 1", "monomial", cases)
    seed = initial_seed(calc, 2 * frame.N, specialize_frozen=False)
    for t in sorted(seed.quiver.frozen):
        res.expect(f"frozen vertex {t} carries value 1", "t", [(t, seed.values[t], 1)])
    return res


def suite_ctilde(frame, **_):
    """Coefficient table: pinned series, vanishing range, window pairing."""
    res = SuiteResult("ctilde")
    datum = frame.datum
    table = datum.qcartan
    if datum.family == "A" and datum.rank == 3:
        for (i, j), series in A3_COEFF_SERIES.items():
            cases = ((m, table.coeff(i, j, m), series.get(m, 0)) for m in range(1, 17))
            res.expect(f"series ({i},{j}) m<=16", "m", cases)
    for i in datum.vertices():
        for j in datum.vertices():
            d = datum.d(i, j)
            cases = ((m, table.coeff(i, j, m), 0) for m in range(1, d + 1))
            res.expect(f"coeff({i},{j},m)=0 for m <= distance {d}", "m", cases)
            cases = [(d + 1, table.coeff(i, j, d + 1), 1)]
            res.expect(f"coeff({i},{j},distance+1) = 1", "m", cases)
    cases = (
        ((i, j, m), table.coeff(i, j, m), table.coeff(j, i, m))
        for i in datum.vertices()
        for j in datum.vertices()
        for m in range(1, 2 * frame.h + 1)
    )
    res.expect("table is symmetric", "(i, j, m)", cases)
    # The table stores one period, so comparing m with m + 2h would read
    # one row twice.  The half-period identity c(i, j, m+h) = -c(i, j*, m)
    # is not built in, and implies the 2h period since * is an involution.
    cases = (
        ((i, j, m), table.coeff(i, j, m + frame.h), -table.coeff(i, datum.star[j], m))
        for i in datum.vertices()
        for j in datum.vertices()
        for m in range(1, frame.h + 1)
    )
    res.expect("coefficients repeat with period 2h", "(i, j, m)", cases)

    def pairings():
        for i in datum.vertices():
            for j in datum.vertices():
                for mi in range(frame.h):
                    for mj in range(frame.h):
                        p = frame.xi[i] - 2 * mi
                        s = frame.xi[j] - 2 * mj
                        if s < p:
                            continue
                        bi, ei = frame.beta_eps(i, p)
                        bj, ej = frame.beta_eps(j, s)
                        want = ei * ej * frame.euler_form(bi, bj)
                        yield ((i, p), (j, s)), table.coeff(i, j, s - p + 1), want

    res.expect("coefficients match signed Euler pairings", "((i, p), (j, s))", pairings())
    return res


def suite_tsystem(frame, **_):
    """Closed product formulas against the T-system recursion (A and D)."""
    res = SuiteResult("tsystem")
    if frame.datum.family not in ("A", "D"):
        raise InvalidInputError("closed forms cover types A and D")
    closed = closed_form_type_a if frame.datum.family == "A" else closed_form_type_d
    calc = TorusMorphism(frame)
    for i in frame.datum.vertices():
        for r in range(1, frame.n_letters[i] + 1):
            s = frame.xi[i] - 2 * (r - 1)
            # The closed form is checked against the recursion.
            cases = (
                (k, closed(frame, i, s, k), calc.kr_value(i, s, k)) for k in range(1, r + 1)
            )
            res.expect(f"labels at ({i},{s})", "k", cases)
    return res


def _first_drop(word, products):
    """Witness of the first root whose multiplicity in the minor products
    along ``word`` drops by more than 1 from a letter's previous position
    to the next one: the word, the position (from 1), the root and the
    drop; None when no drop exceeds 1."""
    latest = {}  # letter -> P at its latest position so far
    for pos, (letter, product) in enumerate(zip(word, products), 1):
        pn = product.root_factors
        pj = latest.get(letter, {})
        for beta in set(pj) | set(pn):
            drop = pj.get(beta, 0) - pn.get(beta, 0)
            if drop > 1:
                return f"word {list(word)}: position {pos}, root {beta}: drop {drop}, want <= 1"
        latest[letter] = pn
    return None


def suite_flagminors(frame, count=10, seed=2024, **_):
    """Random reduced words: minor products stay positive-root products."""
    res = SuiteResult("flagminors")
    rng = random.Random(seed)
    calc = TorusMorphism(frame)
    table = standard_seed_minors(frame)
    cases = ((t, table.value(t), calc.initial_value(t)) for t in range(1, frame.N + 1))
    res.expect("adapted word matches the torus morphism", "t", cases)
    for trial in range(count):
        word = braid_shuffle(frame.datum, frame.base_word, 60, rng)
        miss = _first_drop(word, standard_seed_minors(frame, word).products)
        res.check(miss is None, f"word {trial + 1}: multiplicity drop <= 1", witness=miss)
    return res


def suite_schurweyl(frame, count=50, seed=2024, **_):
    """Dimension-ratio formula against the all-ones evaluation."""
    if frame.datum.family != "A":
        raise InvalidInputError("the dimension-ratio identity is a type-A statement")
    if frame.orientation != q0_orientation(frame.datum):
        raise InvalidInputError("the dimension-ratio identity needs the monotonic orientation")
    res = SuiteResult("schurweyl")
    rng = random.Random(seed)
    calc = TorusMorphism(frame)
    n = frame.datum.rank
    ones = [1] * n
    for trial in range(count):
        exps = {}
        for i in range(1, n + 1):
            for r in range(1, n - i + 2):
                m = rng.randrange(0, 3)
                if m:
                    exps[(i, r)] = m
        if not exps:
            exps[(1, 1)] = 1
        mono = {
            (i, frame.xi[i] - 2 * (r - 1)): m for (i, r), m in exps.items()
        }
        predicted = dimension_ratio(n, exps)
        total = sum(i * m for (i, _), m in exps.items())
        got = factorial(total) * calc.monomial_value(mono).evaluate(ones)
        key = sorted(exps.items())
        res.expect(f"exponents {key}", "exponents", [(key, got, predicted)])
    return res


def suite_minpairs(frame, **_):
    """Minimal pairs and the two-term recursion against closed values."""
    res = SuiteResult("minpairs")
    fam, n = frame.datum.family, frame.datum.rank
    if frame.orientation != q0_orientation(frame.datum):
        fam = None  # closed values unavailable; report coverage only
    if fam == "D":
        for p in range(1, n - 1):
            for q in range(p + 1, n):
                got = minimal_pair(frame, theta_d(n, p, q))
                want = (
                    segment_d(n, p, sigma_d(n, n - 1, p)),
                    segment_d(n, q, sigma_d(n, n, p)),
                )
                res.expect(f"pair of theta[{p},{q}]", "(p, q)", [((p, q), got, want)])
    rec = CuspidalRecursion(frame)
    if fam in ("A", "D"):
        for beta in frame.positive_roots:
            # The recursion gives None for a root it does not reach.
            cases = [(beta, rec.value(beta), cuspidal_value(frame, beta))]
            res.expect(f"recursion value at {beta}", "root", cases)
    else:
        good, bad = rec.coverage()
        res.lines.append(
            f"recursion coverage: {len(good)}/{len(good) + len(bad)} roots applicable"
        )
    return res


SUITES = {
    "figure2": suite_figure2,
    "mutations": suite_mutations,
    "properties": suite_properties,
    "periodicity": suite_periodicity,
    "ctilde": suite_ctilde,
    "tsystem": suite_tsystem,
    "flagminors": suite_flagminors,
    "schurweyl": suite_schurweyl,
    "minpairs": suite_minpairs,
}


def run_suite(name: str, frame, **kwargs) -> SuiteResult:
    if name not in SUITES:
        raise InvalidInputError(
            f"unknown suite {name!r}; choose from {', '.join(sorted(SUITES))}"
        )
    for key in ("tmax", "count"):
        if kwargs.get(key) is not None and kwargs[key] < 1:
            raise InvalidInputError(f"{key} must be at least 1, got {kwargs[key]}")
    return SUITES[name](frame, **kwargs)
