"""Orchestrated verification suites behind the ``verify`` CLI command.

Every suite recomputes values from scratch and compares them against
structural identities or pinned constants; a failing check carries a
witness describing where it broke.  The constants embedded here are the
hand-checked tables for the rank-3 sink-source frame and its coefficient
series; everything else is recomputed on both sides.
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
from .field.poly import MultiPoly
from .qcartan import QuantumCartanInverse
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
        res.check(got == want, f"node ({i},{p}) k={k}", witness=got)
    return res


def suite_mutations(frame, **_):
    """Single mutations of the quotient seed at vertices 4, 5, 6."""
    frame = _sink_source_frame(frame)
    calc = TorusMorphism(frame)
    seed = initial_seed(calc, 2 * frame.N, specialize_frozen=True)
    res = SuiteResult("mutations")
    for v, (num, dens) in SINK_SOURCE_A3_MUTATIONS.items():
        got = mutate(seed, v).values[v]
        want = calc.ctx.from_fraction(
            MultiPoly.linear_form(num)
        ) / calc.ctx.from_root_factors((r, 1) for r in dens)
        res.check(got == want, f"mutation at {v}", witness=got)
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


def suite_periodicity(frame, tmax=None, **_):
    """Window shift by 2N, full-period triviality, frozen values."""
    calc = TorusMorphism(frame)
    res = SuiteResult("periodicity")
    tmax = tmax or frame.N
    shift_ok = all(
        calc.initial_value(t) == calc.initial_value(t + 2 * frame.N)
        for t in range(1, tmax + 1)
    )
    res.check(shift_ok, f"values repeat after 2N for t <= {tmax}")
    for i in frame.datum.vertices():
        p = frame.xi[i] - 2 * frame.h + 2
        res.check(
            calc.kr_value(i, p, frame.h).is_one(),
            f"full-period class at vertex {i} is 1",
        )
        mono = {(i, p + 2 * j): 1 for j in range(frame.h)}
        res.check(
            calc.monomial_value(mono).is_one(),
            f"full-period monomial at vertex {i} maps to 1",
        )
    seed = initial_seed(calc, 2 * frame.N, specialize_frozen=False)
    for t in sorted(seed.quiver.frozen):
        res.check(seed.values[t].is_one(), f"frozen vertex {t} carries value 1")
    return res


def suite_ctilde(frame, **_):
    """Coefficient table: pinned series, vanishing range, window pairing."""
    res = SuiteResult("ctilde")
    table = QuantumCartanInverse(frame.datum)
    datum = frame.datum
    if datum.family == "A" and datum.rank == 3:
        for (i, j), series in A3_COEFF_SERIES.items():
            got = {m: table.coeff(i, j, m) for m in range(1, 17)}
            want = {m: series.get(m, 0) for m in range(1, 17)}
            res.check(got == want, f"series ({i},{j}) m<=16", witness=got)
    for i in datum.vertices():
        for j in datum.vertices():
            d = datum.d(i, j)
            res.check(
                all(table.coeff(i, j, m) == 0 for m in range(1, d + 1)),
                f"coeff({i},{j},m)=0 for m <= distance {d}",
            )
            res.check(
                table.coeff(i, j, d + 1) == 1,
                f"coeff({i},{j},distance+1) = 1",
            )
    sym_ok = all(
        table.coeff(i, j, m) == table.coeff(j, i, m)
        for i in datum.vertices()
        for j in datum.vertices()
        for m in range(1, 2 * frame.h + 1)
    )
    res.check(sym_ok, "table is symmetric")
    period_ok = all(
        table.coeff(i, j, m + 2 * frame.h) == table.coeff(i, j, m)
        for i in datum.vertices()
        for j in datum.vertices()
        for m in range(1, 2 * frame.h + 1)
    )
    res.check(period_ok, "coefficients repeat with period 2h")
    window_ok = True
    witness = None
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
                    got = table.coeff(i, j, s - p + 1)
                    want = ei * ej * frame.euler_form(bi, bj)
                    if got != want:
                        window_ok = False
                        witness = ((i, p), (j, s), got, want)
    res.check(window_ok, "coefficients match signed Euler pairings", witness=witness)
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
            ok = all(
                closed(frame, i, s, k) == calc.kr_value(i, s, k)
                for k in range(1, r + 1)
            )
            res.check(ok, f"labels at ({i},{s})")
    return res


def suite_flagminors(frame, count=10, seed=2024, **_):
    """Random reduced words: minor products stay positive-root products."""
    res = SuiteResult("flagminors")
    rng = random.Random(seed)
    calc = TorusMorphism(frame)
    table = standard_seed_minors(frame)
    adapted_ok = all(
        table.value(t) == calc.initial_value(t) for t in range(1, frame.N + 1)
    )
    res.check(adapted_ok, "adapted word matches the torus morphism")
    for trial in range(count):
        word = braid_shuffle(frame.datum, frame.base_word, 60, rng)
        t = standard_seed_minors(frame, word)
        drop_ok = True
        for j in range(1, frame.N + 1):
            nxt = next(
                (l for l in range(j + 1, frame.N + 1) if word[l - 1] == word[j - 1]),
                None,
            )
            if nxt is None:
                continue
            pj = t.products[j - 1].root_factors
            pn = t.products[nxt - 1].root_factors
            for beta in set(pj) | set(pn):
                if pj.get(beta, 0) - pn.get(beta, 0) > 1:
                    drop_ok = False
        res.check(drop_ok, f"word {trial + 1}: multiplicity drop <= 1")
    return res


def suite_schurweyl(frame, count=50, seed=2024, **_):
    """Dimension-ratio formula against the all-ones evaluation."""
    if frame.datum.family != "A":
        raise InvalidInputError("the dimension-ratio identity is a type-A statement")
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
        res.check(predicted == got, f"exponents {sorted(exps.items())}", witness=got)
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
                res.check(got == want, f"pair of theta[{p},{q}]", witness=got)
    if fam in ("A", "D"):
        rec = CuspidalRecursion(frame)
        for beta in frame.positive_roots:
            got = rec.value(beta)
            ok = got is not None and got == cuspidal_value(frame, beta)
            res.check(ok, f"recursion value at {beta}", witness=got)
    else:
        rec = CuspidalRecursion(frame)
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
