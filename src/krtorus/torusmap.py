"""The torus morphism: exact rational-function values of torus variables,
Laurent monomials, and Kirillov-Reshetikhin classes.

Each torus variable Y[i,p] is sent to a finite product of positive-root
powers, with exponents read off the inverse quantum Cartan table.  The
value on a KR class with its string top at the height function is a plain
product of variable values (its truncated character is one monomial);
everything deeper is solved through the T-system recurrence, memoized, in
an order that terminates because each right-hand label either raises the
string top or keeps it while shortening the string.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field

from .cartan import ARFrame, q0_orientation
from .segments import segment_a, segment_d, sigma_d, theta_d
from .errors import ConsistencyError, InvalidInputError
from .field.rational import RootRational, form_str
from .qcartan import QuantumCartanInverse

__all__ = [
    "TorusMorphism",
    "PropertyReport",
    "check_kr_label",
    "check_value_properties",
    "closed_form_type_a",
    "closed_form_type_d",
    "parse_monomial",
    "render_monomial",
]


def check_kr_label(frame: ARFrame, i: int, p: int, k: int):
    """Validate a KR label (i, p, k): string Y[i,p]...Y[i,p+2k-2] inside the torus."""
    frame.check_point(i, p)
    if k < 0:
        raise InvalidInputError("string length k must be >= 0")
    if k and p + 2 * k - 2 > frame.xi[i]:
        raise InvalidInputError(
            f"KR label ({i},{p},{k}) sticks out: top {p + 2 * k - 2} > xi({i}) = {frame.xi[i]}"
        )


class TorusMorphism:
    """Value calculator bound to one frame.

    Holds the coefficient table and memo caches; all methods are pure
    functions of (frame, label).  Without a ``table`` argument it reads
    the type's one table, ``frame.datum.qcartan``.  The frame and the
    table are fixed after construction, so library callers may share them
    between calculators; the calculator's own memos are plain dicts.
    """

    def __init__(self, frame: ARFrame, table: QuantumCartanInverse | None = None):
        self.frame = frame
        self.table = table if table is not None else frame.datum.qcartan
        self.ctx = frame.root_context
        self._y_cache = {}
        self._kr_cache = {}
        self._initial_cache = {}

    # -- generators ------------------------------------------------------

    def y_value(self, i: int, p: int) -> RootRational:
        """Image of the variable Y[i,p]; always a product of root powers.
        Read at depth modulo h (see ``initial_value``)."""
        self.frame.check_point(i, p)
        key = (i, (self.frame.xi[i] - p) // 2 % self.frame.h)
        if key not in self._y_cache:
            self._y_cache[key] = self._window_product(i, self.frame.xi[i] - 2 * key[1], 2)
        return self._y_cache[key]

    def monomial_value(self, mono) -> RootRational:
        """Image of a Laurent monomial {(i,p): exponent}: the y-values are
        root products, so their root exponents add."""
        fac = {}
        for (i, p), e in mono.items():
            if e:
                for r, d in self.y_value(i, p).fac.items():
                    fac[r] = fac.get(r, 0) + d * e
        return self.ctx.root_product(fac)

    # -- initial cluster variables ----------------------------------------

    def initial_value(self, t: int) -> RootRational:
        """Value on the t-th initial cluster variable (the KR class whose
        string runs from phi_inv(t) up to the height function).

        Computed by the direct product over the torus window with
        exponents -coeff(i, j, s-p+1); the T-system route gives the same
        value and the tests pin that down.

        Values repeat with period 2N in t, so t is read modulo 2N.  F(i, p),
        this product at (i, p), telescopes to the product of the y-values
        from p up to the top: y(i, p) = F(i, p) / F(i, p + 2), F(i, xi_i + 2)
        = 1.  The coefficients have period 2h in m, so F(i, p - 2h) =
        F(i, p) * G(i, p), G the product over the 2h levels p - 2h <= s < p
        of the roots of (j, s) to the powers -coeff(i, j, s - p + 2h + 1).
        G depends on p only through its depth mod h (the root columns have
        period h) and is 1 on all n * h strips (the periodicity suite checks
        it), so F and y repeat when the depth grows by h; y at the top also
        uses that the full-period class F(i, xi_i - 2h + 2) is 1.
        """
        if t < 1:
            raise InvalidInputError("cluster positions start at 1")
        t = (t - 1) % (2 * self.frame.N) + 1
        if t not in self._initial_cache:
            self._initial_cache[t] = self._window_product(*self.frame.phi_inv(t), None)
        return self._initial_cache[t]

    def _window_product(self, i: int, p: int, lag) -> RootRational:
        """Product over the window points (j, s), s >= p, of the root of
        (j, s) to the power coeff(i, j, m - lag) - coeff(i, j, m), where
        m = s - p + 1 and a ``lag`` of None drops the first term.  (i, p)
        must be a torus point."""
        frame = self.frame
        xi, h = frame.xi, frame.h
        rows, period = self.table.rows, self.table.period
        row_i = (i - 1) * frame.datum.rank - 1
        fac = {}
        for j in frame.datum.vertices():
            top = xi[j]
            at = row_i + j
            column = frame.beta_columns[j]
            for m in range(top - p + 1, 0, -2):
                e = rows[m % period][at]
                if lag is not None and m > lag:
                    e -= rows[(m - lag) % period][at]
                if e:
                    root = column[(top - p + 1 - m) // 2 % h][0]
                    fac[root] = fac.get(root, 0) - e
        return self.ctx.root_product(fac)

    # -- Kirillov-Reshetikhin classes ----------------------------------------

    def kr_value(self, i: int, p: int, k: int) -> RootRational:
        """Value on the KR class with dominant string Y[i,p]...Y[i,p+2k-2]."""
        check_kr_label(self.frame, i, p, k)
        return self._kr(i, p, k)

    def _kr(self, i: int, p: int, k: int) -> RootRational:
        """Solve with an explicit stack: a label is solved once the labels
        on its right-hand side are memoized, so depth costs no recursion."""
        one = self.ctx.one()
        memo = self._kr_cache
        target = (i, p, k)
        stack = [target]
        while stack:
            key = stack[-1]
            i, p, k = key
            if k == 0 or key in memo:
                stack.pop()
                continue
            if p + 2 * k - 2 == self.frame.xi[i]:
                out = self.monomial_value({(i, p + 2 * j): 1 for j in range(k)})
            else:
                # T-system at (i, p+2, k), solved for the lowest-top factor.
                nbr_keys = [(j, p + 1, k) for j in self.frame.datum.adjacency[i]]
                deps = [(i, p, k + 1), (i, p + 2, k - 1), (i, p + 2, k), *nbr_keys]
                missing = [d for d in deps if d[2] and d not in memo]
                if missing:
                    stack.extend(missing)
                    continue
                grow, shrink, divisor = (memo.get(d, one) for d in deps[:3])
                if divisor.is_zero():
                    raise ConsistencyError(f"zero divisor in T-system at {key}")
                out = self.ctx.sum_of_products(
                    ([(grow, 1), (shrink, 1)], [(memo[d], 1) for d in nbr_keys]), divisor
                )
            memo[key] = out
            stack.pop()
        return memo.get(target, one)


# -- closed-form values over the monotonic orientation ------------------------


def _require_q0(frame: ARFrame, family: str):
    if frame.datum.family != family:
        raise InvalidInputError(f"closed form needs a type-{family} frame")
    if frame.orientation != q0_orientation(frame.datum):
        raise InvalidInputError("closed form needs the monotonic orientation")


def _label_depth(frame: ARFrame, i: int, s: int, k: int) -> int:
    """Depth r of (i,s) with validation that (i,s,k) lies in the finite window."""
    frame.check_point(i, s)
    r = (frame.xi[i] - s + 2) // 2
    if r > frame.n_letters[i]:
        raise InvalidInputError(
            f"({i},{s}) lies below the finite window (depth {r} > {frame.n_letters[i]})"
        )
    if not 1 <= k <= r:
        raise InvalidInputError(f"string length k = {k} outside 1..{r}")
    return r


def closed_form_type_a(frame: ARFrame, i: int, s: int, k: int) -> RootRational:
    """Type A product formula for KR values over the monotonic orientation."""
    _require_q0(frame, "A")
    r = _label_depth(frame, i, s, k)
    n = frame.datum.rank
    exps = Counter()
    for p in range(r - k + 1, r + 1):
        for q in range(r, r + i):
            exps[segment_a(n, p, q)] -= 1
    return frame.root_context.root_product(exps)


def closed_form_type_d(frame: ARFrame, i: int, s: int, k: int) -> RootRational:
    """Type D product formula for KR values over the monotonic orientation.

    Its only factors that are not roots are the numerator's theta[p,p];
    one cancels against the denominator when r - k + 1 <= p <= r.
    """
    _require_q0(frame, "D")
    r = _label_depth(frame, i, s, k)
    n = frame.datum.rank
    exps, doubled = Counter(), []
    if i <= n - 2:
        rp = r + i - n + 1
        rpp = max(rp - k + 1, 0)
        rppp = r - k + 1
        qmax = n - 2 + min(0, rp)
        for p in range(rppp, r + 1):
            for q in range(r, qmax + 1):
                exps[segment_d(n, p, q)] -= 1
        for p in range(rpp, rp + 1):
            if p == 0:
                continue
            if not rppp <= p <= r:
                doubled.append((theta_d(n, p, p), 1))
            for q in range(rppp, r + 1):
                if q != p:
                    exps[theta_d(n, p, q)] -= 1
            for q in range(rp, n + 1):
                exps[segment_d(n, p, q)] -= 1
    else:
        rppp = r - k + 1
        tail = sigma_d(n, i, r - 1)
        for p in range(rppp, r + 1):
            for q in range(r, n - 1):
                exps[segment_d(n, p, q)] -= 1
            exps[segment_d(n, p, tail)] -= 1
        for p in range(rppp, r + 1):
            for q in range(p + 1, r + 1):
                exps[theta_d(n, p, q)] -= 1
    ctx = frame.root_context
    return ctx.from_root_factors([*exps.items(), *doubled]) if doubled else ctx.root_product(exps)


# -- structural properties of the initial-variable values ---------------------


@dataclass
class PropertyReport:
    """Outcome of the A/B/C sweep over initial cluster variables."""

    t_max: int
    checked: int = 0
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, prop: str, t: int, detail: str):
        self.violations.append({"property": prop, "t": t, "detail": detail})

    def lines(self):
        out = [f"properties A/B/C for t <= {self.t_max}: checked {self.checked}"]
        for v in self.violations:
            out.append(f"  FAIL {v['property']} at t={v['t']}: {v['detail']}")
        if self.ok:
            out.append("  all hold")
        return out


def check_value_properties(calc: TorusMorphism, t_max: int) -> PropertyReport:
    """Verify, for every t <= t_max:

    A: the initial-variable value is 1 / (product of positive roots), and
       each nonzero multiplicity equals |<beta_t, beta>| in the Euler form
       (the exponent clause is only asserted on the first two periods);
    B: value(t) * value(t-) = beta_t^(-1) * prod of value(r) over r < t < r+
       with the letter at r adjacent to the letter at t;
    C: the single-variable value at phi_inv(t) has all multiplicities in
       {-1, 0, 1}.
    """
    frame = calc.frame
    report = PropertyReport(t_max=t_max)
    values = {0: calc.ctx.one()}
    for t in range(1, t_max + 1):
        values[t] = calc.initial_value(t)
    latest = {}  # letter -> its latest position so far
    for t in range(1, t_max + 1):
        report.checked += 1
        val = values[t]
        beta_t = frame.beta_at(t)
        # Property A
        if not val.is_factored() or val.unit != 1:
            report.add("A", t, f"value is not a pure root product: {val}")
        else:
            for beta, e in val.root_factors.items():
                if e > 0:
                    report.add("A", t, f"positive exponent on {form_str(beta)}")
                elif t <= 2 * frame.N:
                    expected = abs(frame.euler_form(beta_t, beta))
                    if -e != expected:
                        report.add(
                            "A",
                            t,
                            f"multiplicity {-e} of {form_str(beta)} != "
                            f"|<beta_t, beta>| = {expected}",
                        )
        # Property B: each r is the latest position of a neighbour letter
        i_t = frame.letter(t)
        lhs = val * values[latest.get(i_t, 0)]
        rhs = calc.ctx.from_root_factors([(beta_t, -1)])
        for r in sorted(latest[j] for j in frame.datum.adjacency[i_t] if j in latest):
            rhs = rhs * values[r]
        if lhs != rhs:
            report.add("B", t, f"{lhs} != {rhs}")
        latest[i_t] = t
        # Property C
        yv = calc.y_value(*frame.phi_inv(t))
        for beta, e in yv.root_factors.items():
            if abs(e) > 1:
                report.add("C", t, f"multiplicity {e} on {form_str(beta)}")
        if not yv.is_factored():
            report.add("C", t, "single-variable value has residual polynomials")
    return report


# -- Laurent monomial text form ------------------------------------------------

_ATOM = re.compile(r"^Y\[\s*(-?\d+)\s*,\s*(-?\d+)\s*\](?:\^(-?\d+))?$")


def parse_monomial(text: str):
    """Parse 'Y[i,p]*Y[j,s]^-2' into an exponent map {(i,p): e}."""
    mono = {}
    text = text.strip()
    if not text or text == "1":
        return mono
    for piece in text.split("*"):
        m = _ATOM.match(piece.strip())
        if not m:
            raise InvalidInputError(
                f"bad monomial atom {piece.strip()!r}; expected Y[i,p] or Y[i,p]^e"
            )
        i, p = int(m.group(1)), int(m.group(2))
        e = int(m.group(3)) if m.group(3) else 1
        mono[i, p] = mono.get((i, p), 0) + e
    return {k: v for k, v in mono.items() if v}


def render_monomial(mono) -> str:
    if not mono:
        return "1"
    pieces = []
    for (i, p), e in sorted(mono.items()):
        atom = f"Y[{i},{p}]"
        pieces.append(atom if e == 1 else f"{atom}^{e}")
    return "*".join(pieces)
