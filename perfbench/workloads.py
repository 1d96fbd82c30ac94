"""The four workloads: inputs from the seed, set-up, operations and checks.

A workload builds its inputs once from the seed, then runs the same
round of operations over and over.  ``ops()`` yields one callable per
operation; the runner times each call alone and hands its output to
``check`` untimed, so the checks never count towards a latency.  Every
check compares against a computation made apart from the program (see
oracles.py) or against a property the method must have.
"""

import contextlib
import io
import json
import random

from oracles import (
    NumericTSystem,
    adjacency,
    away_from_one,
    braid_shuffle,
    cartan_series_inverse,
    eval_json,
    eval_value,
    exchange_matrix,
    heights,
    longest_word,
    mutate_matrix,
    neighbours,
    positive_roots,
    random_point,
)


class Tally:
    """Operations attempted and failed, checks made and failed."""

    def __init__(self):
        self.attempted = self.failed = self.checks = self.check_failures = 0
        self.notes = []

    def op(self, units, failed_units):
        self.attempted += units
        self.failed += failed_units

    def check(self, ok, what):
        self.checks += 1
        if not ok:
            self.check_failures += 1
            if len(self.notes) < 5:
                self.notes.append(what)
        return ok


class Workload:
    name = ""
    modules = ("krtorus",)
    # Rounds every run makes, however fast the machine: medians and the
    # tail percentile rest on at least this many samples of each operation.
    min_rounds = 3

    def __init__(self, seed, corrupt=False):
        self.rng = random.Random(seed)
        self.point_rng = random.Random(seed + 1)
        self.corrupt = corrupt
        self.tally = Tally()

    def setup(self, kr):
        """Build what every round reuses; timed as set-up."""

    def make_inputs(self):
        """Generate the round's inputs from the seed (untimed)."""

    def ops(self):
        """Yield (label, callable) for one round."""
        raise NotImplementedError

    def check(self, label, out):
        """Check one operation's output and count it in the tally."""

    def final_check(self):
        """Checks made once per run, after the last round."""

    def corrupt_value(self, value, root):
        """Self-test hook: the first checked value is multiplied by a root
        form, which the workload's checks must reject."""
        if not self.corrupt:
            return value
        self.corrupt = False
        return value * value.ctx.from_root_factors([(root, 1)])


# -- tsystem-e6 ----------------------------------------------------------------


class TSystemE6(Workload):
    """E6 fundamental KR values down through the first branch-vertex labels.

    The labels are every (i, p, 1) whose depth below the top of vertex 1
    is at most 9, asked of one calculator in order of decreasing p: 25
    labels, of which (3,-8), (5,-9), (2,-9) carry the large residuals.
    The seed moves the height anchor (which shifts every label without
    changing the work) and picks the evaluation point.
    """

    name = "tsystem-e6"
    DEPTH = 9

    def __init__(self, seed, corrupt=False):
        super().__init__(seed, corrupt)
        self.anchor = (1, self.rng.randrange(-40, 41))

    def setup(self, kr):
        self.kr = kr
        self.frame = kr.cartan.build_frame("E", 6, None, self.anchor)
        self.table = kr.qcartan.QuantumCartanInverse(self.frame.datum)
        self.table.coeff(1, 1, 8 * self.frame.h)  # fill the series once
        self.recursion = None  # built from this set-up's classes when first needed

    def make_inputs(self):
        xi = heights("E", 6, away_from_one("E", 6), self.anchor)
        top = self.anchor[1]
        self.labels = sorted(
            ((i, p) for i in xi for p in range(xi[i], top - self.DEPTH - 1, -2)),
            key=lambda ip: (-ip[1], ip[0]),
        )
        self.xi = xi
        self.adj = adjacency("E", 6)
        self.point = random_point(self.point_rng, 6)

    def ops(self):
        calc = self.kr.torusmap.TorusMorphism(self.frame, self.table)
        self.calc = calc
        self.numeric = NumericTSystem(
            self.xi, self.adj,
            lambda i, p: eval_value(calc.y_value(i, p), self.point))
        for i, p in self.labels:
            yield (i, p), (lambda i=i, p=p: calc.kr_value(i, p, 1))

    def check(self, label, value):
        i, p = label
        t = self.tally
        beta = self.frame.beta_eps(i, p)[0]
        value = self.corrupt_value(value, beta)
        before = set(self.numeric.values)
        want = self.numeric.kr(i, p, 1)
        ok = t.check(eval_value(value, self.point) == want,
                     f"T-system relation at ({i},{p},1)")
        # Every label this request solved on the way satisfies it too.
        for key in sorted(set(self.numeric.values) - before - {(i, p, 1)}):
            got = eval_value(self.calc.kr_value(*key), self.point)
            ok &= t.check(got == self.numeric.values[key], f"T-system relation at {key}")
        if self.recursion is None:
            self.recursion = self.kr.cuspidal.CuspidalRecursion(self.frame)
        other = self.recursion.value(beta)
        if other is not None:
            ok &= t.check(value == other, f"minimal-pair recursion at ({i},{p})")
        t.op(1, 0 if ok else 1)


# -- tsystem-d8 ------------------------------------------------------------------


class TSystemD8(Workload):
    """``verify --suite tsystem`` on D8: every finite-window KR label,
    T-system against the closed product formula.

    The seed moves the height anchor and picks the evaluation point.  Once
    per run the closed forms are also evaluated at that point and compared
    with the T-system recurrence evaluated there in exact rationals.
    """

    name = "tsystem-d8"
    modules = ("krtorus", "krtorus.suites")

    def __init__(self, seed, corrupt=False):
        super().__init__(seed, corrupt)
        self.anchor = (1, self.rng.randrange(-40, 41))

    def setup(self, kr):
        self.kr = kr
        self.frame = kr.cartan.build_frame("D", 8, None, self.anchor)

    def make_inputs(self):
        self.point = random_point(self.point_rng, 8)
        self.roots = positive_roots("D", 8)

    def ops(self):
        yield "suite", (lambda: self.kr.suites.run_suite("tsystem", self.frame))

    def check(self, label, result):
        t = self.tally
        fails = sum(1 for line in result.lines if not line.startswith("ok"))
        t.check(result.ok and fails == 0, "suite tsystem reports ok")
        t.check(len(result.lines) == len(self.roots), "one suite line per window point")
        t.op(len(result.lines), fails if result.ok else max(fails, 1))

    def final_check(self):
        t = self.tally
        kr, frame = self.kr, self.frame
        xi = heights("D", 8, away_from_one("D", 8), self.anchor)
        calc = kr.torusmap.TorusMorphism(frame)
        numeric = NumericTSystem(
            xi, adjacency("D", 8),
            lambda i, p: eval_value(calc.y_value(i, p), self.point))
        for i in sorted(xi):
            for r in range(1, frame.n_letters[i] + 1):
                s = xi[i] - 2 * (r - 1)
                for k in range(1, r + 1):
                    closed = kr.torusmap.closed_form_type_d(frame, i, s, k)
                    closed = self.corrupt_value(closed, self.roots[0])
                    ok = t.check(eval_value(closed, self.point) == numeric.kr(i, s, k),
                                 f"closed form = T-system at ({i},{s},{k})")
                    t.op(1, 0 if ok else 1)


# -- mutation-walks ------------------------------------------------------------------


class MutationWalks(Workload):
    """Short seeded mutation walks on the E6 quotient seed (window 2N).

    One operation is a batch of WALKS walks from one mutable vertex; each
    walk takes STEPS mutations, each to a neighbour of the last mutated
    vertex in the current quiver, and is then undone by its reverse walk.
    Walk length is the cost lever: residuals grow exponentially with it.
    """

    name = "mutation-walks"
    WALKS = 4
    STEPS = 4

    def setup(self, kr):
        self.kr = kr
        self.frame = kr.cartan.build_frame("E", 6)
        calc = kr.torusmap.TorusMorphism(self.frame)
        self.seed0 = kr.cluster.initial_seed(calc, 2 * self.frame.N, specialize_frozen=True)

    def make_inputs(self):
        quiver = self.seed0.quiver
        self.b0 = exchange_matrix(quiver.arrows)
        mutable = [v for v in quiver.vertices if v not in quiver.frozen]
        self.batches = []
        for start in mutable:
            walks = []
            for _ in range(self.WALKS):
                b, v, seq = self.b0, start, []
                while True:
                    seq.append(v)
                    b = mutate_matrix(b, v)
                    if len(seq) == self.STEPS:
                        break
                    v = self.rng.choice(sorted(neighbours(b, v) - quiver.frozen - {v}))
                walks.append(tuple(seq))
            self.batches.append((start, walks))
        self.rng.shuffle(self.batches)
        self.point = random_point(self.point_rng, 6)
        self.evals = {}

    def _walk(self, seq):
        mutate = self.kr.cluster.mutate
        seeds = [self.seed0]
        for v in seq + seq[::-1]:
            seeds.append(mutate(seeds[-1], v))
        return seeds

    def ops(self):
        for start, walks in self.batches:
            yield start, (lambda walks=walks: [(seq, self._walk(seq)) for seq in walks])

    def _ev(self, value):
        key = id(value)
        if key not in self.evals:
            self.evals[key] = (value, eval_value(value, self.point))
        return self.evals[key][1]

    def check(self, label, walks):
        t = self.tally
        for seq, seeds in walks:
            b = self.b0
            steps = seq + seq[::-1]
            for n, v in enumerate(steps):
                before, after = seeds[n], seeds[n + 1]
                new = self.corrupt_value(after.values[v], (1, 0, 0, 0, 0, 0))
                b = mutate_matrix(b, v)
                prod_in = prod_out = 1
                for (a, c), m in exchange_matrix(before.quiver.arrows).items():
                    if c == v and m > 0:
                        prod_in *= self._ev(before.values[a]) ** m
                    if a == v and m > 0:
                        prod_out *= self._ev(before.values[c]) ** m
                ok = t.check(self._ev(new) * self._ev(before.values[v]) == prod_in + prod_out,
                             f"exchange relation at {v} in walk {seq}")
                ok &= t.check(exchange_matrix(after.quiver.arrows) == b,
                              f"quiver after mutating {v} in walk {seq}")
                ok &= t.check(all(after.values[u] is before.values[u]
                                  for u in before.values if u != v),
                              f"only vertex {v} changes in walk {seq}")
                if n == len(steps) - 1:
                    end = seeds[-1]
                    ok &= t.check(end.quiver == self.seed0.quiver and all(
                        end.values[u] == self.seed0.values[u] for u in end.values),
                        f"reverse walk {seq} returns to the initial seed")
                t.op(1, 0 if ok else 1)
        self.evals.clear()


# -- cli-queries ------------------------------------------------------------------------


FRAMES = (("A", 4), ("A", 5), ("A", 6), ("D", 4), ("D", 5), ("D", 6), ("E", 6))


class CliQueries(Workload):
    """A seeded stream of one-shot CLI queries, run in-process one at a time
    through ``krtorus.cli.main`` with stdout captured.  Each query builds
    its own frame.  A round holds every query template once per frame in
    FRAMES plus the small verify suites, so its make-up is the same for
    every seed; the seed picks orientations, anchors, labels, roots,
    words and sequences.  KR labels stay within two steps of the top: a
    third step can cost 100x more on some orientations.
    """

    name = "cli-queries"
    modules = ("krtorus", "krtorus.cli")
    min_rounds = 20  # ~15 s; puts the tail among repeats of the heaviest query

    def setup(self, kr):
        self.kr = kr

    # -- input generation ----------------------------------------------------

    def _frame_args(self, family, rank, oriented):
        rng = self.rng
        args = ["--type", family, "--rank", str(rank)]
        arrows = away_from_one(family, rank)
        if oriented:
            arrows = [(a, b) if rng.random() < 0.5 else (b, a) for a, b in arrows]
            args += ["--orientation", ",".join(f"{a}>{b}" for a, b in arrows)]
        anchor = (1, rng.randrange(-6, 7))
        args += ["--anchor", f"{anchor[0]}:{anchor[1]}", "--format", "json"]
        return args, heights(family, rank, arrows, anchor)

    def _query(self, kind, argv, **data):
        self.queries.append((kind, argv, data))

    def make_inputs(self):
        rng = self.rng
        self.queries = []
        self.roots = {}
        for family, rank in FRAMES:
            roots = self.roots.setdefault((family, rank), positive_roots(family, rank))
            n_roots = len(roots)
            h = 2 * n_roots // rank
            args, _ = self._frame_args(family, rank, oriented=True)
            self._query("info", ["info"] + args, family=family, rank=rank)
            i, j = rng.randint(1, rank), rng.randint(1, rank)
            mmax = rng.randint(16, 32)
            self._query("ctilde", ["ctilde"] + args + [str(i), str(j), str(mmax)],
                        family=family, rank=rank, i=i, j=j)
            args, xi = self._frame_args(family, rank, oriented=True)
            i = rng.randint(1, rank)
            self._query("dtilde-y", ["dtilde-y"] + args + [str(i), str(xi[i] - 2 * rng.randrange(h))])
            args, xi = self._frame_args(family, rank, oriented=True)
            i, r = rng.randint(1, rank), rng.randint(1, 2)
            k = rng.randint(1, r)
            self._query("dtilde-kr", ["dtilde-kr"] + args + [str(i), str(xi[i] - 2 * (r - 1)), str(k)])
            args, xi = self._frame_args(family, rank, oriented=True)
            atoms = []
            for _ in range(rng.randint(2, 3)):
                i = rng.randint(1, rank)
                atoms.append(f"Y[{i},{xi[i] - 2 * rng.randrange(4)}]^{rng.choice((-2, -1, 1, 2))}")
            self._query("dtilde-monomial", ["dtilde-monomial"] + args + ["*".join(atoms)])
            args, _ = self._frame_args(family, rank, oriented=False)
            beta = ",".join(map(str, rng.choice(roots)))
            if family != "E":
                self._query("cuspidal-closed", ["dbar-cuspidal"] + args + ["--beta", beta], pair=beta)
            self._query("cuspidal-pair", ["dbar-cuspidal"] + args + ["--beta", beta, "--via-pair"],
                        pair=beta)
            word = braid_shuffle(family, rank, longest_word(family, rank), 60, rng)
            args, _ = self._frame_args(family, rank, oriented=True)
            self._query("dbar-flag", ["dbar-flag"] + args + ["--word", ",".join(map(str, word))],
                        family=family, rank=rank)
            args, _ = self._frame_args(family, rank, oriented=True)
            window = 2 * n_roots
            self._query("seed", ["seed"] + args + ["--window", str(window), "--quotient"],
                        rank=rank, window=window)
            args, _ = self._frame_args(family, rank, oriented=True)
            seq = rng.sample(range(1, n_roots + 1), 3)
            self._query("mutate", ["mutate"] + args + ["--window", str(window), "--quotient",
                                                     "--seq", ",".join(map(str, seq))],
                        rank=rank, window=window)
        sink_source = ["--type", "A", "--rank", "3", "--orientation", "2>1,2>3", "--format", "json"]
        for suite in ("figure2", "mutations"):
            self._query("verify", ["verify"] + sink_source + ["--suite", suite])
        for family, rank, suite, extra in (
            ("D", 5, "ctilde", []),
            ("A", 5, "tsystem", []),
            ("D", 5, "tsystem", []),
            ("D", 5, "minpairs", []),
            ("D", 5, "flagminors", ["--count", "3", "--seed", str(rng.randrange(10**6))]),
            ("A", 4, "schurweyl", ["--count", "10", "--seed", str(rng.randrange(10**6))]),
            ("D", 4, "periodicity", []),
            ("A", 4, "properties", []),
        ):
            args, _ = self._frame_args(family, rank, oriented=False)
            self._query("verify", ["verify"] + args + ["--suite", suite] + extra)
        self.point = random_point(self.point_rng, 8)
        self.series = {}
        self.pending = {}

    # -- the round ---------------------------------------------------------------

    def _call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.kr.cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def ops(self):
        for query in self.queries:
            yield query, (lambda argv=query[1]: self._call(argv))

    # -- checks --------------------------------------------------------------------

    @staticmethod
    def _factored(data):
        """Unit 1 times a product of root forms, with no residual."""
        one = [{"coeff": "1", "exp": [0] * len(data["num_terms"][0]["exp"])}]
        return data["unit"] == "1" and data["num_terms"] == one and data["den_terms"] == one

    def _ev(self, data):
        return eval_json(data, self.point[: len(data["num_terms"][0]["exp"])])

    def check(self, query, result):
        kind, argv, data = query
        code, out, err = result
        t = self.tally
        ok = t.check(code == 0, f"exit code 0 for {' '.join(argv)} (got {code}: {err.strip()[:200]})")
        if ok:
            payload = json.loads(out)
            ok = getattr(self, "_check_" + kind.replace("-", "_"))(payload, data)
        t.op(1, 0 if ok else 1)

    def _check_info(self, info, data):
        roots = self.roots[(data["family"], data["rank"])]
        return self.tally.check(info["N"] == len(roots), "info root count = Weyl closure")

    def _check_ctilde(self, rows, data):
        key = (data["family"], data["rank"])
        if self.corrupt:
            rows[0]["value"] += 1
            self.corrupt = False
        mmax = len(rows)
        if len(self.series.get(key, ())) < mmax:
            self.series[key] = cartan_series_inverse(*key, max(mmax, 32))
        i, j = data["i"] - 1, data["j"] - 1
        want = [self.series[key][m][i][j] for m in range(1, mmax + 1)]
        return self.tally.check([r["value"] for r in rows] == want,
                                f"ctilde rows {key} ({i + 1},{j + 1}) = series inversion")

    def _check_dtilde_y(self, value, data):
        return self.tally.check(
            self._factored(value) and all(abs(f["exp"]) == 1 for f in value["root_factors"]),
            "variable value is a product of roots with exponents +-1")

    def _check_dtilde_kr(self, value, data):
        return self.tally.check(self._ev(value) != 0, "KR value is a nonzero function")

    def _check_dtilde_monomial(self, value, data):
        return self.tally.check(self._factored(value), "monomial value is a product of roots")

    def _check_cuspidal_closed(self, value, data):
        self.pending[data["pair"]] = value
        return True

    def _check_cuspidal_pair(self, value, data):
        closed = self.pending.pop(data["pair"], None)
        if closed is None or value.get("inapplicable"):
            return True
        return self.tally.check(self._ev(closed) == self._ev(value),
                                f"both dbar-cuspidal routes agree at beta = {data['pair']}")

    def _check_dbar_flag(self, rows, data):
        roots = set(self.roots[(data["family"], data["rank"])])
        ok = len(rows) == len(roots)
        for row in rows:
            p = row["product"]
            ok &= self._factored(p) and all(
                f["exp"] > 0 and tuple(f["root"]) in roots for f in p["root_factors"])
        return self.tally.check(ok, "every flag-minor product is a unit-1 product of positive roots")

    def _check_seed(self, payload, data):
        values = payload["values"]
        frozen = set(payload["frozen"])
        return self.tally.check(
            len(values) == data["window"] and len(frozen) == data["rank"]
            and all(self._factored(v["value"]) and not v["value"]["root_factors"]
                    for v in values if v["vertex"] in frozen),
            "quotient seed: one frozen vertex per letter, each with value 1")

    def _check_mutate(self, payload, data):
        values = payload["values"]
        return self.tally.check(
            len(values) == data["window"] and all(self._ev(v["value"]) != 0 for v in values),
            "mutated seed keeps a nonzero value at every vertex")

    def _check_verify(self, payload, data):
        return self.tally.check(payload["ok"], f"verify suite {payload['suite']} ok")


WORKLOADS = {w.name: w for w in (TSystemE6, TSystemD8, MutationWalks, CliQueries)}
