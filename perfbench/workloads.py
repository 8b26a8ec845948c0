"""The three benchmark workloads.

Each workload is built from the library module and a seed, then handed out
in rounds: ``make_round(i)`` generates round ``i`` as plain integer data
from ``random.Random`` streams keyed by the workload name, the seed and the
round (so the inputs depend on the seed alone), ``execute(op)`` is the
timed unit, and ``check(op, result)`` verifies what ``execute`` returned
and yields the op's verdict stream.
Every round has the same fixed mix of op kinds and sizes; only the points,
scalars and degrees drawn inside each kind vary with the seed, which keeps
per-run figures comparable across seeds.

A failed check raises :class:`CheckFailed` with a short kind name; the
harness counts it (and any other exception) as a failed op.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import resource
import subprocess
import sys

from tracing import TRACE_MARK


class CheckFailed(Exception):
    """An op produced a wrong or inconsistent output."""

    def __init__(self, kind: str, detail: str = ""):
        super().__init__(f"{kind}: {detail}" if detail else kind)
        self.kind = kind


def _require(ok: bool, kind: str, detail: str = "") -> None:
    if not ok:
        raise CheckFailed(kind, detail)


def _elements(field, codes):
    return [field.element(x) for x in codes]


def _nonzero_tail(rng, q, n):
    return (1, *(rng.randrange(1, q) for _ in range(n - 1)))


class _InProcess:
    """Ops run in this process, and ``execute`` checks its own outputs:
    the route cross-checks are part of the timed work."""

    def check(self, op, result):
        return result

    @staticmethod
    def verdict_count(op, verdicts) -> int:
        return len(verdicts)

    @staticmethod
    def peak_rss_mb() -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- sweep ------------------------------------------------------------------------


class Sweep(_InProcess):
    """Many small one-component instances, a scaled-down copy of the Tier-1
    acceptance sweep (``tests/sweep_support.py``).

    Tier-1 walks every subset of GF(q) of size 2..5 with a scalar
    transversal (first scalar 1; exhaustive for q <= 7, 200 seeded-random
    vectors otherwise), and runs a two-component GF(7) product sweep.  For
    each (field, size), this workload walks the same (subset, vector)
    pairs, subsets in a seeded order, and round i takes the next
    ``tier1_pairs / PAIRS_SCALE`` of them.  So each round holds the Tier-1
    oracle sweep's pairs in Tier-1's proportions, and GF(3^2) in the
    proportions Tier-1's rule would give it.  Then come GRIDS_PER_ROUND
    GF(7) grids, sized in the proportions of the Tier-1 product sweep.

    Op: one (set, scalar vector) pair, or one grid pair.  The first op of
    each set also runs the set's dual and parameter checks, once per set as
    in Tier-1.
    """

    name = "sweep"
    FIELDS = ((7, 1), (11, 1), (13, 1), (3, 2))
    SIZES = (2, 3, 4, 5)
    EXHAUSTIVE_MAX_ORDER = 7
    RANDOM_VECTORS = 200
    # One round is 1/400 of the Tier-1 oracle sweep's pairs (1,967 ops).
    PAIRS_SCALE = 400
    # Tier-1 spends 129 of its 497 sweep seconds on the product sweep
    # (ROADMAP).  92 grids, split by size and rounded to 1, 8, 8 and 76,
    # take that share (26%) of a round's op time, by per-op costs measured
    # on a 2-vCPU Xeon: 0.11-1.0 ms per set op, 3.0 ms per grid.
    GRIDS_PER_ROUND = 92
    GRID_COMPONENT_SIZES = (2, 3)
    DISTANCE_BUDGET = 5_000

    def __init__(self, lib, seed: int):
        self.lib = lib
        self.seed = seed
        self.fields = {(p, e): lib.GF(p, e) for p, e in self.FIELDS}
        self.f7 = self.fields[(7, 1)]
        self._set_data = {}
        rng = random.Random(f"{self.name}:{seed}:subsets")
        self.subsets = {}
        self.counts = {}
        for key in self.FIELDS:
            q = key[0] ** key[1]
            for size in self.SIZES:
                subsets = list(itertools.combinations(range(q), size))
                rng.shuffle(subsets)
                self.subsets[key, size] = subsets
                pairs = len(subsets) * self._vectors_per_set(q, size)
                self.counts[key, size] = max(1, round(pairs / self.PAIRS_SCALE))
        # Tier-1 pairs every (set, vector) entry of sizes 2 and 3 with every
        # other, so a grid n1 x n2 has the share entries(n1) * entries(n2).
        entries = {n: math.comb(7, n) * self._vectors_per_set(7, n)
                   for n in self.GRID_COMPONENT_SIZES}
        total = sum(entries.values()) ** 2
        self.grid_counts = {
            (n1, n2): max(1, round(self.GRIDS_PER_ROUND * entries[n1] * entries[n2] / total))
            for n1 in self.GRID_COMPONENT_SIZES for n2 in self.GRID_COMPONENT_SIZES
        }

    def _vectors_per_set(self, q, size):
        return (q - 1) ** (size - 1) if q <= self.EXHAUSTIVE_MAX_ORDER else self.RANDOM_VECTORS

    def _vector(self, q, size, set_index, j, random_vectors):
        """The j-th scalar vector of a set's transversal."""
        if q <= self.EXHAUSTIVE_MAX_ORDER:
            # the j-th tuple of itertools.product(range(1, q), repeat=size - 1)
            tail = []
            for _ in range(size - 1):
                j, digit = divmod(j, q - 1)
                tail.append(digit + 1)
            return (1, *reversed(tail))
        vectors = random_vectors.get(set_index)
        if vectors is None:
            rng = random.Random(f"{self.name}:{self.seed}:{q}:{size}:{set_index}")
            vectors = random_vectors[set_index] = [
                _nonzero_tail(rng, q, size) for _ in range(self.RANDOM_VECTORS)]
        return vectors[j]

    def make_round(self, index: int) -> list:
        ops = []
        for key in self.FIELDS:
            q = key[0] ** key[1]
            for size in self.SIZES:
                subsets = self.subsets[key, size]
                per_set = self._vectors_per_set(q, size)
                count = self.counts[key, size]
                random_vectors = {}
                for position in range(index * count, (index + 1) * count):
                    set_index, j = divmod(position, per_set)
                    points = subsets[set_index % len(subsets)]
                    v = self._vector(q, size, set_index, j, random_vectors)
                    ops.append(("set", key, points, v, j == 0))
        rng = random.Random(f"{self.name}:{self.seed}:{index}")
        for (n1, n2), count in self.grid_counts.items():
            for _ in range(count):
                comps = (tuple(sorted(rng.sample(range(7), n1))),
                         tuple(sorted(rng.sample(range(7), n2))))
                scalars = (_nonzero_tail(rng, 7, n1), _nonzero_tail(rng, 7, n2))
                ops.append(("grid", comps, scalars))
        return ops

    def execute(self, op):
        if op[0] == "set":
            return self._set_op(*op[1:])
        return self._grid_op(*op[1:])

    def _set_op(self, key, point_codes, scalar_codes, first):
        lib = self.lib
        field = self.fields[key]
        points = _elements(field, point_codes)
        v = tuple(_elements(field, scalar_codes))
        n = len(points)
        if first:
            self._set_data[key, n] = lib.lcd.PointSetData(points)
            self._set_checks(field, points, v)
        analysis = lib.UnivariateLcdAnalysis(points, v, set_data=self._set_data[key, n])
        admissible = analysis.admissible_codimensions()
        cset = lib.CartesianSet([points])
        rows = lib.generator_matrix(lib.CartesianSpec(cset, v, n)).generator.rows
        verdicts = []
        for k in range(1, n):
            membership = (n - k) in admissible
            gap_rule = analysis.is_lcd(k)
            spec = lib.CartesianSpec(cset, v, k)
            code = lib.LinearCode(lib.Matrix(field, rows[:k], n), n, k)
            brute = lib.is_lcd_bruteforce(spec, code=code).is_lcd
            _require(membership == gap_rule == brute, "route-disagreement",
                     f"{key} {point_codes} {scalar_codes} k={k}")
            verdicts.append(brute)
        return verdicts

    def _set_checks(self, field, points, v):
        """Dual and parameters for every k of the set, with this scalar
        vector: rank vs dimension formula, closed-form vs enumerated
        distance (when within budget), MDS, and G (G')^T = 0."""
        lib = self.lib
        n = len(points)
        cset = lib.CartesianSet([points])
        for k in range(1, n):
            spec = lib.CartesianSpec(cset, v, k)
            code = lib.generator_matrix(spec)
            dim = lib.dimension_formula(spec)
            _require(code.generator.rank() == dim == code.dimension, "dimension")
            d, _ = lib.min_distance_formula(spec)
            _require(d == n - dim + 1, "mds")
            try:
                d_brute = lib.brute_force_min_distance(code, self.DISTANCE_BUDGET)
                _require(d_brute == d, "distance", f"{d_brute} != {d}")
            except lib.BudgetExceededError:
                pass
            dual = lib.dual_spec(spec)
            _require(dual.k == n - k, "dual-degree")
            _require(dim + lib.dimension_formula(dual) == n, "dual-dimension")
            product = code.generator @ lib.generator_matrix(dual).generator.transpose()
            _require(not any(x.val for row in product.rows for x in row), "dual-orthogonal")

    def _grid_op(self, comp_codes, scalar_codes):
        """Product criteria on a GF(7) grid, each checked by brute force."""
        lib = self.lib
        field = self.f7
        comps = [_elements(field, c) for c in comp_codes]
        scalars = [_elements(field, s) for s in scalar_codes]
        pairs = list(zip(comps, scalars))
        grid = lib.CartesianSet(comps)
        product = lib.cartesian_scalars(scalars)
        n1, n2 = grid.sizes
        brute = {}
        for k in range(1, n1 + n2 - 1):
            brute[k] = lib.is_lcd_bruteforce(lib.CartesianSpec(grid, product, k)).is_lcd
            if lib.is_lcd_product_sufficient(pairs, k) == "lcd":
                _require(brute[k], "product-sufficient", f"{comp_codes} k={k}")
            necessity = lib.lcd_necessity_check(pairs, k)
            if necessity != "inapplicable":
                _require(necessity == ("lcd" if brute[k] else "not-lcd"),
                         "product-necessity", f"{comp_codes} k={k}")
        for t1 in range(1, n1):
            for t2 in range(1, n2):
                verdict = lib.not_lcd_product([(comps[0], scalars[0], t1),
                                               (comps[1], scalars[1], t2)])
                if verdict == "not-lcd":
                    _require(not brute[t1 + t2], "product-not-lcd",
                             f"{comp_codes} t=({t1},{t2})")
        return [brute[k] for k in sorted(brute)]


# -- large --------------------------------------------------------------------------


class Large(_InProcess):
    """Few large codes: one-component codes of n in {32, 64} over a tabled
    prime field, a tabled extension field and an untabled prime field, plus
    two-component GF(17) grids up to 8 x 8.

    Op: one code.  A one-component op builds the set data and the analysis,
    decides every k by membership and by the gap rule, cross-checks a
    seeded handful of k by brute force, and checks one seeded dual.  A grid
    op decides seeded degrees by brute force and checks the product
    sufficiency criterion against them.
    """

    name = "large"
    # (field, n, ops per round, brute-force k per op).  The counts place
    # the median op inside the GF(2^31-1) n=32 block and the 90th
    # percentile inside the GF(2^8) n=32 / GF(2^31-1) n=64 block, so that
    # neither percentile sits on a boundary between op kinds of very
    # different cost.
    UNIVARIATE = (
        ((2, 8), 64, 1, 2),
        ((2, 8), 32, 4, 3),
        ((251, 1), 64, 8, 2),
        ((251, 1), 32, 6, 3),
        ((2**31 - 1, 1), 64, 2, 2),
        ((2**31 - 1, 1), 32, 9, 3),
    )
    GRID_SIZES = ((4, 4), (4, 6), (5, 5), (4, 8), (5, 7), (6, 6), (6, 7), (7, 7),
                  (6, 8), (8, 8))
    GRID_KS = 2

    def __init__(self, lib, seed: int):
        self.lib = lib
        self.seed = seed
        keys = {key for key, *_ in self.UNIVARIATE} | {(17, 1)}
        self.fields = {key: lib.GF(*key) for key in sorted(keys)}

    def make_round(self, index: int) -> list:
        rng = random.Random(f"{self.name}:{self.seed}:{index}")
        ops = []
        for key, n, count, brute_count in self.UNIVARIATE:
            q = key[0] ** key[1]
            for _ in range(count):
                points = tuple(rng.sample(range(q), n))
                scalars = tuple(rng.randrange(1, q) for _ in range(n))
                # one brute-force degree from each equal slice of 1..n-1
                edges = [1 + (n - 1) * i // brute_count for i in range(brute_count + 1)]
                brute_ks = tuple(rng.randrange(lo, hi) for lo, hi in zip(edges, edges[1:]))
                dual_k = rng.randrange(n // 4, 3 * n // 4)
                ops.append(("uni", key, points, scalars, brute_ks, dual_k))
        for n1, n2 in self.GRID_SIZES:
            comps = (tuple(sorted(rng.sample(range(17), n1))),
                     tuple(sorted(rng.sample(range(17), n2))))
            scalars = (_nonzero_tail(rng, 17, n1), _nonzero_tail(rng, 17, n2))
            ks = tuple(sorted(rng.sample(range(1, n1 + n2 - 1), self.GRID_KS)))
            ops.append(("grid", comps, scalars, ks))
        return ops

    def execute(self, op):
        if op[0] == "uni":
            return self._univariate_op(*op[1:])
        return self._grid_op(*op[1:])

    def _univariate_op(self, key, point_codes, scalar_codes, brute_ks, dual_k):
        lib = self.lib
        field = self.fields[key]
        points = _elements(field, point_codes)
        scalars = _elements(field, scalar_codes)
        n = len(points)
        set_data = lib.lcd.PointSetData(points)
        analysis = lib.UnivariateLcdAnalysis(points, scalars, set_data=set_data)
        admissible = analysis.admissible_codimensions()
        verdicts = []
        for k in range(1, n):
            gap_rule = analysis.is_lcd(k)
            _require(((n - k) in admissible) == gap_rule, "route-disagreement",
                     f"{key} n={n} k={k}")
            verdicts.append(gap_rule)
        for k in brute_ks:
            brute = lib.is_lcd_bruteforce(lib.CartesianSpec.univariate(points, scalars, k))
            _require(brute.is_lcd == verdicts[k - 1], "route-disagreement",
                     f"{key} n={n} k={k} brute force")
        spec = lib.CartesianSpec.univariate(points, scalars, dual_k)
        code = lib.generator_matrix(spec)
        dual = lib.dual_spec(spec)
        dual_code = lib.generator_matrix(dual)
        _require(code.dimension + dual_code.dimension == n, "dual-dimension")
        product = code.generator @ dual_code.generator.transpose()
        _require(not any(x.val for row in product.rows for x in row), "dual-orthogonal")
        return verdicts

    def _grid_op(self, comp_codes, scalar_codes, ks):
        lib = self.lib
        field = self.fields[(17, 1)]
        comps = [_elements(field, c) for c in comp_codes]
        scalars = [_elements(field, s) for s in scalar_codes]
        grid = lib.CartesianSet(comps)
        product = lib.cartesian_scalars(scalars)
        verdicts = []
        for k in ks:
            brute = lib.is_lcd_bruteforce(lib.CartesianSpec(grid, product, k)).is_lcd
            if lib.is_lcd_product_sufficient(list(zip(comps, scalars)), k) == "lcd":
                _require(brute, "product-sufficient", f"{comp_codes} k={k}")
            verdicts.append(brute)
        return verdicts


# -- cli ----------------------------------------------------------------------------


def _join(codes) -> str:
    return ",".join(str(x) for x in codes)


RSS_MARK = "perfbench-rss-kb "

# ``python -m cartcodes.cli``, plus one stderr line with the child's own peak
# RSS.  getrusage cannot give it: a spawned child's maximum RSS starts from
# the parent's, which holds the library and its fields too.
CLI_MAIN = f"""
import runpy, sys
try:
    runpy.run_module("cartcodes.cli", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status") as fh:
        kb = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    sys.stderr.write("{RSS_MARK}" + kb + "\\n")
"""


class Cli:
    """A closed loop with one client: each command runs in a fresh Python
    process that runs ``cartcodes.cli`` as ``__main__`` (``CLI_MAIN``),
    started after the previous one exits, so every command pays for import
    and field construction as a user does.  Op: one command.  Outputs are
    checked in this process against the library, on the same spec, outside
    the op's timing.
    """

    name = "cli"
    # One round, in order.  Prime fields by order; "2^8" and "3^2" extension.
    # The weights are chosen, not measured: there is no record of CLI use.
    MIX = (
        ("params", "13"), ("dual", "7"), ("lcd", "11"), ("lcd2d", "7"),
        ("search", "5"), ("masking", "11"), ("params", "11"), ("lcd", "3^2"),
        ("dual", "3^2"), ("lcd2d", "7"), ("masking-exhaustive", "5"), ("lcd", "13"),
        ("search", "7"), ("masking", "7"), ("lcd", "2^8"), ("reproduce-paper", None),
    )
    PARAMS_BUDGET = 100_000
    SEARCH_BUDGET = 40
    MASKING_TRIALS = 40
    FIELD_TEXTS = ("5", "7", "11", "13", "3^2", "2^8")

    def __init__(self, lib, seed: int, root: str):
        self.lib = lib
        self.seed = seed
        self.fields = {text: lib.GF(*self._field_args(text)) for text in self.FIELD_TEXTS}
        self.root = root
        self.env = dict(os.environ)
        paths = [os.path.join(root, "src"), self.env.get("PYTHONPATH", "")]
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
        # Set by the harness for a traced run: children then run the
        # benchmark's own shim, which traces the CLI and reports on stderr.
        self.traced = False
        self.child_traces: list[dict] = []
        self.child_peak_rss_kb = 0

    @staticmethod
    def _field_args(text):
        p, _, e = text.partition("^")
        return int(p), int(e or 1)

    # -- generation ----------------------------------------------------------------

    def make_round(self, index: int) -> list:
        rng = random.Random(f"{self.name}:{self.seed}:{index}")
        return [self._command(rng, kind, ftext) for kind, ftext in self.MIX]

    def _command(self, rng, kind, ftext):
        if kind == "reproduce-paper":
            return (kind, None, ("reproduce-paper", "--json"))
        field = self.fields[ftext]
        q = field.order
        if kind == "params":
            n = rng.randint(5, 7)
            points = sorted(rng.sample(range(q), n))
            k = rng.randint(2, 3)
            spec = (ftext, (tuple(points),), _nonzero_tail(rng, q, n), k)
            return (kind, spec, ("params", *self._spec_flags(spec),
                                 "--budget", str(self.PARAMS_BUDGET), "--json"))
        if kind == "dual":
            n = rng.randint(3, 6)
            spec = (ftext, (tuple(sorted(rng.sample(range(q), n))),),
                    _nonzero_tail(rng, q, n), rng.randint(1, n - 1))
            return (kind, spec, ("dual", *self._spec_flags(spec), "--json"))
        if kind == "lcd":
            n = rng.randint(6, 8)
            spec = (ftext, (tuple(sorted(rng.sample(range(q), n))),),
                    _nonzero_tail(rng, q, n), None)
            return (kind, spec, ("lcd", *self._spec_flags(spec),
                                 "--k-range", f"1:{n}", "--json"))
        if kind == "lcd2d":
            sizes = (rng.randint(2, 3), rng.randint(2, 3))
            comps = tuple(tuple(sorted(rng.sample(range(q), s))) for s in sizes)
            vectors = tuple(_nonzero_tail(rng, q, s) for s in sizes)
            spec = (ftext, comps, vectors, None)
            cap = sizes[0] + sizes[1] - 1
            return (kind, spec, ("lcd", "--field", ftext,
                                 "--set", ";".join(_join(c) for c in comps),
                                 "--scalars", ";".join(_join(v) for v in vectors),
                                 "--k-range", f"1:{cap}", "--json"))
        if kind == "search":
            spec = (ftext, 3, rng.randrange(1 << 16))
            return (kind, spec, ("search", "--field", ftext, "--sizes", "3",
                                 "--k-range", "1:2", "--scalar-policy", "random:3",
                                 "--budget", str(self.SEARCH_BUDGET),
                                 "--seed", str(spec[2])))
        if kind in ("masking", "masking-exhaustive"):
            exhaustive = kind == "masking-exhaustive"
            spec = self._lcd_spec(rng, ftext, 3 if exhaustive else rng.randint(4, 6))
            extra = ("--exhaustive",) if exhaustive else ("--trials", str(self.MASKING_TRIALS))
            return (kind, spec, ("masking", *self._spec_flags(spec), *extra,
                                 "--seed", str(rng.randrange(1 << 16)), "--json"))
        raise ValueError(f"unknown command kind {kind!r}")

    def _lcd_spec(self, rng, ftext, n):
        """A seeded one-component spec that the library decides LCD, since
        masking refuses other codes."""
        field = self.fields[ftext]
        q = field.order
        while True:
            points = tuple(sorted(rng.sample(range(q), n)))
            scalars = _nonzero_tail(rng, q, n)
            analysis = self.lib.UnivariateLcdAnalysis(
                _elements(field, points), _elements(field, scalars))
            ks = [k for k in range(1, n) if analysis.is_lcd(k)]
            if ks:
                return (ftext, (points,), scalars, rng.choice(ks))

    @staticmethod
    def _spec_flags(spec):
        ftext, comps, scalars, k = spec
        flags = ["--field", ftext, "--set", _join(comps[0]), "--scalars", _join(scalars)]
        if k is not None:
            flags += ["--k", str(k)]
        return flags

    # -- execution --------------------------------------------------------------------

    def execute(self, op):
        if self.traced:
            child = [sys.executable, os.path.join(os.path.dirname(__file__), "cli_child.py")]
        else:
            child = [sys.executable, "-c", CLI_MAIN]
        return subprocess.run(
            [*child, *op[2]],
            cwd=self.root,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=60,
        )

    def check(self, op, proc):
        kind, spec, argv = op
        for line in proc.stderr.splitlines():
            if line.startswith(TRACE_MARK):
                self.child_traces.append(json.loads(line[len(TRACE_MARK):]))
            elif line.startswith(RSS_MARK):
                kb = int(line[len(RSS_MARK):])
                self.child_peak_rss_kb = max(self.child_peak_rss_kb, kb)
        _require(proc.returncode == 0, "cli-exit",
                 f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr[-300:]}")
        lines = [json.loads(line) for line in proc.stdout.splitlines() if line.strip()]
        _require(bool(lines), "cli-output", f"{' '.join(argv)} printed nothing")
        return getattr(self, "_check_" + kind.replace("-", "_"))(spec, lines)

    def _spec(self, spec, k=None):
        ftext, comps, scalars, k0 = spec
        field = self.fields[ftext]
        lib = self.lib
        grid = lib.CartesianSet([_elements(field, c) for c in comps])
        if len(comps) == 1:
            vector = _elements(field, scalars)
        else:
            vector = lib.cartesian_scalars([_elements(field, v) for v in scalars])
        return lib.CartesianSpec(grid, tuple(vector), k if k is not None else k0)

    def _check_params(self, spec, lines):
        out, = lines
        s = self._spec(spec)
        d, _ = self.lib.min_distance_formula(s)
        _require(out["dim"] == self.lib.dimension_formula(s), "cli-dim")
        _require(out["d_formula"] == d, "cli-distance")
        _require(out.get("d_bruteforce") == d, "cli-distance", "brute force")
        return [out["dim"], d]

    def _check_dual(self, spec, lines):
        out, = lines
        dual = self.lib.dual_spec(self._spec(spec))
        _require(out["k_dual"] == dual.k, "cli-dual")
        _require(out["scalars_dual"] == [v.to_json() for v in dual.scalars], "cli-dual")
        _require(out["generator_dual"]
                 == self.lib.generator_matrix(dual).generator.to_json(), "cli-dual")
        return [dual.k]

    def _check_lcd(self, spec, lines):
        ftext, comps, scalars, _ = spec
        field = self.fields[ftext]
        analysis = self.lib.UnivariateLcdAnalysis(
            _elements(field, comps[0]), _elements(field, scalars))
        _require([line["k"] for line in lines] == list(range(1, len(comps[0]) + 1)),
                 "cli-lcd", "degree list")
        for line in lines:
            _require(line["lcd"] == analysis.is_lcd(line["k"]), "cli-verdict")
            _require(line["eea_degrees"] == sorted(analysis.admissible_codimensions()),
                     "cli-verdict", "remainder degrees")
        return [line["lcd"] for line in lines]

    def _check_lcd2d(self, spec, lines):
        for line in lines:
            brute = self.lib.is_lcd_bruteforce(self._spec(spec, line["k"]))
            _require(line["lcd"] == brute.is_lcd, "cli-verdict", f"k={line['k']}")
        return [line["lcd"] for line in lines]

    def _check_search(self, spec, lines):
        ftext = spec[0]
        field = self.fields[ftext]
        lib = self.lib
        records = [r for r in lines if not r.get("truncated")]
        _require(len(records) == self.SEARCH_BUDGET, "cli-search", "record count")
        for r in records:
            s = lib.CartesianSpec.from_ints(field, r["components"], r["scalars"], r["k"])
            analysis = lib.UnivariateLcdAnalysis(s.cset.components[0], s.scalars)
            _require(r["lcd"] == analysis.is_lcd(r["k"]), "cli-verdict")
            _require(r["dim"] == lib.dimension_formula(s), "cli-dim")
            _require(r["d"] == lib.min_distance_formula(s)[0], "cli-distance")
        return [r["lcd"] for r in records]

    def _check_masking(self, spec, lines, faults=None):
        out, = lines
        s = self._spec(spec)
        lib = self.lib
        params = out["code_params"]
        _require(params["dim"] == lib.dimension_formula(s), "cli-dim")
        _require(params["d"] == lib.min_distance_formula(s)[0], "cli-distance")
        _require(out["all_missed_in_C"] and out["low_weight_missed"] == 0, "cli-masking")
        expected = faults if faults is not None else self.MASKING_TRIALS
        _require(out["faults_injected"] == expected, "cli-masking", "fault count")
        return [out["detected"], out["missed"]]

    def _check_masking_exhaustive(self, spec, lines):
        q = self.fields[spec[0]].order
        return self._check_masking(spec, lines, faults=q ** len(spec[1][0]))

    def _check_reproduce_paper(self, spec, lines):
        out, = lines
        _require(out["total"] > 0 and out["passed"] == out["total"], "cli-reproduce")
        return [out["passed"]]

    def peak_rss_mb(self) -> float:
        """The largest peak RSS of a CLI child."""
        return self.child_peak_rss_kb / 1024

    @staticmethod
    def verdict_count(op, verdicts) -> int:
        """LCD verdicts an op produced: lcd lines and search records."""
        return len(verdicts) if op[0] in ("lcd", "lcd2d", "search") else 0
