"""One-command benchmark for cartcodes.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Runs one workload (``sweep``, ``large`` or ``cli``) in this process and
thread, from the root of a source checkout, importing the library from
``src/``.  Set-up (import, field construction, seeded generation of the
first round) is repeated at least five times and for at least five
seconds, and its median reported.  Then whole rounds of ops run until
``--seconds`` have passed and at least 100 ops are done; every op's output
is checked.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of a traced run: one
traced set-up, then two thirds of the time in traced ops and one third in
untraced ops, whose difference is reported as the tracing overhead.  The
line before it is a report with the input and verdict digests, failures by
kind and an environment stamp.
"""

from __future__ import annotations

import argparse
import array
import gc
import hashlib
import importlib
import json
import os
import platform
import statistics
import sys
import time
from collections import Counter

from tracing import Tracer
from workloads import Cli, CheckFailed, Large, Sweep

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOADS = {"sweep": Sweep, "large": Large, "cli": Cli}
# Set-up is repeated at least this many times and for at least this long,
# so that its median spans several seconds of the machine's speed changes,
# also when one set-up takes only a few tens of milliseconds.
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 5.0
# A run does at least this many ops, and the latency percentiles are taken
# over windows of whole rounds of at least this many ops, so that at least
# 10 latencies lie beyond each window's 90th percentile.
MIN_OPS = 100
TRACED_SHARE = 2 / 3

# (name, unit); BENCHMARK.json lists the same names with their direction.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("verdicts_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("setup.field.GF.calls", "count"),
    ("setup.field.GF.s", "s"),
    ("field.GF.calls", "count/op"),
    ("field.GF.s", "s/op"),
    ("unipoly.eea_sequence.calls", "count/op"),
    ("unipoly.eea_sequence.s", "s/op"),
    ("unipoly.eea_sequence.steps", "count/op"),
    ("unipoly.vanishing_poly.s", "s/op"),
    ("unipoly.lagrange_term.calls", "count/op"),
    ("unipoly.lagrange_term.s", "s/op"),
    ("lcd.PointSetData.calls", "count/op"),
    ("lcd.PointSetData.s", "s/op"),
    ("lcd.PointSetData.reuse", "ratio"),
    ("lcd.UnivariateLcdAnalysis.calls", "count/op"),
    ("lcd.UnivariateLcdAnalysis.self_s", "s/op"),
    ("lcd.is_lcd_bruteforce.calls", "count/op"),
    ("lcd.is_lcd_bruteforce.s", "s/op"),
    ("lcd.is_lcd_bruteforce.max_n", "count"),
    ("lcd.product_criteria.calls", "count/op"),
    ("lcd.product_criteria.s", "s/op"),
    ("lcd.search_lcd.s", "s/op"),
    ("lcd.verdicts", "count/op"),
    ("codes.CartesianSpec.calls", "count/op"),
    ("codes.CartesianSpec.s", "s/op"),
    ("codes.generator_matrix.calls", "count/op"),
    ("codes.generator_matrix.s", "s/op"),
    ("codes.dual_spec.calls", "count/op"),
    ("codes.dual_spec.s", "s/op"),
    ("codes.brute_force_min_distance.calls", "count/op"),
    ("codes.brute_force_min_distance.s", "s/op"),
    ("codes.brute_force_min_distance.refused_ratio", "ratio"),
    ("multipoly.CartesianSet.calls", "count/op"),
    ("multipoly.CartesianSet.s", "s/op"),
    ("multipoly.monomial_basis.calls", "count/op"),
    ("multipoly.monomial_basis.s", "s/op"),
    ("linalg.matmul.calls", "count/op"),
    ("linalg.matmul.s", "s/op"),
    ("linalg.rank.calls", "count/op"),
    ("linalg.rank.s", "s/op"),
    ("linalg.inverse.calls", "count/op"),
    ("linalg.inverse.s", "s/op"),
    ("linalg.row_space_contains.calls", "count/op"),
    ("linalg.row_space_contains.s", "s/op"),
    ("linalg.max_cells", "count"),
    ("masking.build_context.calls", "count/op"),
    ("masking.build_context.s", "s/op"),
    ("masking.split.calls", "count/op"),
    ("masking.split.s", "s/op"),
    ("masking.detect_fault.calls", "count/op"),
    ("cli.params.s", "s/op"),
    ("cli.dual.s", "s/op"),
    ("cli.lcd.s", "s/op"),
    ("cli.search.s", "s/op"),
    ("cli.masking.s", "s/op"),
    ("cli.reproduce-paper.s", "s/op"),
    ("cli.parse_field.s", "s/op"),
    ("trace.ops_per_s", "1/s"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.overhead_ratio", "ratio"),
)


# -- set-up ----------------------------------------------------------------------


def import_library():
    """Import ``cartcodes`` afresh from ``src/``, as a new process would."""
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    for name in [n for n in sys.modules if n == "cartcodes" or n.startswith("cartcodes.")]:
        del sys.modules[name]
    return importlib.import_module("cartcodes")


def make_workload(name, seed, tracer=None):
    """Import, optionally trace, build the workload and its first round.
    Returns (seconds taken, workload, first round)."""
    start = time.perf_counter()
    lib = import_library()
    if tracer is not None:
        tracer.install()
    if name == "cli":
        workload = Cli(lib, seed, ROOT)
    else:
        workload = WORKLOADS[name](lib, seed)
    first_round = workload.make_round(0)
    return time.perf_counter() - start, workload, first_round


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, separators=(",", ":")).encode()).hexdigest()


# -- measurement -------------------------------------------------------------------


class Phase:
    """Per-op latencies, verdicts and failures of one timed phase."""

    def __init__(self):
        # Compact, so that peak RSS does not grow with the number of ops.
        self.latencies = array.array("d")
        self.verdicts = 0
        self.rounds = 0
        self.round_ends: list[int] = []  # op count at the end of each round
        self.failures: Counter = Counter()
        self.failure_details: list[str] = []
        self.first_round_verdicts: list = []

    @property
    def busy(self) -> float:
        return sum(self.latencies)

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies) / self.busy


def measure(workload, first_round, seconds, min_ops=0) -> Phase:
    """Run whole rounds, from round 0, until ``seconds`` have passed and
    at least ``min_ops`` ops are done."""
    phase = Phase()
    start = time.perf_counter()
    ops = first_round
    while True:
        for op in ops:
            t0 = time.perf_counter()
            t1 = None
            kind = None
            try:
                result = workload.execute(op)
                t1 = time.perf_counter()
                verdicts = workload.check(op, result)
            except CheckFailed as exc:
                kind, detail = exc.kind, str(exc)
            except Exception as exc:  # a crashing op is a failed op, not a stop
                kind, detail = f"raised-{type(exc).__name__}", f"{type(exc).__name__}: {exc}"
            if t1 is None:
                t1 = time.perf_counter()
            phase.latencies.append(t1 - t0)
            if kind is None:
                phase.verdicts += workload.verdict_count(op, verdicts)
            else:
                phase.failures[kind] += 1
                if len(phase.failure_details) < 5:
                    phase.failure_details.append(detail)
            if phase.rounds == 0:
                phase.first_round_verdicts.append(verdicts if kind is None else ["failed", kind])
        phase.rounds += 1
        phase.round_ends.append(len(phase.latencies))
        if time.perf_counter() - start >= seconds and len(phase.latencies) >= min_ops:
            return phase
        ops = workload.make_round(phase.rounds)


def windowed_percentiles(phase) -> tuple[float, float]:
    """The 50th and 90th percentile op latency of each window of whole
    rounds of at least MIN_OPS ops (a shorter last stretch joins the window
    before it), averaged over the windows with their op counts as weights.

    Every round has the same mix, so each window's percentiles estimate the
    run's.  When the machine's speed changes during a run, their mean moves
    in proportion to the time spent at each speed, as ``ops_per_s`` does.
    A percentile of the whole run's mixed latencies would instead jump
    between the two speeds' values."""
    lat = phase.latencies
    cuts = [0]
    for end in phase.round_ends:
        if end - cuts[-1] >= MIN_OPS:
            cuts.append(end)
    if len(cuts) == 1:
        cuts.append(len(lat))
    else:
        cuts[-1] = len(lat)
    p50 = p90 = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        window = lat[lo:hi]
        p50 += statistics.median(window) * len(window)
        p90 += statistics.quantiles(window, n=10)[8] * len(window)
    return p50 / len(lat), p90 / len(lat)


def end_to_end_metrics(setup_times, phase, workload) -> dict:
    # Read before the percentiles, whose sorted copies would raise it.
    peak_rss_mb = workload.peak_rss_mb()
    p50, p90 = windowed_percentiles(phase)
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": phase.ops_per_s,
        "verdicts_per_s": phase.verdicts / phase.busy,
        "op_p50_ms": p50 * 1e3,
        "op_p90_ms": p90 * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }


def layer_metrics(tracer, setup, traced, untraced) -> dict:
    """Per-layer figures.  ``setup.*`` are those of the one traced set-up
    (``setup``, as ``Tracer.take`` gives it).  The rest are those of the
    traced ops: calls, seconds and work counts are divided by the traced
    ops, so they do not grow with the number of rounds a faster program
    fits into the same time."""
    layers, counters = tracer.layers, tracer.counters
    ops = len(traced.latencies)

    def stat(base, index):
        return layers.get(base, (0, 0.0, 0.0))[index]

    out = {}
    for name, unit in PER_LAYER:
        base, _, kind = name.rpartition(".")
        if name.startswith("setup."):
            calls_s = setup["layers"].get(base[len("setup."):], (0, 0.0))
            out[name] = calls_s[("calls", "s").index(kind)]
        elif kind in ("calls", "s", "self_s"):
            out[name] = stat(base, ("calls", "s", "self_s").index(kind)) / ops
        elif unit == "count/op":
            out[name] = counters.get(name, 0) / ops
        elif kind == "reuse":
            builds = stat("lcd.PointSetData", 0)
            out[name] = stat("lcd.UnivariateLcdAnalysis", 0) / builds if builds else 0.0
        elif kind == "refused_ratio":
            calls = stat(base, 0)
            out[name] = counters.get(base + ".refused", 0) / calls if calls else 0.0
        else:
            out[name] = counters.get(name, 0)
    out["trace.ops_per_s"] = traced.ops_per_s
    out["trace.untraced_ops_per_s"] = untraced.ops_per_s
    out["trace.overhead_ratio"] = untraced.ops_per_s / traced.ops_per_s - 1
    return out


# -- environment stamp ----------------------------------------------------------------


def _commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "cartcodes")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    return {
        "commit": _commit(),
        "source_digest": _source_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
    }


# -- entry point ---------------------------------------------------------------------


def write_trace(tracer, setup, workload_name, seed) -> str:
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{workload_name}-{seed}.json")
    with open(path, "w") as fh:
        json.dump(
            {
                "workload": workload_name,
                "seed": seed,
                "setup": setup,
                "layers": {
                    name: {"calls": c, "s": s, "self_s": self_s}
                    for name, (c, s, self_s) in sorted(tracer.layers.items())
                },
                "counters": tracer.counters,
                "spans_kept": len(tracer.spans),
                "spans_dropped": tracer.spans_dropped,
                "span_fields": ["id", "name", "start", "end", "parent"],
                "spans": tracer.spans,
            },
            fh,
        )
    return os.path.relpath(path, ROOT)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cartcodes", "__init__.py")):
        print(f"perfbench: no cartcodes sources under {SRC}", file=sys.stderr)
        return 2

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    if args.trace:
        tracer = Tracer()
        _, workload, first_round = make_workload(args.workload, args.seed, tracer)
        setup = tracer.take()
        in_children = args.workload == "cli"
        if in_children:
            # The ops run in children, which trace themselves.
            tracer.uninstall()
            workload.traced = True
        traced = measure(workload, first_round, args.seconds * TRACED_SHARE)
        tracer.uninstall()
        if in_children:
            workload.traced = False
        untraced = measure(workload, first_round, args.seconds * (1 - TRACED_SHARE))
        for exported in getattr(workload, "child_traces", ()):
            tracer.merge(exported)
        phases = (traced, untraced)
        values = layer_metrics(tracer, setup, traced, untraced)
        units = dict(PER_LAYER)
        report["trace_file"] = write_trace(tracer, setup, args.workload, args.seed)
    else:
        setup_times = []
        while len(setup_times) < SETUP_MIN_REPEATS or sum(setup_times) < SETUP_MIN_SECONDS:
            workload = first_round = None
            gc.collect()  # free the previous import, so repeats do not raise peak RSS
            seconds, workload, first_round = make_workload(args.workload, args.seed)
            setup_times.append(seconds)
        phase = measure(workload, first_round, args.seconds, MIN_OPS)
        phases = (phase,)
        values = end_to_end_metrics(setup_times, phase, workload)
        units = dict(END_TO_END)
        report["setup_runs_s"] = setup_times

    main_phase = phases[0]
    attempted = sum(len(p.latencies) for p in phases)
    failures = sum((p.failures for p in phases), Counter())
    failed = sum(failures.values())
    report.update(
        {
            "input_digest": digest(first_round),
            "verdict_digest": digest(main_phase.first_round_verdicts),
            "rounds": [p.rounds for p in phases],
            "samples": [len(p.latencies) for p in phases],
            "verdicts": [p.verdicts for p in phases],
            "failed_ratio": failed / attempted,
            "failures": dict(failures),
            "failure_examples": [d for p in phases for d in p.failure_details][:5],
            "environment": environment(),
        }
    )
    print(json.dumps(report))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in values.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
