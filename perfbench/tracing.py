"""Layer spans recorded from outside the library.

A :class:`Tracer` binds timing wrappers onto public names of ``cartcodes``:
plain functions are rebound in their defining module and in every
``cartcodes`` module that imported them; classes and ``Matrix`` methods are
patched on the class, so every construction or call path is seen.  Nothing
in ``src/`` is edited, and ``uninstall`` restores the originals.

Spans nest through a stack (one thread), so a span's self time is its
duration minus the durations of the spans it directly contains.
"""

from __future__ import annotations

import functools
import sys
import time

# Prefix of the stderr line on which a traced CLI child reports its aggregates.
TRACE_MARK = "perfbench-trace "

# Counters merged by maximum rather than by sum.
MAX_COUNTERS = frozenset({"lcd.is_lcd_bruteforce.max_n", "linalg.max_cells"})


def _eea_steps(tracer, args, result):
    tracer.add("unipoly.eea_sequence.steps", len(result.steps))


def _bruteforce_n(tracer, args, result):
    tracer.maximum("lcd.is_lcd_bruteforce.max_n", result.spec.n)


def _refused(tracer, exc):
    if type(exc).__name__ == "BudgetExceededError":
        tracer.add("codes.brute_force_min_distance.refused", 1)


def _cells(tracer, args, result):
    cells = args[0].nrows * args[0].ncols
    if len(args) > 1 and hasattr(args[1], "nrows"):
        cells = max(cells, args[1].nrows * args[1].ncols)
    tracer.maximum("linalg.max_cells", cells)


# (span name, module, attribute, kind, on_return, on_error).  Kinds: "func"
# rebinds a function, "gen" a generator function (one call, one span per
# resume), "init" patches a class constructor, "method" a Matrix method,
# "count" counts constructions without a span.
TARGETS = (
    ("field.GF", "field", "Field", "init", None, None),
    ("unipoly.eea_sequence", "unipoly", "eea_sequence", "func", _eea_steps, None),
    ("unipoly.vanishing_poly", "unipoly", "vanishing_poly", "func", None, None),
    ("unipoly.lagrange_term", "unipoly", "lagrange_term", "func", None, None),
    ("lcd.PointSetData", "lcd", "PointSetData", "init", None, None),
    ("lcd.UnivariateLcdAnalysis", "lcd", "UnivariateLcdAnalysis", "init", None, None),
    ("lcd.is_lcd_bruteforce", "lcd", "is_lcd_bruteforce", "func", _bruteforce_n, None),
    ("lcd.product_criteria", "lcd", "is_lcd_product_sufficient", "func", None, None),
    ("lcd.product_criteria", "lcd", "not_lcd_product", "func", None, None),
    ("lcd.product_criteria", "lcd", "lcd_necessity_check", "func", None, None),
    ("lcd.search_lcd", "lcd", "search_lcd", "gen", None, None),
    ("lcd.verdicts", "lcd", "LcdReport", "count", None, None),
    ("codes.CartesianSpec", "codes", "CartesianSpec", "init", None, None),
    ("codes.generator_matrix", "codes", "generator_matrix", "func", None, None),
    ("codes.dual_spec", "codes", "dual_spec", "func", None, None),
    ("codes.brute_force_min_distance", "codes", "brute_force_min_distance", "func",
     None, _refused),
    ("multipoly.CartesianSet", "multipoly", "CartesianSet", "init", None, None),
    ("multipoly.monomial_basis", "multipoly", "monomial_basis", "func", None, None),
    ("linalg.matmul", "linalg", "__matmul__", "method", _cells, None),
    ("linalg.rank", "linalg", "rank", "method", _cells, None),
    ("linalg.inverse", "linalg", "inverse", "method", _cells, None),
    ("linalg.row_space_contains", "linalg", "row_space_contains", "method", _cells, None),
    ("masking.build_context", "masking", "build_context", "func", None, None),
    ("masking.split", "masking", "split", "func", None, None),
    ("masking.detect_fault", "masking", "detect_fault", "func", None, None),
    ("cli.params", "cli", "cmd_params", "func", None, None),
    ("cli.dual", "cli", "cmd_dual", "func", None, None),
    ("cli.lcd", "cli", "cmd_lcd", "func", None, None),
    ("cli.search", "cli", "cmd_search", "func", None, None),
    ("cli.masking", "cli", "cmd_masking", "func", None, None),
    ("cli.reproduce-paper", "cli", "cmd_reproduce_paper", "func", None, None),
    ("cli.parse_field", "cli", "parse_field", "func", None, None),
)


class Tracer:
    """In-memory spans and per-layer aggregates for one process."""

    def __init__(self, span_cap: int = 50_000):
        self.layers: dict[str, list] = {}  # name -> [calls, seconds, self seconds]
        self.counters: dict[str, float] = {}
        self.spans: list[tuple] = []  # (id, name, start, end, parent id)
        self.span_cap = span_cap
        self.spans_dropped = 0
        self._stack: list[list] = []
        self._next_id = 0
        self._restore: list[tuple] = []

    # -- recording -------------------------------------------------------------

    def add(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def maximum(self, name: str, value: float) -> None:
        if value > self.counters.get(name, 0):
            self.counters[name] = value

    def _enter(self, name: str) -> list:
        self._next_id += 1
        parent = self._stack[-1][4] if self._stack else 0
        frame = [name, time.perf_counter(), 0.0, parent, self._next_id]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, calls: int = 1) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, start, child, parent, span_id = frame
        duration = end - start
        agg = self.layers.get(name)
        if agg is None:
            agg = self.layers[name] = [0, 0.0, 0.0]
        agg[0] += calls
        agg[1] += duration
        agg[2] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        if len(self.spans) < self.span_cap:
            self.spans.append((span_id, name, start, end, parent))
        else:
            self.spans_dropped += 1

    # -- wrappers ----------------------------------------------------------------

    def _wrap(self, name, fn, on_return, on_error):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._exit(frame)
                if on_error is not None:
                    on_error(tracer, exc)
                raise
            tracer._exit(frame)
            if on_return is not None:
                on_return(tracer, args, result)
            return result

        return traced

    def _wrap_generator(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.layers.setdefault(name, [0, 0.0, 0.0])[0] += 1
            inner = fn(*args, **kwargs)
            while True:
                frame = tracer._enter(name)
                try:
                    item = next(inner)
                except StopIteration:
                    tracer._exit(frame, calls=0)
                    return
                except Exception:
                    tracer._exit(frame, calls=0)
                    raise
                tracer._exit(frame, calls=0)
                yield item

        return traced

    def _wrap_count(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.add(name, 1)
            return fn(*args, **kwargs)

        return counted

    # -- binding -----------------------------------------------------------------

    def install(self) -> None:
        """Bind wrappers onto every target in the imported ``cartcodes``
        modules.  Modules not imported yet (``cli`` in-process) are skipped."""
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "cartcodes" or name.startswith("cartcodes."))
        }
        for name, module, attr, kind, on_return, on_error in TARGETS:
            home = modules.get(f"cartcodes.{module}")
            if home is None:
                continue
            if kind == "method":
                cls = home.Matrix
                original = cls.__dict__[attr]
                self._patch(cls, attr, self._wrap(name, original, on_return, on_error))
            elif kind in ("init", "count"):
                cls = getattr(home, attr)
                original = cls.__dict__["__init__"]
                wrapper = (
                    self._wrap_count(name, original)
                    if kind == "count"
                    else self._wrap(name, original, on_return, on_error)
                )
                self._patch(cls, "__init__", wrapper)
            else:
                original = getattr(home, attr)
                wrapper = (
                    self._wrap_generator(name, original)
                    if kind == "gen"
                    else self._wrap(name, original, on_return, on_error)
                )
                for mod in modules.values():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- export --------------------------------------------------------------------

    def export(self) -> dict:
        """Aggregates as plain JSON: layers and counters."""
        return {
            "layers": {k: list(v) for k, v in self.layers.items()},
            "counters": dict(self.counters),
        }

    def take(self) -> dict:
        """Aggregates recorded so far, as ``export`` gives them; the
        aggregates then start again from zero."""
        taken = self.export()
        self.layers, self.counters = {}, {}
        return taken

    def merge(self, exported: dict) -> None:
        """Fold in the aggregates of another process (a traced CLI child)."""
        for name, (calls, seconds, self_seconds) in exported["layers"].items():
            agg = self.layers.setdefault(name, [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += seconds
            agg[2] += self_seconds
        for name, value in exported["counters"].items():
            if name in MAX_COUNTERS:
                self.maximum(name, value)
            else:
                self.add(name, value)
