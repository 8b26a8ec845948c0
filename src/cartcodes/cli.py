"""Command-line interface.

Subcommands: params, dual, lcd, search, masking, reproduce-paper.
Exit codes: 0 success; 1 a checked property does not hold; 2 usage error;
3 internal inconsistency (two routes that must agree disagreed — a bug).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from .codes import (
    DEFAULT_BRUTE_BUDGET,
    CartesianSpec,
    dimension_formula,
    dual_spec,
    generator_matrix,
    parameter_report,
)
from .errors import BudgetExceededError, InconsistencyError, NotLcdError
from .field import Field
from .linalg import Matrix
from .lcd import (
    UnivariateLcdAnalysis,
    cartesian_scalars,
    is_lcd_bruteforce,
    is_lcd_product_sufficient,
    is_lcd_univariate,
    search_lcd,
)
from .masking import masking_transcript
from .multipoly import CartesianSet


class UsageError(ValueError):
    """Bad configuration; maps to exit code 2 and names the offending flag."""


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# -- config parsing ---------------------------------------------------------------


def parse_field(text: str) -> Field:
    """p, p^e, or p^e:c0,c1,...,ce (little-endian modulus)."""
    mod = None
    if ":" in text:
        text, mod_text = text.split(":", 1)
        try:
            mod = [int(c) for c in mod_text.split(",")]
        except ValueError as exc:
            raise UsageError(f"--field: bad modulus {mod_text!r}") from exc
    try:
        if "^" in text:
            p_text, e_text = text.split("^", 1)
            p, e = int(p_text), int(e_text)
        else:
            p, e = int(text), 1
    except ValueError as exc:
        raise UsageError(f"--field: expected p or p^e, got {text!r}") from exc
    try:
        return Field(p, e, mod)
    except ValueError as exc:
        raise UsageError(f"--field: {exc}") from exc


def parse_components(field: Field, text: str) -> CartesianSet:
    """Semicolon-separated components, each a comma list of element codes."""
    try:
        comps = [
            [field.element(int(x)) for x in part.split(",") if x != ""]
            for part in text.split(";")
        ]
        return CartesianSet(comps)
    except ValueError as exc:
        raise UsageError(f"--set: {exc}") from exc


def parse_scalars(field: Field, cset: CartesianSet, text: str):
    """'ones', a full-length comma list, or per-component lists joined by
    semicolons (their product vector is used)."""
    if text == "ones":
        return (field.one,) * cset.size
    try:
        if ";" in text:
            vectors = [
                [field.element(int(x)) for x in part.split(",")]
                for part in text.split(";")
            ]
            if [len(v) for v in vectors] != list(cset.sizes):
                raise ValueError(
                    f"per-component scalar lengths {[len(v) for v in vectors]} "
                    f"do not match component sizes {list(cset.sizes)}"
                )
            return cartesian_scalars(vectors)
        flat = [field.element(int(x)) for x in text.split(",")]
        if len(flat) != cset.size:
            raise ValueError(f"expected {cset.size} scalars, got {len(flat)}")
        if any(v.val == 0 for v in flat):
            raise ValueError("scalars must be nonzero")
        return tuple(flat)
    except ValueError as exc:
        raise UsageError(f"--scalars: {exc}") from exc


def parse_range(text: str, flag: str) -> list[int]:
    """N or LO:HI, at most ``DEFAULT_BRUTE_BUDGET`` values."""
    try:
        if ":" in text:
            lo, hi = text.split(":", 1)
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise ValueError("empty range")
        else:
            lo = hi = int(text)
    except ValueError as exc:
        raise UsageError(f"{flag}: expected N or LO:HI, got {text!r}") from exc
    if hi - lo >= DEFAULT_BRUTE_BUDGET:
        raise UsageError(
            f"{flag}: {text!r} spans {hi - lo + 1} values, more than {DEFAULT_BRUTE_BUDGET}"
        )
    return list(range(lo, hi + 1))


def parse_scalar_policy(text: str) -> str:
    """'ones', 'exhaustive', or 'random:N' with N >= 1."""
    kind, _, count = text.partition(":")
    if text in ("ones", "exhaustive"):
        return text
    if kind == "random" and count.isdecimal():
        if int(count) >= 1:
            return text
        raise UsageError(f"--scalar-policy: random:N needs N >= 1, got {text!r}")
    raise UsageError(
        f"--scalar-policy: expected 'ones', 'exhaustive' or 'random:N', got {text!r}"
    )


def build_spec(args) -> CartesianSpec:
    field = parse_field(args.field)
    cset = parse_components(field, args.set)
    scalars = parse_scalars(field, cset, args.scalars)
    try:
        return CartesianSpec(cset, scalars, args.k)
    except ValueError as exc:
        raise UsageError(f"--k: {exc}") from exc


# -- subcommands -------------------------------------------------------------------


def _check_at_least(value: int, low: int, flag: str) -> None:
    if value < low:
        raise UsageError(f"{flag}: must be at least {low}, got {value}")


def cmd_params(args) -> int:
    if args.budget is not None:
        _check_at_least(args.budget, 0, "--budget")
    spec = build_spec(args)
    code = generator_matrix(spec)
    report = parameter_report(spec, brute_budget=args.budget, code=code)
    rank = code.generator.rank()
    if rank != report["dim"]:
        raise InconsistencyError(
            f"generator rank {rank} != dimension formula {report['dim']}"
        )
    if args.json:
        print(_dump(report))
        return 0
    print(f"n   = {report['n']}")
    print(f"dim = {report['dim']} (rank cross-check: {rank})")
    line = f"d   = {report['d_formula']} (closed form)"
    if "d_bruteforce" in report:
        line += f", {report['d_bruteforce']} (brute force)"
    print(line)
    print(f"MDS = {'yes' if report['mds'] else 'no'}")
    if report.get("full_space"):
        print("note: degree at or above the cap; the code is the full space")
    return 0


def cmd_dual(args) -> int:
    spec = build_spec(args)
    dual = dual_spec(spec)
    if dual is None:
        out = {"zero_dual": True, "k": spec.k, "n": spec.n}
        print(_dump(out) if args.json else "dual is the zero code (full-space input)")
        return 0
    G = generator_matrix(spec).generator
    Gd = generator_matrix(dual).generator
    product = G @ Gd.transpose()
    if any(any(row) for row in product.vals):
        raise InconsistencyError("dual generator is not orthogonal to the code")
    if dimension_formula(spec) + dimension_formula(dual) != spec.n:
        raise InconsistencyError("dimensions of code and dual do not sum to n")
    out = {
        "k_dual": dual.k,
        "scalars_dual": [v.to_json() for v in dual.scalars],
        "generator_dual": Gd.to_json(),
        "verified": {"orthogonal": True, "dimension_sum": spec.n},
    }
    if args.json:
        print(_dump(out))
    else:
        print(f"k' = {dual.k}")
        print(f"v' = {','.join(str(v) for v in dual.scalars)}")
        print("dual generator:")
        print(Gd)
        print("verified: G (G')^T = 0 and dim + dim' = n")
    return 0


def cmd_lcd(args) -> int:
    field = parse_field(args.field)
    cset = parse_components(field, args.set)
    scalars = parse_scalars(field, cset, args.scalars)
    if args.k_range is None and args.k is None:
        raise UsageError("--k: one of --k or --k-range is required")
    ks = parse_range(args.k_range, "--k-range") if args.k_range else [args.k]
    all_lcd = True
    records = []
    analysis = None
    if cset.nvars == 1:
        analysis = UnivariateLcdAnalysis(cset.components[0], scalars)
    for k in ks:
        try:
            spec = CartesianSpec(cset, scalars, k)
        except ValueError as exc:
            raise UsageError(f"--k: {exc}") from exc
        if cset.nvars == 1:
            report = is_lcd_univariate(cset.components[0], scalars, k, analysis=analysis)
        else:
            report = is_lcd_bruteforce(spec)
        all_lcd = all_lcd and report.is_lcd
        records.append(report)
    if args.json:
        for report in records:
            print(_dump(report.to_json()))
    else:
        for report in records:
            extra = ""
            if report.eea_degrees is not None:
                extra = f"  remainder degrees {sorted(report.eea_degrees)}"
            print(f"k={report.spec.k}: {'LCD' if report.is_lcd else 'not LCD'}"
                  f" [{report.method}]{extra}")
    if args.expect_lcd and not all_lcd:
        return 1
    return 0


def cmd_search(args) -> int:
    field = parse_field(args.field)
    _check_at_least(args.m, 1, "--m")
    sizes = parse_range(args.sizes, "--sizes")
    _check_at_least(min(sizes), 1, "--sizes")
    if max(sizes) > field.order:
        raise UsageError(
            f"--sizes: a component of {max(sizes)} points does not fit in {field}"
        )
    # m > 1 runs the oracle's n x n elimination; past the cap, 2^m alone is too big
    n = max(sizes) ** min(args.m, DEFAULT_BRUTE_BUDGET.bit_length())
    if args.m > 1 and n * n > DEFAULT_BRUTE_BUDGET:
        raise UsageError(f"--m: a grid of {max(sizes)}^{args.m} points is too big for the oracle")
    ks = parse_range(args.k_range, "--k-range")
    _check_at_least(min(ks), 1, "--k-range")
    _check_at_least(args.budget, 0, "--budget")
    for record in search_lcd(
        field,
        args.m,
        sizes,
        ks,
        scalar_policy=parse_scalar_policy(args.scalar_policy),
        budget=args.budget,
        seed=args.seed,
    ):
        print(_dump(record.to_json()))
    return 0


def cmd_masking(args) -> int:
    _check_at_least(args.trials, 0, "--trials")
    spec = build_spec(args)
    try:
        transcript = masking_transcript(
            spec,
            trials=args.trials,
            seed=args.seed,
            exhaustive=args.exhaustive,
        )
    except BudgetExceededError as exc:
        raise UsageError(f"--exhaustive: {exc}") from exc
    if args.json:
        print(_dump(transcript))
    else:
        params = transcript["code_params"]
        print(f"code: n={params['n']} dim={params['dim']} d={params['d']}"
              f" (security degree {transcript['security_degree']})")
        print(f"faults injected: {transcript['faults_injected']}")
        print(f"detected: {transcript['detected']}  missed: {transcript['missed']}")
        print(f"every miss was a codeword: {transcript['all_missed_in_C']}")
    if not transcript["all_missed_in_C"] or transcript["low_weight_missed"]:
        return 1
    return 0


# -- the published worked examples ---------------------------------------------------


def reference_example_checks() -> list[dict]:
    """Re-run the published worked examples and report expected vs computed.

    Each record carries ``ok`` plus enough detail to see any mismatch.
    """
    checks = []

    def record(name, ok, expected, computed, note=None):
        entry = {"name": name, "ok": bool(ok), "expected": expected, "computed": computed}
        if note:
            entry["note"] = note
        checks.append(entry)

    f7 = Field(7)

    # Three 3-point codes over GF(7): generator, Gram matrix, verdict.
    gf7_cases = [
        ("gf7-012-ones", (0, 1, 2), (1, 1, 1), [[1, 1, 1], [0, 1, 2]], None, True),
        ("gf7-012-112", (0, 1, 2), (1, 1, 2), [[1, 1, 2], [0, 1, 4]], [[6, 2], [2, 3]], False),
        ("gf7-013-ones", (0, 1, 3), (1, 1, 1), [[1, 1, 1], [0, 1, 3]], [[3, 4], [4, 3]], False),
    ]
    for name, points, scalars, expect_g, expect_gram, expect_lcd in gf7_cases:
        spec = CartesianSpec.from_ints(f7, [list(points)], list(scalars), 2)
        code = generator_matrix(spec)
        g = code.generator.to_json()
        gram = (code.generator @ code.generator.transpose()).to_json()
        eea = is_lcd_univariate(spec.cset.components[0], spec.scalars, 2)
        brute = is_lcd_bruteforce(spec, code=code)
        ok = g == expect_g and eea.is_lcd == expect_lcd and brute.is_lcd == expect_lcd
        note = None
        if expect_gram is None:
            # The reference prints [[3,3],[3,0]] here, but recomputing the
            # (2,2) entry gives 0^2+1^2+2^2 = 5; both versions are
            # nonsingular, so the LCD verdict is unaffected.
            recomputed = [[3, 3], [3, 5]]
            printed = [[3, 3], [3, 0]]
            printed_ok = (
                Matrix.from_ints(f7, printed).is_nonsingular()
                and Matrix.from_ints(f7, recomputed).is_nonsingular()
            )
            ok = ok and gram == recomputed and printed_ok
            note = (
                "published Gram [[3,3],[3,0]] is a suspected misprint; "
                "recomputed [[3,3],[3,5]]; both nonsingular, verdict unaffected"
            )
        else:
            gram_matrix = Matrix.from_ints(f7, expect_gram)
            ok = ok and gram == expect_gram and not gram_matrix.is_nonsingular()
        record(
            name,
            ok,
            {"generator": expect_g, "lcd": expect_lcd, "gram": expect_gram or [[3, 3], [3, 5]]},
            {"generator": g, "lcd": brute.is_lcd, "gram": gram},
            note,
        )

    # Euclidean remainder degrees for one 8-point set over two fields.
    eea_cases = [
        ("gf13-eea", 13, {0, 3, 4, 5, 6, 7}, [1, 2, 3, 4, 5, 8]),
        ("gf17-eea", 17, set(range(8)), [1, 2, 3, 4, 5, 6, 7, 8]),
    ]
    points = (0, 2, 3, 5, 6, 8, 10, 11)
    for name, p, expect_degrees, expect_ks in eea_cases:
        field = Field(p)
        elems = [field.element(x) for x in points]
        analysis = UnivariateLcdAnalysis(elems, [field.one] * len(points))
        degrees = set(analysis.remainder_degrees)
        lcd_ks = analysis.lcd_degrees()
        ok = degrees == expect_degrees and lcd_ks == expect_ks
        record(
            name,
            ok,
            {"degrees": sorted(expect_degrees), "lcd_k": expect_ks},
            {"degrees": sorted(degrees), "lcd_k": lcd_ks},
        )

    # Two-component grids built from the same 8-point set: the component
    # criterion promises LCD for low degrees; brute force must concur.
    for name, p, k_max in (("gf13-grid", 13, 5), ("gf17-grid", 17, 8)):
        field = Field(p)
        elems = [field.element(x) for x in points]
        ones = [field.one] * len(points)
        ok = True
        verdicts = {}
        for k in range(1, k_max + 1):
            sufficient = is_lcd_product_sufficient([(elems, ones), (elems, ones)], k)
            grid = CartesianSet([elems, elems])
            spec = CartesianSpec(grid, cartesian_scalars([ones, ones]), k)
            brute = is_lcd_bruteforce(spec)
            verdicts[k] = {"sufficient": sufficient, "bruteforce": brute.is_lcd}
            ok = ok and sufficient == "lcd" and brute.is_lcd
        record(
            name,
            ok,
            {"lcd_for_k": list(range(1, k_max + 1))},
            {"verdicts": verdicts},
        )
    return checks


def cmd_reproduce_paper(args) -> int:
    checks = reference_example_checks()
    failed = [c for c in checks if not c["ok"]]
    if args.json:
        print(_dump({"checks": checks, "passed": len(checks) - len(failed), "total": len(checks)}))
    else:
        for c in checks:
            status = "PASS" if c["ok"] else "FAIL"
            print(f"[{status}] {c['name']}")
            if c.get("note"):
                print(f"       note: {c['note']}")
            if not c["ok"]:
                print(f"       expected: {_dump(c['expected'])}")
                print(f"       computed: {_dump(c['computed'])}")
        print(f"{len(checks) - len(failed)}/{len(checks)} reference examples reproduced")
    return 1 if failed else 0


# -- argument wiring ---------------------------------------------------------------


def _add_spec_flags(sub, with_k=True):
    sub.add_argument("--field", required=True, help="p, p^e, or p^e:mod coeffs")
    sub.add_argument("--set", required=True, help="components, e.g. '0,1,2;0,1'")
    sub.add_argument(
        "--scalars",
        default="ones",
        help="'ones', full comma list, or per-component lists joined by ';'",
    )
    if with_k:
        sub.add_argument("--k", type=int, help="evaluation degree bound")
    sub.add_argument("--json", action="store_true", help="machine-readable output")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cartcodes",
        description=(
            "Cartesian evaluation codes over finite fields: parameters, duals, "
            "LCD decisions, LCD search, and a masking demo."
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("params", help="length, dimension, minimum distance")
    _add_spec_flags(p)
    p.add_argument("--budget", type=int, default=None,
                   help="enumerate codewords for a brute-force distance check")
    p.set_defaults(func=cmd_params)

    p = subs.add_parser("dual", help="construct and verify the dual code")
    _add_spec_flags(p)
    p.set_defaults(func=cmd_dual)

    p = subs.add_parser("lcd", help="decide the LCD property")
    _add_spec_flags(p)
    p.add_argument("--k-range", help="LO:HI to scan several degrees")
    p.add_argument("--expect-lcd", action="store_true",
                   help="exit 1 unless every checked degree is LCD")
    p.set_defaults(func=cmd_lcd)

    p = subs.add_parser("search", help="enumerate candidate codes (NDJSON)")
    p.add_argument("--field", required=True)
    p.add_argument("--m", type=int, default=1, help="number of components")
    p.add_argument("--sizes", required=True, help="component size or LO:HI")
    p.add_argument("--k-range", required=True, help="degree or LO:HI")
    p.add_argument("--scalar-policy", default="ones",
                   help="'ones', 'exhaustive', or 'random:N'")
    p.add_argument("--budget", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_search)

    p = subs.add_parser("masking", help="direct-sum masking fault-detection demo")
    _add_spec_flags(p)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--exhaustive", action="store_true",
                   help="inject every possible fault vector")
    p.set_defaults(func=cmd_masking)

    p = subs.add_parser(
        "reproduce-paper",
        help="re-run the published worked examples and verify every value",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_reproduce_paper)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NotLcdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # The reader closed stdout early (as `| head` does).  Point stdout at
        # the null device, so that the flush at exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
