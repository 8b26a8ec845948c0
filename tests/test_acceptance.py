"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete.  The heavyweight oracle sweep (criteria 3-5) runs once and is
shared; on a single CPU it takes a few minutes.
"""

import itertools
import random
import time

import pytest

from cartcodes import (
    GF,
    CartesianSet,
    CartesianSpec,
    Matrix,
    UnivariateLcdAnalysis,
    build_context,
    detect_fault,
    dimension_formula,
    dual_spec,
    generator_matrix,
    is_lcd_bruteforce,
    is_lcd_univariate,
    min_distance_formula,
)
from sweep_support import (
    run_product_sweep,
    run_sweep,
    spot_check_product_theorems,
)

EIGHT_POINTS = (0, 2, 3, 5, 6, 8, 10, 11)


@pytest.fixture(scope="module")
def sweep_outcome():
    return run_sweep()


def _report(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS — {detail}")


def test_criterion_1_reference_regression():
    """Three 3-point codes over GF(7): exact generator matrices, exact Gram
    matrices, LCD verdicts; the recomputed Gram of the first one differs
    from the published print, with both variants nonsingular."""
    start = time.perf_counter()
    f7 = GF(7)

    cases = [
        ((0, 1, 2), (1, 1, 1), [[1, 1, 1], [0, 1, 2]], True),
        ((0, 1, 2), (1, 1, 2), [[1, 1, 2], [0, 1, 4]], False),
        ((0, 1, 3), (1, 1, 1), [[1, 1, 1], [0, 1, 3]], False),
    ]
    grams = []
    for points, scalars, expect_g, expect_lcd in cases:
        spec = CartesianSpec.from_ints(f7, [list(points)], list(scalars), 2)
        code = generator_matrix(spec)
        assert code.generator.to_json() == expect_g
        gram = code.generator @ code.generator.transpose()
        grams.append(gram)
        assert is_lcd_univariate(spec.cset.components[0], spec.scalars, 2).is_lcd == expect_lcd
        assert is_lcd_bruteforce(spec, code=code).is_lcd == expect_lcd

    assert grams[1].to_json() == [[6, 2], [2, 3]]
    assert not grams[1].is_nonsingular()
    assert grams[2].to_json() == [[3, 4], [4, 3]]
    assert not grams[2].is_nonsingular()
    # recomputed value; the published [[3,3],[3,0]] is a suspected misprint,
    # and both variants are nonsingular, so the verdict stands either way
    assert grams[0].to_json() == [[3, 3], [3, 5]]
    assert grams[0].is_nonsingular()
    assert Matrix.from_ints(f7, [[3, 3], [3, 0]]).is_nonsingular()

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"3 reference codes reproduced exactly in {elapsed * 1000:.0f} ms")


def test_criterion_2_eea_examples():
    """Remainder-degree sets and LCD degree sets for one 8-point set over
    GF(13) and GF(17), exactly as published."""
    start = time.perf_counter()
    f13, f17 = GF(13), GF(17)

    a13 = [f13.element(x) for x in EIGHT_POINTS]
    analysis13 = UnivariateLcdAnalysis(a13, [f13.one] * 8)
    assert set(analysis13.remainder_degrees) == {0, 3, 4, 5, 6, 7}
    assert analysis13.lcd_degrees() == [1, 2, 3, 4, 5, 8]

    a17 = [f17.element(x) for x in EIGHT_POINTS]
    analysis17 = UnivariateLcdAnalysis(a17, [f17.one] * 8)
    assert set(analysis17.remainder_degrees) == set(range(8))
    assert analysis17.lcd_degrees() == list(range(1, 9))

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(2, f"remainder-degree sets exact over GF(13) and GF(17) in {elapsed * 1000:.0f} ms")


@pytest.mark.slow
def test_criterion_3_oracle_equivalence(sweep_outcome):
    """Every subset A of GF(q), q in {5,7,11,13}, 2 <= |A| <= 5, every
    k < |A|, scalar transversal (exhaustive for q <= 7, 200 seeded vectors
    otherwise): remainder-degree membership, the gap rule, Gram rank, and
    the code/dual intersection must all agree."""
    o = sweep_outcome
    assert o.verdict_disagreements == []
    assert o.verdict_instances > 2_000_000
    _report(
        3,
        f"{o.verdict_instances} verdict quadruples over {o.scalar_pairs} "
        f"(set, scalars) pairs, 0 disagreements "
        f"(shared sweep: {o.elapsed_seconds:.0f}s)",
    )


@pytest.mark.slow
def test_criterion_4_dual_correctness(sweep_outcome):
    """Constructed duals are exactly orthogonal with complementary
    dimension: on the full sweep via the scalar identity plus the
    unit-scalar product matrix, and on 500 random multi-component specs
    via the public API directly."""
    o = sweep_outcome
    assert o.dual_failures == []
    assert o.dual_checks > 0

    rng = random.Random(0xD0A1CE)
    failures = 0
    for _ in range(500):
        q = rng.choice((2, 3, 5, 7))
        field = GF(q)
        m = rng.randrange(1, 4)
        comps = []
        for _ in range(m):
            size = rng.randrange(2, min(4, q) + 1)
            comps.append(sorted(rng.sample(range(q), size)))
        cset = CartesianSet.from_ints(field, comps)
        cap = sum(s - 1 for s in cset.sizes)
        k = rng.randrange(1, cap + 1)
        scalars = tuple(field.element(rng.randrange(1, q)) for _ in range(cset.size))
        spec = CartesianSpec(cset, scalars, k)
        dual = dual_spec(spec)
        G = generator_matrix(spec).generator
        Gd = generator_matrix(dual).generator
        if any(x.val for row in (G @ Gd.transpose()).rows for x in row):
            failures += 1
        if dimension_formula(spec) + dimension_formula(dual) != spec.n:
            failures += 1
    assert failures == 0
    _report(
        4,
        f"{o.dual_checks} sweep dual checks + 500 random multi-component "
        f"specs: exact orthogonality and complementary dimensions, 0 failures",
    )


@pytest.mark.slow
def test_criterion_5_parameters_vs_bruteforce(sweep_outcome):
    """Closed-form dimension equals generator rank and closed-form distance
    equals brute-force minimum weight on the sweep's (set, degree) pairs
    (unit scalars plus one seeded-random vector each — the parameters are
    invariant under column scaling); every one-component code is MDS."""
    o = sweep_outcome
    assert o.param_failures == []
    assert o.param_checks > 10_000
    _report(
        5,
        f"{o.param_checks} parameter checks (rank, brute-force distance, MDS), 0 failures",
    )


@pytest.mark.slow
def test_criterion_6_product_theorems():
    """Over every ordered pair of GF(7) subsets of sizes 2-3 with exhaustive
    per-component scalar transversals: the component-sufficiency rule never
    fires on a non-LCD product, and all-components-non-LCD products are
    never LCD.  Brute-force verdicts are memoized by squared scalars (sign
    flips provably change neither route; the property suite verifies that
    invariance)."""
    outcome = run_product_sweep()
    assert outcome.sufficiency_contradictions == []
    assert outcome.nonlcd_contradictions == []
    assert outcome.sufficiency_fires > 100_000
    assert outcome.nonlcd_fires > 10_000
    spot_checked = spot_check_product_theorems()
    assert spot_checked == 200
    mixed_note = (
        f"mixed-component probe: {outcome.mixed_product_lcd} of "
        f"{outcome.mixed_cases} one-bad-component products were still LCD"
    )
    _report(
        6,
        f"{outcome.sufficiency_checks} sufficiency checks "
        f"({outcome.sufficiency_fires} fired) and {outcome.nonlcd_checks} "
        f"non-LCD product checks, 0 contradictions "
        f"({outcome.bruteforce_evaluations} memoized brute-force verdicts, "
        f"{outcome.elapsed_seconds:.0f}s; 200 API spot checks; {mixed_note})",
    )


def test_criterion_7_masking_demo():
    """Exhaustive fault injection on the GF(7) reference code: exactly the
    49 codewords go undetected out of 343 faults, and every weight-1 fault
    is caught (minimum distance 2)."""
    start = time.perf_counter()
    f7 = GF(7)
    spec = CartesianSpec.from_ints(f7, [[0, 1, 2]], [1, 1, 1], 2)
    ctx = build_context(spec)
    d, _ = min_distance_formula(spec)
    assert d == 2
    codewords = set(ctx.code.codewords())
    assert len(codewords) == 49

    rng = random.Random(7)
    z = tuple(f7.element(rng.randrange(7)) for _ in range(3))
    undetected = 0
    for fault in itertools.product(f7.elements(), repeat=3):
        detected = detect_fault(ctx, z, fault)
        assert detected == (fault not in codewords)
        if not detected:
            undetected += 1
        weight = sum(1 for x in fault if x.val)
        if 0 < weight < d:
            assert detected
    assert undetected == 49

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(
        7,
        f"343 exhaustive faults: 49 undetected (all codewords), every "
        f"weight-1 fault detected, in {elapsed * 1000:.0f} ms",
    )


def test_criterion_8_property_harness():
    """The invariant suite in test_properties.py runs every module-level
    property with >= 1000 cases and fixed seeds; this criterion asserts the
    harness configuration and that it is part of the same pytest run."""
    import test_properties

    assert test_properties.CASES >= 1000
    property_tests = [
        name for name in dir(test_properties) if name.startswith("test_")
    ]
    assert len(property_tests) >= 20
    _report(
        8,
        f"property harness: {len(property_tests)} property tests, "
        f"{test_properties.CASES}+ cases each, fixed seeds "
        f"(executed in this pytest run)",
    )
