import itertools
import random

import pytest

from cartcodes import (
    GF,
    BudgetExceededError,
    CartesianSpec,
    NotLcdError,
    build_context,
    detect_fault,
    dual_spec,
    generator_matrix,
    masking_transcript,
    split,
)

F7 = GF(7)

LCD_SPEC = CartesianSpec.from_ints(F7, [[0, 1, 2]], [1, 1, 1], 2)
NON_LCD_SPEC = CartesianSpec.from_ints(F7, [[0, 1, 2]], [1, 1, 2], 2)


def vec(field, *vals):
    return tuple(field.element(v) for v in vals)


def test_build_context_valid():
    ctx = build_context(LCD_SPEC)
    assert ctx.code.dimension == 2
    assert ctx.parity.nrows == 1
    assert ctx.code.generator.vstack(ctx.parity).rank() == 3


def test_build_context_rejects_non_lcd():
    with pytest.raises(NotLcdError) as err:
        build_context(NON_LCD_SPEC)
    witness = err.value.witness
    assert witness is not None and witness.nrows >= 1
    G = generator_matrix(NON_LCD_SPEC).generator
    for row in witness.rows:
        assert G.row_space_contains(row)


def test_build_context_full_space_degenerate():
    spec = CartesianSpec.from_ints(F7, [[0, 1, 2]], [1, 1, 1], 3)
    ctx = build_context(spec)
    assert ctx.parity.nrows == 0
    z = vec(F7, 4, 2, 6)
    x_part, y_part = split(ctx, z)
    assert y_part == ()
    assert detect_fault(ctx, z, vec(F7, 1, 0, 0)) is False  # everything is a codeword


def test_parity_matches_nullspace_row_space():
    ctx = build_context(LCD_SPEC)
    ns = ctx.code.generator.nullspace()
    assert ctx.parity.same_row_space(ns)
    dual = dual_spec(LCD_SPEC)
    assert ctx.parity == generator_matrix(dual).generator


def test_split_basis_rows():
    ctx = build_context(LCD_SPEC)
    for i, row in enumerate(ctx.code.generator.rows):
        x_part, y_part = split(ctx, row)
        expected = [F7.zero] * ctx.code.dimension
        expected[i] = F7.one
        assert list(x_part) == expected
        assert all(y.val == 0 for y in y_part)


def test_split_zero_and_recomposition():
    ctx = build_context(LCD_SPEC)
    x_part, y_part = split(ctx, vec(F7, 0, 0, 0))
    assert all(x.val == 0 for x in x_part) and all(y.val == 0 for y in y_part)
    rng = random.Random(41)
    for _ in range(50):
        z = tuple(F7.element(rng.randrange(7)) for _ in range(3))
        x_part, y_part = split(ctx, z)  # split itself verifies recomposition
        recombined = list(ctx.code.generator.row_vector_mul(x_part))
        for i, value in enumerate(ctx.parity.row_vector_mul(y_part)):
            recombined[i] = recombined[i] + value
        assert tuple(recombined) == z


def test_split_linearity():
    ctx = build_context(LCD_SPEC)
    rng = random.Random(42)
    for _ in range(100):
        z1 = tuple(F7.element(rng.randrange(7)) for _ in range(3))
        z2 = tuple(F7.element(rng.randrange(7)) for _ in range(3))
        s = tuple(a + b for a, b in zip(z1, z2))
        x1, y1 = split(ctx, z1)
        x2, y2 = split(ctx, z2)
        xs, ys = split(ctx, s)
        assert xs == tuple(a + b for a, b in zip(x1, x2))
        assert ys == tuple(a + b for a, b in zip(y1, y2))


def test_split_length_check():
    ctx = build_context(LCD_SPEC)
    with pytest.raises(ValueError):
        split(ctx, vec(F7, 1, 2))


def test_detect_fault_examples():
    ctx = build_context(LCD_SPEC)
    z = vec(F7, 3, 1, 4)
    for message in itertools.product(F7.elements(), repeat=2):
        codeword = ctx.code.generator.row_vector_mul(message)
        assert detect_fault(ctx, z, codeword) is False
    assert detect_fault(ctx, z, vec(F7, 0, 0, 0)) is False
    for pos in range(3):
        for value in range(1, 7):
            fault = [0, 0, 0]
            fault[pos] = value
            assert detect_fault(ctx, z, vec(F7, *fault)) is True  # weight 1 < d = 2


def test_detection_is_membership_and_z_independent():
    ctx = build_context(LCD_SPEC)
    rng = random.Random(43)
    zs = [tuple(F7.element(rng.randrange(7)) for _ in range(3)) for _ in range(3)]
    for fault in itertools.product(F7.elements(), repeat=3):
        expected = not ctx.code.contains(fault)
        for z in zs:
            assert detect_fault(ctx, z, fault) is expected


def test_transcript_seeded_runs():
    transcript = masking_transcript(LCD_SPEC, trials=60, seed=5)
    assert transcript["faults_injected"] == 60
    assert transcript["detected"] + transcript["missed"] == 60
    assert transcript["all_missed_in_C"] is True
    assert transcript["low_weight_missed"] == 0
    assert transcript["code_params"] == {"n": 3, "dim": 2, "d": 2}
    assert transcript["security_degree"] == 1
    again = masking_transcript(LCD_SPEC, trials=60, seed=5)
    assert again == transcript


def test_transcript_exhaustive():
    transcript = masking_transcript(LCD_SPEC, exhaustive=True, brute_budget=10**4)
    assert transcript["faults_injected"] == 343
    assert transcript["missed"] == 49
    assert transcript["detected"] == 343 - 49
    assert transcript["all_missed_in_C"] is True
    assert transcript["low_weight_missed"] == 0


def test_transcript_exhaustive_has_a_budget():
    # 13^8 faults, refused before the LCD check: this code is not LCD.
    F13 = GF(13)
    spec = CartesianSpec.from_ints(F13, [list(range(8))], [1] * 8, 6)
    with pytest.raises(BudgetExceededError) as err:
        masking_transcript(spec, exhaustive=True)
    assert err.value.required == 13**8
    with pytest.raises(NotLcdError):
        masking_transcript(spec, trials=1)
