"""Direct-sum masking with an LCD code.

An LCD code C splits K^n as C ⊕ C⊥, so any state vector z decomposes
uniquely as z = x'G + yH with G a generator of C and H a generator of C⊥.
Equivalently, the n x n stack S of G over H is invertible (Massey 1992):
(x', y) is z S^(-1), cut after the first k coordinates.  An additive fault
ε on z changes y exactly when ε is outside C — so every fault of weight
below the minimum distance of C is detected.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Sequence

from .codes import (
    DEFAULT_BRUTE_BUDGET,
    CartesianSpec,
    LinearCode,
    dual_spec,
    generator_matrix,
    min_distance_formula,
)
from .errors import BudgetExceededError, InconsistencyError, NotLcdError, SingularMatrixError
from .field import FieldElement
from .lcd import is_lcd_bruteforce
from .linalg import Matrix


@dataclass
class MaskingContext:
    """Everything needed to split vectors and check faults for one code."""

    spec: CartesianSpec
    code: LinearCode
    parity: Matrix  # rows span the dual code
    stack: Matrix  # the generator rows over the parity rows, n x n
    stack_inv: Matrix

    @property
    def n(self) -> int:
        return self.code.n


def build_context(spec: CartesianSpec) -> MaskingContext:
    """Verify the code is LCD and invert the stack of its generator over
    the dual's.

    The parity rows come from the constructive dual (same set, reflected
    degree, reciprocal scalars) rather than from a nullspace computation;
    tests cross-check that both give the same row space.  A full-space code
    yields a degenerate context with an empty parity part.
    """
    code = generator_matrix(spec)
    report = is_lcd_bruteforce(spec, code=code)
    if not report.is_lcd:
        raise NotLcdError(
            f"cannot build a masking context: {spec!r} is not LCD",
            witness=report.witness,
        )
    dual = dual_spec(spec)
    if dual is None:
        parity = Matrix.empty(spec.field, spec.n)
    else:
        parity = generator_matrix(dual).generator
    # C ⊕ C⊥ must fill the whole space; anything else is a bug upstream.
    if code.dimension + parity.nrows != spec.n:
        raise InconsistencyError("code and dual dimensions do not fill the space")
    stack = code.generator.vstack(parity)
    try:
        stack_inv = stack.inverse()
    except SingularMatrixError as exc:
        raise InconsistencyError("code plus dual failed to span the space") from exc
    return MaskingContext(spec=spec, code=code, parity=parity, stack=stack, stack_inv=stack_inv)


def split(
    ctx: MaskingContext, z: Sequence[FieldElement]
) -> tuple[tuple[FieldElement, ...], tuple[FieldElement, ...]]:
    """Unique coordinates (x', y) with z = x'G + yH: z times the inverse of
    the stack, cut after the first k coordinates."""
    if len(z) != ctx.n:
        raise ValueError(f"expected a vector of length {ctx.n}, got {len(z)}")
    coords = ctx.stack_inv.row_vector_mul(z)
    if ctx.stack.row_vector_mul(coords) != tuple(z):
        raise InconsistencyError("projection did not recompose to the input")
    k = ctx.code.dimension
    return coords[:k], coords[k:]


def detect_fault(
    ctx: MaskingContext,
    z: Sequence[FieldElement],
    fault: Sequence[FieldElement],
) -> bool:
    """True when the additive fault moves the dual coordinate, i.e. exactly
    when the fault vector is not a codeword."""
    if len(fault) != ctx.n:
        raise ValueError(f"expected a fault of length {ctx.n}, got {len(fault)}")
    return _moves_dual(ctx, z, split(ctx, z)[1], fault)


def _moves_dual(ctx: MaskingContext, z, y_clean, fault) -> bool:
    """Whether z + fault has a dual coordinate other than ``y_clean``, the
    dual coordinate of z."""
    faulted = tuple(a + b for a, b in zip(z, fault))
    return split(ctx, faulted)[1] != y_clean


def masking_transcript(
    spec: CartesianSpec,
    trials: int = 100,
    seed: int = 0,
    exhaustive: bool = False,
) -> dict:
    """Run seeded (or exhaustive) fault injections and summarize.

    Every miss must be a codeword; the transcript records whether that held
    and the security figure d - 1 implied by the minimum distance.  The
    exhaustive run enumerates q^n faults and raises
    :class:`BudgetExceededError` up front when that exceeds
    ``DEFAULT_BRUTE_BUDGET``.
    """
    field = spec.field
    n = spec.n
    if exhaustive and field.order**n > DEFAULT_BRUTE_BUDGET:
        raise BudgetExceededError(field.order**n, DEFAULT_BRUTE_BUDGET)
    ctx = build_context(spec)
    d, _ = min_distance_formula(spec)
    rng = random.Random(seed)
    get, q = field._get, field.order

    def random_vector():
        # the stream rng.choice(field.elements()) would draw, without the list
        return tuple(get(rng.randrange(q)) for _ in range(n))

    if exhaustive:
        # every fault probes one z, so it is split once
        z = random_vector()
        y_clean = split(ctx, z)[1]
        faults = itertools.product(field.elements(), repeat=n)
    else:
        z = None
        faults = (random_vector() for _ in range(trials))

    injected = detected = missed = 0
    missed_outside_code = 0
    low_weight_missed = 0
    for fault in faults:
        injected += 1
        weight = sum(1 for x in fault if x.val)
        if z is None:
            moved = detect_fault(ctx, random_vector(), fault)
        else:
            moved = _moves_dual(ctx, z, y_clean, fault)
        if moved:
            detected += 1
        else:
            missed += 1
            if not ctx.code.contains(fault):
                missed_outside_code += 1
            if 0 < weight < d:
                low_weight_missed += 1
    return {
        "code_params": {"n": n, "dim": ctx.code.dimension, "d": d},
        "security_degree": d - 1,
        "trials": injected,
        "faults_injected": injected,
        "detected": detected,
        "missed": missed,
        "all_missed_in_C": missed_outside_code == 0,
        "low_weight_missed": low_weight_missed,
        "seed": seed,
        "exhaustive": exhaustive,
    }
