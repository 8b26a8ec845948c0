"""Direct-sum masking with an LCD code.

An LCD code C splits K^n as C ⊕ C⊥, so any state vector z decomposes
uniquely as z = x'G + yH with G a generator of C and H a generator of C⊥.
The y part is recoverable by projection, and an additive fault ε on z
changes y exactly when ε is outside C — so every fault of weight below the
minimum distance of C is detected.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .codes import (
    DEFAULT_BRUTE_BUDGET,
    CartesianSpec,
    LinearCode,
    brute_force_min_distance,
    dual_spec,
    generator_matrix,
    min_distance_formula,
)
from .errors import BudgetExceededError, InconsistencyError, NotLcdError
from .field import FieldElement
from .lcd import is_lcd_bruteforce
from .linalg import Matrix


@dataclass
class MaskingContext:
    """Everything needed to split vectors and check faults for one code."""

    spec: CartesianSpec
    code: LinearCode
    parity: Matrix  # rows span the dual code
    gram_inv: Matrix  # (G G^T)^(-1)
    parity_gram_inv: Matrix  # (H H^T)^(-1)

    @property
    def n(self) -> int:
        return self.code.n


def build_context(spec: CartesianSpec) -> MaskingContext:
    """Verify the code is LCD and precompute both projection inverses.

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
    G = code.generator
    gram_inv = (G @ G.transpose()).inverse()
    parity_gram_inv = (parity @ parity.transpose()).inverse()
    ctx = MaskingContext(
        spec=spec,
        code=code,
        parity=parity,
        gram_inv=gram_inv,
        parity_gram_inv=parity_gram_inv,
    )
    # C ⊕ C⊥ must fill the whole space; anything else is a bug upstream.
    if code.dimension + parity.nrows != spec.n:
        raise InconsistencyError("code and dual dimensions do not fill the space")
    if G.vstack(parity).rank() != spec.n:
        raise InconsistencyError("code plus dual failed to span the space")
    return ctx


def split(
    ctx: MaskingContext, z: Sequence[FieldElement]
) -> tuple[tuple[FieldElement, ...], tuple[FieldElement, ...]]:
    """Unique coordinates (x', y) with z = x'G + yH, by projection."""
    if len(z) != ctx.n:
        raise ValueError(f"expected a vector of length {ctx.n}, got {len(z)}")
    G, H = ctx.code.generator, ctx.parity
    field = G.field
    dot, get = field.dot, field._get
    z_codes = field._codes_of(z)
    # z G^T and z H^T: one dot product per code row (H may have no rows)
    x_part = ctx.gram_inv.row_vector_mul([get(dot(row, z_codes)) for row in G.vals])
    y_part = ctx.parity_gram_inv.row_vector_mul([get(dot(row, z_codes)) for row in H.vals])
    if G.vstack(H).row_vector_mul(x_part + y_part) != tuple(z):
        raise InconsistencyError("projection did not recompose to the input")
    return x_part, y_part


def detect_fault(
    ctx: MaskingContext,
    z: Sequence[FieldElement],
    fault: Sequence[FieldElement],
) -> bool:
    """True when the additive fault moves the dual coordinate, i.e. exactly
    when the fault vector is not a codeword."""
    if len(fault) != ctx.n:
        raise ValueError(f"expected a fault of length {ctx.n}, got {len(fault)}")
    _, y_clean = split(ctx, z)
    faulted = tuple(a + b for a, b in zip(z, fault))
    _, y_faulted = split(ctx, faulted)
    return y_faulted != y_clean


def masking_transcript(
    spec: CartesianSpec,
    trials: int = 100,
    seed: int = 0,
    exhaustive: bool = False,
    brute_budget: Optional[int] = None,
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
    if brute_budget:
        d_check = brute_force_min_distance(ctx.code, brute_budget)
        if d_check != d:
            raise InconsistencyError(
                f"distance formula {d} disagrees with enumeration {d_check}"
            )
    rng = random.Random(seed)
    get, q = field._get, field.order

    def random_vector():
        # the stream rng.choice(field.elements()) would draw, without the list
        return tuple(get(rng.randrange(q)) for _ in range(n))

    if exhaustive:
        z = random_vector()
        faults = itertools.product(field.elements(), repeat=n)
    else:
        z = None
        faults = (random_vector() for _ in range(trials))

    injected = detected = missed = 0
    missed_outside_code = 0
    low_weight_missed = 0
    for fault in faults:
        probe_z = z if z is not None else random_vector()
        injected += 1
        weight = sum(1 for x in fault if x.val)
        if detect_fault(ctx, probe_z, fault):
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
