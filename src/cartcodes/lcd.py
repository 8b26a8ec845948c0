"""Deciding the linear-complementary-dual (LCD) property.

For one-dimensional point sets the decision is exact and fast: run the
extended Euclidean algorithm on the set's vanishing polynomial L and the
code's associated polynomial H, and read the answer off the remainder
degrees.  The Euclidean sequence runs on integer element codes; its Bezout
data becomes polynomial objects only when asked for, through
:attr:`UnivariateLcdAnalysis.eea`.  Two independent brute-force routes
(Gram-matrix rank and an explicit intersection of the code with its dual)
back every analytic verdict; product grids additionally get the
one-directional component criteria.

A note on the remainder-degree rule: the gap criterion says the code of
degree k fails to be LCD exactly when n - k falls strictly between two
consecutive remainder degrees of the sequence g_0 = L, g_1 = H, ...,
g_{t+1} = 1.  Since deg g_0 = n, the admissible values of n - k are exactly
the degrees of g_1, ..., g_{t+1} — including the top gap between deg H and
n, which matters whenever deg H < n - 1 (reachable: the coefficient of
X^(n-1) in H is the sum of the squared scalars, which can vanish).  The gap
rule alone decides :meth:`UnivariateLcdAnalysis.is_lcd`; the agreement
sweeps compare it with membership in the degree set, and both with brute
force, on every instance.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from math import prod
from typing import Iterator, Optional, Sequence

from .codes import (
    CartesianSpec,
    LinearCode,
    dimension_formula,
    generator_matrix,
    min_distance_formula,
)
from .errors import InconsistencyError
from .field import Field, FieldElement, _trim
from .linalg import (
    Matrix,
    _echelon_vals,
    _intersection_vals,
    _matmul_vals,
    _nullspace_vals,
)
from .multipoly import CartesianSet, MPoly, _grid_lagrange_sum
from .unipoly import (
    EeaResult,
    Poly,
    _eea_vals,
    eea_sequence,
    vanishing_poly,
)

LCD = "lcd"
NOT_LCD = "not-lcd"
UNKNOWN = "unknown"
INAPPLICABLE = "inapplicable"


@dataclass
class LcdReport:
    """Outcome of one LCD decision.

    ``witness`` is a basis of the intersection of the code with its dual;
    it is present and nonempty exactly when the code is not LCD and the
    decision ran through the linear-algebra route.
    """

    spec: CartesianSpec
    is_lcd: bool
    method: str  # "eea" | "gram" | "intersection" | "product-theorem"
    witness: Optional[Matrix] = None
    eea_degrees: Optional[frozenset] = None
    trivial_range: bool = False

    def to_json(self) -> dict:
        out = {
            "k": self.spec.k,
            "n": self.spec.n,
            "components": self.spec.cset.to_json(),
            "scalars": [v.to_json() for v in self.spec.scalars],
            "lcd": self.is_lcd,
            "method": self.method,
        }
        if self.eea_degrees is not None:
            out["eea_degrees"] = sorted(self.eea_degrees)
        if self.witness is not None and self.witness.nrows:
            out["witness"] = self.witness.to_json()
        if self.trivial_range:
            out["full_space"] = True
        return out


def cartesian_scalars(
    component_vectors: Sequence[Sequence[FieldElement]],
) -> tuple[FieldElement, ...]:
    """The product vector on the grid of per-component scalar vectors.

    The entry at a grid point is the product of the component scalars
    picked out by that point's coordinates, in grid point order.
    """
    vectors = [tuple(vec) for vec in component_vectors]
    for vec in vectors:
        if not vec:
            raise ValueError("component scalar vectors must be non-empty")
        if any(v.val == 0 for v in vec):
            raise ValueError("component scalars must be nonzero")
    return tuple(prod(combo[1:], start=combo[0]) for combo in itertools.product(*vectors))


# -- the univariate (generalized Reed-Solomon) criterion ------------------------


class PointSetData:
    """Per-point-set polynomials, reusable across many scalar vectors:
    the vanishing polynomial L and the single-point Lagrange factors.

    Each factor is the exact quotient L / (X - a), so a set of n points
    costs O(n^2).  Both are code-backed :class:`Poly` objects, which the
    integer-code kernels read through their ``vals``.
    """

    __slots__ = ("points", "field", "L", "lagrange_terms")

    def __init__(self, points: Sequence[FieldElement]):
        self.points = tuple(points)
        self.L = L = vanishing_poly(self.points)
        self.field = field = L.field
        horner = field.horner
        # exact quotients L / (X - a): the Horner sums past the value at a
        self.lagrange_terms = tuple(
            Poly._from_vals(field, horner(L.vals, a.val)[1:]) for a in self.points
        )

    def associated_poly(self, scalars: Sequence[FieldElement]) -> Poly:
        if len(scalars) != len(self.points):
            raise ValueError("need one scalar per point")
        field = self.field
        codes = field._codes_of(scalars)
        if not all(codes):
            raise ValueError("scalars must be nonzero")
        mul, neg, sub_mul = field.mul, field.neg, field.sub_mul
        acc = [0] * len(self.points)
        for term, v in zip(self.lagrange_terms, codes):
            sub_mul(acc, neg(mul(v, v)), term.vals, 0)
        return Poly._from_vals(field, _trim(acc))


def associated_poly_univariate(
    points: Sequence[FieldElement], scalars: Sequence[FieldElement]
) -> Poly:
    """H(X) = sum of v_i^2 * L_{a_i}(X): the unique polynomial of degree < n
    interpolating v_i^2 * L'(a_i) on the point set.  Coprime to the set's
    vanishing polynomial because it vanishes nowhere on the set."""
    return PointSetData(points).associated_poly(scalars)


class UnivariateLcdAnalysis:
    """Everything the remainder-degree criterion needs for one (A, v) pair.

    Shares the Euclidean sequence across all degrees k, which is what makes
    scanning a k-range (or a whole search) cheap.  Pass ``set_data`` when
    scanning many scalar vectors over one point set.  The sequence runs on
    integer codes, checking the Bezout degree law on every row; the full
    :class:`EeaResult` with its Bezout polynomials is built on first access
    to :attr:`eea`.
    """

    def __init__(
        self,
        points: Sequence[FieldElement],
        scalars: Sequence[FieldElement],
        set_data: PointSetData | None = None,
    ):
        if set_data is None:
            set_data = PointSetData(points)
        self.points = set_data.points
        self.scalars = tuple(scalars)
        self.n = len(self.points)
        self.L = set_data.L
        self.H = set_data.associated_poly(self.scalars)
        remainders = _eea_vals(set_data.field, self.L.vals, self.H.vals)[0]
        self.remainder_degrees = [len(r) - 1 for r in remainders[1:]]

    @functools.cached_property
    def eea(self) -> EeaResult:
        """The full remainder sequence with Bezout data, built on request."""
        return eea_sequence(self.L, self.H)

    def admissible_codimensions(self) -> frozenset:
        """All values of n - k for which the degree-k code is LCD: exactly
        the remainder degrees of g_1, ..., g_{t+1}."""
        return frozenset(self.remainder_degrees)

    @functools.cached_property
    def _inside_gaps(self) -> frozenset:
        """The values of n - k with deg g_i < n - k < deg g_{i-1} for some
        row (deg g_0 = n): the gap rule, worked out once per analysis, on
        the first :meth:`is_lcd` call."""
        degs = [self.n] + self.remainder_degrees
        return frozenset(
            itertools.chain.from_iterable(
                range(lo + 1, hi) for hi, lo in zip(degs, degs[1:])
            )
        )

    def is_lcd(self, k: int) -> bool:
        """Gap rule: LCD iff no row has deg g_i < n - k < deg g_{i-1}.

        On a correct remainder sequence this is membership of n - k in
        :meth:`admissible_codimensions`; the agreement sweeps compare the
        two rules on every instance."""
        if k < 1:
            raise ValueError("degree k must be positive")
        if k > self.n:
            return True  # full-space code; the dual is zero
        return self.n - k not in self._inside_gaps

    def lcd_degrees(self) -> list[int]:
        """All k in 1..n giving an LCD code (k = n is the full space)."""
        return [k for k in range(1, self.n + 1) if self.is_lcd(k)]


def lcd_admissible_set(
    points: Sequence[FieldElement], scalars: Sequence[FieldElement]
) -> frozenset:
    return UnivariateLcdAnalysis(points, scalars).admissible_codimensions()


def is_lcd_univariate(
    points: Sequence[FieldElement],
    scalars: Sequence[FieldElement],
    k: int,
    analysis: UnivariateLcdAnalysis | None = None,
) -> LcdReport:
    """Decide LCD for the degree-k code on a one-dimensional point set."""
    if analysis is None:
        analysis = UnivariateLcdAnalysis(points, scalars)
    spec = CartesianSpec.univariate(points, scalars, k)
    return LcdReport(
        spec=spec,
        is_lcd=analysis.is_lcd(k),
        method="eea",
        eea_degrees=analysis.admissible_codimensions(),
        trivial_range=spec.trivial_range,
    )


# -- brute force (any number of components) --------------------------------------


def is_lcd_bruteforce(spec: CartesianSpec, code: LinearCode | None = None) -> LcdReport:
    """Decide LCD by linear algebra alone.

    Runs both brute-force routes and insists they agree on the dimension of
    the hull, the intersection of the code with its dual, not only on
    whether it is zero.  The Gram route reads it as k - rank(G G^T).  The
    intersection route realizes the dual as the nullspace of G, whose
    elimination leaves the reduced rows of G in place; it stacks those rows
    and the dual's, n of them in all, and reads the hull dimension as
    n - rank of the stack.  When the stack is singular it also runs the
    Zassenhaus intersection, whose basis is the witness, and checks its
    size too.
    """
    if code is None:
        code = generator_matrix(spec)
    G = code.generator
    field, n = G.field, G.ncols
    gram = _matmul_vals(field, G.vals, G.vals)
    gram_hull = code.dimension - len(_echelon_vals(field, gram, G.nrows))
    rows = [list(row) for row in G.vals]
    parity = _nullspace_vals(field, rows, n)
    del rows[n - len(parity) :]  # the zero rows below the reduced form
    rank, inter = _intersection_vals(field, rows, parity, n)
    if not gram_hull == n - rank == len(inter):
        raise InconsistencyError(
            f"Gram rank says hull dimension {gram_hull} but intersection says "
            f"{n - rank} (stack rank) and {len(inter)} (basis) for {spec!r}"
        )
    return LcdReport(
        spec=spec,
        is_lcd=not inter,
        method="intersection" if inter else "gram",
        witness=Matrix._from_vals(field, inter, n) if inter else None,
        trivial_range=spec.trivial_range,
    )


# -- multivariate associated polynomial and product criteria ----------------------


def associated_poly_multivariate(
    aset: CartesianSet, scalars: Sequence[FieldElement]
) -> MPoly:
    """H(X_1, ..., X_m) = sum of v_i^2 * L_{a_i}(X): per-variable degrees
    below the component sizes, value v_i^2 * L_{a_i}(a_i) at each point."""
    if len(scalars) != aset.size:
        raise ValueError("need one scalar per grid point")
    if any(v.val == 0 for v in scalars):
        raise ValueError("scalars must be nonzero")
    mul = aset.field.mul
    return _grid_lagrange_sum(aset, [mul(v, v) for v in aset.field._codes_of(scalars)])


def is_lcd_product_sufficient(
    components: Sequence[tuple[Sequence[FieldElement], Sequence[FieldElement]]],
    k: int,
) -> str:
    """One-directional product test: if every component code of degree
    t <= min(k, n_i) is LCD, the degree-k code on the product grid (with
    the product scalars) is LCD.  Returns "lcd" or "unknown" — never
    "not-lcd", because the condition is only sufficient.

    The degree range is inclusive of min(k, n_i): a failing product of
    degree k yields a failing component of degree (deg_{X_i} f) + 1, which
    can reach min(k, n_i).  An exclusive bound would wrongly fire for k = 1
    whenever some component's squared scalars sum to zero.
    """
    if k < 1:
        raise ValueError("degree k must be positive")
    for points, scalars in components:
        analysis = UnivariateLcdAnalysis(points, scalars)
        for t in range(1, min(k, len(points)) + 1):
            if not analysis.is_lcd(t):
                return UNKNOWN
    return LCD


def not_lcd_product(
    components: Sequence[
        tuple[Sequence[FieldElement], Sequence[FieldElement], int]
    ],
) -> str:
    """One-directional product test: if every component code of degree t_i
    is not LCD, the degree sum(t_i) code on the product grid is not LCD.

    Returns "not-lcd" when the hypothesis holds, else "unknown".  (The
    hypothesis used is the all-components one that the argument actually
    needs, not the weaker one-component phrasing.)
    """
    if not components:
        raise ValueError("need at least one component")
    for points, scalars, t in components:
        if t < 1:
            raise ValueError("component degrees must be at least 1")
        if UnivariateLcdAnalysis(points, scalars).is_lcd(t):
            return UNKNOWN
    return NOT_LCD


def lcd_necessity_check(
    components: Sequence[tuple[Sequence[FieldElement], Sequence[FieldElement]]],
    k: int,
) -> str:
    """Oracle form of the necessity direction: for k below every component
    size, a product code that brute force declares LCD must have every
    component code of degree k LCD.  A violation is an internal error, not
    a result.  Returns the product verdict, or "inapplicable"."""
    sizes = [len(points) for points, _ in components]
    if k >= min(sizes):
        return INAPPLICABLE
    grid = CartesianSet([list(points) for points, _ in components])
    product = cartesian_scalars([list(scalars) for _, scalars in components])
    spec = CartesianSpec(grid, product, k)
    verdict = is_lcd_bruteforce(spec)
    if verdict.is_lcd:
        for points, scalars in components:
            if not UnivariateLcdAnalysis(points, scalars).is_lcd(k):
                raise InconsistencyError(
                    "product code is LCD but a component of the same degree "
                    f"is not (k={k})"
                )
    return LCD if verdict.is_lcd else NOT_LCD


# -- search ------------------------------------------------------------------------


@dataclass
class SearchRecord:
    report: LcdReport
    n: int
    dim: int
    d: int
    mds: bool

    def to_json(self) -> dict:
        out = self.report.to_json()
        out.update({"dim": self.dim, "d": self.d, "mds": self.mds})
        return out


@dataclass
class SearchTruncation:
    examined: int
    budget: int

    def to_json(self) -> dict:
        return {"truncated": True, "examined": self.examined, "budget": self.budget}


def _combinations(q: int, size: int) -> Iterator[tuple[int, ...]]:
    """``itertools.combinations(range(q), size)``, without building the pool."""
    if size > q:
        return
    idx = list(range(size))
    while True:
        yield tuple(idx)
        for i in reversed(range(size)):
            if idx[i] != i + q - size:
                break
        else:
            return
        idx[i:] = range(idx[i] + 1, idx[i] + 1 + size - i)


def _product(factor, repeat: int) -> Iterator[tuple]:
    """``itertools.product(factor(), repeat=repeat)``, in the same order,
    without building the factors: ``factor()`` is called afresh whenever a
    position starts over."""
    iters = [factor() for _ in range(repeat)]
    done = object()
    current = [next(it, done) for it in iters]
    if any(item is done for item in current):
        return
    while True:
        yield tuple(current)
        for i in reversed(range(repeat)):
            current[i] = next(iters[i], done)
            if current[i] is not done:
                break
            iters[i] = factor()
            current[i] = next(iters[i])
        else:
            return


def _scalar_vectors(
    field: Field, n: int, policy: str, seed: int
) -> Iterator[tuple[FieldElement, ...]]:
    one = field.one
    if policy == "ones":
        yield (one,) * n
        return
    q, get = field.order, field._get
    if policy == "exhaustive":
        # Quotient by global scaling: fix the first scalar to 1.
        for tail in _product(lambda: map(get, range(1, q)), n - 1):
            yield (one, *tail)
        return
    if policy.startswith("random:"):
        count = int(policy.split(":", 1)[1])
        rng = random.Random(f"{seed}:{n}:{field.order}")
        for _ in range(count):
            yield (one, *(get(rng.randrange(1, q)) for _ in range(n - 1)))
        return
    raise ValueError(f"unknown scalar policy {policy!r}")


def search_lcd(
    field: Field,
    m: int,
    sizes: Sequence[int],
    k_values: Sequence[int],
    scalar_policy: str = "ones",
    budget: int = 10_000,
    seed: int = 0,
) -> Iterator[SearchRecord | SearchTruncation]:
    """Enumerate candidate codes in deterministic order and report each one.

    Component sets are drawn from the field in lexicographic order of their
    sorted element encodings; scalars follow the policy ("ones",
    "exhaustive" mod global scaling, or "random:N" seeded).  One-dimensional
    candidates are decided by the Euclidean criterion, others by brute
    force.  The stream ends with a truncation marker if the budget runs out
    before the enumeration does.  Sets, grids and scalar vectors are
    generated as they are reached, so the budget bounds the time and
    memory over any field; ``k_values=[]`` or "random:0" raises ValueError.
    """
    if m < 1:
        raise ValueError("need at least one component")
    if not k_values:
        raise ValueError("need at least one degree k")
    if scalar_policy.startswith("random:") and int(scalar_policy.split(":", 1)[1]) < 1:
        raise ValueError(f"scalar policy {scalar_policy!r} draws no scalar vector")
    get = field._get

    def component_sets():
        for size in sizes:
            for combo in _combinations(field.order, size):
                yield [get(v) for v in combo]

    examined = 0
    for grid_combo in _product(component_sets, m):
        grid = CartesianSet([list(comp) for comp in grid_combo])
        set_data = PointSetData(grid.components[0]) if m == 1 else None
        for scalars in _scalar_vectors(field, grid.size, scalar_policy, seed):
            if m == 1:
                analysis = UnivariateLcdAnalysis(grid.components[0], scalars, set_data=set_data)
            for k in k_values:
                if examined >= budget:
                    yield SearchTruncation(examined, budget)
                    return
                examined += 1
                spec = CartesianSpec(grid, scalars, k)
                if m == 1:
                    report = is_lcd_univariate(
                        grid.components[0], scalars, k, analysis=analysis
                    )
                else:
                    report = is_lcd_bruteforce(spec)
                dim = dimension_formula(spec)
                d, _ = min_distance_formula(spec)
                yield SearchRecord(
                    report=report,
                    n=spec.n,
                    dim=dim,
                    d=d,
                    mds=d == spec.n - dim + 1,
                )
