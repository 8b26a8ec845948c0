"""Generalized affine Cartesian codes: construction, closed-form parameters,
duals, and brute-force parameter oracles.

A code is described by a Cartesian point set, a vector of nonzero column
scalars (indexed in grid point order), and a degree bound k; codewords are
the scaled evaluations of polynomials of total degree < k.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Iterator, Optional, Sequence

from .errors import BudgetExceededError, format_count
from .field import Field, FieldElement
from .linalg import Matrix
from .multipoly import CartesianSet, monomial_basis

DEFAULT_BRUTE_BUDGET = 10**6


@dataclass(frozen=True)
class CartesianSpec:
    """Full description of one code: point set, column scalars, degree."""

    cset: CartesianSet
    scalars: tuple[FieldElement, ...]
    k: int

    def __post_init__(self):
        k, cset = self.k, self.cset
        if not isinstance(k, int) or k < 1:
            raise ValueError(f"degree k must be a positive integer, got {k!r}")
        scalars = tuple(self.scalars)
        object.__setattr__(self, "scalars", scalars)
        if len(scalars) != cset.size:
            raise ValueError(
                f"need {cset.size} scalars (one per grid point), got {len(scalars)}"
            )
        field = cset.field
        for v in scalars:
            if v.field is not field:
                raise ValueError("scalars must live in the grid's field")
            if v.val == 0:
                raise ValueError("scalars must be nonzero")

    @property
    def field(self) -> Field:
        return self.cset.field

    @property
    def n(self) -> int:
        return self.cset.size

    @property
    def degree_cap(self) -> int:
        """sum(n_i - 1): the largest degree with a nonzero dual."""
        return sum(s - 1 for s in self.cset.sizes)

    @property
    def trivial_range(self) -> bool:
        """True when the code is all of K^n (k - 1 >= sum(n_i - 1))."""
        return self.k - 1 >= self.degree_cap

    # -- constructors ---------------------------------------------------------

    @classmethod
    def with_unit_scalars(cls, cset: CartesianSet, k: int) -> "CartesianSpec":
        return cls(cset, (cset.field.one,) * cset.size, k)

    @classmethod
    def univariate(
        cls, points: Sequence[FieldElement], scalars: Sequence[FieldElement], k: int
    ) -> "CartesianSpec":
        return cls(CartesianSet([list(points)]), tuple(scalars), k)

    @classmethod
    def from_ints(
        cls,
        field: Field,
        components: Sequence[Sequence[int]],
        scalars: Sequence[int],
        k: int,
    ) -> "CartesianSpec":
        return cls(
            CartesianSet.from_ints(field, components),
            tuple(field.element(v) for v in scalars),
            k,
        )

    def __repr__(self):
        return (
            f"CartesianSpec(k={self.k}, set={self.cset!r}, "
            f"scalars=({','.join(str(v) for v in self.scalars)}))"
        )


@dataclass(frozen=True)
class DistanceDecomposition:
    """The unique split k - 1 = sum over the s smallest (n_i - 1) plus ell,
    with 0 <= ell < n_{s+1} - 1, taken over ascending component sizes."""

    s: int
    ell: int


@dataclass
class LinearCode:
    """A linear code presented by a full-rank generator matrix."""

    generator: Matrix
    n: int
    dimension: int
    min_distance: Optional[int] = None
    provenance: Optional[str] = None

    @property
    def field(self) -> Field:
        return self.generator.field

    def contains(self, vector: Sequence[FieldElement]) -> bool:
        return self.generator.row_space_contains(vector)

    def codewords(self) -> Iterator[tuple[FieldElement, ...]]:
        """All q^dimension codewords (exponential; callers bound the size)."""
        for message in itertools.product(self.field.elements(), repeat=self.dimension):
            yield self.generator.row_vector_mul(message)


# -- closed-form parameters ------------------------------------------------------


def length(spec: CartesianSpec) -> int:
    return spec.n


def dimension_formula(spec_or_set, k: int | None = None) -> int:
    """Dimension of the degree-k code: the number of exponent vectors with
    t_i < n_i and total degree < k, by inclusion-exclusion."""
    if k is None:
        cset, k = spec_or_set.cset, spec_or_set.k
    else:
        cset = spec_or_set
    if k < 1:
        return 0
    if k - 1 >= sum(s - 1 for s in cset.sizes):
        return cset.size
    cap = k - 1
    # one-point components force t_i = 0 and leave the count as it is; each
    # subset S is extended in ascending size order while sum(S) <= cap
    sizes = sorted(s for s in cset.sizes if s > 1)
    m = len(sizes)
    total = 0
    stack = [(0, 0, 1)]  # (next component, sum(S), (-1)^|S|)
    while stack:
        start, used, sign = stack.pop()
        total += sign * comb(m + cap - used, m)
        for j in range(start, m):
            if used + sizes[j] > cap:
                break
            stack.append((j + 1, used + sizes[j], -sign))
    return total


def min_distance_formula(
    spec: CartesianSpec,
) -> tuple[int, Optional[DistanceDecomposition]]:
    """Closed-form minimum distance, plus the (s, ell) decomposition used.

    The formula requires ascending component sizes, so they are sorted here;
    the code itself keeps the user's component order (reordering components
    is a monomial equivalence, so the distance is unaffected).
    """
    sizes = sorted(spec.cset.sizes)
    m = len(sizes)
    if spec.trivial_range:
        return 1, None
    s, ell = 0, spec.k - 1
    while ell >= sizes[s] - 1:
        ell -= sizes[s] - 1
        s += 1
    d = sizes[s] - ell
    for n_i in sizes[s + 1 :]:
        d *= n_i
    return d, DistanceDecomposition(s, ell)


def generator_matrix(spec: CartesianSpec) -> LinearCode:
    """Rows are the scaled evaluations of the basis monomials, in
    graded-lex monomial order.

    The row of the constant monomial is the scalars; every other monomial
    t takes the row of t - e_i, where i is t's first nonzero exponent, times
    coordinate i of each point.  That row is of lower degree, so it comes
    earlier in graded-lex order.
    """
    cset = spec.cset
    row_mul = cset.field.row_mul
    # coordinate i of every point, in grid point order, as codes
    points = itertools.product(*([a.val for a in comp] for comp in cset.components))
    coords = list(zip(*points))
    rows = {}
    for exps in monomial_basis(cset, spec.k):
        for i, e in enumerate(exps):
            if e:
                parent = rows[exps[:i] + (e - 1,) + exps[i + 1 :]]
                rows[exps] = row_mul(parent, coords[i])
                break
        else:
            rows[exps] = [v.val for v in spec.scalars]
    return LinearCode(
        generator=Matrix._from_vals(cset.field, rows.values(), cset.size),
        n=cset.size,
        dimension=len(rows),
    )


def dual_spec(spec: CartesianSpec) -> Optional[CartesianSpec]:
    """The dual code's spec: degree sum(n_i - 1) - k + 1 over the same set,
    with scalars (v_i * prod_j L_j'(a_ij))^(-1).

    Returns None when the code is the whole space, whose dual is the zero
    code and has no spec.
    """
    if spec.trivial_range:
        return None
    k_dual = spec.degree_cap - spec.k + 1
    field = spec.field
    mul, inv, get = field.mul, field.inv, field._get
    pairs = zip(field._codes_of(spec.scalars), spec.cset._point_derivatives())
    dual_scalars = tuple(get(inv(mul(v, d))) for v, d in pairs)
    return CartesianSpec(spec.cset, dual_scalars, k_dual)


def brute_force_min_distance(
    code: LinearCode, budget: int = DEFAULT_BRUTE_BUDGET
) -> int:
    """Minimum Hamming weight over all nonzero codewords, by enumeration.

    Refuses (rather than truncates) when q^dimension exceeds the budget.
    Internally enumerates one codeword per projective class, which is exact:
    scaling a codeword permutes no coordinates and keeps its weight.
    """
    field = code.field
    q = field.order
    required = q**code.dimension
    if required > budget:
        raise BudgetExceededError(required, budget)
    if code.dimension == 0:
        raise ValueError("the zero code has no nonzero codewords")
    rows = code.generator.vals
    neg, sub_mul = field.neg, field.sub_mul
    # multipliers 1, ..., q-1, 0 (code order), carried negated for sub_mul
    negated = [neg(m) for m in range(1, q)] + [0]
    best = code.n
    for lead in range(code.dimension):
        free = code.dimension - lead - 1
        base = rows[lead]
        for tail in itertools.product(negated, repeat=free):
            word = list(base)
            for a, row in zip(tail, rows[lead + 1 :]):
                if a:
                    sub_mul(word, a, row, 0)
            weight = code.n - word.count(0)
            if weight < best:
                best = weight
                if best == 1:
                    return 1
    return best


def parameter_report(
    spec: CartesianSpec,
    brute_budget: int | None = None,
    code: LinearCode | None = None,
) -> dict:
    """JSON-ready parameter summary; includes the brute-force distance when
    the enumeration fits in the budget.

    Pass ``code`` to reuse an already-built generator; its distance cache
    and provenance are filled in as a side effect.
    """
    if code is None:
        code = generator_matrix(spec)
    dim = dimension_formula(spec)
    d_formula, _ = min_distance_formula(spec)
    code.min_distance = d_formula
    code.provenance = "formula"
    report = {
        "field": field_json(spec.field),
        "components": spec.cset.to_json(),
        "scalars": [v.to_json() for v in spec.scalars],
        "k": spec.k,
        "n": spec.n,
        "dim": dim,
        "d_formula": d_formula,
        "mds": d_formula == spec.n - dim + 1,
    }
    if spec.trivial_range:
        report["full_space"] = True
    if brute_budget:
        try:
            report["d_bruteforce"] = brute_force_min_distance(code, brute_budget)
            code.min_distance = report["d_bruteforce"]
            code.provenance = "brute-force"
        except BudgetExceededError as exc:
            report["d_bruteforce_skipped"] = (
                f"enumeration of {format_count(exc.required)} codewords exceeds budget {exc.budget}"
            )
    return report


def field_json(field: Field) -> dict:
    out = {"p": field.p, "e": field.extension_degree}
    if field.modulus is not None:
        out["modulus"] = list(field.modulus)
    return out
