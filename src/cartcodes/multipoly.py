"""Sparse multivariate polynomials and Cartesian point sets.

Monomials are ordered graded-lexicographically (total degree first, then
leftmost-positive difference).  The vanishing ideal of a Cartesian product
set is generated by the single-variable vanishing polynomials, which form a
Groebner basis, so reduction modulo the ideal divides each line of terms
along a variable by its generator, on codes.  Interpolation, the
single-point Lagrange products and the associated polynomial are one grid
Lagrange sum on codes with different weights.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, reduce
from math import prod
from typing import Mapping, Sequence

from .errors import FieldMismatchError
from .field import Field, FieldElement, _divmod_vals
from .unipoly import NEG_INF, PointSetData, Poly, _lagrange_sum_vals


def grlex_key(exponents: tuple[int, ...]):
    """Sort key realizing graded-lex: ascending total degree, then ascending
    plain tuple order (which puts earlier variables in the senior position)."""
    return (sum(exponents), exponents)


def _add_terms(out: dict, terms) -> dict:
    """Add (exponents, coefficient) pairs into ``out`` in place, dropping
    every coefficient that sums to zero."""
    for exps, c in terms:
        cur = out.get(exps)
        s = c if cur is None else cur + c
        if s.val == 0:
            out.pop(exps, None)
        else:
            out[exps] = s
    return out


class MPoly:
    """A polynomial in m variables, stored as exponent-vector -> coefficient.

    No zero coefficients are ever stored; iteration for display runs in
    graded-lex descending order.
    """

    __slots__ = ("field", "nvars", "terms")

    def __init__(
        self,
        field: Field,
        nvars: int,
        terms: Mapping[tuple[int, ...], FieldElement] | None = None,
    ):
        clean: dict[tuple[int, ...], FieldElement] = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != nvars:
                raise ValueError(
                    f"exponent vector {exps} has arity {len(exps)}, expected {nvars}"
                )
            if any(t < 0 for t in exps):
                raise ValueError(f"negative exponent in {exps}")
            if coeff.field is not field:
                raise FieldMismatchError(f"{coeff!r} is not an element of {field}")
            if coeff.val != 0:
                clean[exps] = coeff
        self.field = field
        self.nvars = nvars
        self.terms = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def _from_terms(cls, field: Field, nvars: int, terms: dict) -> "MPoly":
        """Unchecked constructor: ``terms`` holds no zero coefficient and
        only exponent vectors of arity ``nvars``; it is kept, not copied."""
        result = cls.__new__(cls)
        result.field, result.nvars, result.terms = field, nvars, terms
        return result

    @classmethod
    def zero(cls, field: Field, nvars: int) -> "MPoly":
        return cls(field, nvars)

    @classmethod
    def constant(cls, field: Field, nvars: int, c: FieldElement) -> "MPoly":
        return cls(field, nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, field: Field, nvars: int, index: int) -> "MPoly":
        return cls.lift(Poly.x(field), nvars, index)

    @classmethod
    def lift(cls, poly: Poly, nvars: int, index: int) -> "MPoly":
        """Embed a univariate polynomial as a polynomial in variable ``index``."""
        terms = {}
        for exp, c in enumerate(poly.coeffs):  # the constructor drops zeros
            exps = [0] * nvars
            exps[index] = exp
            terms[tuple(exps)] = c
        return cls(poly.field, nvars, terms)

    # -- queries --------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def total_degree(self):
        if not self.terms:
            return NEG_INF
        return max(sum(exps) for exps in self.terms)

    def degree_in(self, index: int):
        if not self.terms:
            return NEG_INF
        return max(exps[index] for exps in self.terms)

    def sorted_terms(self, reverse: bool = True):
        """Terms in graded-lex order, descending by default."""
        for exps in sorted(self.terms, key=grlex_key, reverse=reverse):
            yield exps, self.terms[exps]

    def leading_term(self) -> tuple[tuple[int, ...], FieldElement]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exps = max(self.terms, key=grlex_key)
        return exps, self.terms[exps]

    # -- ring operations ---------------------------------------------------------

    def __add__(self, other: "MPoly") -> "MPoly":
        if not isinstance(other, MPoly):
            return NotImplemented
        if other.field is not self.field:
            raise FieldMismatchError(f"cannot add polynomials over {self.field} and {other.field}")
        out = _add_terms(dict(self.terms), other.terms.items())
        return MPoly._from_terms(self.field, self.nvars, out)

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def __neg__(self) -> "MPoly":
        terms = {exps: -c for exps, c in self.terms.items()}
        return MPoly._from_terms(self.field, self.nvars, terms)

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            return self.scale(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        out = _add_terms({}, (
            (tuple(x + y for x, y in zip(ea, eb)), ca * cb)
            for ea, ca in self.terms.items()
            for eb, cb in other.terms.items()
        ))
        return MPoly._from_terms(self.field, self.nvars, out)

    __rmul__ = __mul__

    def scale(self, c: FieldElement) -> "MPoly":
        if c.val == 0:
            return MPoly.zero(self.field, self.nvars)
        terms = {exps: c * v for exps, v in self.terms.items()}
        return MPoly._from_terms(self.field, self.nvars, terms)

    def evaluate(self, point: Sequence[FieldElement]) -> FieldElement:
        if len(point) != self.nvars:
            raise ValueError(
                f"point has arity {len(point)}, polynomial has {self.nvars} variables"
            )
        acc = self.field.zero
        for exps, c in self.terms.items():
            for x, e in zip(point, exps):
                if e:
                    c = c * x**e
            acc = acc + c
        return acc

    __call__ = evaluate

    # -- identity and display --------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        return (
            self.field is other.field
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    __hash__ = None

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps, c in self.sorted_terms():
            cs = str(c)
            if "+" in cs:
                cs = f"({cs})"
            factors = [f"X{i + 1}" if e == 1 else f"X{i + 1}^{e}" for i, e in enumerate(exps) if e]
            if not factors:
                parts.append(cs)
            elif cs == "1":
                parts.append("*".join(factors))
            else:
                parts.append(cs + "*" + "*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"MPoly({self} over {self.field})"

    def to_json(self):
        return [
            {"exponents": list(exps), "coeff": c.to_json()}
            for exps, c in self.sorted_terms()
        ]


class CartesianSet:
    """A product set A_1 x ... x A_m of finite subsets of one field.

    Points are enumerated row-major with the rightmost component varying
    fastest; every vector and matrix downstream is indexed in this order.
    A set is built in O(n_1 + ... + n_m): ``points`` is enumerated on access,
    and ``tables`` (a :class:`~cartcodes.unipoly.PointSetData` per component) on first use.
    """

    __slots__ = ("field", "components", "sizes", "nvars", "size", "_tables")

    def __init__(self, components: Sequence[Sequence[FieldElement]]):
        if not components:
            raise ValueError("a Cartesian set needs at least one component")
        comps = tuple(tuple(comp) for comp in components)
        field = comps[0][0].field if comps[0] else None
        for comp in comps:
            if not comp:
                raise ValueError("components must be non-empty")
            # one pass: the codes in the field, which are all of them and
            # distinct exactly when the set is as long as the component
            if len({a.val for a in comp if a.field is field}) != len(comp):
                if any(a.field is not field for a in comp):
                    raise ValueError("all components must live in one field")
                raise ValueError(f"component {[str(a) for a in comp]} has repeats")
        self.field = field
        self.components = comps
        self.sizes = tuple(len(comp) for comp in comps)
        self.nvars = len(comps)
        self.size = prod(self.sizes)
        self._tables = None

    @classmethod
    def from_ints(cls, field: Field, components: Sequence[Sequence[int]]) -> "CartesianSet":
        return cls([[field.element(x) for x in comp] for comp in components])

    @property
    def points(self) -> tuple[tuple[FieldElement, ...], ...]:
        return tuple(itertools.product(*self.components))

    @property
    def tables(self) -> tuple[PointSetData, ...]:
        if self._tables is None:
            self._tables = tuple(map(PointSetData, self.components))
        return self._tables

    def point_index(self, point: Sequence[FieldElement]) -> int:
        index = 0
        try:
            for a, comp in zip(point, self.components, strict=True):
                index = index * len(comp) + comp.index(a)
        except ValueError:
            raise ValueError(f"{[str(a) for a in point]} is not a grid point") from None
        return index

    def vanishing_generators(self) -> list[Poly]:
        """The generators L_i of the vanishing ideal, a Groebner basis of it."""
        return [table.L for table in self.tables]

    def derivative_values(self) -> list[list[FieldElement]]:
        """L_i'(a) for every component i and element a of A_i."""
        return [list(map(self.field._get, table.derivatives)) for table in self.tables]

    def _point_derivatives(self) -> list[int]:
        """Codes of prod_i L_i'(p_i) for the grid points p, in grid order."""
        lags = itertools.product(*(table.derivatives for table in self.tables))
        return [reduce(self.field.mul, lag) for lag in lags]

    def __repr__(self):
        comps = " x ".join(
            "{" + ",".join(str(a) for a in comp) + "}" for comp in self.components
        )
        return f"CartesianSet({comps} over {self.field})"

    def __eq__(self, other):
        if not isinstance(other, CartesianSet):
            return NotImplemented
        return self.field is other.field and self.components == other.components

    def __hash__(self):
        return hash((self.field, self.components))

    def to_json(self):
        return [[a.to_json() for a in comp] for comp in self.components]


def _grid_lagrange_sum(aset: CartesianSet, weights: Sequence[int]) -> MPoly:
    """:func:`_lagrange_sum_vals` on the grid, one weight code per point."""
    exponents = itertools.product(*map(range, aset.sizes))
    vals = _lagrange_sum_vals(aset.tables, weights)
    terms = {exps: aset.field._get(c) for exps, c in zip(exponents, vals) if c}
    return MPoly._from_terms(aset.field, aset.nvars, terms)


def reduce_mod_ideal(f: MPoly, aset: CartesianSet) -> MPoly:
    """Remainder of f modulo the vanishing ideal of the set.

    The result agrees with f on every grid point, has per-variable degrees
    below the component sizes, and total degree at most deg f.  For each
    variable, each line of terms along it is divided by its L_i.
    """
    if f.nvars != aset.nvars:
        raise ValueError("variable count does not match the set")
    field = aset.field
    if f.field is not field:
        raise FieldMismatchError(f"cannot reduce over {f.field} modulo a set over {field}")
    terms = dict(zip(f.terms, field._codes_of(f.terms.values())))
    for i, table in enumerate(aset.tables):
        lines: dict[tuple[int, ...], list[int]] = {}
        for exps, c in terms.items():
            line = lines.setdefault(exps[:i] + exps[i + 1 :], [])
            line.extend([0] * (exps[i] + 1 - len(line)))
            line[exps[i]] = c
        terms = {}
        for rest, line in lines.items():
            for e, c in enumerate(_divmod_vals(field, line, table.L.vals)[1]):
                if c:
                    terms[rest[:i] + (e,) + rest[i:]] = c
    return MPoly._from_terms(f.field, f.nvars, {e: field._get(c) for e, c in terms.items()})


def lagrange_point(aset: CartesianSet, point: Sequence[FieldElement]) -> MPoly:
    """Product of the per-variable Lagrange factors for one grid point.

    Zero at every other grid point; its value at ``point`` is the product
    of the component derivative values: the Lagrange sum of a one-hot weight.
    """
    weights = [0] * aset.size
    weights[aset.point_index(point)] = 1
    return _grid_lagrange_sum(aset, weights)


def interpolate_multivariate(
    aset: CartesianSet, values: Sequence[FieldElement]
) -> MPoly:
    """The unique polynomial with per-variable degrees < n_i taking the
    given values on the grid (values indexed in grid point order): the grid
    Lagrange sum with weights y / prod_i L_i'(a_i)."""
    if len(values) != aset.size:
        raise ValueError(
            f"expected {aset.size} values (one per grid point), got {len(values)}"
        )
    mul, inv, codes = aset.field.mul, aset.field.inv, aset.field._codes_of(values)
    weights = [mul(y, inv(d)) for y, d in zip(codes, aset._point_derivatives())]
    return _grid_lagrange_sum(aset, weights)


def monomial_basis(aset: CartesianSet, k: int) -> list[tuple[int, ...]]:
    """Exponent vectors t with sum(t) <= k-1 and t_i < n_i, in ascending
    graded-lex order.  These index the rows of a degree-k generator matrix."""
    if k < 0:
        raise ValueError("degree bound must be nonnegative")
    return list(_monomial_basis(aset.sizes, k))


# Bases are kept for the most recently used (sizes, k) pairs, this many: more
# than the sweep benchmark's grids and point sets ask for (26 pairs), and at
# most about 60 KB (CPython 3.11) on the large benchmark, whose 195 pairs no small table holds.
_MONOMIAL_BASES = 32


@lru_cache(maxsize=_MONOMIAL_BASES)
def _monomial_basis(sizes: tuple[int, ...], k: int) -> tuple[tuple[int, ...], ...]:
    out = [
        exps
        for exps in itertools.product(*(range(min(n, k)) for n in sizes))
        if sum(exps) <= k - 1
    ]
    out.sort(key=grlex_key)
    return tuple(out)
