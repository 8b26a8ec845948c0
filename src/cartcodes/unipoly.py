"""Dense univariate polynomials over a finite field.

Provides the arithmetic needed by the code constructions: long division,
vanishing polynomials of point sets, single-point Lagrange factors, formal
derivatives, interpolation, and the extended Euclidean remainder sequence
with full Bezout bookkeeping.

Each has one kernel on lists of integer element codes, on the primitives of
:class:`~cartcodes.field.Field`: products and long division in field.py,
which field construction runs on too; evaluation and division by X - a in
the field's ``horner``; here :func:`_root_product_vals`,
:func:`_lagrange_sum_vals` (Lagrange sums over grids of any number of
axes) and :func:`_eea_vals`.  A :class:`Poly` stores its coefficients as
codes, so field elements appear only where one is built or read out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import FieldMismatchError, InconsistencyError, NotCoprimeError
from .field import Field, FieldElement, _divmod_vals, _sub_mul_vals, _trim
from .linalg import _matmul_vals

# degree(0); compares below every integer and survives max()/comparisons,
# unlike a -1 sentinel that could leak into arithmetic.
NEG_INF = float("-inf")


class Poly:
    """A univariate polynomial, coefficients indexed by exponent.

    The coefficients are stored as integer element codes in ``vals``,
    always normalized: empty (the zero polynomial) or ending with a nonzero
    leading code.  ``coeffs`` is the element view, built on each access.
    """

    __slots__ = ("field", "vals")

    def __init__(self, field: Field, coeffs: Iterable[FieldElement] = ()):
        self.field = field
        self.vals = tuple(_trim(field._codes_of(coeffs)))

    @property
    def coeffs(self) -> tuple[FieldElement, ...]:
        get = self.field._get
        return tuple([get(v) for v in self.vals])

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, field: Field) -> "Poly":
        return cls._from_vals(field, ())

    @classmethod
    def one(cls, field: Field) -> "Poly":
        return cls._from_vals(field, (1,))

    @classmethod
    def constant(cls, c: FieldElement) -> "Poly":
        return cls(c.field, (c,))

    @classmethod
    def x(cls, field: Field) -> "Poly":
        return cls._from_vals(field, (0, 1))

    @classmethod
    def _from_vals(cls, field: Field, vals: Iterable[int]) -> "Poly":
        """From normalized integer codes of ``field`` (no trailing zero),
        unchecked."""
        poly = cls.__new__(cls)
        poly.field = field
        poly.vals = tuple(vals)
        return poly

    @classmethod
    def from_ints(cls, field: Field, ints: Sequence[int]) -> "Poly":
        return cls(field, tuple(field.element(i) for i in ints))

    @classmethod
    def monomial(cls, c: FieldElement, exponent: int) -> "Poly":
        field = c.field
        return cls(field, (field.zero,) * exponent + (c,))

    # -- basic queries -------------------------------------------------------

    @property
    def degree(self):
        """Integer degree, or NEG_INF for the zero polynomial."""
        return len(self.vals) - 1 if self.vals else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.vals

    @property
    def leading_coefficient(self) -> FieldElement:
        if not self.vals:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.field._get(self.vals[-1])

    def coefficient(self, exponent: int) -> FieldElement:
        if 0 <= exponent < len(self.vals):
            return self.field._get(self.vals[exponent])
        return self.field.zero

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        field = self._check_field(other)
        # self - (-1) * other
        out = _sub_mul_vals(field, self.vals, (field.neg(1),), other.vals)
        return Poly._from_vals(field, out)

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "Poly":
        neg = self.field.neg
        return Poly._from_vals(self.field, [neg(c) for c in self.vals])

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            return self.scale(other)
        if not isinstance(other, Poly):
            return NotImplemented
        field = self._check_field(other)
        a, b = self.vals, other.vals
        if len(a) > len(b):
            a, b = b, a
        # 0 - (-a) * b: one row update per coefficient of the shorter
        # factor, so that a product with a linear factor costs two updates.
        neg = field.neg
        return Poly._from_vals(field, _sub_mul_vals(field, [], [neg(c) for c in a], b))

    def _check_field(self, other: "Poly | FieldElement") -> Field:
        field = self.field
        if other.field is not field:
            raise FieldMismatchError(
                f"cannot combine polynomials over {field} and {other.field}"
            )
        return field

    def __rmul__(self, other):
        if isinstance(other, FieldElement):
            return self.scale(other)
        return NotImplemented

    def scale(self, c: FieldElement) -> "Poly":
        field = self._check_field(c)
        if c.val == 0:
            return Poly.zero(field)
        vals = list(self.vals)
        field.scale(vals, c.val, 0)
        return Poly._from_vals(field, vals)

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Long division: self = q * other + r with deg r < deg other."""
        if not isinstance(other, Poly):
            return NotImplemented
        field = self._check_field(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        quot, rem = _divmod_vals(field, self.vals, other.vals)
        return Poly._from_vals(field, quot), Poly._from_vals(field, rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        return self.scale(self.leading_coefficient.inverse())

    def __call__(self, x: FieldElement) -> FieldElement:
        """Evaluation by Horner's rule."""
        field = self._check_field(x)
        return field._get(field.horner(self.vals, x.val)[0] if self.vals else 0)

    # -- identity and display -------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.field is other.field and self.vals == other.vals

    def __hash__(self):
        return hash((self.field, self.vals))

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for exp in reversed(range(len(self.vals))):
            if not self.vals[exp]:
                continue
            cs = str(self.field._get(self.vals[exp]))
            if "+" in cs:
                cs = f"({cs})"
            if exp == 0:
                parts.append(cs)
            else:
                xs = "X" if exp == 1 else f"X^{exp}"
                parts.append(xs if cs == "1" else f"{cs}*{xs}")
        return " + ".join(parts)

    def __repr__(self):
        return f"Poly({self} over {self.field})"

    def to_json(self):
        return [c.to_json() for c in self.coeffs]


# -- point-set constructions --------------------------------------------------


def _root_product_vals(field: Field, roots: Iterable[int]) -> list[int]:
    """The product of X - r over the codes ``roots``, on one code list: each
    factor is a shift and one ``sub_mul``, X * c - r * c."""
    vals = [1]
    sub_mul = field.sub_mul
    for r in roots:
        shifted = [0] + vals
        if r:
            sub_mul(shifted, r, vals, 0)
        vals = shifted
    return vals


def vanishing_poly(points: Sequence[FieldElement]) -> Poly:
    """Monic polynomial whose roots are exactly the given distinct points."""
    if not points:
        raise ValueError("vanishing polynomial needs at least one point")
    field = points[0].field
    codes = field._codes_of(points)
    if len(set(codes)) != len(codes):
        raise ValueError("points must be pairwise distinct")
    return Poly._from_vals(field, _root_product_vals(field, codes))


def lagrange_term(points: Sequence[FieldElement], a: FieldElement) -> Poly:
    """The factor of the vanishing polynomial omitting (X - a).

    Vanishes on every other point of ``points`` and is nonzero at ``a``,
    where its value equals the derivative of the vanishing polynomial.
    """
    if all(a != b for b in points):
        raise ValueError(f"{a!r} is not among the interpolation points")
    field = a.field
    others = [b for b in field._codes_of(points) if b != a.val]
    return Poly._from_vals(field, _root_product_vals(field, others))


def formal_derivative(f: Poly) -> Poly:
    """Coefficient-rule derivative; multiples of the characteristic vanish."""
    field = f.field
    mul, p = field.mul, field.p
    return Poly._from_vals(
        field, _trim([mul(i % p, c) for i, c in enumerate(f.vals) if i])
    )


def _lagrange_sum_vals(field: Field, axes, weights: Sequence[int]) -> list[int]:
    """Codes of the sum over grid points p of w_p * prod_i L_i / (X_i - p_i),
    from one pair (codes of L_i, codes of A_i) per axis and one weight per
    point; points and the result's exponent vectors run in grid point order.
    Each axis, last first, has its lines multiplied by the rows L_i / (X_i - p)
    and is rotated to the front: n * (n_1 + ... + n_m) products in all."""
    data = list(weights)
    for L, points in reversed(axes):
        factor_cols = list(zip(*[field.horner(L, a)[1:] for a in points]))
        lines = [data[i : i + len(points)] for i in range(0, len(data), len(points))]
        data = [c for col in zip(*_matmul_vals(field, lines, factor_cols)) for c in col]
    return data


def interpolate(points: Sequence[tuple[FieldElement, FieldElement]]) -> Poly:
    """The unique polynomial of degree < len(points) through the points: the
    Lagrange sum with weights y / L'(x), each L'(x) the value of L / (X - x) at x."""
    if not points:
        raise ValueError("cannot interpolate an empty point list")
    field = points[0][0].field
    xv, yv = field._codes_of(x for x, _ in points), field._codes_of(y for _, y in points)
    if len(set(xv)) != len(xv):
        raise ValueError("interpolation points must have distinct x-coordinates")
    L = _root_product_vals(field, xv)
    mul, inv, horner = field.mul, field.inv, field.horner
    weights = [mul(y, inv(horner(horner(L, x)[1:], x)[0])) for x, y in zip(xv, yv)]
    return Poly._from_vals(field, _trim(_lagrange_sum_vals(field, [(L, xv)], weights)))


# -- extended Euclidean remainder sequence -------------------------------------


@dataclass(frozen=True)
class EeaStep:
    """One row of the extended Euclidean sequence for a pair (L, H).

    ``remainder`` is g_i, with g_0 = L and g_1 = H.  ``quotient`` (absent
    for the two seed rows) is the quotient whose division produced this
    row's remainder.  The Bezout identity g_i = h_i * L + f_i * H holds
    exactly for every row, including the final normalized one.
    """

    index: int
    remainder: Poly
    quotient: Optional[Poly]
    bezout_h: Poly
    bezout_f: Poly


@dataclass(frozen=True)
class EeaResult:
    """The full remainder sequence g_0, ..., g_{t+1} with Bezout data.

    The final remainder is a nonzero constant because the inputs are
    coprime; that row is stored rescaled so g_{t+1} = 1 (its Bezout
    coefficients are rescaled with it), and the constant that was divided
    out is kept in ``final_constant``.
    """

    steps: tuple[EeaStep, ...]
    final_constant: FieldElement

    @property
    def t(self) -> int:
        return len(self.steps) - 2

    def remainder_degrees(self) -> list[int]:
        """Degrees of g_1, ..., g_{t+1} (all nonzero, so plain ints)."""
        return [int(s.remainder.degree) for s in self.steps[1:]]


def _eea_vals(field: Field, L: list[int], H: list[int]):
    """The extended Euclidean sequence of :func:`eea_sequence` on code
    lists, with the f-side of the Bezout data only.

    Returns ``(remainders, quotients, bezout_f, constant)``: one normalized
    code list per row (the two seed rows have quotient None), with the
    final row rescaled to 1 and the code of the constant that was divided
    out.  The f-side is what the Bezout degree law, checked here on every
    row, reads; the h-side, which no verdict reads, :func:`eea_sequence`
    builds from the quotients.  Raises as :func:`eea_sequence` does.
    """
    if not L or not H:
        raise ValueError("extended Euclidean sequence needs nonzero inputs")
    if not len(H) < len(L):
        raise ValueError("expected deg H < deg L")
    rems, quots, fs = [L, H], [None, None], [[], [1]]
    while len(rems[-1]) > 1:
        q, r = _divmod_vals(field, rems[-2], rems[-1])
        if not r:
            raise NotCoprimeError(Poly._from_vals(field, rems[-1]).monic())
        rems.append(r)
        quots.append(q)
        fs.append(_sub_mul_vals(field, fs[-2], q, fs[-1]))

    # Normalize the final constant row to 1, preserving the Bezout identity.
    constant = rems[-1][0]
    if constant != 1:
        rems[-1] = [1]
        field.scale(fs[-1], field.inv(constant), 0)

    # The degree law deg f_i = deg L - deg g_{i-1} is only stated for
    # i <= t, but the LCD criterion leans on it at i = t+1 as well; verify
    # it through the last row instead of trusting it silently.
    n = len(L) - 1
    for i in range(1, len(rems)):
        expected = n - (len(rems[i - 1]) - 1)
        actual = len(fs[i]) - 1 if fs[i] else None
        if actual != expected:
            raise InconsistencyError(
                f"Bezout degree law failed at row {i}: deg f = {actual}, "
                f"expected {expected}"
            )
    return rems, quots, fs, constant


def eea_sequence(L: Poly, H: Poly) -> EeaResult:
    """Extended Euclidean algorithm on coprime (L, H) with deg H < deg L.

    Remainders are kept raw (not made monic) so every Bezout identity holds
    verbatim; only the final constant row is normalized to 1.  Raises
    :class:`NotCoprimeError` carrying the monic gcd if a zero remainder
    appears before a constant one.
    """
    field = L.field
    H._check_field(L)
    rems, quots, fs, constant = _eea_vals(field, L.vals, H.vals)
    hs = [[1], []]
    for q in quots[2:]:
        hs.append(_sub_mul_vals(field, hs[-2], q, hs[-1]))
    if constant != 1:
        field.scale(hs[-1], field.inv(constant), 0)
    poly = Poly._from_vals
    steps = [
        EeaStep(
            i,
            poly(field, rems[i]),
            None if quots[i] is None else poly(field, quots[i]),
            poly(field, hs[i]),
            poly(field, fs[i]),
        )
        for i in range(len(rems))
    ]
    return EeaResult(tuple(steps), field._get(constant))
