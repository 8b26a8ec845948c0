"""Dense univariate polynomials over a finite field.

Provides the arithmetic needed by the code constructions: long division,
vanishing polynomials of point sets, single-point Lagrange factors, formal
derivatives, interpolation, and the extended Euclidean remainder sequence
with full Bezout bookkeeping.

Long division and the Euclidean sequence each have one kernel on lists of
integer element codes (:func:`_divmod_vals`, :func:`_eea_vals`), written on
the primitives of :class:`~cartcodes.field.Field`.  :class:`Poly` and
:func:`eea_sequence` wrap them in field elements at the API boundary, and
callers that need only remainder degrees run the kernel directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import FieldMismatchError, InconsistencyError, NotCoprimeError
from .field import Field, FieldElement

# degree(0); compares below every integer and survives max()/comparisons,
# unlike a -1 sentinel that could leak into arithmetic.
NEG_INF = float("-inf")


class Poly:
    """A univariate polynomial, coefficients indexed by exponent.

    Always normalized: the stored coefficient vector is empty (the zero
    polynomial) or ends with a nonzero leading coefficient.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: Iterable[FieldElement] = ()):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1].val == 0:
            coeffs.pop()
        self.field = field
        self.coeffs = tuple(coeffs)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, field: Field) -> "Poly":
        return cls(field, ())

    @classmethod
    def one(cls, field: Field) -> "Poly":
        return cls(field, (field.one,))

    @classmethod
    def constant(cls, c: FieldElement) -> "Poly":
        return cls(c.field, (c,))

    @classmethod
    def x(cls, field: Field) -> "Poly":
        return cls(field, (field.zero, field.one))

    @classmethod
    def _from_vals(cls, field: Field, vals: Sequence[int]) -> "Poly":
        """From a normalized list of integer codes (no trailing zero)."""
        poly = cls.__new__(cls)
        poly.field = field
        get = field._get
        poly.coeffs = tuple([get(v) for v in vals])
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
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading_coefficient(self) -> FieldElement:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coefficient(self, exponent: int) -> FieldElement:
        if 0 <= exponent < len(self.coeffs):
            return self.coeffs[exponent]
        return self.field.zero

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(self.field, out)

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly(self.field, tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            return self.scale(other)
        if not isinstance(other, Poly):
            return NotImplemented
        field = self._check_field(other)
        a, b = self.coeffs, other.coeffs
        if len(a) > len(b):
            a, b = b, a
        # 0 - (-a) * b: one row update per coefficient of the shorter
        # factor, so that a product with a linear factor costs two updates.
        neg = field.neg
        out = _sub_mul_vals(field, [], [neg(c.val) for c in a], [c.val for c in b])
        return Poly._from_vals(field, out)

    def _check_field(self, other: "Poly") -> Field:
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
        if c.val == 0:
            return Poly.zero(self.field)
        return Poly(self.field, tuple(c * a for a in self.coeffs))

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Long division: self = q * other + r with deg r < deg other."""
        if not isinstance(other, Poly):
            return NotImplemented
        field = self._check_field(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        quot, rem = _divmod_vals(
            field, [c.val for c in self.coeffs], [c.val for c in other.coeffs]
        )
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
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- identity and display -------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.field is other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for exp in reversed(range(len(self.coeffs))):
            c = self.coeffs[exp]
            if c.val == 0:
                continue
            cs = str(c)
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


def _divmod_vals(field: Field, a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """Long division on normalized code lists: a = q * b + r, deg r < deg b.

    ``b`` must be nonzero.  Both results come back normalized.
    """
    db = len(b) - 1
    rem = list(a)
    if len(rem) - 1 < db:
        return [], rem
    low = b[:db]
    mul, sub_mul = field.mul, field.sub_mul
    inv_lead = field.inv(b[-1])
    quot = [0] * (len(rem) - db)
    while len(rem) > db:
        factor = mul(rem.pop(), inv_lead)
        if factor:
            shift = len(rem) - db
            quot[shift] = factor
            sub_mul(rem, factor, low, shift)
    while rem and not rem[-1]:
        rem.pop()
    return quot, rem


def _sub_mul_vals(field: Field, y: list[int], q: list[int], x: list[int]) -> list[int]:
    """y - q * x on normalized code lists, normalized."""
    out = list(y)
    if q and x:
        out.extend([0] * (len(q) + len(x) - 1 - len(out)))
        sub_mul = field.sub_mul
        for i, c in enumerate(q):
            if c:
                sub_mul(out, c, x, i)
    while out and not out[-1]:
        out.pop()
    return out


# -- point-set constructions --------------------------------------------------


def vanishing_poly(points: Sequence[FieldElement]) -> Poly:
    """Monic polynomial whose roots are exactly the given distinct points."""
    if not points:
        raise ValueError("vanishing polynomial needs at least one point")
    if len({a.val for a in points}) != len(points):
        raise ValueError("points must be pairwise distinct")
    field = points[0].field
    result = Poly.one(field)
    for a in points:
        result = result * Poly(field, (-a, field.one))
    return result


def lagrange_term(points: Sequence[FieldElement], a: FieldElement) -> Poly:
    """The factor of the vanishing polynomial omitting (X - a).

    Vanishes on every other point of ``points`` and is nonzero at ``a``,
    where its value equals the derivative of the vanishing polynomial.
    """
    if all(a != b for b in points):
        raise ValueError(f"{a!r} is not among the interpolation points")
    field = a.field
    result = Poly.one(field)
    for b in points:
        if b != a:
            result = result * Poly(field, (-b, field.one))
    return result


def formal_derivative(f: Poly) -> Poly:
    """Coefficient-rule derivative; multiples of the characteristic vanish."""
    field = f.field
    out = []
    for i in range(1, len(f.coeffs)):
        out.append(field.element(i % field.p) * f.coeffs[i])
    return Poly(field, out)


def interpolate(points: Sequence[tuple[FieldElement, FieldElement]]) -> Poly:
    """The unique polynomial of degree < len(points) through the points."""
    if not points:
        raise ValueError("cannot interpolate an empty point list")
    xs = [x for x, _ in points]
    if len({x.val for x in xs}) != len(xs):
        raise ValueError("interpolation points must have distinct x-coordinates")
    field = xs[0].field
    L = vanishing_poly(xs)
    result = Poly.zero(field)
    for x, y in points:
        if y.val == 0:
            continue
        # the Lagrange factor as the exact quotient L / (X - x): O(n) each
        term = L // Poly(field, (-x, field.one))
        result = result + term.scale(y * term(x).inverse())
    return result


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
    """The extended Euclidean sequence of :func:`eea_sequence` on code lists.

    Returns ``(remainders, quotients, bezout_h, bezout_f, constant)``: one
    normalized code list per row (the two seed rows have quotient None),
    with the final row rescaled to 1 and the code of the constant that was
    divided out.  Raises as :func:`eea_sequence` does.
    """
    if not L or not H:
        raise ValueError("extended Euclidean sequence needs nonzero inputs")
    if not len(H) < len(L):
        raise ValueError("expected deg H < deg L")
    rems, quots, hs, fs = [L, H], [None, None], [[1], []], [[], [1]]
    while len(rems[-1]) > 1:
        q, r = _divmod_vals(field, rems[-2], rems[-1])
        if not r:
            raise NotCoprimeError(Poly._from_vals(field, rems[-1]).monic())
        rems.append(r)
        quots.append(q)
        hs.append(_sub_mul_vals(field, hs[-2], q, hs[-1]))
        fs.append(_sub_mul_vals(field, fs[-2], q, fs[-1]))

    # Normalize the final constant row to 1, preserving the Bezout identity.
    constant = rems[-1][0]
    if constant != 1:
        inv = field.inv(constant)
        rems[-1] = [1]
        field.scale(hs[-1], inv, 0)
        field.scale(fs[-1], inv, 0)

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
    return rems, quots, hs, fs, constant


def eea_sequence(L: Poly, H: Poly) -> EeaResult:
    """Extended Euclidean algorithm on coprime (L, H) with deg H < deg L.

    Remainders are kept raw (not made monic) so every Bezout identity holds
    verbatim; only the final constant row is normalized to 1.  Raises
    :class:`NotCoprimeError` carrying the monic gcd if a zero remainder
    appears before a constant one.
    """
    field = L.field
    H._check_field(L)
    rems, quots, hs, fs, constant = _eea_vals(
        field, [c.val for c in L.coeffs], [c.val for c in H.coeffs]
    )
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
