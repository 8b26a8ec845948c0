"""Exact arithmetic in finite fields GF(p^e).

Prime fields are the primary target; extension fields are supported through
an explicit monic irreducible modulus (or a deterministic search for the
smallest one).  Fields are interned by (p, e, modulus), so equal fields are
the same object.  Elements are canonical and immutable: equal coefficient
vectors mean equal elements, and operations on elements of different fields
(including one field under two moduli) raise instead of coercing.

This is the only module that knows how a field does its arithmetic.  Each
:class:`Field` carries primitives on raw integer codes (see
:meth:`Field._make_primitives`): prime fields compute inline mod p, small
extension fields look codes up in flat integer tables, larger ones work on
coefficient vectors.  :class:`FieldElement` operations and the elimination
and polynomial kernels elsewhere all run on those primitives; prime fields
also eliminate wide matrices on packed rows, one big integer per row.  For
orders up to 256 the q elements are interned, so element arithmetic
allocates nothing.
"""

from __future__ import annotations

import sys
from functools import partial
from operator import mul as _int_mul
from struct import Struct, calcsize
from typing import Iterable, Sequence

from .errors import FieldMismatchError

# Above this order elements are not interned and extension fields compute
# on coefficient vectors instead of tables.
_TABLE_MAX_ORDER = 256

_MAX_CHARACTERISTIC = 1 << 31

# Packed rows are written through struct's little-endian items and read
# through memoryview casts to the native items of the same codes, so hosts
# whose native items differ in byte order or size do without them.
_SLOT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}
_PACKED_ROWS = sys.byteorder == "little" and all(
    calcsize(code) == size for size, code in _SLOT_CODES.items()
)


def is_prime(n: int) -> bool:
    """Trial-division primality test (sufficient for p <= 2^31)."""
    if n < 2:
        return False
    for small in (2, 3):
        if n % small == 0:
            return n == small
    i = 5
    while i * i <= n:
        if n % i == 0 or n % (i + 2) == 0:
            return False
        i += 6
    return True


# --- GF(p)[X] helpers on little-endian int coefficient lists -------------
#
# These exist to validate / search for the extension modulus (``_trim`` also
# normalizes the code lists of unipoly.py, where all user-facing
# polynomial arithmetic lives).


def _trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul_mod(a: list[int], b: list[int], mod: list[int], p: int) -> list[int]:
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    return _poly_rem(prod, mod, p)


def _poly_rem(a: list[int], b: list[int], p: int) -> list[int]:
    a = _trim(list(a))
    db = len(b) - 1
    inv_lead = pow(b[-1], p - 2, p)
    while len(a) - 1 >= db and a:
        shift = len(a) - 1 - db
        factor = (a[-1] * inv_lead) % p
        for i, bi in enumerate(b):
            a[shift + i] = (a[shift + i] - factor * bi) % p
        _trim(a)
    return a


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        a, b = b, _poly_rem(a, b, p)
    return a


def _poly_pow_x_mod(exp: int, mod: list[int], p: int) -> list[int]:
    """X^exp reduced modulo ``mod`` over GF(p)."""
    result = [1]
    base = _poly_rem([0, 1], mod, p)
    while exp:
        if exp & 1:
            result = _poly_mul_mod(result, base, mod, p)
        base = _poly_mul_mod(base, base, mod, p)
        exp >>= 1
    return result


def _is_irreducible(mod: list[int], p: int) -> bool:
    """Irreducibility over GF(p) of a monic polynomial, degree >= 1.

    Degrees 2 and 3 reduce to a root check; higher degrees use the
    factorization-free test gcd(f, X^(p^i) - X) = const for i <= deg/2.
    """
    e = len(mod) - 1
    if e == 1:
        return True
    if e <= 3:
        return all(_poly_eval_int(mod, x, p) != 0 for x in range(p))
    for i in range(1, e // 2 + 1):
        xq = _poly_pow_x_mod(p**i, mod, p)
        diff = list(xq)
        while len(diff) < 2:
            diff.append(0)
        diff[1] = (diff[1] - 1) % p
        if len(_poly_gcd(mod, _trim(diff), p)) - 1 > 0:
            return False
    return True


def _poly_eval_int(c: list[int], x: int, p: int) -> int:
    acc = 0
    for ci in reversed(c):
        acc = (acc * x + ci) % p
    return acc


def _find_modulus(p: int, e: int) -> tuple[int, ...]:
    """Smallest monic irreducible of degree e, by integer encoding of the
    lower coefficients."""
    for code in range(p**e):
        low = []
        c = code
        for _ in range(e):
            low.append(c % p)
            c //= p
        mod = low + [1]
        if _is_irreducible(mod, p):
            return tuple(mod)
    raise AssertionError(f"no irreducible polynomial of degree {e} over GF({p})")


# --- packed rows over GF(p) ---------------------------------------------


def _packed_echelon(p: int, rows: list[list[int]], ncols: int, reduce: bool) -> list[int]:
    """Row echelon form over GF(p) on packed rows, in place; returns the
    pivot columns.  With ``reduce`` the form is fully reduced.

    Each row is one integer holding an entry per slot of ``8 * size`` bits,
    column c at bit ``c * 8 * size``, so one row update ``y += g * x`` is a
    couple of big-integer operations instead of a loop over the entries.
    Entries are left unreduced between pivots: a pivot row is unpacked,
    reduced, made monic and repacked before it is used, and every other
    update adds a multiple ``g = p - f`` of it, where ``f`` is the entry to
    clear mod p.  A slot starts below p and takes at most one update of at
    most (p - 1)^2 per pivot, so slots sized for p + (nrows + 1) p^2 never
    carry.  The rows come back as the codes, pivots and row order of the
    per-entry elimination.

    The forward sweep keeps the rows still to be eliminated shifted so that
    the current column sits in their lowest slot: reading it is a mask, and
    one shift per column drops it.  Back-substitution works on whole rows.
    """
    from_bytes = int.from_bytes
    nrows = len(rows)
    need = (p + (nrows + 1) * p * p).bit_length()
    size = next(s for s in (1, 2, 4, 8, 16) if 8 * s >= need)
    w = 8 * size
    mask = (1 << w) - 1
    # One item per slot; a 16-byte slot is an 8-byte item and 8 pad bytes,
    # as no slot is packed at 2^64 or above.
    code = _SLOT_CODES[min(size, 8)]
    pack = Struct("<" + (f"{ncols}{code}" if size <= 8 else "Q8x" * ncols)).pack
    if size <= 8:

        def unpack(y, n, a):
            """The n lowest slots of y, times a, reduced mod p."""
            return [v * a % p for v in memoryview(y.to_bytes(n * size, "little")).cast(code)]

    else:

        def unpack(y, n, a):
            words = memoryview(y.to_bytes(16 * n, "little")).cast(code)
            return [(lo | hi << 64) * a % p for lo, hi in zip(words[::2], words[1::2])]

    live = [from_bytes(pack(*row), "little") for row in rows]
    out = []
    pivots = []
    r = 0
    for c in range(ncols):
        for i in range(r, nrows):
            f = (live[i] & mask) % p
            if f:
                break
        else:
            for i in range(r, nrows):
                live[i] >>= w
            continue
        y = live[i]
        live[i] = live[r]
        row = [0] * c + unpack(y, ncols - c, pow(f, -1, p))
        out.append(row)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
        x = from_bytes(pack(*row), "little") >> (c + 1) * w
        for i in range(r, nrows):
            y = live[i]
            f = (y & mask) % p
            live[i] = (y >> w) + (p - f) * x if f else y >> w
    if reduce and r > 1:
        full = [from_bytes(pack(*row), "little") for row in out]
        for j in range(r - 1, 0, -1):
            c = pivots[j]
            shift = c * w
            if j < r - 1:
                # updated by the later pivots since it was packed
                out[j] = [0] * c + unpack(full[j] >> shift, ncols - c, 1)
                full[j] = from_bytes(pack(*out[j]), "little")
            x = full[j]
            for i in range(j):
                y = full[i]
                f = (y >> shift & mask) % p
                if f:
                    full[i] = y + (p - f) * x
        c = pivots[0]
        out[0] = [0] * c + unpack(full[0] >> c * w, ncols - c, 1)
    rows[:] = out + [[0] * ncols for _ in range(nrows - r)]
    return pivots


class FieldElement:
    """An element of a :class:`Field`, stored by its canonical integer code.

    The code is the little-endian base-p packing of the coefficient vector;
    for prime fields it is simply the residue.
    """

    __slots__ = ("field", "val")

    def __init__(self, field: "Field", val: int):
        self.field = field
        self.val = val

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        f = self.field
        if other.field is not f:
            raise FieldMismatchError(f"cannot combine elements of {f} and {other.field}")
        return f._get(f.add(self.val, other.val))

    def __sub__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        f = self.field
        if other.field is not f:
            raise FieldMismatchError(f"cannot combine elements of {f} and {other.field}")
        return f._get(f.add(self.val, f.neg(other.val)))

    def __mul__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        f = self.field
        if other.field is not f:
            raise FieldMismatchError(f"cannot combine elements of {f} and {other.field}")
        return f._get(f.mul(self.val, other.val))

    def __neg__(self):
        f = self.field
        return f._get(f.neg(self.val))

    def __truediv__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self * other.inverse()

    def inverse(self) -> "FieldElement":
        if self.val == 0:
            raise ZeroDivisionError("inverse of zero field element")
        f = self.field
        return f._get(f.inv(self.val))

    def __pow__(self, exponent: int) -> "FieldElement":
        f = self.field
        if exponent < 0:
            return self.inverse() ** (-exponent)
        acc = f.one
        base = self
        while exponent:
            if exponent & 1:
                acc = acc * base
            base = base * base
            exponent >>= 1
        return acc

    # -- identity and display ----------------------------------------------

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.val == other.val and self.field is other.field

    def __hash__(self):
        return hash((self.val, self.field.order))

    def __bool__(self):
        return self.val != 0

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Coefficient vector, little-endian in the modulus root."""
        return self.field._coeff_vector(self.val)

    def to_int(self) -> int:
        return self.val

    def to_json(self):
        """Integer for prime fields, coefficient array otherwise."""
        if self.field.extension_degree == 1:
            return self.val
        return list(self.coeffs)

    def __str__(self):
        f = self.field
        if f.extension_degree == 1:
            return str(self.val)
        parts = []
        for i in reversed(range(f.extension_degree)):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                var = "a" if i == 1 else f"a^{i}"
                parts.append(var if c == 1 else f"{c}{var}")
        return "+".join(parts) if parts else "0"

    def __repr__(self):
        return f"GF({self.field.order})({self})"


# Every field built so far, keyed by (p, e, modulus); the key with modulus
# None names the default modulus of GF(p^e).
_FIELDS: dict[tuple, "Field"] = {}


class Field:
    """The finite field GF(p^e).

    ``modulus`` is the monic irreducible reduction polynomial as a
    little-endian coefficient tuple over GF(p); it must be omitted for prime
    fields and may be omitted for extension fields (then the smallest monic
    irreducible of degree e is used).

    Fields are interned by (p, e, modulus), with the modulus reduced mod p,
    so constructing one field twice gives the same object and two fields
    are equal exactly when they are identical.
    """

    __slots__ = (
        "p",
        "extension_degree",
        "order",
        "modulus",
        "_elems",
        "_get",
        "add",
        "mul",
        "neg",
        "inv",
        "dot",
        "sub_mul",
        "scale",
        "packed_echelon",
    )

    def __new__(cls, p: int, e: int = 1, modulus: Sequence[int] | None = None):
        if not isinstance(p, int) or not is_prime(p):
            raise ValueError(f"characteristic must be prime, got {p!r}")
        if p > _MAX_CHARACTERISTIC:
            raise ValueError(f"characteristic {p} above supported range 2^31")
        if not isinstance(e, int) or e < 1:
            raise ValueError(f"extension degree must be a positive integer, got {e!r}")
        if e == 1 and modulus is not None:
            raise ValueError("prime fields take no modulus")
        key = (p, e, None if modulus is None else tuple(int(c) % p for c in modulus))
        field = _FIELDS.get(key)
        if field is None:
            mod = key[2]
            if e > 1:
                if mod is None:
                    mod = _find_modulus(p, e)
                elif len(mod) != e + 1:
                    raise ValueError(f"modulus must have degree {e}, got degree {len(mod) - 1}")
                elif mod[-1] != 1:
                    raise ValueError("modulus must be monic")
                elif not _is_irreducible(list(mod), p):
                    raise ValueError(f"modulus {mod} is reducible over GF({p})")
            field = _FIELDS.get((p, e, mod))
            if field is None:
                field = _FIELDS[p, e, mod] = super().__new__(cls)
                field.p = p
                field.extension_degree = e
                field.order = p**e
                field.modulus = mod
            _FIELDS[key] = field
        return field

    def __init__(self, p: int, e: int = 1, modulus: Sequence[int] | None = None):
        # Python calls this after every __new__; an interned field is kept.
        if hasattr(self, "add"):
            return
        if self.order <= _TABLE_MAX_ORDER:
            self._elems = [FieldElement(self, v) for v in range(self.order)]
            self._get = self._elems.__getitem__
        else:
            self._elems = None
            self._get = partial(FieldElement, self)
        (self.add, self.mul, self.neg, self.inv, self.dot, self.sub_mul, self.scale,
         self.packed_echelon) = self._make_primitives()

    # -- raw arithmetic on integer codes -----------------------------------

    def _coeff_vector(self, val: int) -> tuple[int, ...]:
        if self.extension_degree == 1:
            return (val,)
        out = []
        for _ in range(self.extension_degree):
            out.append(val % self.p)
            val //= self.p
        return tuple(out)

    def _pack(self, coeffs: Iterable[int]) -> int:
        val = 0
        for c in reversed(list(coeffs)):
            val = val * self.p + (c % self.p)
        return val

    # Coefficient-vector arithmetic of extension fields: the reference the
    # tables are built and tested from, and the primitives of untabled
    # extension fields.

    def _add_val(self, a: int, b: int) -> int:
        ca, cb = self._coeff_vector(a), self._coeff_vector(b)
        return self._pack((x + y) % self.p for x, y in zip(ca, cb))

    def _neg_val(self, a: int) -> int:
        return self._pack((-c) % self.p for c in self._coeff_vector(a))

    def _mul_val(self, a: int, b: int) -> int:
        ca = list(self._coeff_vector(a))
        cb = list(self._coeff_vector(b))
        prod = _poly_mul_mod(ca, cb, list(self.modulus), self.p)
        prod += [0] * (self.extension_degree - len(prod))
        return self._pack(prod)

    def _inv_val(self, a: int) -> int:
        # a^(q-2) by square-and-multiply over _mul_val
        result, base, exp = 1, a, self.order - 2
        while exp:
            if exp & 1:
                result = self._mul_val(result, base)
            base = self._mul_val(base, base)
            exp >>= 1
        return result

    def _build_tables(self) -> tuple[list[int], list[int], list[int], list[int]]:
        """Flat integer tables of an extension field: addition and
        multiplication indexed ``a * q + b``, negation and inverse by ``a``.

        Products come off the exponent and logarithm tables of the smallest
        primitive element; sums and negatives off the base-p digit
        recurrences ``a + b = (a // p + b // p) * p + (a % p + b % p) % p``
        and ``-a = -(a // p) * p + (-a) % p``.  Building costs O(q^2) table
        lookups rather than O(q^2) polynomial products.
        """
        q, p = self.order, self.p
        exp = self._primitive_powers()
        log = [0] * q
        for i, v in enumerate(exp):
            log[v] = i
        exp = exp + exp  # exp[i + j] for i, j < q - 1 without a reduction
        add_v = [0] * (q * q)
        for a in range(q):
            row, high = a * q, (a // p) * q
            a0 = a % p
            for b in range(q):
                add_v[row + b] = add_v[high + b // p] * p + (a0 + b % p) % p
        mul_v = [0] * q
        for la in log[1:]:
            row = exp[la:]
            mul_v.append(0)
            mul_v += [row[lb] for lb in log[1:]]
        neg_v = [0] * q
        for a in range(1, q):
            neg_v[a] = neg_v[a // p] * p + (-a) % p
        inv_v = [0] + [exp[q - 1 - la] for la in log[1:]]
        return add_v, mul_v, neg_v, inv_v

    def _primitive_powers(self) -> list[int]:
        """Codes of g^0, ..., g^(q-2) for the smallest primitive element g,
        found by walking the powers of each candidate back to 1."""
        for g in range(2, self.order):
            powers, x = [1], g
            while x != 1:
                powers.append(x)
                x = self._mul_val(x, g)
            if len(powers) == self.order - 1:
                return powers
        raise AssertionError(f"no primitive element in {self}")

    def _make_primitives(self):
        """The arithmetic primitives on integer element codes.

        :class:`FieldElement` and the elimination and polynomial kernels all
        compute through these callables, so every field shares one spelling
        of each operation:

        - ``add(a, b)``, ``mul(a, b)``, ``neg(a)``, and ``inv(a)`` for
          nonzero ``a``;
        - ``dot(x, y)``: the sum of ``x[j] * y[j]``;
        - ``sub_mul(y, a, x, shift)``: the row update
          ``y[shift + j] -= a * x[j]`` for every ``j``, in place;
        - ``scale(x, a, lo)``: ``x[j] *= a`` for every ``j >= lo``, in place;
        - ``packed_echelon(rows, ncols, reduce)``: the row echelon form of
          code rows in place, fully reduced if ``reduce``, with the pivot
          columns returned; or ``None``.

        Prime fields compute with inline ``% p``; extension fields of order
        up to 256 look codes up in the flat integer tables of
        :meth:`_build_tables`, and larger ones fall back to coefficient-vector
        arithmetic.  ``sub_mul`` skips zero entries of ``x``, so sparse rows
        cost less.  Elimination over these primitives goes one entry at a
        time; prime fields also offer ``packed_echelon`` (see
        :func:`_packed_echelon`), where a whole row update is one
        big-integer multiply-add, and linalg takes it for wide matrices.
        Extension fields, whose sums are no integer sums, have none.
        """
        if self.extension_degree == 1:
            p = self.p

            def add(a, b):
                return (a + b) % p

            def mul(a, b):
                return a * b % p

            def neg(a):
                return -a % p

            def inv(a):
                return pow(a, -1, p)

            def dot(x, y):
                return sum(map(_int_mul, x, y)) % p

            def sub_mul(y, a, x, shift):
                for j, v in enumerate(x, shift):
                    if v:
                        y[j] = (y[j] - a * v) % p

            def scale(x, a, lo):
                for j in range(lo, len(x)):
                    if x[j]:
                        x[j] = a * x[j] % p

            packed = partial(_packed_echelon, p) if _PACKED_ROWS else None
            return add, mul, neg, inv, dot, sub_mul, scale, packed
        if self.order <= _TABLE_MAX_ORDER:
            q = self.order
            add_v, mul_v, neg_v, inv_v = self._build_tables()

            def add(a, b):
                return add_v[a * q + b]

            def mul(a, b):
                return mul_v[a * q + b]

            def dot(x, y):
                acc = 0
                for u, v in zip(x, y):
                    acc = add_v[acc * q + mul_v[u * q + v]]
                return acc

            def sub_mul(y, a, x, shift):
                row = neg_v[a] * q
                for j, v in enumerate(x, shift):
                    if v:
                        y[j] = add_v[y[j] * q + mul_v[row + v]]

            def scale(x, a, lo):
                row = a * q
                for j in range(lo, len(x)):
                    x[j] = mul_v[row + x[j]]

            return add, mul, neg_v.__getitem__, inv_v.__getitem__, dot, sub_mul, scale, None
        add, mul, neg = self._add_val, self._mul_val, self._neg_val

        def dot(x, y):
            acc = 0
            for u, v in zip(x, y):
                if u and v:
                    acc = add(acc, mul(u, v))
            return acc

        def sub_mul(y, a, x, shift):
            na = neg(a)
            for j, v in enumerate(x, shift):
                if v:
                    y[j] = add(y[j], mul(na, v))

        def scale(x, a, lo):
            for j in range(lo, len(x)):
                if x[j]:
                    x[j] = mul(a, x[j])

        return add, mul, neg, self._inv_val, dot, sub_mul, scale, None

    # -- element construction ----------------------------------------------

    def element(self, value) -> FieldElement:
        """Build an element from an integer code or a coefficient sequence.

        Integers are reduced mod p for prime fields; for extension fields an
        integer must be a canonical code in [0, q).
        """
        if isinstance(value, FieldElement):
            if value.field is not self:
                raise FieldMismatchError(f"{value!r} is not an element of {self}")
            return value
        if isinstance(value, int):
            if self.extension_degree == 1:
                value %= self.p
            elif not 0 <= value < self.order:
                raise ValueError(
                    f"integer code {value} out of range for {self}; "
                    "pass coefficients instead"
                )
            return self._get(value)
        if isinstance(value, (list, tuple)):
            if len(value) > self.extension_degree:
                raise ValueError(
                    f"coefficient vector longer than extension degree {self.extension_degree}"
                )
            return self._get(self._pack(list(value) + [0] * (self.extension_degree - len(value))))
        raise TypeError(f"cannot build a field element from {value!r}")

    def from_int(self, val: int) -> FieldElement:
        """The element of canonical integer code ``val``, unchecked."""
        return self._get(val)

    def _codes_of(self, elements: Iterable[FieldElement]) -> list[int]:
        """The integer codes of ``elements``, which must all lie in this
        field: the entry check of the code-backed matrices and polynomials."""
        elements = tuple(elements)
        try:
            codes = [x.val for x in elements if x.field is self]
        except AttributeError:
            bad = next(x for x in elements if not isinstance(x, FieldElement))
            raise TypeError(
                f"expected FieldElement entries of {self}, got {bad!r}; "
                "build from integer codes with from_ints"
            ) from None
        if len(codes) != len(elements):
            bad = next(x for x in elements if x.field is not self)
            raise FieldMismatchError(f"{bad!r} is not an element of {self}")
        return codes

    @property
    def zero(self) -> FieldElement:
        return self._get(0)

    @property
    def one(self) -> FieldElement:
        return self._get(1)

    def elements(self) -> list[FieldElement]:
        """All q elements exactly once, ordered by canonical integer code
        (lexicographic coefficient order starting at 0)."""
        if self._elems is not None:
            return list(self._elems)
        return [FieldElement(self, v) for v in range(self.order)]

    def __iter__(self):
        return iter(self.elements())

    def __len__(self):
        return self.order

    # -- identity and display ----------------------------------------------

    def __reduce__(self):
        # The primitives are closures, which pickle cannot store; unpickling
        # looks the field up again, so it returns the interned object.
        return Field, (self.p, self.extension_degree, self.modulus)

    def __repr__(self):
        if self.extension_degree == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.extension_degree})"


def GF(p: int, e: int = 1, modulus: Sequence[int] | None = None) -> Field:
    """Convenience constructor mirroring the usual notation."""
    return Field(p, e, modulus)
