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
and polynomial kernels all run on those primitives; prime fields and the
tabled fields of characteristic 2 also eliminate and multiply matrices on
packed rows, one big integer per row, for the shapes where the field's
packing rule says that is faster.  For orders up to 256 the q elements are
interned, so element arithmetic allocates nothing.

The polynomial kernels on code lists live here too: unipoly.py builds
``Poly`` on them, and over GF(p) they multiply the coefficient vectors of
untabled extension fields and test a modulus for irreducibility.  Tabled
fields build their tables from byte rows.  Construction is bounded and
refuses what it would not finish.
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

# Prime fields up to this order invert by a lookup in a flat table, built in
# one pass; larger ones by ``pow``.
_INV_TABLE_MAX = 1 << 12

# Testing a modulus costs about e^3 log p prime-field operations, as does an
# inverse, so the order is capped (above GF(2^128) and GF(3^81)).  Ruling
# out roots costs about 2 log2 p products, so the default-modulus search
# stops after _SEARCH_BITS // p.bit_length() candidates: it could need
# about p of them, as every X^4 + c is reducible when p = 3 mod 4.
_MAX_ORDER_BITS = 130
_SEARCH_BITS = 1 << 14

# Packed rows are written through struct's little-endian items and read
# through memoryview casts to the native items of the same codes (slots past
# 8 bytes through struct again), so hosts whose native items differ in byte
# order or size do without them.
_SLOT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}
_PACKED_ROWS = sys.byteorder == "little" and all(
    calcsize(code) == size for size, code in _SLOT_CODES.items()
)


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_EXACT_BELOW = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for 0 <= n < 3.3 * 10^24.

    An odd composite n passes the strong test n - 1 = d * 2^s to every base
    a in ``_MR_BASES``, the twelve primes up to 37, only from
    3317044064679887385961981 on (Sorenson and Webster, Math. Comp. 86,
    2017), so below that bound the answer is exact.  From the bound on
    these bases are not known to suffice, and n raises ``ValueError``.
    """
    if n >= _MR_EXACT_BELOW:
        raise ValueError(f"is_prime is exact only below {_MR_EXACT_BELOW}, got {n}")
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    if n < 2:
        return False
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# --- polynomial kernels on lists of integer codes --------------------------
#
# Little-endian lists of element codes, on the primitives of a Field: the
# one product and division arithmetic of the library, for every ``Poly``
# and, over GF(p), for field construction.  Division by X - r is the
# field's ``horner`` primitive.


def _trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _divmod_vals(field: "Field", a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
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
    return quot, _trim(rem)


def _sub_mul_vals(field: "Field", y: list[int], q: list[int], x: list[int]) -> list[int]:
    """y - q * x on code lists, normalized."""
    out = list(y)
    if q and x:
        out.extend([0] * (len(q) + len(x) - 1 - len(out)))
        sub_mul = field.sub_mul
        for i, c in enumerate(q):
            if c:
                sub_mul(out, c, x, i)
    return _trim(out)


def _mul_mod_vals(field: "Field", a: list[int], b: list[int], mod: list[int]) -> list[int]:
    """a * b mod ``mod`` on code lists: a kernel product, then a kernel
    remainder."""
    neg = field.neg
    return _divmod_vals(field, _sub_mul_vals(field, [], [neg(c) for c in a], b), mod)[1]


def _is_irreducible(mod: Sequence[int], field: "Field") -> bool:
    """Irreducibility over the prime field GF(p) of a monic polynomial of
    degree e >= 1, given by its codes.

    Ben-Or's test: f is irreducible exactly when gcd(f, X^(p^i) - X) = 1
    for every i <= e/2, since a reducible f has an irreducible factor of
    some degree i <= e/2, and those divide X^(p^i) - X.  Each X^(p^i) mod f
    is the p-th power of the previous one (iterated Frobenius); the round
    i = 1 is the check for roots.
    """
    h = [0, 1]
    for _ in range((len(mod) - 1) // 2):
        frob = h  # h^p mod f, by square-and-multiply over the bits of p
        for bit in bin(field.p)[3:]:
            frob = _mul_mod_vals(field, frob, frob, mod)
            if bit == "1":
                frob = _mul_mod_vals(field, frob, h, mod)
        h = frob
        a, b = mod, _sub_mul_vals(field, h, [1], [0, 1])
        while b:
            a, b = b, _divmod_vals(field, a, b)[1]
        if len(a) > 1:
            return False
    return True


def _find_modulus(field: "Field", e: int) -> tuple[int, ...]:
    """Smallest monic irreducible of degree e over the prime field GF(p), by
    integer encoding of the lower coefficients, among the first
    ``_SEARCH_BITS // p.bit_length()``.

    A candidate with a root is reducible (e >= 2).  Its value at 0 is its
    constant term; values at every element cost p Horner passes, less than
    Ben-Or's round for roots (about 2 log2 p products mod the candidate)
    while p <= 4 e log2 p, so small fields rule roots out first."""
    p = field.p
    candidates = _SEARCH_BITS // p.bit_length()
    horner = field.horner
    roots = range(1, p) if p <= 4 * e * p.bit_length() else ()
    for code in range(candidates):
        mod = [code // p**i % p for i in range(e)] + [1]
        if not mod[0] or any(horner(mod, a)[0] == 0 for a in roots):
            continue
        if _is_irreducible(mod, field):
            return tuple(mod)
    raise ValueError(
        f"no irreducible polynomial of degree {e} over GF({p}) among the first "
        f"{candidates} candidates; pass an explicit modulus"
    )


# --- packed rows ----------------------------------------------------------
#
# Prime fields hold a row as one integer with a slot of 1, 2, 4, 8, 9, 10,
# 12 or 16 bytes per entry, the narrowest that the sums a kernel forms never
# carry out of, and reduce mod p only when a row is unpacked.  Tabled
# fields of characteristic 2 hold a row as one byte per entry: their sums
# are XOR, which never carries, and a row times a constant is one
# ``bytes.translate`` through that constant's multiplication table.


def _slot_layout(p: int, bound: int, ncols: int):
    """The packing of GF(p) rows of ``ncols`` codes into integers whose
    slots hold values up to ``bound`` without carrying.

    A slot is the smallest native item of 1, 2, 4 or 8 bytes that holds
    ``bound``; past 64 bits it is an 8-byte item and the smallest item that
    holds the rest, 9, 10, 12 or 16 bytes in all.  Codes are below 2^64, so
    packing leaves that second item zero.

    Returns ``(w, pack, unpack)``: the slot width in bits; ``pack(*row)``,
    the little-endian bytes that ``int.from_bytes(..., "little")`` turns
    into a packed row, column c at bit ``c * w``; and ``unpack(y, n, a)``,
    the n lowest slots of y, times a, reduced mod p.
    """
    bits = bound.bit_length()
    if bits <= 64:
        size = _item_size(bits)
        code = _SLOT_CODES[size]
        pack = Struct(f"<{ncols}{code}").pack

        def unpack(y, n, a):
            return [v * a % p for v in memoryview(y.to_bytes(n * size, "little")).cast(code)]

    else:
        rest = _item_size(bits - 64)
        size = 8 + rest
        pack = Struct("<" + f"Q{rest}x" * ncols).pack
        split = Struct("<Q" + _SLOT_CODES[rest]).iter_unpack

        def unpack(y, n, a):
            return [(lo | hi << 64) * a % p for lo, hi in split(y.to_bytes(n * size, "little"))]

    return 8 * size, pack, unpack


def _item_size(bits: int) -> int:
    """Bytes in the smallest native item of ``bits`` bits or more."""
    return next(s for s in _SLOT_CODES if 8 * s >= bits)


def _packed_echelon(p: int, rows: list[list[int]], ncols: int, reduce: bool) -> list[int]:
    """Row echelon form over GF(p) on packed rows, in place; returns the
    pivot columns.  With ``reduce`` the form is fully reduced.

    One row update ``y += g * x`` is a couple of big-integer operations
    instead of a loop over the entries.  Entries are left unreduced between
    pivots: a pivot row is unpacked, reduced, made monic and repacked before
    it is used, and every other update adds a multiple ``g = p - f`` of it,
    where ``f`` is the entry to clear mod p.  A slot starts below p and
    takes at most one update of at most (p - 1)^2 per pivot, so slots sized
    for p + (nrows + 1) p^2 never carry.  The rows come back as the codes,
    pivots and row order of the per-entry elimination.

    The forward sweep keeps the rows still to be eliminated shifted so that
    the current column sits in their lowest slot: reading it is a mask, and
    one shift per column drops it.  Back-substitution works on whole rows.
    """
    from_bytes = int.from_bytes
    nrows = len(rows)
    w, pack, unpack = _slot_layout(p, p + (nrows + 1) * p * p, ncols)
    mask = (1 << w) - 1
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


def _packed_matmul(p: int, a_rows, b_rows, ncols: int) -> list[list[int]]:
    """The product of code matrices A and B over GF(p), given the rows of
    A and the ``ncols``-wide rows of B.

    Each row of B is packed once, with slots sized for t (p - 1)^2, where t
    is the inner dimension, so an output row, the sum of ``a[t] * B[t]``,
    is one sum of big-integer products that no slot carries out of; it is
    then unpacked and reduced mod p.
    """
    b_rows = list(b_rows)
    _, pack, unpack = _slot_layout(p, len(b_rows) * (p - 1) ** 2, ncols)
    packed = [int.from_bytes(pack(*row), "little") for row in b_rows]
    return [unpack(sum(map(_int_mul, a, packed)), ncols, 1) for a in a_rows]


def _xor_echelon(tables, inv, rows: list[list[int]], ncols: int, reduce: bool) -> list[int]:
    """:func:`_packed_echelon` over GF(2^e), e <= 8, on rows of one byte per
    entry; ``tables[a]`` multiplies every byte of a row by a.

    Sums are XOR, so entries stay reduced: a pivot row is made monic by one
    translation, and clearing entry f of another row XORs in f times the
    pivot row.
    """
    from_bytes = int.from_bytes
    nrows = len(rows)
    live = [from_bytes(bytes(row), "little") for row in rows]
    out = []
    pivots = []
    r = 0
    for c in range(ncols):
        for i in range(r, nrows):
            f = live[i] & 255
            if f:
                break
        else:
            for i in range(r, nrows):
                live[i] >>= 8
            continue
        y = live[i]
        live[i] = live[r]
        tail = y.to_bytes(ncols - c, "little").translate(tables[inv(f)])
        out.append(bytes(c) + tail)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
        tail = tail[1:]
        for i in range(r, nrows):
            y = live[i]
            f = y & 255
            live[i] = (y >> 8) ^ from_bytes(tail.translate(tables[f]), "little") if f else y >> 8
    if reduce and r > 1:
        full = [from_bytes(row, "little") for row in out]
        for j in range(r - 1, 0, -1):
            shift = 8 * pivots[j]
            # cleared of the later pivots already: its final value
            x = out[j] = full[j].to_bytes(ncols, "little")
            for i in range(j):
                f = full[i] >> shift & 255
                if f:
                    full[i] ^= from_bytes(x.translate(tables[f]), "little")
        out[0] = full[0].to_bytes(ncols, "little")
    rows[:] = [list(row) for row in out] + [[0] * ncols for _ in range(nrows - r)]
    return pivots


def _xor_matmul(tables, a_rows, b_rows, ncols: int) -> list[list[int]]:
    """:func:`_packed_matmul` over GF(2^e), e <= 8: an output row is the XOR
    of the rows of B, each translated by its entry of the row of A."""
    from_bytes = int.from_bytes
    packed = [bytes(row) for row in b_rows]
    out = []
    for a in a_rows:
        acc = 0
        for x, row in zip(a, packed):
            if x:
                acc ^= from_bytes(row.translate(tables[x]), "little")
        out.append(list(acc.to_bytes(ncols, "little")))
    return out


# When packed rows pay.  Per entry, a pivot costs an update of every entry
# of every row below it, about nrows * ncols steps; packed, it costs about
# ncols steps to unpack and repack the pivot row and nrows big-integer
# updates.  So packed elimination wins when a / nrows + b / ncols < 1, for
# constants (a, b) of the field, fitted to the per-entry over packed time
# ratios in linalg's docstring.  Small primes need larger constants, as a
# per-entry update skips zero entries: a half of them over GF(2), a third
# over GF(3).  Up to GF(13) they follow the Zassenhaus matrices of small
# product grids, which take fewer per-entry updates than dense ones.
# Products pack from an output width on (the third entry): the per-entry
# Gram matrix computes only half its entries.  Rules by characteristic,
# the first whose bound p does not exceed:
_PACK_RULES = (
    (2, (8, 12, 8)),
    (3, (4, 10, 8)),
    (13, (5, 8, 8)),
    (_MAX_CHARACTERISTIC, (3, 6, 8)),
)
_PACK_RULE_BYTES = (1.5, 4, 4)  # GF(2^e), e <= 8, one byte per entry


def _packing(echelon, matmul, rule) -> dict:
    """A field's packed kernels and the predicates choosing them:
    ``packs_echelon(nrows, ncols)`` for elimination and
    ``packs_matmul(width)`` for products, from ``rule = (a, b, width)``."""
    a, b, min_width = rule

    def packs_echelon(nrows, ncols):
        return a * ncols + b * nrows < nrows * ncols

    def packs_matmul(width):
        return width >= min_width

    return dict(packed_echelon=echelon, packed_matmul=matmul,
                packs_echelon=packs_echelon, packs_matmul=packs_matmul)


def _never(*shape) -> bool:
    return False


_UNPACKED = dict(packed_echelon=None, packed_matmul=None, packs_echelon=_never, packs_matmul=_never)


# --- table rows ------------------------------------------------------------
#
# A tabled field's codes fit in a byte, so a table row, or any map on its
# codes, is one ``bytes`` object, and composing maps is ``bytes.translate``.


def _translation(row: bytes) -> bytes:
    """``row``, a map on the codes below len(row), as a translation table."""
    return row + bytes(256 - len(row))


def _addition_table(p: int, e: int) -> bytes:
    """The addition table of the codes below q = p^e <= 256, flat, row a at
    a * q.  Rows a + c p^i, for a < p^i, are the rows a with digit i of every
    entry stepped c times: one translation of the table so far per step."""
    q = p**e
    add = bytes(range(q))
    for i in range(e):
        unit = p**i
        step = _translation(bytes(
            b - (p - 1) * unit if b // unit % p == p - 1 else b + unit for b in range(q)
        ))
        parts = [add]
        for _ in range(p - 1):
            parts.append(parts[-1].translate(step))
        add = b"".join(parts)
    return add


def _linear_map(add: bytes, p: int, images: list[int]) -> bytes:
    """The GF(p)-linear map sending the basis X^j to the code ``images[j]``,
    as its values at the codes 0, 1, ..., given the flat addition table.

    Its values at b + c p^j, for b < p^j, are those at b plus c * images[j]:
    a translation through the addition row of that multiple.
    """
    q = p ** len(images)
    out = b"\0"
    for h in images:
        parts, m = [out], h
        for _ in range(p - 1):
            parts.append(out.translate(_translation(add[m * q : m * q + q])))
            m = add[m * q + h]
        out = b"".join(parts)
    return out


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
        return self + -other

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
        "_base",
        "_elems",
        "_get",
        "add",
        "mul",
        "neg",
        "inv",
        "dot",
        "sub_mul",
        "scale",
        "clear",
        "horner",
        "row_mul",
        "packed_echelon",
        "packed_matmul",
        "packs_echelon",
        "packs_matmul",
    )

    def __new__(cls, p: int, e: int = 1, modulus: Sequence[int] | None = None):
        # Stored keys hold plain ints and passed validation when stored, so
        # a hit on the arguments as given needs none; a miss is validated.
        if type(p) is int and type(e) is int and (
            modulus is None or type(modulus) is tuple and all(type(c) is int for c in modulus)
        ):
            field = _FIELDS.get((p, e, modulus))
            if field is not None:
                return field
        # the range first, so that is_prime never sees a huge p
        if isinstance(p, int) and p > _MAX_CHARACTERISTIC:
            raise ValueError(f"characteristic {p} above supported range 2^31")
        if not isinstance(p, int) or not is_prime(p):
            raise ValueError(f"characteristic must be prime, got {p!r}")
        if not isinstance(e, int) or e < 1:
            raise ValueError(f"extension degree must be a positive integer, got {e!r}")
        if e == 1 and modulus is not None:
            raise ValueError("prime fields take no modulus")
        if e > _MAX_ORDER_BITS or p**e > 1 << _MAX_ORDER_BITS:
            raise ValueError(f"field order {p}^{e} above supported range 2^{_MAX_ORDER_BITS}")
        key = (p, e, None if modulus is None else tuple(int(c) % p for c in modulus))
        field = _FIELDS.get(key)
        if field is None:
            mod = key[2]
            if e > 1:
                base = Field(p)
                if mod is None:
                    mod = _find_modulus(base, e)
                elif len(mod) != e + 1:
                    raise ValueError(f"modulus must have degree {e}, got degree {len(mod) - 1}")
                elif mod[-1] != 1:
                    raise ValueError("modulus must be monic")
                elif not _is_irreducible(mod, base):
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
        # the prime field, whose primitives the coefficient vectors use;
        # __new__ built it before this field
        self._base = self if self.extension_degree == 1 else _FIELDS[self.p, 1, None]
        if self.order <= _TABLE_MAX_ORDER:
            self._elems = [FieldElement(self, v) for v in range(self.order)]
            self._get = self._elems.__getitem__
        else:
            self._elems = None
            self._get = partial(FieldElement, self)
        for name, primitive in self._make_primitives().items():
            setattr(self, name, primitive)

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
    # tables are tested against, and the primitives of untabled extension
    # fields.

    def _add_val(self, a: int, b: int) -> int:
        ca, cb = self._coeff_vector(a), self._coeff_vector(b)
        return self._pack((x + y) % self.p for x, y in zip(ca, cb))

    def _neg_val(self, a: int) -> int:
        return self._pack((-c) % self.p for c in self._coeff_vector(a))

    def _mul_val(self, a: int, b: int) -> int:
        return self._pack(_mul_mod_vals(
            self._base, self._coeff_vector(a), self._coeff_vector(b), self.modulus
        ))

    def _inv_val(self, a: int) -> int:
        # The Euclidean sequence of the irreducible modulus and a ends in 1,
        # so its last f-side row f has f * a = 1 mod the modulus.  Imported
        # here, as unipoly imports this module.
        from .unipoly import _eea_vals

        coeffs = _trim(list(self._coeff_vector(a)))
        return self._pack(_eea_vals(self._base, list(self.modulus), coeffs)[2][-1])

    def _build_tables(self) -> tuple[list[int], list[int], list[int], list[int], list[bytes]]:
        """Flat integer tables of an extension field of order q <= 256:
        addition and multiplication indexed ``a * q + b``, negation and
        inverse by ``a``; and the multiplication rows as ``bytes``.

        The tables are built as ``bytes`` by C-level translations, with no
        Python loop over their q^2 entries, then flattened into lists, whose
        indexing is faster.  The addition table takes e (p - 1) translations
        (:func:`_addition_table`).  Multiplication row a maps b to
        exp[log a + log b], for the exponent table of the smallest primitive
        element, so it is the logarithms translated through that table
        rotated by log a.
        """
        q, p = self.order, self.p
        add = _addition_table(p, self.extension_degree)
        exp = self._primitive_powers(add)
        neg_v = [add.index(0, a * q) - a * q for a in range(q)]
        add_v = list(add)
        del add  # freed before the second flat table is built
        log = [0] * q
        for i, v in enumerate(exp):
            log[v] = i
        logs, rotations = bytes(log[1:]), bytes(exp) * 2 + bytes(256)
        mul_rows = [bytes(q)] + [b"\0" + logs.translate(rotations[la : la + 256]) for la in log[1:]]
        inv_v = [0] + [exp[-la] for la in log[1:]]
        return add_v, list(b"".join(mul_rows)), neg_v, inv_v, mul_rows

    def _primitive_powers(self, add: bytes) -> list[int]:
        """Codes of g^0, ..., g^(q-2) for the smallest primitive element g,
        found by walking the powers of each candidate back to 1, one lookup
        in its multiplication row per step.

        A constant has an order dividing p - 1 < q - 1, so the candidates
        start at X, code p.  Rows are :func:`_linear_map`s: X sends X^j to
        X^(j+1) and X^(e-1) to minus the modulus's lower coefficients; g
        sends X^j to g X^j, read off the row of X.
        """
        q, p, e = self.order, self.p, self.extension_degree
        top = self._pack(-c for c in self.modulus[:-1])
        times_x = _linear_map(add, p, [p**j for j in range(1, e)] + [top])
        for g in range(p, q):
            images = [g]
            for _ in range(e - 1):
                images.append(times_x[images[-1]])
            times_g = _linear_map(add, p, images)
            powers, x = [1], g
            while x != 1:
                powers.append(x)
                x = times_g[x]
            if len(powers) == q - 1:
                return powers
        raise AssertionError(f"no primitive element in {self}")

    def _make_primitives(self) -> dict:
        """The arithmetic primitives on integer element codes, by name.

        :class:`FieldElement` and the elimination and polynomial kernels all
        compute through these callables, so every field shares one spelling
        of each operation:

        - ``add(a, b)``, ``mul(a, b)``, ``neg(a)``, and ``inv(a)`` for
          nonzero ``a`` (unchecked: ``inv(0)`` of a prime field raises, or
          gives ``None`` from the table, on which arithmetic raises);
        - ``dot(x, y)``: the sum of ``x[j] * y[j]``;
        - ``sub_mul(y, a, x, shift)``: the row update
          ``y[shift + j] -= a * x[j]`` for every ``j``, in place;
        - ``scale(x, a, lo)``: ``x[j] *= a`` for every ``j >= lo``, in place;
        - ``clear(rows, c, x)``: for each row ``y`` of ``rows``, the update
          ``y[c + 1 + j] -= y[c] * x[j]`` for every ``j``, then ``y[c] = 0``,
          in place: column c cleared by the pivot row whose entries past c
          are ``x``, one call per pivot column;
        - ``horner(c, r)``: the Horner partial sums of the polynomial with
          coefficients ``c`` at ``r``, as a new list ``s`` with
          ``s[i] = c[i] + r * s[i + 1]``; ``s[0]`` is the value at ``r``
          and ``s[1:]`` the quotient by X - r (synthetic division);
        - ``row_mul(x, y)``: the entrywise product ``x[j] * y[j]``, as a new
          list;
        - ``packed_echelon(rows, ncols, reduce)``: the row echelon form of
          code rows in place, fully reduced if ``reduce``, with the pivot
          columns returned; or ``None``;
        - ``packed_matmul(a_rows, b_rows, ncols)``: the product of the code
          matrix with rows ``a_rows`` and the one with ``ncols``-wide rows
          ``b_rows``, as new rows; or ``None``;
        - ``packs_echelon(nrows, ncols)`` and ``packs_matmul(width)``: whether
          a matrix of that shape, or a product of that output width, is
          faster on the packed primitive; always false without one.

        Prime fields compute with inline ``% p``; extension fields of order
        up to 256 look codes up in the flat integer tables of
        :meth:`_build_tables`, and larger ones fall back to coefficient-vector
        arithmetic.  Each kind has one body per primitive.  ``sub_mul``
        skips zero entries of ``x``, so sparse rows cost less.  Elimination
        and products over these primitives go one entry at a time.  The two
        packed primitives hold each row as one integer, so that a whole row
        update is one integer operation, and linalg takes them where the
        field's ``packs_*`` predicate says they are faster (the rule is at
        ``_PACK_RULES``):

        - prime fields pack codes into slots wide enough for the integer
          sums a kernel forms (:func:`_packed_echelon`,
          :func:`_packed_matmul`), where the host's native items allow it;
        - tabled fields of characteristic 2, GF(2^e) with e <= 8, pack one
          byte per code; a sum is XOR, and a row times a constant is one
          ``bytes.translate`` through one of q tables (:func:`_xor_echelon`,
          :func:`_xor_matmul`).

        Other extension fields have neither: their sums are digit-wise
        mod p, which neither an integer sum nor XOR computes.
        """
        if self.extension_degree == 1:
            p = self.p

            def add(a, b):
                return (a + b) % p

            def mul(a, b):
                return a * b % p

            def neg(a):
                return -a % p

            if p <= _INV_TABLE_MAX:
                # 1/a = -(p // a) / (p mod a), as p = (p // a) a + p mod a;
                # None at 0, so arithmetic on the inverse of zero raises
                inv_v = [None, 1]
                for a in range(2, p):
                    inv_v.append((p - p // a) * inv_v[p % a] % p)
                inv = inv_v.__getitem__
            else:

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

            def clear(rows, c, x):
                lo = c + 1
                for y in rows:
                    a = y[c]
                    if a:
                        y[c] = 0
                        for j, v in enumerate(x, lo):
                            if v:
                                y[j] = (y[j] - a * v) % p

            def horner(c, r):
                acc = 0
                sums = [acc := (acc * r + x) % p for x in reversed(c)]
                sums.reverse()
                return sums

            def row_mul(x, y):
                return [a * b % p for a, b in zip(x, y)]

            packing = _UNPACKED
            if _PACKED_ROWS:
                packing = _packing(partial(_packed_echelon, p), partial(_packed_matmul, p),
                                   next(rule for top, rule in _PACK_RULES if p <= top))
            return dict(add=add, mul=mul, neg=neg, inv=inv, dot=dot, sub_mul=sub_mul,
                        scale=scale, clear=clear, horner=horner, row_mul=row_mul, **packing)
        if self.order <= _TABLE_MAX_ORDER:
            q = self.order
            add_v, mul_v, neg_v, inv_v, mul_rows = self._build_tables()

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

            def clear(rows, c, x):
                lo = c + 1
                for y in rows:
                    a = y[c]
                    if a:
                        y[c] = 0
                        row = neg_v[a] * q
                        for j, v in enumerate(x, lo):
                            if v:
                                y[j] = add_v[y[j] * q + mul_v[row + v]]

            def horner(c, r):
                acc, row = 0, r * q
                sums = [acc := add_v[mul_v[row + acc] * q + x] for x in reversed(c)]
                sums.reverse()
                return sums

            def row_mul(x, y):
                return [mul_v[a * q + b] for a, b in zip(x, y)]

            inv = inv_v.__getitem__
            packing = _UNPACKED
            if self.p == 2:
                # a row times a is bytes.translate through tables[a]
                tables = [_translation(row) for row in mul_rows]
                packing = _packing(partial(_xor_echelon, tables, inv),
                                   partial(_xor_matmul, tables), _PACK_RULE_BYTES)
            return dict(add=add, mul=mul, neg=neg_v.__getitem__, inv=inv, dot=dot,
                        sub_mul=sub_mul, scale=scale, clear=clear, horner=horner,
                        row_mul=row_mul, **packing)
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

        def clear(rows, c, x):
            for y in rows:
                a = y[c]
                if a:
                    y[c] = 0
                    sub_mul(y, a, x, c + 1)

        def horner(c, r):
            acc = 0
            sums = [acc := add(mul(acc, r), x) for x in reversed(c)]
            sums.reverse()
            return sums

        def row_mul(x, y):
            return list(map(mul, x, y))

        return dict(add=add, mul=mul, neg=neg, inv=self._inv_val, dot=dot, sub_mul=sub_mul,
                    scale=scale, clear=clear, horner=horner, row_mul=row_mul, **_UNPACKED)

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
