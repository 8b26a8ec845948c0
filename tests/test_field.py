import itertools
import random
import time

import pytest

from cartcodes import GF, Field, FieldMismatchError
from cartcodes.field import _find_modulus, _is_irreducible, is_prime


F7 = GF(7)
F13 = GF(13)
F4 = GF(2, 2, modulus=[1, 1, 1])


def test_add_basic():
    assert F7.element(3) + F7.element(5) == F7.element(1)
    for x in F7:
        assert F7.zero + x == x


def test_add_characteristic_two():
    alpha = F4.element([0, 1])
    assert (alpha + alpha).val == 0


def test_mul_basic():
    assert F7.element(3) * F7.element(5) == F7.one
    alpha = F4.element([0, 1])
    assert alpha * alpha == F4.element([1, 1])
    # independent integer oracle
    assert (F13.element(6) * F13.element(8)).val == (6 * 8) % 13


def test_inverse():
    assert F7.element(3).inverse() == F7.element(5)
    assert F13.element(2).inverse() == F13.element(7)
    for field in (F7, F13, F4):
        assert field.one.inverse() == field.one
    with pytest.raises(ZeroDivisionError):
        F7.zero.inverse()


def test_prime_inverses_on_both_sides_of_the_table_bound():
    # GF(p) up to 2^12 inverts through a table, larger ones through pow
    for p in (2, 3, 4091, 4093, 4099):
        inv = GF(p).inv
        assert all(a * inv(a) % p == 1 for a in range(1, p)), p
        # zero has no inverse: arithmetic on it fails rather than reading 0
        with pytest.raises((TypeError, ValueError)):
            GF(p).mul(2, inv(0))


def test_enumerate_order():
    assert [x.val for x in GF(2)] == [0, 1]
    assert [x.val for x in F7] == list(range(7))
    assert [str(x) for x in F4] == ["0", "1", "a", "a+1"]


def test_subtraction_division_pow():
    a, b = F13.element(5), F13.element(9)
    assert a - b == F13.element((5 - 9) % 13)
    assert (a / b) * b == a
    assert a ** 0 == F13.one
    assert a ** 3 == a * a * a
    assert a ** -1 == a.inverse()


def test_cross_field_rejected():
    with pytest.raises(FieldMismatchError):
        F7.element(1) + F13.element(1)
    with pytest.raises(FieldMismatchError):
        F7.element(2) * GF(7, 2).element(2)


def test_field_equality_and_interning():
    assert GF(7) == Field(7)
    assert GF(7) is Field(7)
    assert GF(7) != GF(11)
    assert GF(2, 2) == GF(2, 2, modulus=[1, 1, 1])
    assert GF(2, 2) is GF(2, 2, modulus=[1, 1, 1])
    assert GF(2, 2, modulus=[3, 1, 1]) is GF(2, 2)  # coefficients reduced mod p
    assert GF(3, 2, modulus=[2, 1, 1]) is not GF(3, 2)
    # equal fields from separate constructions interoperate
    assert GF(7).element(3) + Field(7).element(5) == GF(7).element(1)
    assert GF(7).element(3) is Field(7).element(3)
    import copy
    import pickle

    for field in (GF(7), GF(2, 2), GF(1009), GF(3, 6), GF(3, 2, modulus=[2, 1, 1])):
        assert pickle.loads(pickle.dumps(field)) is field
        assert copy.deepcopy(field) is field
        assert pickle.loads(pickle.dumps(field.element(2))).field is field


def test_same_order_different_moduli_do_not_mix():
    default, other = GF(3, 2), GF(3, 2, modulus=[2, 1, 1])
    assert default.modulus != other.modulus
    a, b = default.element([0, 1]), other.element([0, 1])
    assert a != b
    for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: b / a):
        with pytest.raises(FieldMismatchError):
            op()
    with pytest.raises(FieldMismatchError):
        default.element(b)


def test_prime_validation():
    with pytest.raises(ValueError):
        GF(4)
    with pytest.raises(ValueError):
        GF(1)
    with pytest.raises(ValueError):
        GF((1 << 31) + 11)
    assert is_prime(2**31 - 1)


def _trial_division_is_prime(n):
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


def test_is_prime_matches_trial_division():
    for n in range(-3, 200_000):
        assert is_prime(n) == _trial_division_is_prime(n), n
    # strong pseudoprimes to the first bases, the last to every prime base
    # up to 23, and Carmichael numbers
    composites = (2047, 1373653, 25326001, 3215031751, 3825123056546413051,
                  561, 41041, 825265)
    for n in composites:
        assert not _trial_division_is_prime(n)
        assert not is_prime(n), n
    for n in (2**31 - 1, 2**61 - 1, 1000000007 * 998244353, 2**61 + 1):
        assert is_prime(n) == (n in (2**31 - 1, 2**61 - 1))
    with pytest.raises(ValueError, match="exact only below"):
        is_prime(2**89 - 1)


def test_huge_characteristics_are_refused_at_once():
    for p in (2**61 - 1, 2**89 - 1, 2**127 - 1):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="above supported range"):
            GF(p)
        assert time.perf_counter() - start < 1.0


def test_modulus_validation():
    with pytest.raises(ValueError):
        GF(2, 2, modulus=[1, 0, 1])  # (X+1)^2
    with pytest.raises(ValueError):
        GF(2, 2, modulus=[1, 1, 2])  # not monic after reduction
    with pytest.raises(ValueError):
        GF(2, 2, modulus=[1, 1])  # wrong degree
    with pytest.raises(ValueError):
        GF(7, modulus=[1, 1])  # prime field takes none


# The smallest monic irreducible of each degree, by integer code of the
# lower coefficients: the default moduli, which element codes depend on.
DEFAULT_MODULI = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 0, 0, 0, 1),
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (2, 8): (1, 1, 0, 1, 1, 0, 0, 0, 1),
    (2, 9): (1, 1, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 10): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1),
    (2, 11): (1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 12): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 13): (1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 14): (1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 15): (1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 16): (1, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 17): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 18): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 19): (1, 1, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 20): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (3, 2): (1, 0, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 1, 0, 0, 1),
    (3, 5): (1, 2, 0, 0, 0, 1),
    (3, 6): (2, 1, 0, 0, 0, 0, 1),
    (3, 7): (2, 0, 1, 0, 0, 0, 0, 1),
    (3, 8): (2, 0, 1, 0, 0, 0, 0, 0, 1),
    (3, 9): (1, 0, 1, 2, 0, 0, 0, 0, 0, 1),
    (3, 10): (1, 0, 2, 0, 0, 0, 0, 0, 0, 0, 1),
    (3, 11): (2, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (3, 12): (2, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (5, 2): (2, 0, 1),
    (5, 3): (1, 1, 0, 1),
    (5, 4): (2, 0, 0, 0, 1),
    (5, 5): (1, 4, 0, 0, 0, 1),
    (5, 6): (2, 1, 0, 0, 0, 0, 1),
    (5, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (7, 2): (1, 0, 1),
    (7, 3): (2, 0, 0, 1),
    (7, 4): (1, 1, 0, 0, 1),
    (7, 5): (3, 1, 0, 0, 0, 1),
    (11, 2): (1, 0, 1),
    (11, 3): (4, 1, 0, 1),
    (11, 4): (2, 1, 0, 0, 1),
    (13, 2): (2, 0, 1),
    (13, 3): (2, 0, 0, 1),
    (101, 2): (2, 0, 1),
    (101, 3): (1, 1, 0, 1),
    (1009, 2): (11, 0, 1),
    (1009, 3): (2, 0, 0, 1),
}


def test_default_modulus_search():
    assert GF(2, 2).modulus == (1, 1, 1)
    assert GF(2, 3).modulus == (1, 1, 0, 1)
    assert GF(3, 2).modulus == (1, 0, 1)  # X^2 + 1 is irreducible mod 3
    f64 = GF(2, 6)
    assert f64.order == 64
    x = f64.element(2)
    assert x ** 63 == f64.one
    for (p, e), modulus in DEFAULT_MODULI.items():
        assert GF(p, e).modulus == modulus, (p, e)


def _first_irreducible(p, e):
    """The default-modulus search without ruling out roots first: Ben-Or on
    every candidate, in the search's order."""
    for code in itertools.count():
        mod = [code // p**i % p for i in range(e)] + [1]
        if _is_irreducible(mod, GF(p)):
            return tuple(mod)


def test_root_check_keeps_the_default_modulus():
    tabled = [(p, e) for p in (2, 3, 5, 7, 11, 13) for e in range(2, 9) if p**e <= 256]
    larger = [(2, 9), (2, 16), (3, 7), (3, 10), (5, 4), (7, 3), (17, 2), (31, 3),
              (101, 2), (1009, 3), (65521, 2), (2**31 - 1, 2)]
    assert len(tabled) == 16
    for p, e in tabled + larger:
        expected = _first_irreducible(p, e)
        assert _find_modulus(GF(p), e) == expected, (p, e)
        assert GF(p, e).modulus == expected, (p, e)


def _monic_polys(p, degree):
    for code in range(p**degree):
        yield [code // p**i % p for i in range(degree)] + [1]


def _divides(g, f, p):
    """Whether the monic g divides f over GF(p), by schoolbook division."""
    f = list(f)
    for shift in range(len(f) - len(g), -1, -1):
        c = f[shift + len(g) - 1]
        for i, gi in enumerate(g):
            f[shift + i] = (f[shift + i] - c * gi) % p
    return not any(f)


@pytest.mark.parametrize("p, top", [(2, 6), (3, 6), (5, 6), (7, 3), (11, 3)])
def test_irreducibility_matches_trial_division(p, top):
    # every monic polynomial of degree 1..top, against trial division by
    # the monic irreducibles of at most half its degree
    irreducibles = []
    for degree in range(1, top + 1):
        divisors = [g for g in irreducibles if 2 * (len(g) - 1) <= degree]
        for f in _monic_polys(p, degree):
            expected = not any(_divides(g, f, p) for g in divisors)
            assert _is_irreducible(f, GF(p)) == expected, (p, f)
            if expected:
                irreducibles.append(f)


@pytest.mark.parametrize("p, e", [(1000003, 2), (2**31 - 1, 2), (2**31 - 1, 3)])
def test_large_characteristic_extension_fields(p, e):
    start = time.perf_counter()
    modulus = _find_modulus(GF(p), e)  # the search a first GF(p, e) runs
    field = GF(p, e)
    assert time.perf_counter() - start < 1.0
    assert field.modulus == modulus
    rng = random.Random(e)
    for _ in range(20):
        a = field.from_int(rng.randrange(1, field.order))
        assert a * a.inverse() == field.one
        assert a ** (field.order - 1) == field.one


def test_field_construction_is_bounded():
    for p, e in [(2, 256), (2, 131), (2**31 - 1, 16), (2, 10**12)]:
        with pytest.raises(ValueError, match="above supported range"):
            GF(p, e)
    # every X^4 + c is reducible, as p = 3 mod 4, so the search would walk p
    # candidates; an explicit modulus is accepted
    start = time.perf_counter()
    with pytest.raises(ValueError, match="pass an explicit modulus"):
        GF(2**31 - 1, 4)
    assert time.perf_counter() - start < 1.0
    quartic = GF(2**31 - 1, 4, modulus=[10, 1, 0, 0, 1])
    assert quartic.element(5) * quartic.element(5).inverse() == quartic.one
    assert GF(2, 128).modulus == (1, 1, 1, 0, 0, 0, 0, 1) + (0,) * 120 + (1,)
    assert GF(3, 81).order == 3**81


def test_element_construction_and_codes():
    assert F7.element(10).val == 3
    assert F4.element([1, 1]).val == 3
    assert F4.element(3).coeffs == (1, 1)
    with pytest.raises(ValueError):
        F4.element(4)
    with pytest.raises(ValueError):
        F4.element([1, 1, 1])
    for field in (F7, F4):
        for x in field:
            assert field.from_int(x.to_int()) == x


def test_json_and_str_forms():
    assert F7.element(5).to_json() == 5
    assert F4.element(3).to_json() == [1, 1]
    assert str(F7.element(5)) == "5"
    assert str(F4.element(2)) == "a"
    nine = GF(3, 2)
    assert str(nine.element([2, 1])) == "a+2"
    assert str(nine.element([0, 2])) == "2a"


def test_large_prime_field_without_tables():
    big = GF(1009)
    a, b = big.element(501), big.element(777)
    assert (a + b).val == (501 + 777) % 1009
    assert (a * b).val == (501 * 777) % 1009
    assert (a * a.inverse()).val == 1
    assert (-a).val == (1009 - 501) % 1009


def test_extension_field_without_tables():
    f729 = GF(3, 6)
    a = f729.element(5)
    b = f729.element(600)
    assert (a * b) * a.inverse() == b
    assert a ** (729 - 1) == f729.one
    assert (a - b) + b == a


def test_tables_match_coefficient_arithmetic():
    # X is not primitive in GF(3^2) mod X^2 + 1 (order 4) nor in GF(2^8)
    # mod X^8 + X^4 + X^3 + X + 1 (order 51), so the log tables must not
    # assume it is.
    aes = [1, 1, 0, 1, 1, 0, 0, 0, 1]
    x_orders = {(9, (1, 0, 1)): 4, (256, tuple(aes)): 51}
    for field in (GF(2, 2), GF(3, 2, modulus=[1, 0, 1]), GF(2, 8),
                  GF(2, 8, modulus=aes), GF(3, 5)):
        q = field.order
        order = x_orders.get((q, field.modulus))
        if order is not None:
            x = field.element([0, 1])
            assert x ** order == field.one
            assert all(x ** i != field.one for i in range(1, order))
        for a in range(q):
            assert field._add_val(a, field.neg(a)) == 0
            if a:
                assert field._mul_val(a, field.inv(a)) == 1
            for b in range(q):
                assert field.add(a, b) == field._add_val(a, b)
                assert field.mul(a, b) == field._mul_val(a, b)


def _reference_tables(field):
    """The tables by the per-entry algorithm: powers of the smallest
    primitive element by coefficient-vector products, then one Python step
    per table entry."""
    q, p = field.order, field.p
    for g in range(2, q):
        exp, x = [1], g
        while x != 1:
            exp.append(x)
            x = field._mul_val(x, g)
        if len(exp) == q - 1:
            break
    log = [0] * q
    for i, v in enumerate(exp):
        log[v] = i
    exp = exp + exp
    add_v = [0] * (q * q)
    for a in range(q):
        row, high = a * q, (a // p) * q
        for b in range(q):
            add_v[row + b] = add_v[high + b // p] * p + (a % p + b % p) % p
    mul_v = [0] * q
    for la in log[1:]:
        mul_v += [0] + [exp[la + lb] for lb in log[1:]]
    neg_v = [0] * q
    for a in range(1, q):
        neg_v[a] = neg_v[a // p] * p + (-a) % p
    inv_v = [0] + [exp[q - 1 - la] for la in log[1:]]
    return add_v, mul_v, neg_v, inv_v


TABLED_FIELDS = (
    [(2, e, None) for e in range(2, 9)]
    + [(3, e, None) for e in range(2, 6)]
    + [(5, 2, None), (5, 3, None), (7, 2, None), (11, 2, None), (13, 2, None)]
    + [(2, 8, (1, 1, 0, 1, 1, 0, 0, 0, 1)), (3, 2, (1, 0, 1))]
)


@pytest.mark.parametrize("p, e, modulus", TABLED_FIELDS)
def test_tables_match_the_per_entry_build(p, e, modulus):
    field = GF(p, e, modulus)
    q = field.order
    add_v, mul_v, neg_v, inv_v, _ = field._build_tables()
    reference = _reference_tables(field)
    assert [add_v, mul_v, neg_v, inv_v] == list(reference)
    assert all(type(table) is list for table in (add_v, mul_v, neg_v, inv_v))
    if p == 2:
        # the translation tables of the XOR kernels are the same rows
        tables = field.packed_matmul.args[0]
        assert tables == [bytes(reference[1][a * q : a * q + q]) + bytes(256 - q)
                          for a in range(q)]


def test_fields_and_elements_pickle():
    import pickle

    for field in (F7, F4, GF(1009), GF(3, 6)):
        copy = pickle.loads(pickle.dumps(field))
        assert copy == field
        assert copy.mul(2, 3) == field.mul(2, 3)
        element = field.element(3)
        assert pickle.loads(pickle.dumps(element)) == element


def test_interned_fields_skip_the_primality_test(monkeypatch):
    import pickle

    import cartcodes.field as field_module

    fields = (GF(2**31 - 1), GF(2, 8))
    calls = []

    def counting_is_prime(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(field_module, "is_prime", counting_is_prime)
    assert GF(2**31 - 1) is fields[0]
    assert GF(2, 8) is fields[1]
    for field in fields:
        element = field.element(5)
        copy = pickle.loads(pickle.dumps(element))
        assert copy == element and copy.field is field
    assert calls == []
    # equal but non-int arguments still go through validation
    for bad in ((7.0,), (7, 1.0), (2, 2.0), (True,)):
        with pytest.raises(ValueError):
            Field(*bad)


def test_extension_field_builds_its_base_once(monkeypatch):
    # A fresh GF(23^2) constructs GF(23) and itself, and reads the base back
    # from the registry instead of calling Field again.
    import cartcodes.field as field_module

    monkeypatch.setattr(field_module, "_FIELDS", {})
    calls = []
    init = Field.__init__

    def counting_init(self, *args):
        calls.append(args)
        init(self, *args)

    monkeypatch.setattr(Field, "__init__", counting_init)
    field = GF(23, 2)
    assert calls == [(23,), (23, 2, None)]
    assert field._base is GF(23) and field.mul(24, 24) == field._mul_val(24, 24)


def _seeded_nonzero(field, count, seed=1):
    rng = random.Random(seed)
    return [field.from_int(rng.randrange(1, field.order)) for _ in range(count)]


@pytest.mark.parametrize("p, e", [(2, 64), (2, 128), (3, 81), (2**31 - 1, 2)])
def test_untabled_inverse(p, e):
    field = GF(p, e)
    for a in _seeded_nonzero(field, 10):
        assert a * a.inverse() == field.one


@pytest.mark.parametrize("p, e", [(3, 6), (2, 16)])
def test_untabled_inverse_matches_power(p, e):
    field = GF(p, e)
    for a in _seeded_nonzero(field, 10):
        assert a.inverse() == a ** (field.order - 2)


def test_untabled_inverse_is_fast():
    field = GF(2, 128)
    elements = _seeded_nonzero(field, 100)
    start = time.perf_counter()
    for a in elements:
        a.inverse()
    assert time.perf_counter() - start < 1.0
