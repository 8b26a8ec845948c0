import pytest

from cartcodes import GF, Field, FieldMismatchError
from cartcodes.field import is_prime


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
    assert GF(7) != GF(11)
    assert GF(2, 2) == GF(2, 2, modulus=[1, 1, 1])
    # equal fields from separate constructions interoperate
    assert GF(7).element(3) + Field(7).element(5) == GF(7).element(1)


def test_prime_validation():
    with pytest.raises(ValueError):
        GF(4)
    with pytest.raises(ValueError):
        GF(1)
    with pytest.raises(ValueError):
        GF((1 << 31) + 11)
    assert is_prime(2**31 - 1)


def test_modulus_validation():
    with pytest.raises(ValueError):
        GF(2, 2, modulus=[1, 0, 1])  # (X+1)^2
    with pytest.raises(ValueError):
        GF(2, 2, modulus=[1, 1, 2])  # not monic after reduction
    with pytest.raises(ValueError):
        GF(2, 2, modulus=[1, 1])  # wrong degree
    with pytest.raises(ValueError):
        GF(7, modulus=[1, 1])  # prime field takes none


def test_default_modulus_search():
    assert GF(2, 2).modulus == (1, 1, 1)
    assert GF(2, 3).modulus == (1, 1, 0, 1)
    assert GF(3, 2).modulus == (1, 0, 1)  # X^2 + 1 is irreducible mod 3
    f64 = GF(2, 6)
    assert f64.order == 64
    x = f64.element(2)
    assert x ** 63 == f64.one


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
            assert field._neg_t[a].val == field._neg_val(a)
            if a:
                assert field._inv_t[a].val == field._inv_val(a)
            for b in range(q):
                assert field._add_t[a * q + b].val == field._add_val(a, b)
                assert field._mul_t[a * q + b].val == field._mul_val(a, b)


def test_fields_and_elements_pickle():
    import pickle

    for field in (F7, F4, GF(1009), GF(3, 6)):
        copy = pickle.loads(pickle.dumps(field))
        assert copy == field
        assert copy.mul(2, 3) == field.mul(2, 3)
        element = field.element(3)
        assert pickle.loads(pickle.dumps(element)) == element
