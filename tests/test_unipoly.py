import hashlib
import json
import random

import pytest

from cartcodes import (
    GF,
    NEG_INF,
    FieldMismatchError,
    InconsistencyError,
    NotCoprimeError,
    Poly,
    UnivariateLcdAnalysis,
    associated_poly_univariate,
    eea_sequence,
    formal_derivative,
    interpolate,
    lagrange_term,
    vanishing_poly,
)
from cartcodes.lcd import PointSetData

F7 = GF(7)
F2 = GF(2)


def els(field, *vals):
    return [field.element(v) for v in vals]


def P(field, *coeffs):
    return Poly.from_ints(field, coeffs)


def test_normalization_and_degree():
    assert P(F7, 1, 2, 0, 0).coeffs == tuple(els(F7, 1, 2))
    zero = Poly.zero(F7)
    assert zero.degree == NEG_INF
    assert zero.degree < 0
    assert P(F7, 3).degree == 0
    assert P(F7, 0, 0, 5).degree == 2


def test_arithmetic_roundtrip():
    a = P(F7, 2, 0, 1)
    b = P(F7, 5, 3)
    assert a + b - b == a
    assert (a * b)(F7.element(4)) == a(F7.element(4)) * b(F7.element(4))
    assert (a * Poly.zero(F7)).is_zero
    assert a.scale(F7.element(2)) == a + a


def test_divmod_examples():
    L = vanishing_poly(els(F7, 0, 1, 2))
    q, r = divmod(L, Poly.x(F7))
    assert r.is_zero
    assert q == P(F7, 2, 4, 1)
    a = P(F7, 3, 1, 4)
    q, r = divmod(a, Poly.one(F7))
    assert (q, r) == (a, Poly.zero(F7))
    q, r = divmod(P(F2, 1, 0, 1), P(F2, 1, 1))
    assert r.is_zero
    assert q == P(F2, 1, 1)


def test_divmod_identity_random():
    rng = random.Random(1)
    for _ in range(300):
        a = P(F7, *(rng.randrange(7) for _ in range(rng.randrange(1, 8))))
        b = P(F7, *(rng.randrange(7) for _ in range(rng.randrange(1, 6))))
        if b.is_zero:
            continue
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree


def test_divide_by_zero():
    with pytest.raises(ZeroDivisionError):
        divmod(P(F7, 1, 1), Poly.zero(F7))


def test_vanishing_poly():
    L = vanishing_poly(els(F7, 0, 1, 2))
    assert L == P(F7, 0, 2, 4, 1)  # X^3 + 4X^2 + 2X
    assert L.leading_coefficient == F7.one
    single = vanishing_poly(els(F7, 5))
    assert single == P(F7, -5 % 7, 1)
    whole = vanishing_poly(list(F7))
    # X^q - X: zero on the whole field, monic of degree q
    assert whole == Poly(F7, [F7.zero, -F7.one] + [F7.zero] * 5 + [F7.one])
    for x in F7:
        assert whole(x).val == 0
    with pytest.raises(ValueError):
        vanishing_poly(els(F7, 1, 1))
    with pytest.raises(ValueError):
        vanishing_poly([])


def test_lagrange_term():
    A = els(F7, 0, 1, 2)
    t = lagrange_term(A, A[0])
    assert t == P(F7, 2, 4, 1)  # X^2 + 4X + 2
    for a in A:
        term = lagrange_term(A, a)
        for b in A:
            if b == a:
                assert term(b) == formal_derivative(vanishing_poly(A))(a)
                assert term(b).val != 0
            else:
                assert term(b).val == 0
    with pytest.raises(ValueError):
        lagrange_term(A, F7.element(5))


def test_formal_derivative():
    assert formal_derivative(P(F7, 0, 2, 4, 1)) == P(F7, 2, 1, 3)
    assert formal_derivative(P(F7, 6)).is_zero
    x7 = Poly.monomial(F7.one, 7)
    assert formal_derivative(x7).is_zero


def test_interpolate():
    c = F7.element(4)
    assert interpolate([(F7.zero, c)]) == Poly.constant(c)
    pts = [(F7.element(0), F7.element(1)), (F7.element(1), F7.zero), (F7.element(2), F7.zero)]
    f = interpolate(pts)
    assert f == P(F7, 1, 2, 4)  # 4X^2 + 2X + 1
    for x, y in pts:
        assert f(x) == y
    with pytest.raises(ValueError):
        interpolate([(F7.zero, c), (F7.zero, c)])


def test_interpolate_uniqueness():
    rng = random.Random(2)
    xs = els(F7, 0, 2, 3, 6)
    for _ in range(100):
        f = P(F7, *(rng.randrange(7) for _ in range(4)))
        pts = [(x, f(x)) for x in xs]
        assert interpolate(pts) == f


def test_eea_reference_degree_sets():
    F13, F17 = GF(13), GF(17)
    pts = (0, 2, 3, 5, 6, 8, 10, 11)
    for field, expected in ((F13, [7, 6, 5, 4, 3, 0]), (F17, [7, 6, 5, 4, 3, 2, 1, 0])):
        A = els(field, *pts)
        L = vanishing_poly(A)
        H = formal_derivative(L)  # unit scalars
        result = eea_sequence(L, H)
        assert result.remainder_degrees() == expected
        assert result.steps[-1].remainder == Poly.one(field)
        assert result.final_constant.val != 0


def test_eea_step_invariants():
    F13 = GF(13)
    A = els(F13, 0, 2, 3, 5, 6, 8, 10, 11)
    L = vanishing_poly(A)
    H = formal_derivative(L)
    result = eea_sequence(L, H)
    n = int(L.degree)
    degrees = [int(s.remainder.degree) for s in result.steps]
    for i, step in enumerate(result.steps):
        assert step.index == i
        assert step.bezout_h * L + step.bezout_f * H == step.remainder
        if i >= 1:
            assert int(step.bezout_f.degree) == n - degrees[i - 1]
        if i >= 2:
            assert degrees[i] < degrees[i - 1]
            assert step.quotient is not None
        else:
            assert step.quotient is None


def test_eea_constant_second_input():
    L = vanishing_poly(els(F7, 0, 1, 2))
    H = P(F7, 4)
    result = eea_sequence(L, H)
    assert result.t == 0
    assert len(result.steps) == 2
    assert result.steps[-1].remainder == Poly.one(F7)
    assert result.final_constant == F7.element(4)
    # normalized Bezout row still exact: (1/4) * H = 1
    last = result.steps[-1]
    assert last.bezout_h * L + last.bezout_f * H == Poly.one(F7)


def test_eea_rejects_bad_inputs():
    L = vanishing_poly(els(F7, 0, 1, 2))
    with pytest.raises(ValueError):
        eea_sequence(L, L)  # degrees not decreasing
    with pytest.raises(ValueError):
        eea_sequence(L, Poly.zero(F7))
    with pytest.raises(NotCoprimeError) as err:
        eea_sequence(L, vanishing_poly(els(F7, 0, 1)))
    assert err.value.gcd == vanishing_poly(els(F7, 0, 1))


# SHA-256 of eea_sequence on 60 seeded (L, H) pairs per field, captured
# before the Euclidean kernel stopped computing the h-side (see
# eea_digest); every step, quotient and Bezout row must stay the same.
EEA_DIGESTS = {
    (7, 1): "0f9891cc65ad48f07570744d21ccfcf2219085173d9b11f239d7cc969e67f05e",
    (3, 2): "e2d86bbc10ebb3e6ce8d9d77d825d058f66d687bdfb99220c82d7cb7f8f70721",
    (2, 8): "8cdadead5248ff2304eb55aaedf3098be875c9e68742b2864eb62dcc660f068a",
    (2**31 - 1, 1): "5230c10b7da4dea6c4f6be8838c25c9746bf475ca08fbafa322c250d0e32e5d1",
}


def eea_digest(field, seed, cases):
    rng = random.Random(seed)
    digest = hashlib.sha256()
    for _ in range(cases):
        n = rng.randrange(1, min(field.order, 16) + 1)
        points = [field.from_int(c) for c in rng.sample(range(field.order), n)]
        scalars = [field.from_int(rng.randrange(1, field.order)) for _ in range(n)]
        result = eea_sequence(vanishing_poly(points), associated_poly_univariate(points, scalars))
        rows = [
            [s.index, s.remainder.vals, None if s.quotient is None else s.quotient.vals,
             s.bezout_h.vals, s.bezout_f.vals]
            for s in result.steps
        ]
        digest.update(json.dumps([rows, result.final_constant.val]).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("p, e", sorted(EEA_DIGESTS))
def test_eea_sequence_matches_captured_results(p, e):
    assert eea_digest(GF(p, e), 0xEEA0 + p + e, 60) == EEA_DIGESTS[p, e]


def test_verdict_path_checks_the_bezout_degree_law(monkeypatch):
    # The analysis keeps the f-side of the Bezout data to check deg f_i on
    # every row: a kernel that corrupts any one f_i must be caught there.
    import cartcodes.unipoly as unipoly_module

    F13 = GF(13)
    A = els(F13, 0, 2, 3, 5, 6, 8, 10, 11)
    v = els(F13, 1, 3, 4, 1, 7, 2, 9, 5)
    set_data = PointSetData(A)
    rows = len(UnivariateLcdAnalysis(A, v, set_data=set_data).remainder_degrees) - 1
    assert rows >= 3
    original = unipoly_module._sub_mul_vals
    for corrupt in range(rows):
        calls = []

        def corrupting(field, y, q, x):
            out = original(field, y, q, x)
            if len(calls) == corrupt:
                out = out + [1]  # one degree too high
            calls.append(out)
            return out

        monkeypatch.setattr(unipoly_module, "_sub_mul_vals", corrupting)
        with pytest.raises(InconsistencyError, match="Bezout degree law"):
            UnivariateLcdAnalysis(A, v, set_data=set_data)
    monkeypatch.setattr(unipoly_module, "_sub_mul_vals", original)
    UnivariateLcdAnalysis(A, v, set_data=set_data)


def test_cross_field_poly_rejected():
    a = Poly.from_ints(GF(7), [1, 5])
    b = Poly.from_ints(GF(11), [3, 9])
    for x, y in ((a, b), (b, a)):
        with pytest.raises(FieldMismatchError):
            x * y
        with pytest.raises(FieldMismatchError):
            divmod(x, y)
        with pytest.raises(FieldMismatchError):
            x + y
    # elements of another field never enter a polynomial
    with pytest.raises(FieldMismatchError):
        Poly(GF(7), [GF(11).element(10), GF(7).one])
    with pytest.raises(FieldMismatchError):
        a.scale(GF(11).element(3))
    with pytest.raises(FieldMismatchError):
        a(GF(11).element(3))


def test_poly_display():
    assert str(P(F7, 1, 2, 4)) == "4*X^2 + 2*X + 1"
    assert str(Poly.zero(F7)) == "0"
    assert str(Poly.x(F7)) == "X"
    assert P(F7, 1, 2, 4).to_json() == [1, 2, 4]
