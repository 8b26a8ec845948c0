import random
import time

import pytest

from cartcodes import (
    GF,
    CartesianSet,
    FieldMismatchError,
    MPoly,
    Poly,
    interpolate_multivariate,
    lagrange_point,
    lagrange_term,
    monomial_basis,
    reduce_mod_ideal,
    vanishing_poly,
)

F7 = GF(7)


def mk_set(*components):
    return CartesianSet.from_ints(F7, list(components))


def random_mpoly(rng, field, nvars, max_exp=4, terms=5):
    data = {}
    for _ in range(terms):
        exps = tuple(rng.randrange(max_exp) for _ in range(nvars))
        data[exps] = field.element(rng.randrange(field.order))
    return MPoly(field, nvars, data)


def test_point_order_rightmost_fastest():
    cs = mk_set([0, 1], [5, 6])
    assert [(a.val, b.val) for a, b in cs.points] == [(0, 5), (0, 6), (1, 5), (1, 6)]
    assert cs.size == 4 and cs.sizes == (2, 2)


def test_set_validation():
    with pytest.raises(ValueError):
        mk_set([0, 0], [1])
    with pytest.raises(ValueError):
        mk_set([])
    with pytest.raises(ValueError):
        CartesianSet([])
    with pytest.raises(ValueError):
        CartesianSet([[F7.one], [GF(5).one]])


def test_eval_examples():
    c = MPoly.constant(F7, 2, F7.element(4))
    assert c.evaluate((F7.zero, F7.element(3))).val == 4
    x1x2 = MPoly(F7, 2, {(1, 1): F7.one})
    assert x1x2.evaluate(els(2, 3)).val == 6
    f = MPoly(F7, 2, {(2, 0): F7.one, (0, 1): F7.one})
    assert f.evaluate(els(3, 5)).val == 0
    with pytest.raises(ValueError):
        x1x2.evaluate((F7.one,))


def els(*vals):
    return tuple(F7.element(v) for v in vals)


def test_mpoly_arithmetic():
    rng = random.Random(3)
    for _ in range(50):
        f = random_mpoly(rng, F7, 2)
        g = random_mpoly(rng, F7, 2)
        pt = els(rng.randrange(7), rng.randrange(7))
        assert (f + g).evaluate(pt) == f.evaluate(pt) + g.evaluate(pt)
        assert (f * g).evaluate(pt) == f.evaluate(pt) * g.evaluate(pt)
        assert (f - f).is_zero


def test_grlex_term_order():
    f = MPoly(F7, 2, {(0, 0): F7.one, (1, 0): F7.one, (0, 1): F7.one,
                      (2, 0): F7.one, (1, 1): F7.one})
    order = [exps for exps, _ in f.sorted_terms()]
    assert order == [(2, 0), (1, 1), (1, 0), (0, 1), (0, 0)]
    assert f.leading_term()[0] == (2, 0)


def test_reduce_leaves_reduced_untouched():
    cs = mk_set([0, 1, 2], [0, 1])
    f = MPoly(F7, 2, {(2, 1): F7.element(3), (0, 0): F7.element(5)})
    assert reduce_mod_ideal(f, cs) == f


def test_reduce_single_power():
    cs = mk_set([0, 1, 2], [0, 1])
    n1 = 3
    f = MPoly(F7, 2, {(n1, 0): F7.one})
    L1 = vanishing_poly([F7.element(v) for v in (0, 1, 2)])
    expected = MPoly.lift(Poly.monomial(F7.one, n1) - L1, 2, 0)
    assert reduce_mod_ideal(f, cs) == expected


def test_reduce_properties():
    rng = random.Random(4)
    cs = mk_set([0, 1, 2], [1, 3])
    gens = cs.vanishing_generators()
    for _ in range(60):
        f = random_mpoly(rng, F7, 2, max_exp=6, terms=6)
        r = reduce_mod_ideal(f, cs)
        assert all(r.degree_in(i) < cs.sizes[i] for i in range(2)) or r.is_zero
        assert r.total_degree <= f.total_degree
        for pt in cs.points:
            assert f.evaluate(pt) == r.evaluate(pt)
        assert reduce_mod_ideal(r, cs) == r
        # anything in the ideal reduces to zero
        g = random_mpoly(rng, F7, 2, max_exp=3, terms=3)
        member = MPoly.lift(gens[0], 2, 0) * g
        assert reduce_mod_ideal(member, cs).is_zero


def test_reduce_high_powers_fast():
    # high powers in every variable: a rewrite of one term at a time reached
    # the same monomials again and again, taking seconds at e = 20
    cs = mk_set([0, 1, 2], [1, 3, 5], [2, 4, 6])
    e = 20
    f = MPoly(F7, 3, {(e, e, e): F7.one, (e, 0, 0): F7.element(3), (0, e, 1): F7.element(5)})
    start = time.perf_counter()
    r = reduce_mod_ideal(f, cs)
    assert time.perf_counter() - start < 0.01
    assert all(r.degree_in(i) < 3 for i in range(3))
    for pt in cs.points:
        assert r.evaluate(pt) == f.evaluate(pt)


def test_reduce_rejects_another_field():
    cs = mk_set([0, 1, 2], [0, 1])
    F11 = GF(11)
    # already reduced, so no rewrite would ever multiply
    for f in (MPoly.constant(F11, 2, F11.one), MPoly.zero(F11, 2)):
        with pytest.raises(FieldMismatchError):
            reduce_mod_ideal(f, cs)


def test_lagrange_point_univariate_specialization():
    A = [F7.element(v) for v in (0, 1, 3)]
    cs = CartesianSet([A])
    for a in A:
        assert lagrange_point(cs, (a,)) == MPoly.lift(lagrange_term(A, a), 1, 0)


def test_lagrange_point_grid():
    cs = mk_set([0, 1], [0, 1])
    pt = (F7.zero, F7.zero)
    lp = lagrange_point(cs, pt)
    x1m1 = MPoly(F7, 2, {(1, 0): F7.one, (0, 0): -F7.one})
    x2m1 = MPoly(F7, 2, {(0, 1): F7.one, (0, 0): -F7.one})
    assert lp == x1m1 * x2m1
    deriv = cs.derivative_values()
    for b in cs.points:
        if b == pt:
            assert lp.evaluate(b) == deriv[0][0] * deriv[1][0]
        else:
            assert lp.evaluate(b).val == 0
    with pytest.raises(ValueError):
        lagrange_point(cs, (F7.element(5), F7.zero))
    with pytest.raises(ValueError):  # same codes, another field
        lagrange_point(cs, (GF(11).zero, GF(11).zero))


def test_interpolate_multivariate():
    cs = mk_set([0, 1], [0, 1])
    zeros = [F7.zero] * 4
    assert interpolate_multivariate(cs, zeros).is_zero
    values = [F7.one, F7.zero, F7.zero, F7.zero]
    f = interpolate_multivariate(cs, values)
    lp = lagrange_point(cs, cs.points[0])
    assert f == lp.scale(lp.evaluate(cs.points[0]).inverse())
    for pt, v in zip(cs.points, values):
        assert f.evaluate(pt) == v
    with pytest.raises(ValueError):
        interpolate_multivariate(cs, zeros[:3])
    with pytest.raises(FieldMismatchError):
        interpolate_multivariate(cs, [GF(11).one] * 4)


def test_interpolate_multivariate_uniqueness():
    rng = random.Random(5)
    cs = mk_set([0, 2, 5], [1, 4])
    for _ in range(40):
        g = reduce_mod_ideal(random_mpoly(rng, F7, 2, max_exp=5), cs)
        values = [g.evaluate(pt) for pt in cs.points]
        assert interpolate_multivariate(cs, values) == g


def test_monomial_basis():
    cs1 = mk_set([0, 1, 2])
    assert monomial_basis(cs1, 1) == [(0,)]
    assert monomial_basis(cs1, 2) == [(0,), (1,)]
    cs = mk_set([0, 1], [0, 1, 2])
    assert monomial_basis(cs, 3) == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1)]
    assert monomial_basis(cs, 0) == []
    # above the cap the basis fills the whole grid
    assert len(monomial_basis(cs, 1 + sum(s - 1 for s in cs.sizes))) == cs.size


def test_mpoly_json_and_str():
    f = MPoly(F7, 2, {(1, 1): F7.element(3), (0, 0): F7.one})
    assert f.to_json() == [
        {"exponents": [1, 1], "coeff": 3},
        {"exponents": [0, 0], "coeff": 1},
    ]
    assert str(f) == "3*X1*X2 + 1"
