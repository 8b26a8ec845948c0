import random

import pytest

from cartcodes import (
    GF,
    CartesianSpec,
    FieldMismatchError,
    Matrix,
    Poly,
    SingularMatrixError,
    generator_matrix,
    dual_spec,
    subspace_intersection,
)

F7 = GF(7)


def M(rows, field=F7):
    return Matrix.from_ints(field, rows)


def random_matrix(rng, field, r, c):
    return Matrix.from_ints(
        field, [[rng.randrange(field.order) for _ in range(c)] for _ in range(r)]
    )


def test_rref_identity_and_zero():
    ident = Matrix.identity(F7, 3)
    r, rank, pivots = ident.rref()
    assert r == ident and rank == 3 and pivots == (0, 1, 2)
    z = Matrix.zero(F7, 2, 3)
    r, rank, pivots = z.rref()
    assert r == z and rank == 0 and pivots == ()


def test_rref_rank_example():
    m = M([[1, 1, 1], [0, 1, 2]])
    _, rank, _ = m.rref()
    assert rank == 2


def test_nullspace_trivial_cases():
    assert Matrix.identity(F7, 3).nullspace().nrows == 0
    z = Matrix.zero(F7, 1, 4)
    ns = z.nullspace()
    assert ns.nrows == 4 and ns.rank() == 4


def test_nullspace_of_generator():
    spec = CartesianSpec.from_ints(F7, [[0, 1, 2]], [1, 1, 1], 2)
    G = generator_matrix(spec).generator
    ns = G.nullspace()
    assert ns.nrows == 1
    # orthogonal to both rows, e.g. the line through (1,5,1)
    prod = G @ ns.transpose()
    assert all(x.val == 0 for row in prod.rows for x in row)
    assert ns.row_space_contains([F7.element(v) for v in (1, 5, 1)])


def test_nullspace_orthogonality_random():
    rng = random.Random(11)
    for _ in range(100):
        m = random_matrix(rng, F7, rng.randrange(1, 5), rng.randrange(1, 6))
        ns = m.nullspace()
        assert ns.nrows == m.ncols - m.rank()
        if ns.nrows:
            prod = m @ ns.transpose()
            assert all(x.val == 0 for row in prod.rows for x in row)


def test_subspace_intersection_basics():
    u = M([[1, 0, 3], [0, 1, 1]])
    same = subspace_intersection(u, u)
    assert same.nrows == 2 and same.same_row_space(u)
    w = u.nullspace()
    assert subspace_intersection(u, w).nrows == 0
    assert subspace_intersection(u, Matrix.empty(F7, 3)).nrows == 0
    with pytest.raises(ValueError):
        subspace_intersection(u, M([[1, 2]]))


def test_subspace_intersection_nontrivial():
    # code meeting its dual: scaled three-point evaluation code
    spec = CartesianSpec.from_ints(F7, [[0, 1, 2]], [1, 1, 2], 2)
    G = generator_matrix(spec).generator
    Gd = generator_matrix(dual_spec(spec)).generator
    inter = subspace_intersection(G, Gd)
    assert inter.nrows >= 1
    for row in inter.rows:
        assert G.row_space_contains(row)
        assert Gd.row_space_contains(row)


def test_intersection_dimension_identity():
    rng = random.Random(12)
    for _ in range(100):
        u = random_matrix(rng, F7, rng.randrange(1, 4), 5)
        w = random_matrix(rng, F7, rng.randrange(1, 4), 5)
        inter = subspace_intersection(u, w)
        dim_sum = u.vstack(w).rank()
        assert inter.nrows + dim_sum == u.rank() + w.rank()


def test_nonsingular_and_inverse():
    singular = [M([[6, 2], [2, 3]]), M([[3, 4], [4, 3]])]
    for m in singular:
        assert not m.is_nonsingular()
        assert m.det().val == 0
        with pytest.raises(SingularMatrixError):
            m.inverse()
    ident = Matrix.identity(F7, 2)
    assert ident.is_nonsingular()
    assert ident.inverse() == ident
    m = M([[3, 3], [3, 5]])
    assert m.is_nonsingular()
    assert m @ m.inverse() == ident
    with pytest.raises(ValueError):
        M([[1, 2, 3]]).is_nonsingular()


def test_det_multiplicative():
    rng = random.Random(13)
    for _ in range(60):
        a = random_matrix(rng, F7, 3, 3)
        b = random_matrix(rng, F7, 3, 3)
        assert (a @ b).det() == a.det() * b.det()


def test_rank_transpose_invariance():
    rng = random.Random(14)
    for _ in range(100):
        m = random_matrix(rng, F7, rng.randrange(1, 5), rng.randrange(1, 5))
        assert m.rank() == m.transpose().rank()


def test_extension_field_linalg():
    F4 = GF(2, 2)
    m = Matrix.from_ints(F4, [[1, 2], [2, 3]])
    assert m.rank() == 1
    assert m.det().val == 0
    m2 = Matrix.from_ints(F4, [[2, 1], [1, 1]])
    assert m2.is_nonsingular()
    assert m2 @ m2.inverse() == Matrix.identity(F4, 2)


def test_row_space_queries():
    g = M([[1, 1, 1], [0, 1, 2]])
    assert g.row_space_contains([F7.element(v) for v in (1, 2, 3)])
    assert not g.row_space_contains([F7.element(v) for v in (1, 0, 1)])
    assert g.row_space_contains([F7.zero] * 3)
    shuffled = M([[0, 2, 4], [1, 1, 1]])
    assert g.same_row_space(shuffled)
    assert not g.same_row_space(M([[1, 0, 0], [0, 1, 0]]))


def test_shape_errors_and_empty():
    with pytest.raises(ValueError):
        Matrix(F7, [[F7.one], [F7.one, F7.zero]])
    with pytest.raises(ValueError):
        M([[1, 2]]) @ M([[1, 2]])
    empty = Matrix.empty(F7, 3)
    assert empty.nrows == 0 and empty.ncols == 3 and empty.rank() == 0
    assert empty.nullspace().nrows == 3
    stacked = empty.vstack(M([[1, 2, 3]]))
    assert stacked.nrows == 1


def test_matmul_against_reference():
    rng = random.Random(15)
    for _ in range(50):
        a = random_matrix(rng, F7, 2, 3)
        b = random_matrix(rng, F7, 3, 2)
        prod = a @ b
        for i in range(2):
            for j in range(2):
                acc = F7.zero
                for t in range(3):
                    acc = acc + a.rows[i][t] * b.rows[t][j]
                assert prod.rows[i][j] == acc


def test_cross_field_matmul_rejected():
    a = M([[1, 2]])
    b = M([[3], [9]], GF(11))
    with pytest.raises(FieldMismatchError):
        a @ b
    with pytest.raises(FieldMismatchError):
        b @ a
    with pytest.raises(FieldMismatchError):
        a.vstack(b.transpose())
    with pytest.raises(FieldMismatchError):
        subspace_intersection(a, b.transpose())
    # elements of another field never enter a matrix (GF(11)'s 10 is no code of GF(7))
    with pytest.raises(FieldMismatchError):
        Matrix(F7, [[GF(11).element(10), F7.one]])
    with pytest.raises(FieldMismatchError):
        a.row_space_contains([GF(11).element(10), F7.one])


def test_integer_entries_rejected_with_type_error():
    # plain integers are no elements: the error names the type and from_ints
    for build in (lambda: Matrix(F7, [[1, 2]]), lambda: Poly(F7, [1, 2])):
        with pytest.raises(TypeError, match="FieldElement.*from_ints"):
            build()
    with pytest.raises(TypeError, match="FieldElement"):
        Matrix(F7, [[F7.one, 2]])
    assert Matrix.from_ints(F7, [[1, 2]]).vals == ((1, 2),)
    assert Poly.from_ints(F7, [1, 2]).vals == (1, 2)


def test_json_and_str():
    m = M([[1, 2], [3, 4]])
    assert m.to_json() == [[1, 2], [3, 4]]
    assert str(m) == "[1 2]\n[3 4]"
    assert "2x2" in repr(m)
