"""Property suite: every module-level invariant, >= 1000 cases each,
fixed seeds throughout."""

import copy
import itertools
import math
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from cartcodes import (
    GF,
    CartesianSet,
    CartesianSpec,
    Matrix,
    MPoly,
    Poly,
    UnivariateLcdAnalysis,
    associated_poly_univariate,
    brute_force_min_distance,
    cartesian_scalars,
    dimension_formula,
    dual_spec,
    eea_sequence,
    formal_derivative,
    generator_matrix,
    interpolate,
    interpolate_multivariate,
    is_lcd_bruteforce,
    is_lcd_product_sufficient,
    is_lcd_univariate,
    lagrange_term,
    min_distance_formula,
    monomial_basis,
    reduce_mod_ideal,
    subspace_intersection,
    vanishing_poly,
)
from cartcodes import linalg
from cartcodes.field import _divmod_vals, _slot_layout, _trim
from cartcodes.lcd import LCD, PointSetData
from cartcodes.linalg import (
    _echelon_entries,
    _echelon_vals,
    _intersection_vals,
    _matmul_vals,
    _nullspace_vals,
)
from cartcodes.multipoly import grlex_key

CASES = 1000

SMALL_FIELDS = [GF(q) for q in (2, 3, 5, 7, 11, 13)]
EXTENSION_FIELDS = [GF(2, 2), GF(2, 3), GF(3, 2), GF(2, 4), GF(5, 2), GF(3, 3)]
AXIOM_FIELDS = SMALL_FIELDS + EXTENSION_FIELDS
# above the table limit: arithmetic on demand, prime and extension
UNTABLED_FIELDS = [GF(1009), GF(3, 6)]
# small primes, tabled and untabled extensions, and GF(1009)
LINALG_FIELDS = SMALL_FIELDS + EXTENSION_FIELDS + UNTABLED_FIELDS
# the prime fields above, which eliminate on packed rows past their packing
# crossover, and the largest characteristic, whose slots are two words
PACKED_FIELDS = [f for f in LINALG_FIELDS if f.extension_degree == 1] + [GF(2**31 - 1)]
# the tabled fields of characteristic 2, which pack one byte per entry
CHAR2_FIELDS = [GF(2, 2), GF(2, 3), GF(2, 4), GF(2, 8)]
# tabled and untabled, prime and extension
REFERENCE_FIELDS = [GF(7), GF(3, 2)] + UNTABLED_FIELDS

# every prime power up to 64
ALL_ORDERS_LE_64 = [
    (2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1),
    (2, 4), (17, 1), (19, 1), (23, 1), (5, 2), (3, 3), (29, 1), (31, 1),
    (2, 5), (37, 1), (41, 1), (43, 1), (47, 1), (7, 2), (53, 1), (59, 1),
    (61, 1), (2, 6),
]


def random_subset(rng, field, lo=2, hi=5):
    size = rng.randrange(lo, min(hi, field.order) + 1)
    return [field._get(v) for v in sorted(rng.sample(range(field.order), size))]


def random_scalars(rng, field, n):
    return [field._get(rng.randrange(1, field.order)) for _ in range(n)]


def random_grid(rng, field, max_m=3, max_size=4):
    m = rng.randrange(1, max_m + 1)
    comps = [random_subset(rng, field, 2, max_size) for _ in range(m)]
    return CartesianSet(comps)


# ---- field axioms -------------------------------------------------------------


@settings(max_examples=CASES, derandomize=True, deadline=None)
@given(
    st.sampled_from(AXIOM_FIELDS),
    st.integers(min_value=0, max_value=10**9),
    st.integers(min_value=0, max_value=10**9),
    st.integers(min_value=0, max_value=10**9),
)
def test_field_axioms(field, i, j, k):
    a = field._get(i % field.order)
    b = field._get(j % field.order)
    c = field._get(k % field.order)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + field.zero == a
    assert a * field.one == a
    assert a + (-a) == field.zero
    if a.val:
        assert a * a.inverse() == field.one


def test_fermat_exhaustive_and_sampled():
    cases = 0
    for p, e in ALL_ORDERS_LE_64:
        field = GF(p, e)
        q = field.order
        for a in field:
            if a.val:
                assert a ** (q - 1) == field.one
                cases += 1
    rng = random.Random(0xFE47)
    for big in (GF(1009), GF(2**13 - 1)):
        for _ in range(200):
            a = big.element(rng.randrange(1, big.order))
            assert a ** (big.order - 1) == big.one
            cases += 1
    assert cases >= CASES


def test_inverse_involution():
    cases = 0
    for p, e in ALL_ORDERS_LE_64:
        field = GF(p, e)
        for a in field:
            if a.val:
                assert a.inverse().inverse() == a
                cases += 1
    rng = random.Random(0x1417)
    big = GF(1009)
    for _ in range(300):
        a = big.element(rng.randrange(1, 1009))
        assert a.inverse().inverse() == a
        cases += 1
    assert cases >= CASES


# ---- univariate polynomials ------------------------------------------------------


def test_eea_invariants():
    rng = random.Random(0xEEA)
    for _ in range(CASES):
        field = rng.choice(SMALL_FIELDS[2:] + UNTABLED_FIELDS)  # q >= 5 for room
        A = random_subset(rng, field, 2, 5)
        v = random_scalars(rng, field, len(A))
        L = vanishing_poly(A)
        H = associated_poly_univariate(A, v)
        result = eea_sequence(L, H)
        n = int(L.degree)
        degs = [int(s.remainder.degree) for s in result.steps]
        for i, step in enumerate(result.steps):
            assert step.bezout_h * L + step.bezout_f * H == step.remainder
            if i >= 1:
                assert int(step.bezout_f.degree) + degs[i - 1] == n
            if i >= 2:
                assert degs[i] < degs[i - 1]
        assert result.steps[-1].remainder == Poly.one(field)
        assert result.final_constant.val != 0


def test_interpolate_eval_identity():
    rng = random.Random(0x1277)
    for _ in range(CASES):
        field = rng.choice(SMALL_FIELDS)
        xs = random_subset(rng, field, 2, min(5, field.order))
        coeffs = [field._get(rng.randrange(field.order)) for _ in range(len(xs))]
        f = Poly(field, coeffs)
        pts = [(x, f(x)) for x in xs]
        assert interpolate(pts) == f


def test_vanishing_poly_roots_exhaustive():
    rng = random.Random(0x7A27)
    cases = 0
    while cases < CASES:
        p, e = rng.choice(ALL_ORDERS_LE_64)
        field = GF(p, e)
        if field.order < 2:
            continue
        A = random_subset(rng, field, 1, min(5, field.order))
        L = vanishing_poly(A)
        root_vals = {a.val for a in A}
        for x in field:
            assert (L(x).val == 0) == (x.val in root_vals)
            cases += 1


def test_unit_scalars_give_derivative():
    rng = random.Random(0xD317)
    for _ in range(CASES):
        field = rng.choice(SMALL_FIELDS)
        if field.order < 3:
            continue
        A = random_subset(rng, field, 2, min(5, field.order))
        H = associated_poly_univariate(A, [field.one] * len(A))
        assert H == formal_derivative(vanishing_poly(A))


# every body of the code primitives: tabled and untabled, prime and
# extension, and the widest field of each packed kind
PRIMITIVE_FIELDS = REFERENCE_FIELDS + [GF(2**31 - 1), GF(2, 8)]


def random_code_list(rng, field, max_len):
    return _trim([rng.randrange(field.order) for _ in range(rng.randrange(0, max_len + 1))])


def test_horner_is_synthetic_division_and_evaluation():
    # the partial sums of c at r: the quotient and remainder of long
    # division by X - r, and the remainder is c(r) summed over powers of r
    rng = random.Random(0x4E7B)
    for _ in range(CASES):
        field = rng.choice(PRIMITIVE_FIELDS)
        c = random_code_list(rng, field, 12)
        r = rng.randrange(field.order)
        sums = field.horner(c, r)
        assert len(sums) == len(c)
        x, value = field._get(r), field.zero
        for k, ck in enumerate(c):
            value = value + field._get(ck) * x**k
        assert Poly._from_vals(field, c)(x) == value
        if c:
            quot, rem = _divmod_vals(field, c, [field.neg(r), 1])
            assert sums[1:] == quot
            assert _trim(sums[:1]) == rem
            assert sums[0] == value.val


def test_row_mul_matches_mul():
    rng = random.Random(0x40A1)
    for _ in range(CASES):
        field = rng.choice(PRIMITIVE_FIELDS)
        n = rng.randrange(0, 20)
        x = [rng.randrange(field.order) for _ in range(n)]
        y = [rng.randrange(field.order) for _ in range(n)]
        before = (list(x), list(y))
        assert field.row_mul(x, y) == [field.mul(a, b) for a, b in zip(x, y)]
        assert (x, y) == before


def test_vanishing_poly_is_product_of_linear_factors():
    rng = random.Random(0x7A3F)
    for _ in range(CASES):
        field = rng.choice(PRIMITIVE_FIELDS)
        A = random_subset(rng, field, 1, 12)
        factors = [Poly(field, (-a, field.one)) for a in A]
        expected = Poly.one(field)
        for factor in factors:
            expected = expected * factor
        assert vanishing_poly(A) == expected
        i = rng.randrange(len(A))
        others = Poly.one(field)
        for factor in factors[:i] + factors[i + 1 :]:
            others = others * factor
        assert lagrange_term(A, A[i]) == others


# ---- multivariate polynomials ------------------------------------------------------


def random_mpoly(rng, field, nvars, max_exp, terms):
    data = {}
    for _ in range(terms):
        exps = tuple(rng.randrange(max_exp) for _ in range(nvars))
        data[exps] = field._get(rng.randrange(field.order))
    return MPoly(field, nvars, data)


def test_reduce_idempotent_and_value_preserving():
    rng = random.Random(0x2ED0)
    for _ in range(CASES):
        field = rng.choice(SMALL_FIELDS[1:4])
        grid = random_grid(rng, field, max_m=2, max_size=3)
        f = random_mpoly(rng, field, grid.nvars, max_exp=5, terms=4)
        r = reduce_mod_ideal(f, grid)
        assert reduce_mod_ideal(r, grid) == r
        assert r.is_zero or all(
            r.degree_in(i) < grid.sizes[i] for i in range(grid.nvars)
        )
        assert r.is_zero or r.total_degree <= f.total_degree
        for pt in grid.points:
            assert f.evaluate(pt) == r.evaluate(pt)


def test_monomial_basis_counts_and_complement():
    rng = random.Random(0xBA5E)
    cases = 0
    while cases < CASES:
        field = rng.choice(SMALL_FIELDS)
        grid = random_grid(rng, field, max_m=3, max_size=4)
        cap = sum(s - 1 for s in grid.sizes)
        for k in range(1, cap + 2):
            basis = monomial_basis(grid, k)
            # brute lattice count
            count = sum(
                1
                for exps in itertools.product(*(range(s) for s in grid.sizes))
                if sum(exps) <= k - 1
            )
            assert len(basis) == count
            assert len(basis) == dimension_formula(grid, k)
            assert basis == sorted(basis, key=grlex_key)
            if k <= cap:
                k_dual = cap - k + 1
                assert (
                    dimension_formula(grid, k) + dimension_formula(grid, k_dual)
                    == grid.size
                )
            cases += 1


def test_multivariate_interpolation_identity():
    rng = random.Random(0x1472)
    for _ in range(CASES // 2):
        field = rng.choice(SMALL_FIELDS[1:4])
        grid = random_grid(rng, field, max_m=2, max_size=3)
        f = reduce_mod_ideal(
            random_mpoly(rng, field, grid.nvars, max_exp=4, terms=4), grid
        )
        values = [f.evaluate(pt) for pt in grid.points]
        assert interpolate_multivariate(grid, values) == f
    # plus: round-trip outward, values -> poly -> values
    for _ in range(CASES // 2):
        field = rng.choice(SMALL_FIELDS[1:4])
        grid = random_grid(rng, field, max_m=2, max_size=3)
        values = [field._get(rng.randrange(field.order)) for _ in range(grid.size)]
        g = interpolate_multivariate(grid, values)
        assert [g.evaluate(pt) for pt in grid.points] == values


def reference_lagrange_sum(grid, weights):
    """The grid Lagrange sum point by point on elements: the sum of
    w_p * prod_i L_i / (X_i - p_i), each factor lifted from lagrange_term."""
    field, m = grid.field, grid.nvars
    total = MPoly.zero(field, m)
    for point, w in zip(grid.points, weights):
        term = MPoly.constant(field, m, w)
        for i, (comp, a) in enumerate(zip(grid.components, point)):
            term = term * MPoly.lift(lagrange_term(comp, a), m, i)
        total = total + term
    return total


def test_grid_lagrange_sums_match_element_reference():
    from cartcodes import associated_poly_multivariate, lagrange_point

    rng = random.Random(0x6A1D)
    for _ in range(CASES):
        field = rng.choice(LINALG_FIELDS)
        grid = CartesianSet(
            [random_subset(rng, field, 1, 4) for _ in range(rng.randrange(1, 4))]
        )
        one = field.one
        lags = [math.prod(lag, start=one) for lag in itertools.product(*grid.derivative_values())]
        values = [field._get(rng.randrange(field.order)) for _ in range(grid.size)]
        want = reference_lagrange_sum(grid, [y / lag for y, lag in zip(values, lags)])
        assert interpolate_multivariate(grid, values) == want
        scalars = random_scalars(rng, field, grid.size)
        want = reference_lagrange_sum(grid, [v * v for v in scalars])
        assert associated_poly_multivariate(grid, scalars) == want
        point = rng.choice(grid.points)
        hot = [one if p == point else field.zero for p in grid.points]
        assert lagrange_point(grid, point) == reference_lagrange_sum(grid, hot)


# ---- exact linear algebra ------------------------------------------------------


def random_matrix(rng, field, r, c):
    return Matrix(
        field,
        [[field._get(rng.randrange(field.order)) for _ in range(c)] for _ in range(r)],
        c,
    )


def test_rank_invariances():
    rng = random.Random(0x2A4C)
    for _ in range(CASES):
        field = rng.choice(SMALL_FIELDS + EXTENSION_FIELDS[:2] + UNTABLED_FIELDS)
        m = random_matrix(rng, field, rng.randrange(1, 5), rng.randrange(1, 5))
        rank = m.rank()
        assert rank == m.transpose().rank()
        # a random row operation preserves rank
        rows = [list(r) for r in m.rows]
        i, j = rng.randrange(m.nrows), rng.randrange(m.nrows)
        if i != j:
            c = field._get(rng.randrange(field.order))
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        assert Matrix(field, rows, m.ncols).rank() == rank


def gauss_jordan_reference(rows, ncols):
    """Textbook Gauss-Jordan on field elements: every pivot cleared in every
    other row as it is found.  Returns (reduced rows, pivot columns)."""
    rows = [list(row) for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        found = [i for i in range(r, len(rows)) if rows[i][c].val]
        if not found:
            continue
        rows[r], rows[found[0]] = rows[found[0]], rows[r]
        lead = rows[r][c].inverse()
        rows[r] = [lead * x for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c].val:
                factor = row[c]
                rows[i] = [x - factor * y for x, y in zip(row, rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def zassenhaus_reference(u, w):
    """Intersection basis read off Gauss-Jordan of [U | U; W | 0]."""
    n = u.ncols
    zero = [u.field.zero] * n
    stacked = [list(row) * 2 for row in u.rows] + [list(row) + zero for row in w.rows]
    reduced, _ = gauss_jordan_reference(stacked, 2 * n)
    return [
        tuple(row[n:])
        for row in reduced
        if not any(x.val for x in row[:n]) and any(x.val for x in row[n:])
    ]


def random_deficient_matrix(rng, field, r, c):
    """Dense, sparse, or with a row that combines two others."""
    m = random_matrix(rng, field, r, c)
    rows = [list(row) for row in m.rows]
    kind = rng.randrange(3)
    if kind == 1:
        rows = [[x if rng.random() < 0.3 else field.zero for x in row] for row in rows]
    elif kind == 2 and r >= 3:
        a, b = field._get(rng.randrange(field.order)), field._get(rng.randrange(field.order))
        rows[rng.randrange(r)] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    return Matrix(field, rows, c)


def test_echelon_pivots_match_gauss_jordan():
    rng = random.Random(0xEC4E)
    for _ in range(CASES):
        field = rng.choice(LINALG_FIELDS)
        ncols = rng.randrange(1, 8)
        m = random_deficient_matrix(rng, field, rng.randrange(0, 7), ncols)
        ref_rows, ref_pivots = gauss_jordan_reference(m.rows, ncols)
        ref_vals = [[x.val for x in row] for row in ref_rows]
        vals = [list(row) for row in m.vals]
        pivots = _echelon_vals(field, vals, ncols)
        assert pivots == ref_pivots
        # echelon shape: monic pivots, zeros left of and below each pivot
        for r, c in enumerate(pivots):
            assert vals[r][c] == 1 and not any(vals[r][:c])
            assert all(row[c] == 0 for row in vals[r + 1 :])
        assert not any(any(row) for row in vals[len(pivots) :])
        # same row space: reducing the echelon form gives the reference
        assert _echelon_vals(field, vals, ncols, reduce=True) == ref_pivots and vals == ref_vals
        fresh = [list(row) for row in m.vals]
        assert _echelon_vals(field, fresh, ncols, reduce=True) == ref_pivots and fresh == ref_vals


def test_row_space_contains_matches_rank():
    rng = random.Random(0x5BAC)
    inside = 0
    for case in range(CASES):
        field = rng.choice(LINALG_FIELDS)
        ncols = rng.randrange(1, 7)
        m = random_deficient_matrix(rng, field, rng.randrange(0, 6), ncols)
        if case % 2:
            # a combination of the rows, so that about half the cases lie inside
            vector = [field.zero] * ncols
            for row in m.rows:
                c = field._get(rng.randrange(field.order))
                vector = [x + c * y for x, y in zip(vector, row)]
        else:
            vector = [field._get(rng.randrange(field.order)) for _ in range(ncols)]
        expected = m.vstack(Matrix(field, [vector], ncols)).rank() == m.rank()
        assert m.row_space_contains(vector) == expected
        inside += expected
    assert inside >= CASES // 4


def test_code_storage_round_trips_and_kernels_leave_operands():
    rng = random.Random(0x57C0)
    for _ in range(CASES):
        field = rng.choice(LINALG_FIELDS)
        ncols = rng.randrange(1, 6)
        m = random_deficient_matrix(rng, field, rng.randrange(0, 5), ncols)
        w = random_deficient_matrix(rng, field, rng.randrange(0, 5), ncols)
        p = Poly(field, [field._get(rng.randrange(field.order)) for _ in range(rng.randrange(7))])
        points = random_subset(rng, field, 2, 6)
        L = vanishing_poly(points)
        H = PointSetData(points).associated_poly(random_scalars(rng, field, len(points)))
        for obj, rebuilt in ((m, Matrix(field, m.rows, m.ncols)), (p, Poly(field, p.coeffs))):
            for clone in (rebuilt, pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
                assert clone == obj and hash(clone) == hash(obj) and clone.field is field
        operands = (m, w, p, L, H)
        before = [x.vals for x in operands]
        m.rref()
        m.nullspace()
        subspace_intersection(m, w)
        eea_sequence(L, H)
        divmod(p, L)
        if not p.is_zero:
            divmod(L, p)
        assert [x.vals for x in operands] == before
        assert all(type(row) is tuple for row in m.vals) and type(p.vals) is tuple


def test_intersection_matches_gauss_jordan_zassenhaus():
    rng = random.Random(0x2A55)
    non_lcd = 0
    for case in range(CASES):
        field = rng.choice(LINALG_FIELDS)
        if case % 2:
            c = rng.randrange(1, 7)
            u = random_deficient_matrix(rng, field, rng.randrange(0, 5), c)
            w = random_deficient_matrix(rng, field, rng.randrange(0, 5), c)
        else:
            # a generator and its dual, as the brute-force LCD oracle pairs them
            points = random_subset(rng, field, 2, 10)
            n = len(points)
            spec = CartesianSpec.univariate(
                points, random_scalars(rng, field, n), rng.randrange(1, n)
            )
            u = generator_matrix(spec).generator
            w = u.nullspace()
        inter = subspace_intersection(u, w)
        assert inter.rows == tuple(zassenhaus_reference(u, w))
        non_lcd += case % 2 == 0 and inter.nrows > 0
    assert non_lcd >= 50


def test_intersection_dimension_formula():
    rng = random.Random(0xD13)
    for _ in range(CASES):
        field = rng.choice(LINALG_FIELDS)
        c = rng.randrange(2, 6)
        u = random_matrix(rng, field, rng.randrange(1, 4), c)
        w = random_matrix(rng, field, rng.randrange(1, 4), c)
        inter = subspace_intersection(u, w)
        assert inter.nrows + u.vstack(w).rank() == u.rank() + w.rank()
        for row in inter.rows:
            assert u.row_space_contains(row)
            assert w.row_space_contains(row)


def test_nullspace_orthogonal_exact():
    rng = random.Random(0x0237)
    for _ in range(CASES):
        field = rng.choice(SMALL_FIELDS + EXTENSION_FIELDS[:2] + UNTABLED_FIELDS)
        m = random_matrix(rng, field, rng.randrange(1, 4), rng.randrange(1, 6))
        ns = m.nullspace()
        assert ns.nrows == m.ncols - m.rank()
        if ns.nrows:
            prod = m @ ns.transpose()
            assert all(x.val == 0 for row in prod.rows for x in row)


def forward_worst_case(p, nrows, ncols):
    """Code rows on which every forward update is the largest one: row i is
    the sum of the rows [0.., 0, 1, -1, ..., -1] up to the i-th, so each
    multiplier is 1 and each pivot row is -1 past its pivot, and the last
    row takes nrows - 1 updates of (p - 1)^2 in every slot it keeps."""
    rows, acc = [], [0] * ncols
    for i in range(nrows):
        step = [0] * i + [1] + [p - 1] * (ncols - i - 1)
        acc = [(a + b) % p for a, b in zip(acc, step[:ncols])]
        rows.append(acc)
    return rows


def backward_worst_case(p, nrows, ncols):
    """An echelon form whose back-substitution updates are all the largest:
    row i is the sum of the reduced rows [0.., 1 at j, 0.., -1, ..., -1] for
    j >= i, so each multiplier is 1, and row 0 takes nrows - 1 updates of
    (p - 1)^2 in every free column."""
    r = min(nrows, ncols)
    return [
        [0] * i + [1] * (r - i) + [-(r - i) % p] * (ncols - r) for i in range(r)
    ] + [[0] * ncols for _ in range(nrows - r)]


def random_code_rows(rng, field, nrows, ncols):
    """Dense, sparse, rank-deficient, with zero rows, all q - 1, or (over a
    prime field) a worst case for the slot width, as integer codes."""
    q, add, mul = field.order, field.add, field.mul
    kind = rng.randrange(6)
    if kind == 4:
        return forward_worst_case(q, nrows, ncols)
    if kind == 5:
        return backward_worst_case(q, nrows, ncols)
    rows = [[rng.randrange(q) for _ in range(ncols)] for _ in range(nrows)]
    if kind == 1:
        rows = [[x if rng.random() < 0.2 else 0 for x in row] for row in rows]
    elif kind == 2:
        for i in rng.sample(range(nrows), nrows // 2):
            if rng.random() < 0.5 or i < 2:
                rows[i] = [0] * ncols
            else:
                a, b = rng.randrange(q), rng.randrange(q)
                rows[i] = [add(mul(a, x), mul(b, y)) for x, y in zip(rows[0], rows[1])]
    elif kind == 3:
        rows = [[q - 1] * ncols for _ in range(nrows)]
    return rows


def assert_packed_matches_per_entry(field, rows, ncols):
    """The packed kernel, and the kernel linalg picks for the shape, give
    the pivots and rows of the per-entry elimination, forward and reduced."""
    for reduce in (False, True):
        want = [list(row) for row in rows]
        pivots = _echelon_entries(field, want, ncols, reduce)
        for run in (_echelon_vals, lambda f, r, c, reduce: f.packed_echelon(r, c, reduce)):
            got = [list(row) for row in rows]
            assert run(field, got, ncols, reduce) == pivots
            assert got == want


# Shapes whose path the per-field packing rule changed: two-row and square
# matrices over primes, small ones over GF(2^8).
RULE_SHAPES = ((2, 8), (2, 16), (2, 32), (4, 8), (8, 8), (12, 12), (24, 24))


def straddling_ncols(rng, field, nrows, spread):
    """A column count within ``spread`` of the field's own packing
    crossover for ``nrows`` rows (``Field.packs_echelon``), or any count up
    to 64 where no width up to 64 packs."""
    cross = next((c for c in range(1, 65) if field.packs_echelon(nrows, c)), None)
    if cross is None:
        return rng.randrange(1, 65)
    return rng.randrange(max(1, cross - spread), cross + spread)


def check_packed_elimination(rng, fields):
    for field in fields:
        for nrows, ncols in RULE_SHAPES:
            rows = random_code_rows(rng, field, nrows, ncols)
            assert_packed_matches_per_entry(field, rows, ncols)
    sides = [0, 0]
    for _ in range(CASES):
        field = rng.choice(fields)
        nrows = rng.randrange(0, 25)
        ncols = straddling_ncols(rng, field, nrows, 12)
        rows = random_code_rows(rng, field, nrows, ncols)
        assert_packed_matches_per_entry(field, rows, ncols)
        sides[field.packs_echelon(nrows, ncols)] += 1
    assert min(sides) >= CASES // 4


def test_packed_elimination_matches_per_entry():
    check_packed_elimination(random.Random(0x9AC4), PACKED_FIELDS)


def test_char2_packed_elimination_matches_per_entry():
    check_packed_elimination(random.Random(0xC4A2), CHAR2_FIELDS)


def test_packed_worst_case_slots_match_per_entry():
    # every row count up to 24 fills each slot width the packing picks for
    # these fields to its worst case, forward and in back-substitution
    for field in PACKED_FIELDS:
        for nrows in range(1, 25):
            for ncols in (32, 33 + nrows % 7):
                for build in (forward_worst_case, backward_worst_case):
                    assert_packed_matches_per_entry(field, build(field.p, nrows, ncols), ncols)


# Over GF(2^31 - 1) an elimination of up to 1023 rows, and a product of
# inner dimension up to 1024, packs 9-byte slots; one more takes 10.  Each
# worst case below fills the slots to within 2^64 of that boundary, and its
# result is known in closed form, so no per-entry reference is needed.


@pytest.mark.slow
def test_worst_case_elimination_slots_on_both_sides_of_nine_bytes():
    field = GF(2**31 - 1)
    p = field.p
    for nrows, width in ((1023, 72), (1024, 80)):
        ncols = nrows + 1
        assert _slot_layout(p, p + (nrows + 1) * p * p, ncols)[0] == width
        rows = forward_worst_case(p, nrows, ncols)
        assert field.packed_echelon(rows, ncols, False) == list(range(nrows))
        # each pivot row is [0.., 0, 1, -1, ..., -1]
        assert rows == [[0] * i + [1] + [p - 1] * (ncols - i - 1) for i in range(nrows)]
        rows = backward_worst_case(p, nrows, ncols)
        assert field.packed_echelon(rows, ncols, True) == list(range(nrows))
        # each reduced row is [0.., 1 at i, 0.., -1]
        assert rows == [[int(i == j) for j in range(nrows)] + [p - 1] for i in range(nrows)]


def test_worst_case_product_slots_on_both_sides_of_nine_bytes():
    field = GF(2**31 - 1)
    p = field.p
    for inner, width in ((1024, 72), (1025, 80)):
        assert _slot_layout(p, inner * (p - 1) ** 2, 8)[0] == width
        a_rows = [[p - 1] * inner, list(range(inner))]
        b_cols = [[p - 1] * inner] * 7 + [list(range(inner, 0, -1))]
        want = [[field.dot(row, col) for col in b_cols] for row in a_rows]
        assert want[0][0] == inner % p
        assert _matmul_vals(field, a_rows, b_cols) == want
        assert field.packed_matmul(a_rows, zip(*b_cols), 8) == want


def nullspace_reference(rows, ncols):
    """Kernel basis read off the Gauss-Jordan reference, one vector per
    free column, as integer codes."""
    reduced, pivots = gauss_jordan_reference(rows, ncols)
    basis = []
    for fc in sorted(set(range(ncols)) - set(pivots)):
        vec = [0] * ncols
        vec[fc] = 1
        for row, pc in zip(reduced, pivots):
            vec[pc] = (-row[fc]).val
        basis.append(vec)
    return basis


def check_packed_nullspace_and_intersection(rng, fields):
    sides = [0, 0]
    meets = 0
    for case in range(CASES):
        field = rng.choice(fields)
        if case % 2:
            nrows = rng.randrange(0, 11)
            ncols = straddling_ncols(rng, field, nrows, 8)
            vals = random_code_rows(rng, field, nrows, ncols)
            m = Matrix.from_ints(field, vals, ncols)
            assert _nullspace_vals(field, [list(row) for row in vals], ncols) == (
                nullspace_reference(m.rows, ncols)
            )
        else:
            # the Zassenhaus matrix is 2 * ncols wide, with a row per row
            # of U and of W
            nu, nw = rng.randrange(0, 9), rng.randrange(0, 9)
            nrows = nu + nw
            ncols = max(1, straddling_ncols(rng, field, nrows, 8) // 2)
            u_vals = random_code_rows(rng, field, nu, ncols)
            u = Matrix.from_ints(field, u_vals, ncols)
            if rng.random() < 0.5:
                w = u.nullspace()  # the dual, as the LCD oracle pairs them
            else:
                w_vals = random_code_rows(rng, field, nw, ncols)
                # plant a shared row half the time
                if u_vals and w_vals and rng.random() < 0.5:
                    w_vals[0] = list(u_vals[-1])
                w = Matrix.from_ints(field, w_vals, ncols)
            rank, got = _intersection_vals(
                field, [list(row) for row in u.vals], [list(row) for row in w.vals], ncols
            )
            want = zassenhaus_reference(u, w)
            assert got == [[x.val for x in row] for row in want]
            assert rank == u.vstack(w).rank()
            meets += bool(got)
            nrows = u.nrows + w.nrows
            ncols *= 2
        sides[field.packs_echelon(nrows, ncols)] += 1
    assert min(sides) >= CASES // 4 and meets >= 50


def test_packed_nullspace_and_intersection_match_references():
    check_packed_nullspace_and_intersection(random.Random(0x2B17), PACKED_FIELDS)


def test_char2_nullspace_and_intersection_match_references():
    check_packed_nullspace_and_intersection(random.Random(0xC2B5), CHAR2_FIELDS)


def test_rank_first_intersection_matches_zassenhaus_reference(monkeypatch):
    # _intersection_vals eliminates the stack [U; W] first and runs the
    # 2 * ncols wide Zassenhaus elimination only when the stack is singular
    # or has more rows than columns; the result is Zassenhaus's either way
    wide = []

    def counting_echelon(field, rows, ncols, reduce=False):
        if not reduce:
            wide.append(ncols)
        return _echelon_vals(field, rows, ncols, reduce)

    monkeypatch.setattr(linalg, "_echelon_vals", counting_echelon)
    rng = random.Random(0x2F1A)
    fields = list(dict.fromkeys(LINALG_FIELDS + PACKED_FIELDS + CHAR2_FIELDS))
    kinds = [0] * 5
    sides = [0, 0]
    for case in range(CASES):
        field = rng.choice(fields)
        kind = case % 5
        nu, nw = rng.randrange(0, 8), rng.randrange(0, 8)
        if kind == 1:  # an empty side
            nu, nw = (0, nw) if rng.random() < 0.5 else (nu, 0)
        nrows = nu + nw
        if kind == 2:  # more rows than columns
            nrows = max(nrows, 2)
            nu, nw = nrows - nrows // 2, nrows // 2
            ncols = rng.randrange(1, nrows)
        elif field.packed_echelon is None:  # no crossover to straddle
            ncols = rng.randrange(max(nrows, 1), nrows + 5)
        else:
            ncols = max(nrows, 1, straddling_ncols(rng, field, nrows, 4))
        u_vals = random_code_rows(rng, field, nu, ncols)
        w_vals = random_code_rows(rng, field, nw, ncols)
        if kind == 3 and nu and nw:  # a planted shared row
            a, b = rng.randrange(1, field.order), rng.randrange(field.order)
            w_vals[0] = [
                field.add(field.mul(a, x), field.mul(b, y))
                for x, y in zip(u_vals[-1], u_vals[0])
            ]
        elif kind == 4 and nu:  # a code, as its reduced rows, and its dual
            w_vals = _nullspace_vals(field, u_vals, ncols)
            del u_vals[ncols - len(w_vals) :]
        u = Matrix.from_ints(field, u_vals, ncols)
        w = Matrix.from_ints(field, w_vals, ncols)
        stack_rank = u.vstack(w).rank()
        del wide[:]
        rank, got = _intersection_vals(field, u_vals, w_vals, ncols)
        assert got == [[x.val for x in row] for row in zassenhaus_reference(u, w)]
        assert rank == stack_rank
        assert wide.count(2 * ncols) == (stack_rank < u.nrows + w.nrows)
        assert (u.vals, w.vals) == (tuple(map(tuple, u_vals)), tuple(map(tuple, w_vals)))
        kinds[kind] += bool(got) if kind > 2 else 1  # meets, where planted
        sides[field.packs_echelon(nrows, ncols)] += kind != 2
    assert min(kinds[:4]) >= 50 and kinds[4] >= 10 and min(sides) >= CASES // 8


def test_packed_products_match_dot_reference():
    rng = random.Random(0x6A4A)
    sides = [0, 0]
    for case in range(CASES):
        field = rng.choice(PACKED_FIELDS + CHAR2_FIELDS)
        dot = field.dot
        # straddle the field's own crossover width (Field.packs_matmul)
        cross = next(w for w in range(1, 65) if field.packs_matmul(w))
        width = rng.randrange(1, 2 * cross + 1)
        inner = rng.randrange(0, 129)
        a_rows = random_code_rows(rng, field, rng.randrange(0, 13), inner)
        if case % 2:
            b_cols = random_code_rows(rng, field, width, inner)
            want = [[dot(row, col) for col in b_cols] for row in a_rows]
            assert _matmul_vals(field, a_rows, b_cols) == want
            assert field.packed_matmul(a_rows, zip(*b_cols), width) == want
            a = Matrix._from_vals(field, a_rows, inner)
            b = Matrix._from_vals(field, zip(*b_cols), width)
            assert (a @ b).vals == tuple(map(tuple, want))
        else:
            # the Gram matrix of a width x inner generator
            rows = random_code_rows(rng, field, width, inner)
            want = [[dot(r1, r2) for r2 in rows] for r1 in rows]
            assert _matmul_vals(field, rows, rows) == want
            assert field.packed_matmul(rows, zip(*rows), width) == want
        sides[field.packs_matmul(width)] += 1
    assert min(sides) >= CASES // 4


# ---- code constructions ------------------------------------------------------


def random_spec(rng, field, max_m=2, max_size=4):
    grid = random_grid(rng, field, max_m=max_m, max_size=max_size)
    cap = sum(s - 1 for s in grid.sizes)
    k = rng.randrange(1, max(cap + 2, 2))
    scalars = random_scalars(rng, field, grid.size)
    return CartesianSpec(grid, tuple(scalars), k)


def test_generator_rank_equals_dimension_formula():
    rng = random.Random(0x2A11)
    for _ in range(CASES):
        field = rng.choice(SMALL_FIELDS[1:])
        spec = random_spec(rng, field)
        code = generator_matrix(spec)
        assert code.generator.rank() == dimension_formula(spec) == code.dimension


def test_generator_rows_match_monomial_evaluation():
    rng = random.Random(0x6E4B)
    for _ in range(CASES):
        field = rng.choice(LINALG_FIELDS)
        spec = random_spec(rng, field, max_m=3, max_size=3)
        want = []
        for exps in monomial_basis(spec.cset, spec.k):
            row = []
            for v, point in zip(spec.scalars, spec.cset.points):
                for a, e in zip(point, exps):
                    v = v * a**e
                row.append(v)
            want.append(tuple(row))
        assert generator_matrix(spec).generator.rows == tuple(want)


def test_dual_is_verified_completely():
    rng = random.Random(0xD0A1)
    for _ in range(CASES):
        field = rng.choice(SMALL_FIELDS[1:])
        spec = random_spec(rng, field)
        dual = dual_spec(spec)
        if dual is None:
            assert spec.trivial_range
            continue
        G = generator_matrix(spec).generator
        Gd = generator_matrix(dual).generator
        prod = G @ Gd.transpose()
        assert all(x.val == 0 for row in prod.rows for x in row)
        assert G.nrows + Gd.nrows == spec.n


def test_distance_formula_matches_bruteforce():
    rng = random.Random(0xD157)
    checked = 0
    while checked < CASES:
        field = rng.choice(SMALL_FIELDS[:3])  # q in {2, 3, 5}
        spec = random_spec(rng, field, max_m=2, max_size=4)
        code = generator_matrix(spec)
        if field.order**code.dimension > 20000:
            continue
        d_formula, _ = min_distance_formula(spec)
        assert d_formula == brute_force_min_distance(code, budget=20000)
        assert d_formula <= spec.n - code.dimension + 1  # Singleton
        if spec.cset.nvars == 1:
            assert d_formula == spec.n - code.dimension + 1  # MDS
        checked += 1


def test_monomial_equivalence_invariance():
    rng = random.Random(0x9013)
    for _ in range(CASES):
        field = rng.choice(SMALL_FIELDS[1:3])
        A = random_subset(rng, field, 2, min(4, field.order))
        k = rng.randrange(1, len(A))
        v = random_scalars(rng, field, len(A))
        spec = CartesianSpec.univariate(A, v, k)
        base = (
            spec.n,
            dimension_formula(spec),
            min_distance_formula(spec)[0],
        )
        # global rescaling of the column scalars
        c = field._get(rng.randrange(1, field.order))
        scaled = CartesianSpec.univariate(A, [c * x for x in v], k)
        # permuting the points together with the scalars
        perm = list(range(len(A)))
        rng.shuffle(perm)
        permuted = CartesianSpec.univariate(
            [A[i] for i in perm], [v[i] for i in perm], k
        )
        for other in (scaled, permuted):
            assert (
                other.n,
                dimension_formula(other),
                min_distance_formula(other)[0],
            ) == base
            if field.order ** dimension_formula(other) <= 5000:
                assert brute_force_min_distance(
                    generator_matrix(other), 5000
                ) == brute_force_min_distance(generator_matrix(spec), 5000)


# ---- LCD analysis ------------------------------------------------------


def test_three_verdict_agreement():
    rng = random.Random(0x3A62)
    for _ in range(CASES):
        field = rng.choice(SMALL_FIELDS[2:])
        A = random_subset(rng, field, 2, 5)
        v = random_scalars(rng, field, len(A))
        k = rng.randrange(1, len(A))
        analysis = UnivariateLcdAnalysis(A, v)
        spec = CartesianSpec.univariate(A, v, k)
        # is_lcd internally checks the gap rule against set membership, and
        # is_lcd_bruteforce checks Gram rank against the intersection.
        assert analysis.is_lcd(k) == is_lcd_bruteforce(spec).is_lcd


def test_scaling_covariance_of_verdict():
    rng = random.Random(0x5CA1)
    for _ in range(CASES):
        field = rng.choice(SMALL_FIELDS[2:])
        A = random_subset(rng, field, 2, 4)
        v = random_scalars(rng, field, len(A))
        k = rng.randrange(1, len(A))
        base = is_lcd_univariate(A, v, k)
        negated = is_lcd_univariate(A, [-x for x in v], k)
        assert negated.is_lcd == base.is_lcd
        assert negated.eea_degrees == base.eea_degrees
        # per-coordinate sign flips leave all squared scalars unchanged
        flipped = [x if rng.random() < 0.5 else -x for x in v]
        spec = CartesianSpec.univariate(A, flipped, k)
        assert is_lcd_bruteforce(spec).is_lcd == base.is_lcd


def test_point_set_data_matches_element_reference():
    # The code-level factors L / (X - a) and the code-level sum of
    # v_i^2 * L_{a_i} against the element-level products and sums.
    rng = random.Random(0x5E7D)
    for _ in range(CASES):
        field = rng.choice(REFERENCE_FIELDS)
        A = random_subset(rng, field, 1, 6)
        v = random_scalars(rng, field, len(A))
        data = PointSetData(A)
        expected = Poly.zero(field)
        for a, x, term in zip(A, v, data.lagrange_terms):
            reference = lagrange_term(A, a)
            assert term == reference
            expected = expected + reference.scale(x * x)
        assert data.associated_poly(v) == expected


def test_analysis_matches_eea_sequence():
    rng = random.Random(0xE7A5)
    for _ in range(CASES):
        field = rng.choice(REFERENCE_FIELDS)
        A = random_subset(rng, field, 1, 6)
        v = random_scalars(rng, field, len(A))
        analysis = UnivariateLcdAnalysis(A, v)
        reference = eea_sequence(vanishing_poly(A), associated_poly_univariate(A, v))
        assert analysis.remainder_degrees == reference.remainder_degrees()
        assert analysis.eea == reference


def test_associated_poly_coprime_to_vanishing():
    rng = random.Random(0xC0B2)
    for _ in range(CASES):
        field = rng.choice(SMALL_FIELDS[1:])
        A = random_subset(rng, field, 2, min(5, field.order))
        v = random_scalars(rng, field, len(A))
        analysis = UnivariateLcdAnalysis(A, v)  # raises NotCoprimeError otherwise
        assert analysis.eea.final_constant.val != 0
        assert analysis.remainder_degrees[-1] == 0


def test_admissible_set_structure():
    rng = random.Random(0xAD31)
    for _ in range(CASES):
        field = rng.choice(SMALL_FIELDS[2:])
        A = random_subset(rng, field, 2, 5)
        v = random_scalars(rng, field, len(A))
        analysis = UnivariateLcdAnalysis(A, v)
        admissible = analysis.admissible_codimensions()
        degrees = analysis.remainder_degrees
        assert admissible == frozenset(degrees)
        assert 0 in admissible  # final remainder is a constant
        assert max(admissible) == degrees[0]
        # when the top remainder has full degree n-1, the displayed
        # contiguous run {deg g_1, ..., n-1} collapses into the degree set
        if degrees[0] == len(A) - 1:
            assert set(range(degrees[0], len(A))) <= admissible


def test_product_sufficiency_sound():
    rng = random.Random(0x3663)
    F7 = GF(7)
    fired = 0
    for trial in range(CASES):
        A1 = random_subset(rng, F7, 2, 3)
        A2 = random_subset(rng, F7, 2, 3)
        if trial % 2:
            v1, v2 = [F7.one] * len(A1), [F7.one] * len(A2)
        else:
            v1 = random_scalars(rng, F7, len(A1))
            v2 = random_scalars(rng, F7, len(A2))
        k = rng.randrange(1, len(A1) + len(A2) - 1)
        verdict = is_lcd_product_sufficient([(A1, v1), (A2, v2)], k)
        if verdict == LCD:
            fired += 1
            grid = CartesianSet([A1, A2])
            spec = CartesianSpec(grid, cartesian_scalars([v1, v2]), k)
            assert is_lcd_bruteforce(spec).is_lcd
    assert fired > 50  # the sufficient condition must actually fire


def test_product_sufficiency_inclusive_bound_regression():
    # With first scalar 1 and squared scalars summing to zero mod 7 the
    # degree-1 component code meets its dual, so no product conclusion may
    # fire at k = 1 (an exclusive degree bound would fire vacuously).
    F7 = GF(7)
    A = [F7.element(x) for x in (0, 1, 2)]
    v = [F7.element(x) for x in (1, 3, 2)]  # 1 + 9 + 4 = 14 = 0 mod 7
    assert not is_lcd_univariate(A, v, 1).is_lcd
    assert is_lcd_product_sufficient([(A, v), (A, [F7.one] * 3)], 1) == "unknown"
    grid = CartesianSet([A, A])
    spec = CartesianSpec(grid, cartesian_scalars([v, [F7.one] * 3]), 1)
    assert not is_lcd_bruteforce(spec).is_lcd


def test_polynomial_membership_criterion_equivalent():
    """On tiny grids, enumerate every nonzero reduced f of low degree
    directly: the code meets its dual exactly when some H*f reduces to a
    nonzero polynomial of complementary degree."""
    rng = random.Random(0x9B34)
    from cartcodes import associated_poly_multivariate

    f_cases = 0
    instances = 0
    while f_cases < CASES:
        field = rng.choice([GF(2), GF(3)])
        grid = random_grid(rng, field, max_m=2, max_size=3)
        if grid.size > 9:
            continue
        cap = sum(s - 1 for s in grid.sizes)
        if cap < 1:
            continue
        k = rng.randrange(1, min(cap, 3) + 1)
        scalars = random_scalars(rng, field, grid.size)
        spec = CartesianSpec(grid, tuple(scalars), k)
        H = associated_poly_multivariate(grid, scalars)
        basis = monomial_basis(grid, k)
        witness_exists = False
        for coeffs in itertools.product(
            [field._get(x) for x in range(field.order)], repeat=len(basis)
        ):
            if all(c.val == 0 for c in coeffs):
                continue
            f_cases += 1
            f = MPoly(field, grid.nvars, dict(zip(basis, coeffs)))
            g = reduce_mod_ideal(H * f, grid)
            if not g.is_zero and g.total_degree <= cap - k:
                witness_exists = True
                break
        instances += 1
        assert witness_exists == (not is_lcd_bruteforce(spec).is_lcd)
    assert instances >= 10


# ---- masking ------------------------------------------------------


def test_split_linearity_many():
    from cartcodes import build_context, split

    F7 = GF(7)
    ctx = build_context(CartesianSpec.from_ints(F7, [[0, 1, 2]], [1, 1, 1], 2))
    rng = random.Random(0x11EA)
    for _ in range(CASES):
        z1 = tuple(F7.element(rng.randrange(7)) for _ in range(3))
        z2 = tuple(F7.element(rng.randrange(7)) for _ in range(3))
        x1, y1 = split(ctx, z1)
        x2, y2 = split(ctx, z2)
        xs, ys = split(ctx, tuple(a + b for a, b in zip(z1, z2)))
        assert xs == tuple(a + b for a, b in zip(x1, x2))
        assert ys == tuple(a + b for a, b in zip(y1, y2))


def test_fault_detection_exhaustive_small_fields():
    from cartcodes import build_context, detect_fault

    cases = 0
    # 4-point grid over GF(3), degree 1: the repetition code, d = 4.
    F3 = GF(3)
    spec3 = CartesianSpec.from_ints(F3, [[0, 1], [0, 1]], [1] * 4, 1)
    ctx3 = build_context(spec3)
    codewords3 = set(ctx3.code.codewords())
    for z in itertools.product(F3.elements(), repeat=4):
        for fault in itertools.product(F3.elements(), repeat=4):
            assert detect_fault(ctx3, z, fault) == (fault not in codewords3)
            cases += 1
    d3, _ = min_distance_formula(spec3)
    assert d3 == 4
    zero3 = tuple([F3.zero] * 4)
    for fault in itertools.product(F3.elements(), repeat=4):
        weight = sum(1 for x in fault if x.val)
        if 0 < weight < d3:
            assert detect_fault(ctx3, zero3, fault)
    # 3-point code over GF(5), degree 2: d = 2, so every weight-1 fault hits.
    F5 = GF(5)
    spec5 = CartesianSpec.from_ints(F5, [[0, 1, 2]], [1, 1, 1], 2)
    ctx5 = build_context(spec5)
    codewords5 = set(ctx5.code.codewords())
    zs = [tuple(F5.element(v) for v in (0, 0, 0)), tuple(F5.element(v) for v in (4, 1, 3))]
    for z in zs:
        for fault in itertools.product(F5.elements(), repeat=3):
            detected = detect_fault(ctx5, z, fault)
            assert detected == (fault not in codewords5)
            weight = sum(1 for x in fault if x.val)
            if weight == 1:
                assert detected
            cases += 1
    assert cases >= CASES
