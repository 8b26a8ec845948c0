import itertools
import math
import random
import time

import pytest

from cartcodes import (
    GF,
    BudgetExceededError,
    CartesianSet,
    CartesianSpec,
    DistanceDecomposition,
    brute_force_min_distance,
    dimension_formula,
    dual_spec,
    generator_matrix,
    length,
    min_distance_formula,
    monomial_basis,
    parameter_report,
)

F7 = GF(7)
F13 = GF(13)


def spec_of(field, components, scalars, k):
    return CartesianSpec.from_ints(field, components, scalars, k)


def brute_distance_by_full_enumeration(code):
    """Independent oracle: scan every nonzero message, no projective trick."""
    field = code.field
    best = code.n
    for message in itertools.product(field.elements(), repeat=code.dimension):
        if all(m.val == 0 for m in message):
            continue
        word = [field.zero] * code.n
        for m, row in zip(message, code.generator.rows):
            if m.val:
                for j, a in enumerate(row):
                    word[j] = word[j] + m * a
        best = min(best, sum(1 for x in word if x.val))
    return best


def test_generator_reference_matrices():
    g1 = generator_matrix(spec_of(F7, [[0, 1, 2]], [1, 1, 1], 2)).generator
    assert g1.to_json() == [[1, 1, 1], [0, 1, 2]]
    g2 = generator_matrix(spec_of(F7, [[0, 1, 2]], [1, 1, 2], 2)).generator
    assert g2.to_json() == [[1, 1, 2], [0, 1, 4]]
    g3 = generator_matrix(spec_of(F7, [[0, 1, 3]], [1, 1, 1], 2)).generator
    assert g3.to_json() == [[1, 1, 1], [0, 1, 3]]


def test_generator_degree_one_is_scalar_row():
    spec = spec_of(F7, [[0, 1], [2, 5]], [1, 2, 3, 4], 1)
    code = generator_matrix(spec)
    assert code.dimension == 1
    assert code.generator.to_json() == [[1, 2, 3, 4]]


def test_generator_row_order_matches_monomial_basis():
    spec = spec_of(F7, [[0, 1], [0, 1, 2]], [1] * 6, 3)
    code = generator_matrix(spec)
    basis = monomial_basis(spec.cset, 3)
    assert code.dimension == len(basis)
    for row, exps in zip(code.generator.rows, basis):
        for value, point in zip(row, spec.cset.points):
            expected = F7.one
            for e, coord in zip(exps, point):
                expected = expected * coord**e
            assert value == expected


def test_length_and_dimension():
    assert length(spec_of(F7, [[0, 1, 2]], [1, 1, 1], 2)) == 3
    assert length(spec_of(F7, [[0, 1], [0, 1, 2]], [1] * 6, 2)) == 6
    assert length(spec_of(F13, [[0, 2, 3, 5, 6, 8, 10, 11]], [1] * 8, 3)) == 8
    assert dimension_formula(spec_of(F7, [[0, 1, 2]], [1, 1, 1], 2)) == 2
    assert dimension_formula(spec_of(F7, [[0, 1], [0, 1, 2]], [1] * 6, 3)) == 5
    # degree at the cap: the whole space
    cap_spec = spec_of(F7, [[0, 1], [0, 1, 2]], [1] * 6, 4)
    assert dimension_formula(cap_spec) == 6


def test_dimension_formula_matches_basis_count():
    rng = random.Random(21)
    for _ in range(40):
        m = rng.randrange(1, 4)
        comps = []
        pool = list(range(7))
        for _ in range(m):
            rng.shuffle(pool)
            comps.append(sorted(pool[: rng.randrange(1, 5)]))
        cset = CartesianSet.from_ints(F7, comps)
        for k in range(1, sum(cset.sizes) + 2):
            spec = CartesianSpec.with_unit_scalars(cset, k)
            assert dimension_formula(spec) == len(monomial_basis(cset, k))


def full_inclusion_exclusion(sizes, k):
    """The dimension by inclusion-exclusion over every subset of the
    components, the sum of (-1)^|S| C(m + k - 1 - sum(S), m) over those
    with sum(S) <= k - 1."""
    m, cap = len(sizes), k - 1
    return sum(
        (-1) ** r * math.comb(m + cap - sum(subset), m)
        for r in range(m + 1)
        for subset in itertools.combinations(sizes, r)
        if sum(subset) <= cap
    )


def test_dimension_walk_matches_full_enumeration():
    rng = random.Random(0xD1A)
    for _ in range(300):
        m = rng.randrange(1, 8)
        comps = [sorted(rng.sample(range(13), rng.randrange(1, 6))) for _ in range(m)]
        cset = CartesianSet.from_ints(F13, comps)
        for k in range(1, sum(cset.sizes) - m + 2):
            assert dimension_formula(cset, k) == full_inclusion_exclusion(cset.sizes, k)


def test_dimension_of_many_one_point_components_is_prompt():
    # 2^31 subsets of the components, of which only the empty one has a
    # size sum within the cap k - 1 = 0
    cset = CartesianSet.from_ints(F7, [[0]] * 30 + [[0, 1]])
    start = time.perf_counter()
    assert dimension_formula(cset, 1) == 1
    assert time.perf_counter() - start < 1.0
    # one-point components leave the count of the other components as it is
    wide = CartesianSet.from_ints(F13, [[0]] * 30 + [list(range(8))] * 2)
    start = time.perf_counter()
    assert [dimension_formula(wide, k) for k in range(1, 16)] == [
        dimension_formula(CartesianSet.from_ints(F13, [list(range(8))] * 2), k)
        for k in range(1, 16)
    ]
    assert time.perf_counter() - start < 1.0


def test_min_distance_reed_solomon():
    spec = spec_of(F13, [[0, 1, 2, 3, 4, 5, 6, 7]], [1] * 8, 5)
    d, decomp = min_distance_formula(spec)
    assert d == 4 and decomp == DistanceDecomposition(s=0, ell=4)
    code = generator_matrix(spec)
    assert brute_force_min_distance(code, budget=13**5) == 4


def test_min_distance_grid():
    spec = spec_of(F7, [[0, 1], [0, 1, 2]], [1] * 6, 3)
    d, decomp = min_distance_formula(spec)
    assert (d, decomp.s, decomp.ell) == (2, 1, 1)
    assert brute_force_min_distance(generator_matrix(spec)) == 2


def test_min_distance_component_order_irrelevant():
    a = spec_of(F7, [[0, 1], [0, 1, 2]], [1] * 6, 3)
    b = spec_of(F7, [[0, 1, 2], [0, 1]], [1] * 6, 3)
    assert min_distance_formula(a)[0] == min_distance_formula(b)[0]
    assert brute_force_min_distance(generator_matrix(b)) == 2


def test_min_distance_trivial_range():
    spec = spec_of(F7, [[0, 1], [0, 1, 2]], [1] * 6, 5)
    d, decomp = min_distance_formula(spec)
    assert d == 1 and decomp is None
    assert spec.trivial_range


def test_distance_decomposition_identity():
    rng = random.Random(24)
    for _ in range(200):
        m = rng.randrange(1, 4)
        comps = []
        for _ in range(m):
            pool = list(range(7))
            rng.shuffle(pool)
            comps.append(sorted(pool[: rng.randrange(1, 5)]))
        cset = CartesianSet.from_ints(F7, comps)
        cap = sum(s - 1 for s in cset.sizes)
        if cap == 0:
            continue
        k = rng.randrange(1, cap + 1)
        spec = CartesianSpec.with_unit_scalars(cset, k)
        _, decomp = min_distance_formula(spec)
        sizes = sorted(cset.sizes)
        assert k - 1 == sum(s - 1 for s in sizes[: decomp.s]) + decomp.ell
        assert 0 <= decomp.ell < sizes[decomp.s] - 1


def test_min_distance_singleton_component():
    spec = spec_of(F7, [[4], [0, 1, 2]], [1] * 3, 2)
    d, _ = min_distance_formula(spec)
    assert d == 2
    assert brute_force_min_distance(generator_matrix(spec)) == 2


def test_dual_reference():
    spec = spec_of(F7, [[0, 1, 2]], [1, 1, 1], 2)
    dual = dual_spec(spec)
    assert dual.k == 1
    # v'_i = (v_i * L'(a_i))^(-1) with L'(X) = 3X^2 + X + 2 on {0,1,2}
    assert [v.val for v in dual.scalars] == [
        pow(lp, 5, 7) for lp in (2, 6, 2)
    ]


def test_dual_orthogonal_and_dimension_sum():
    rng = random.Random(22)
    for _ in range(50):
        m = rng.randrange(1, 3)
        comps = []
        for _ in range(m):
            pool = list(range(7))
            rng.shuffle(pool)
            comps.append(sorted(pool[: rng.randrange(2, 5)]))
        cset = CartesianSet.from_ints(F7, comps)
        cap = sum(s - 1 for s in cset.sizes)
        if cap == 0:
            continue
        k = rng.randrange(1, cap + 1)
        scalars = tuple(F7.element(rng.randrange(1, 7)) for _ in range(cset.size))
        spec = CartesianSpec(cset, scalars, k)
        dual = dual_spec(spec)
        G = generator_matrix(spec).generator
        Gd = generator_matrix(dual).generator
        prod = G @ Gd.transpose()
        assert all(x.val == 0 for row in prod.rows for x in row)
        assert dimension_formula(spec) + dimension_formula(dual) == spec.n


def test_dual_involution():
    spec = spec_of(F7, [[0, 1], [0, 1, 3]], [1, 2, 3, 4, 5, 6], 2)
    double = dual_spec(dual_spec(spec))
    assert double.k == spec.k
    assert double.scalars == spec.scalars
    g = generator_matrix(spec).generator
    gg = generator_matrix(double).generator
    assert g.same_row_space(gg)


def test_dual_of_full_space_is_zero_marker():
    spec = spec_of(F7, [[0, 1, 2]], [1, 1, 1], 3)
    assert spec.trivial_range
    assert dual_spec(spec) is None


def test_brute_force_basics():
    spec = spec_of(F7, [[0, 1, 2]], [1, 1, 1], 1)
    code = generator_matrix(spec)
    assert brute_force_min_distance(code) == 3  # full-weight single row
    spec2 = spec_of(F7, [[0, 1, 2]], [1, 1, 1], 2)
    assert brute_force_min_distance(generator_matrix(spec2)) == 2


def test_brute_force_budget_refusal():
    spec = spec_of(F13, [[0, 1, 2, 3, 4, 5, 6, 7]], [1] * 8, 5)
    code = generator_matrix(spec)
    with pytest.raises(BudgetExceededError) as err:
        brute_force_min_distance(code, budget=100)
    assert err.value.required == 13**5


def test_brute_force_matches_full_enumeration():
    rng = random.Random(23)
    F5 = GF(5)
    for _ in range(25):
        pool = list(range(5))
        rng.shuffle(pool)
        A = sorted(pool[: rng.randrange(2, 5)])
        k = rng.randrange(1, len(A))
        scalars = [rng.randrange(1, 5) for _ in A]
        code = generator_matrix(spec_of(F5, [A], scalars, k))
        assert brute_force_min_distance(code) == brute_distance_by_full_enumeration(code)


def test_codeword_membership_and_enumeration():
    spec = spec_of(F7, [[0, 1, 2]], [1, 1, 1], 2)
    code = generator_matrix(spec)
    words = list(code.codewords())
    assert len(words) == 49
    assert len(set(words)) == 49
    for w in words[:10]:
        assert code.contains(w)
    assert not code.contains([F7.one, F7.zero, F7.zero])


def test_parameter_report_schema():
    spec = spec_of(F13, [[0, 2, 3, 5, 6, 8, 10, 11]], [1] * 8, 3)
    report = parameter_report(spec, brute_budget=13**3)
    assert report["n"] == 8
    assert report["dim"] == 3
    assert report["d_formula"] == 6
    assert report["d_bruteforce"] == 6
    assert report["mds"] is True
    assert report["field"] == {"p": 13, "e": 1}
    assert report["k"] == 3
    small = parameter_report(spec, brute_budget=10)
    assert "d_bruteforce_skipped" in small


def test_linear_code_distance_cache_provenance():
    spec = spec_of(F7, [[0, 1, 2]], [1, 1, 1], 2)
    code = generator_matrix(spec)
    assert code.min_distance is None and code.provenance is None
    parameter_report(spec, code=code)
    assert (code.min_distance, code.provenance) == (2, "formula")
    parameter_report(spec, brute_budget=1000, code=code)
    assert (code.min_distance, code.provenance) == (2, "brute-force")


def test_spec_validation():
    cset = CartesianSet.from_ints(F7, [[0, 1, 2]])
    with pytest.raises(ValueError):
        CartesianSpec(cset, (F7.one, F7.zero, F7.one), 2)  # zero scalar
    with pytest.raises(ValueError):
        CartesianSpec(cset, (F7.one,) * 2, 2)  # wrong length
    with pytest.raises(ValueError):
        CartesianSpec(cset, (F7.one,) * 3, 0)  # degree too small
    with pytest.raises(ValueError):
        CartesianSpec(cset, (GF(5).one,) * 3, 1)  # wrong field
