import itertools
import math
import random
import time

import pytest

import cartcodes.lcd
from cartcodes import (
    GF,
    CartesianSet,
    CartesianSpec,
    FieldMismatchError,
    InconsistencyError,
    MPoly,
    SearchRecord,
    SearchTruncation,
    UnivariateLcdAnalysis,
    associated_poly_multivariate,
    associated_poly_univariate,
    cartesian_scalars,
    formal_derivative,
    generator_matrix,
    is_lcd_bruteforce,
    is_lcd_product_sufficient,
    is_lcd_univariate,
    lcd_admissible_set,
    lcd_necessity_check,
    not_lcd_product,
    search_lcd,
    vanishing_poly,
)
from cartcodes.lcd import LCD, NOT_LCD, UNKNOWN, INAPPLICABLE

F7 = GF(7)
F13 = GF(13)
F17 = GF(17)

EIGHT_POINTS = (0, 2, 3, 5, 6, 8, 10, 11)


def els(field, *vals):
    return [field.element(v) for v in vals]


def ones(field, n):
    return [field.one] * n


def test_associated_poly_is_derivative_for_unit_scalars():
    for field, pts in ((F7, (0, 1, 2)), (F13, EIGHT_POINTS), (F7, (1, 3, 4, 6))):
        A = els(field, *pts)
        H = associated_poly_univariate(A, ones(field, len(A)))
        assert H == formal_derivative(vanishing_poly(A))


def test_associated_poly_values():
    A = els(F7, 0, 1, 3)
    v = els(F7, 2, 3, 5)
    H = associated_poly_univariate(A, v)
    Lp = formal_derivative(vanishing_poly(A))
    for a, vi in zip(A, v):
        assert H(a) == vi * vi * Lp(a)
    assert H.degree < len(A)


def test_associated_poly_single_point():
    A = els(F7, 4)
    H = associated_poly_univariate(A, els(F7, 3))
    assert H.degree == 0 and H.coeffs[0].val == 2  # 3^2 = 9 = 2


def test_admissible_set_reference_values():
    A13 = els(F13, *EIGHT_POINTS)
    assert lcd_admissible_set(A13, ones(F13, 8)) == frozenset({0, 3, 4, 5, 6, 7})
    A17 = els(F17, *EIGHT_POINTS)
    assert lcd_admissible_set(A17, ones(F17, 8)) == frozenset(range(8))


def test_admissible_set_is_exactly_remainder_degrees():
    # When the top remainder degree is below n-1, the codimensions strictly
    # between it and n-1 are NOT admissible: the scaled all-ones word is
    # then self-orthogonal, so the degree-1 code already meets its dual.
    A = els(F7, 0, 1, 2)
    v = els(F7, 1, 2, 3)  # squared scalars sum to 14 = 0 mod 7
    analysis = UnivariateLcdAnalysis(A, v)
    assert analysis.H.degree == 1  # drops below n-1 = 2
    assert analysis.admissible_codimensions() == frozenset({0, 1})
    assert not analysis.is_lcd(1)  # n-k = 2 is in the gap above deg H
    assert not is_lcd_bruteforce(CartesianSpec.univariate(A, v, 1)).is_lcd
    assert analysis.is_lcd(2)
    assert is_lcd_bruteforce(CartesianSpec.univariate(A, v, 2)).is_lcd


def test_admissible_set_contiguous_when_top_degree_full():
    # With unit scalars and n not a multiple of the characteristic the top
    # remainder is the derivative, of degree exactly n-1.
    A = els(F13, *EIGHT_POINTS)
    analysis = UnivariateLcdAnalysis(A, ones(F13, 8))
    assert analysis.remainder_degrees[0] == len(A) - 1
    assert max(analysis.admissible_codimensions()) == len(A) - 1


def test_is_lcd_follows_gap_rule_on_faulty_degrees():
    # A faulty Euclid kernel could hand the analysis a non-monotone degree
    # list.  is_lcd must still apply the gap rule alone, and so disagree
    # with membership there: that disagreement is what the agreement sweeps
    # compare is_lcd against admissible_codimensions() to catch.
    analysis = UnivariateLcdAnalysis(els(F7, 0, 1, 2, 3, 4, 5), ones(F7, 6))
    analysis.remainder_degrees = [2, 4, 0]
    degs = [6, 2, 4, 0]
    gap = [
        not any(lo < 6 - k < hi for hi, lo in zip(degs, degs[1:]))
        for k in range(1, 7)
    ]
    membership = [6 - k in analysis.admissible_codimensions() for k in range(1, 7)]
    assert gap == [False, False, False, False, False, True]
    assert membership == [False, True, False, True, False, True]
    assert [analysis.is_lcd(k) for k in range(1, 7)] == gap
    assert analysis.lcd_degrees() == [6]


def test_is_lcd_lookup_matches_pairwise_gap_rule():
    # is_lcd works the gap rule out once per analysis; on any degree list,
    # monotone or not, it must give the pairwise rule for every k
    rng = random.Random(0x6A9)
    field = GF(101)
    for case in range(1000):
        n = rng.randrange(2, 31)
        points = [field.element(v) for v in rng.sample(range(101), n)]
        analysis = UnivariateLcdAnalysis(points, ones(field, n))
        if case % 2:
            count = rng.randrange(1, n + 2)
            degrees = [rng.randrange(n + 2) for _ in range(count)]
        else:
            degrees = sorted(rng.sample(range(1, n), rng.randrange(n - 1)), reverse=True) + [0]
        analysis.remainder_degrees = degrees
        pairs = list(zip([n] + degrees, degrees))
        for k in range(1, n + 2):
            r = n - k
            assert analysis.is_lcd(k) == all(hi <= r or lo >= r for hi, lo in pairs)


def test_is_lcd_univariate_reference_verdicts():
    assert is_lcd_univariate(els(F7, 0, 1, 2), ones(F7, 3), 2).is_lcd
    assert not is_lcd_univariate(els(F7, 0, 1, 2), els(F7, 1, 1, 2), 2).is_lcd
    assert not is_lcd_univariate(els(F7, 0, 1, 3), ones(F7, 3), 2).is_lcd


def test_is_lcd_univariate_report_fields():
    report = is_lcd_univariate(els(F7, 0, 1, 2), ones(F7, 3), 2)
    assert report.method == "eea"
    assert report.eea_degrees == frozenset({0, 1, 2})
    assert not report.trivial_range
    assert report.spec.k == 2


def test_is_lcd_univariate_out_of_range():
    A = els(F7, 0, 1, 2)
    for k in (3, 4, 10):
        report = is_lcd_univariate(A, ones(F7, 3), k)
        assert report.is_lcd and report.trivial_range
    with pytest.raises(ValueError):
        is_lcd_univariate(A, ones(F7, 3), 0)


def test_bruteforce_reference_witness():
    spec = CartesianSpec.from_ints(F7, [[0, 1, 2]], [1, 1, 2], 2)
    report = is_lcd_bruteforce(spec)
    assert not report.is_lcd
    assert report.method == "intersection"
    assert report.witness is not None and report.witness.nrows >= 1
    G = generator_matrix(spec).generator
    Gd = G.nullspace()
    for row in report.witness.rows:
        assert G.row_space_contains(row)
        assert Gd.row_space_contains(row)


def test_bruteforce_full_space_is_lcd():
    spec = CartesianSpec.from_ints(F7, [[0, 1, 2]], [1, 1, 1], 3)
    report = is_lcd_bruteforce(spec)
    assert report.is_lcd and report.trivial_range and report.witness is None


def test_bruteforce_compares_hull_dimensions(monkeypatch):
    # Over GF(2^e) every v_i^2 = 1 / L'(a_i) has a root; then H = 1 and the
    # degree-k hull has dimension min(k, n - k), here 2
    field = GF(2, 4)
    points = [field._get(v) for v in range(1, 7)]
    scalars = []
    for a in points:
        target = math.prod((a - b for b in points if b != a), start=field.one).inverse()
        scalars.append(next(x for x in field.elements() if x * x == target))
    spec = CartesianSpec.univariate(points, scalars, 2)
    assert is_lcd_bruteforce(spec).witness.nrows == 2
    # a kernel that drops one basis row still says "not LCD", so only the
    # dimension comparison sees it
    kernel = cartcodes.lcd._intersection_vals

    def drop_one_row(*args):
        rank, basis = kernel(*args)
        return rank, basis[:-1]

    monkeypatch.setattr(cartcodes.lcd, "_intersection_vals", drop_one_row)
    with pytest.raises(InconsistencyError, match="hull dimension 2 .* 1 .basis"):
        is_lcd_bruteforce(spec)


def test_eea_and_bruteforce_agree_small_sweep():
    F5 = GF(5)
    for q, field in ((5, F5), (7, F7)):
        elements = field.elements()
        for size in (2, 3):
            for A in itertools.combinations(elements, size):
                cset = CartesianSet([list(A)])
                for tail in itertools.product(
                    [e for e in elements if e.val], repeat=size - 1
                ):
                    v = (field.one, *tail)
                    analysis = UnivariateLcdAnalysis(A, v)
                    for k in range(1, size):
                        spec = CartesianSpec(cset, v, k)
                        assert analysis.is_lcd(k) == is_lcd_bruteforce(spec).is_lcd


def test_eea_and_bruteforce_agree_extension_fields():
    # The big agreement sweeps use prime fields; this drives the whole stack
    # (tables, closures, Euclidean sequence, elimination) over GF(4), GF(8)
    # and GF(9) as well.
    for field in (GF(2, 2), GF(2, 3), GF(3, 2)):
        elements = field.elements()
        nonzero = [e for e in elements if e.val]
        for size in (2, 3):
            for A in itertools.combinations(elements, size):
                cset = CartesianSet([list(A)])
                for tail in itertools.product(nonzero[:3], repeat=size - 1):
                    v = (field.one, *tail)
                    analysis = UnivariateLcdAnalysis(A, v)
                    for k in range(1, size):
                        spec = CartesianSpec(cset, v, k)
                        assert analysis.is_lcd(k) == is_lcd_bruteforce(spec).is_lcd


def test_multivariate_associated_poly_specializes():
    A = els(F7, 0, 1, 3)
    v = els(F7, 1, 2, 3)
    cset = CartesianSet([A])
    H_multi = associated_poly_multivariate(cset, v)
    H_uni = associated_poly_univariate(A, v)
    assert H_multi == MPoly.lift(H_uni, 1, 0)


def test_multivariate_associated_poly_product_structure():
    A1, A2 = els(F7, 0, 1), els(F7, 0, 1, 3)
    v1, v2 = els(F7, 1, 3), els(F7, 2, 1, 5)
    cset = CartesianSet([A1, A2])
    product = cartesian_scalars([v1, v2])
    H = associated_poly_multivariate(cset, product)
    H1 = MPoly.lift(associated_poly_univariate(A1, v1), 2, 0)
    H2 = MPoly.lift(associated_poly_univariate(A2, v2), 2, 1)
    assert H == H1 * H2
    # unit scalars: the product of the component derivatives
    H_ones = associated_poly_multivariate(cset, ones(F7, 6))
    d1 = MPoly.lift(formal_derivative(vanishing_poly(A1)), 2, 0)
    d2 = MPoly.lift(formal_derivative(vanishing_poly(A2)), 2, 1)
    assert H_ones == d1 * d2


def test_multivariate_associated_poly_properties():
    rng = random.Random(31)
    from cartcodes import interpolate_multivariate

    for _ in range(20):
        A1 = sorted(rng.sample(range(7), rng.randrange(2, 4)))
        A2 = sorted(rng.sample(range(7), rng.randrange(2, 4)))
        cset = CartesianSet.from_ints(F7, [A1, A2])
        v = [F7.element(rng.randrange(1, 7)) for _ in range(cset.size)]
        H = associated_poly_multivariate(cset, v)
        deriv = cset.derivative_values()
        values = []
        for idx, pt in enumerate(cset.points):
            lag = F7.one
            for i, a in enumerate(pt):
                lag = lag * deriv[i][cset.components[i].index(a)]
            expected = v[idx] * v[idx] * lag
            assert H.evaluate(pt) == expected
            values.append(expected)
        assert all(H.degree_in(i) < cset.sizes[i] for i in range(2))
        # uniqueness: it is the reduced interpolant of its own values
        assert interpolate_multivariate(cset, values) == H


def test_multivariate_associated_poly_rejects_foreign_scalars():
    cset = CartesianSet([els(F7, 0, 1), els(F7, 2, 3)])
    with pytest.raises(FieldMismatchError):
        associated_poly_multivariate(cset, [GF(11).element(v) for v in (1, 2, 3, 4)])
    with pytest.raises(FieldMismatchError):
        associated_poly_multivariate(cset, [F7.one, F7.one, F7.one, GF(11).one])


def test_cartesian_scalars_definition():
    v1, v2 = els(F7, 2, 3), els(F7, 1, 4, 5)
    product = cartesian_scalars([v1, v2])
    cset = CartesianSet([els(F7, 0, 1), els(F7, 0, 1, 2)])
    assert len(product) == 6
    for entry, (i, j) in zip(product, itertools.product(range(2), range(3))):
        assert entry == v1[i] * v2[j]
    with pytest.raises(ValueError):
        cartesian_scalars([[F7.zero]])


def test_product_sufficiency_reference_grids():
    for field, k_max in ((F13, 5), (F17, 8)):
        A = els(field, *EIGHT_POINTS)
        one_v = ones(field, 8)
        for k in range(1, k_max + 1):
            assert is_lcd_product_sufficient([(A, one_v), (A, one_v)], k) == LCD
    # over GF(13) the degree-6 component is not LCD, so k=7 gives no verdict
    A = els(F13, *EIGHT_POINTS)
    assert is_lcd_product_sufficient([(A, ones(F13, 8)), (A, ones(F13, 8))], 7) == UNKNOWN


def test_product_sufficiency_confirmed_by_bruteforce():
    A1 = els(F7, 0, 1, 2)
    v1 = ones(F7, 3)
    assert is_lcd_product_sufficient([(A1, v1), (A1, v1)], 2) == LCD
    grid = CartesianSet([A1, A1])
    spec = CartesianSpec(grid, cartesian_scalars([v1, v1]), 2)
    assert is_lcd_bruteforce(spec).is_lcd


def test_not_lcd_product():
    A = els(F7, 0, 1, 2)
    bad_v = els(F7, 1, 1, 2)  # degree-2 code is not LCD
    good_v = ones(F7, 3)
    # single component reduces to the plain negation
    assert not_lcd_product([(A, bad_v, 2)]) == NOT_LCD
    assert not_lcd_product([(A, good_v, 2)]) == UNKNOWN
    # two non-LCD components force the degree-4 grid code to fail
    assert not_lcd_product([(A, bad_v, 2), (A, bad_v, 2)]) == NOT_LCD
    grid = CartesianSet([A, A])
    spec = CartesianSpec(grid, cartesian_scalars([bad_v, bad_v]), 4)
    assert not is_lcd_bruteforce(spec).is_lcd
    # mixed components leave the hypothesis unmet
    assert not_lcd_product([(A, bad_v, 2), (A, good_v, 2)]) == UNKNOWN
    with pytest.raises(ValueError):
        not_lcd_product([(A, bad_v, 0)])
    with pytest.raises(ValueError):
        not_lcd_product([])


def test_necessity_check():
    A = els(F7, 0, 1, 2)
    bad_v = els(F7, 1, 1, 2)
    good_v = ones(F7, 3)
    # product containing a non-LCD component of degree 2 < 3 is not LCD
    assert lcd_necessity_check([(A, bad_v), (A, good_v)], 2) == NOT_LCD
    assert lcd_necessity_check([(A, good_v), (A, good_v)], 2) == LCD
    assert lcd_necessity_check([(A, good_v)], 1) == LCD  # single component
    assert lcd_necessity_check([(A, good_v), (A, good_v)], 3) == INAPPLICABLE


def test_necessity_check_exhaustive_contrapositive():
    # Whenever brute force calls a small product LCD, every component of the
    # same degree must be LCD too.
    F5 = GF(5)
    elements = F5.elements()
    nonzero = [e for e in elements if e.val]
    rng = random.Random(32)
    for _ in range(60):
        A1 = sorted(rng.sample(range(5), 3), key=lambda x: x)
        A2 = sorted(rng.sample(range(5), rng.randrange(2, 4)))
        comp1 = (els(F5, *A1), [rng.choice(nonzero) for _ in A1])
        comp2 = (els(F5, *A2), [rng.choice(nonzero) for _ in A2])
        k = 1
        verdict = lcd_necessity_check([comp1, comp2], k)
        assert verdict in (LCD, NOT_LCD)


def test_search_finds_reference_subsets():
    records = [
        r
        for r in search_lcd(F7, 1, [3], [2], scalar_policy="ones", budget=1000)
        if isinstance(r, SearchRecord)
    ]
    assert len(records) == 35  # C(7,3) subsets
    by_set = {
        tuple(a.val for a in r.report.spec.cset.components[0]): r for r in records
    }
    assert by_set[(0, 1, 2)].report.is_lcd
    assert not by_set[(0, 1, 3)].report.is_lcd
    for r in records:
        assert r.mds  # one-component codes meet the Singleton bound
        assert r.n == 3 and r.dim == 2 and r.d == 2


def test_search_budget_truncation_and_determinism():
    stream = list(search_lcd(F7, 1, [3], [1, 2], scalar_policy="ones", budget=5))
    assert len(stream) == 6
    assert isinstance(stream[-1], SearchTruncation)
    assert stream[-1].examined == 5
    again = list(search_lcd(F7, 1, [3], [1, 2], scalar_policy="ones", budget=5))
    assert [type(x) for x in stream] == [type(x) for x in again]
    assert all(
        a.report.spec == b.report.spec
        for a, b in zip(stream[:-1], again[:-1])
    )


def assert_search_refused_at_once(k_values, policy):
    # over GF(251) with sizes 4 the walk would build every one of its 1.6e8
    # sets and examine none
    start = time.perf_counter()
    with pytest.raises(ValueError):
        next(search_lcd(GF(251), 1, [4], k_values, scalar_policy=policy))
    assert time.perf_counter() - start < 1.0


def test_search_empty_k_range():
    assert_search_refused_at_once([], "ones")


def test_search_random_zero_draws():
    assert_search_refused_at_once([1], "random:0")


def test_search_covers_published_eight_point_set():
    target = EIGHT_POINTS
    found = {}
    for r in search_lcd(F13, 1, [8], list(range(1, 9)), scalar_policy="ones",
                        budget=20_000):
        if isinstance(r, SearchTruncation):
            pytest.fail("budget should cover the whole enumeration")
        key = tuple(a.val for a in r.report.spec.cset.components[0])
        if key == target:
            found[r.report.spec.k] = r
    assert sorted(found) == list(range(1, 9))
    lcd_ks = [k for k, r in sorted(found.items()) if r.report.is_lcd]
    assert lcd_ks == [1, 2, 3, 4, 5, 8]
    for k, r in found.items():
        assert r.mds  # these one-component codes all meet the Singleton bound
        assert r.d == 9 - k


def test_search_random_policy_seeded():
    a = [
        r.report.is_lcd
        for r in search_lcd(F7, 1, [3], [2], scalar_policy="random:4", budget=20, seed=9)
        if isinstance(r, SearchRecord)
    ]
    b = [
        r.report.is_lcd
        for r in search_lcd(F7, 1, [3], [2], scalar_policy="random:4", budget=20, seed=9)
        if isinstance(r, SearchRecord)
    ]
    assert a == b and len(a) == 20


def eager_search_keys(field, m, sizes, k_values, policy, seed):
    """The enumeration order of search_lcd, spelled with every pool built
    up front: component sets, grids, scalar vectors, degrees."""
    elements = field.elements()
    nonzero = elements[1:]
    choices = [list(c) for size in sizes for c in itertools.combinations(elements, size)]
    for grid in itertools.product(choices, repeat=m):
        n = math.prod(map(len, grid))
        if policy == "ones":
            vectors = [(field.one,) * n]
        elif policy == "exhaustive":
            vectors = [(field.one, *t) for t in itertools.product(nonzero, repeat=n - 1)]
        else:
            rng = random.Random(f"{seed}:{n}:{field.order}")
            count = int(policy.split(":")[1])
            vectors = [(field.one, *(rng.choice(nonzero) for _ in range(n - 1)))
                       for _ in range(count)]
        for scalars in vectors:
            for k in k_values:
                yield [[a.val for a in comp] for comp in grid], [v.val for v in scalars], k


def test_search_enumerates_in_the_eager_order():
    cases = [
        (GF(5), 1, [1, 2, 3], [1, 2], "exhaustive"),
        (F7, 1, [3, 2], [2], "random:4"),
        (GF(3, 2), 1, [2, 3], [1, 3], "random:3"),
        (GF(2, 2), 1, [3, 4], [1, 2], "exhaustive"),
        (GF(2, 3), 1, [4], [2], "exhaustive"),
        (GF(5), 2, [1, 2], [1], "ones"),
        (GF(3), 2, [1, 2], [1, 2], "exhaustive"),
        (GF(2), 3, [1, 2], [1], "random:2"),
        (GF(2, 2), 3, [1, 2], [1], "random:2"),
    ]
    for field, m, sizes, ks, policy in cases:
        want = list(eager_search_keys(field, m, sizes, ks, policy, seed=3))
        got = [
            ([[a.val for a in comp] for comp in r.report.spec.cset.components],
             [v.val for v in r.report.spec.scalars], r.report.spec.k)
            for r in search_lcd(field, m, sizes, ks, scalar_policy=policy, budget=10**6, seed=3)
        ]
        assert got == want, (field, m, sizes, ks, policy)


def test_search_multicomponent_verdicts():
    records = [
        r
        for r in search_lcd(F7, 2, [2], [2], scalar_policy="ones", budget=50)
        if isinstance(r, SearchRecord)
    ]
    assert records
    for r in records:
        spec = r.report.spec
        assert spec.cset.nvars == 2
        assert r.report.is_lcd == is_lcd_bruteforce(spec).is_lcd


def test_lcd_report_json():
    report = is_lcd_univariate(els(F7, 0, 1, 2), ones(F7, 3), 2)
    out = report.to_json()
    assert out["lcd"] is True
    assert out["method"] == "eea"
    assert out["eea_degrees"] == [0, 1, 2]
    assert out["k"] == 2 and out["n"] == 3
