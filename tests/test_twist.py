"""Tests for twisting-map construction, validation and derived operators."""

import random
import time
from fractions import Fraction

import pytest

from qsubgroups.exact import IntMatrix
from qsubgroups.lie import Basis, LatticeElement, bilinear_form, cartan_matrix
from qsubgroups.twist import (
    TwistValidationError,
    apply_phi,
    build_twist,
    c3_parameter_matrix,
    enumerate_valid_twists,
    kbar_exponent,
    ktilde_exponent,
    r_operator,
    require_twist,
    zero_twist,
)

from oracles import (
    frac_inverse,
    frac_matmul,
    fraction_build_twist,
    fraction_twist_search,
)

C3 = cartan_matrix("C", 3)


def worked_twist():
    return require_twist(C3, c3_parameter_matrix(1, 2, 0))


def twist_pool():
    """A deterministic pool of valid twists across several types."""
    pool = [zero_twist(cartan_matrix("A", 2)), worked_twist()]
    pool += list(enumerate_valid_twists(cartan_matrix("A", 2), bound=4, limit=4))
    pool += list(enumerate_valid_twists(cartan_matrix("B", 2), bound=3, limit=5))
    pool += list(enumerate_valid_twists(cartan_matrix("A", 3), bound=2, limit=4))
    return pool


def random_weight(rng, rank):
    return LatticeElement.make(
        Basis.OMEGA, [rng.randrange(-6, 7) for _ in range(rank)]
    )


class TestBuildTwist:
    def test_zero_matrix_is_valid(self):
        result = build_twist(C3, IntMatrix.zeros(3, 3))
        assert result.ok and result.twist.is_zero()

    def test_worked_family_point(self):
        y = c3_parameter_matrix(1, 2, 0)
        assert y.to_lists() == [[2, -1, -1], [4, -1, -1], [5, -1, -1]]
        result = build_twist(C3, y)
        assert result.ok
        assert result.twist.X == C3.A @ y

    def test_family_odd_parameter_reports_integrality(self):
        result = build_twist(C3, c3_parameter_matrix(1, 1, 0))
        assert not result.ok
        assert {v.condition for v in result.violations} == {"integral_parameters"}

    def test_integral_fraction_rows_build(self):
        """Integral Fractions are converted to ints after the integrality
        check: the twist holds an all-int Y equal to the input."""
        rows = [[Fraction(x) for x in row] for row in c3_parameter_matrix(1, 2, 0).data]
        result = build_twist(C3, rows)
        assert result.ok
        assert result.twist.Y == c3_parameter_matrix(1, 2, 0)
        assert {type(x) for row in result.twist.Y.data for x in row} == {int}

    def test_half_reports_integral_parameters(self):
        rows = [[0, 0, 0], [0, Fraction(1, 2), 0], [0, 0, 0]]
        result = build_twist(C3, rows)
        assert not result.ok
        (violation,) = result.violations
        assert (violation.condition, violation.indices) == ("integral_parameters", (2, 2))
        assert violation.detail == "y[2][2] = 1/2 is not an integer"

    def test_all_ones_reports_antisymmetry(self):
        result = build_twist(C3, [[1, 1, 1]] * 3)
        assert not result.ok
        conditions = {v.condition for v in result.violations}
        assert "dx_antisymmetric" in conditions
        # x_ii != 0 is caught by the diagonal antisymmetry check
        diag = [v for v in result.violations if v.indices and v.indices[0] == v.indices[1]]
        assert diag

    def test_violation_reports_collect_everything(self):
        result = build_twist(cartan_matrix("A", 2), [[1, 0], [0, -1]])
        assert not result.ok
        assert len(result.violations) >= 2  # both diagonal entries witnessed

    def test_require_twist_raises(self):
        with pytest.raises(TwistValidationError):
            require_twist(C3, [[1, 1, 1]] * 3)

    def test_enumerated_twists_are_valid(self):
        for tw in twist_pool():
            again = build_twist(tw.cd, tw.Y)
            assert again.ok
            assert tw.X == tw.cd.A @ tw.Y


class TestApplyPhi:
    def test_worked_images(self):
        tw = worked_twist()
        expected = {1: (4, 8, 10), 2: (-2, -2, -2), 3: (-2, -2, -2)}
        for i, coords in expected.items():
            image = apply_phi(tw, C3.simple_root(i))
            assert image.basis == Basis.ALPHA
            assert tuple(int(c) for c in image.coords) == coords

    def test_zero_element(self):
        tw = worked_twist()
        zero = LatticeElement.zero(Basis.ALPHA, 3)
        assert apply_phi(tw, zero) == zero

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            apply_phi(worked_twist(), LatticeElement.make(Basis.ALPHA, [1, 0]))

    def test_antisymmetry_against_form(self):
        rng = random.Random(17)
        for tw in twist_pool():
            for _ in range(30):
                lam = random_weight(rng, tw.rank)
                mu = random_weight(rng, tw.rank)
                lhs = bilinear_form(apply_phi(tw, lam), mu, tw.cd)
                rhs = -bilinear_form(lam, apply_phi(tw, mu), tw.cd)
                assert lhs == rhs


class TestROperator:
    def test_zero_twist_gives_identity(self):
        op = r_operator(zero_twist(cartan_matrix("A", 2)), 1, inverse=True)
        assert op.matrix == (
            (Fraction(1), Fraction(0)),
            (Fraction(0), Fraction(1)),
        )

    def test_one_plus_phi_matrix(self):
        tw = worked_twist()
        op = r_operator(tw, 1)
        expected = [
            [1 + 2 * tw.Y[i, j] if i == j else 2 * tw.Y[i, j] for j in range(3)]
            for i in range(3)
        ]
        assert [[int(x) for x in row] for row in op.matrix] == expected

    def test_inverse_composes_to_identity(self):
        for tw in twist_pool():
            for sign in (1, -1):
                op = r_operator(tw, sign)
                inv = r_operator(tw, sign, inverse=True)
                n = tw.rank
                identity = [
                    [Fraction(int(i == j)) for j in range(n)] for i in range(n)
                ]
                assert frac_matmul(op.matrix, inv.matrix) == identity

    def test_adjointness(self):
        rng = random.Random(29)
        for tw in twist_pool():
            for sign in (1, -1):
                for inverse in (False, True):
                    op = r_operator(tw, sign, inverse)
                    adj = r_operator(tw, -sign, inverse)
                    for _ in range(10):
                        lam = random_weight(rng, tw.rank)
                        mu = random_weight(rng, tw.rank)
                        lhs = bilinear_form(op.apply(lam, tw.cd), mu, tw.cd)
                        rhs = bilinear_form(lam, adj.apply(mu, tw.cd), tw.cd)
                        assert lhs == rhs


class TestStructuralInvariants:
    def test_x_diagonal_vanishes_and_dx_antisymmetric(self):
        for tw in twist_pool():
            n = tw.rank
            d = tw.cd.d
            for i in range(n):
                assert tw.X[i, i] == 0
                for j in range(n):
                    assert d[j] * tw.X[j, i] == -d[i] * tw.X[i, j]

    def test_half_pairing_integral_on_weights(self):
        rng = random.Random(41)
        for tw in twist_pool():
            for _ in range(20):
                lam = random_weight(rng, tw.rank)
                mu = random_weight(rng, tw.rank)
                half = bilinear_form(apply_phi(tw, lam), mu, tw.cd) / 2
                assert half.denominator == 1

    def test_scaled_pairing_on_r_image(self):
        # for lam in r(P): det(A + 2X) * (lam, mu) is an integer
        rng = random.Random(43)
        for tw in twist_pool():
            det = (tw.cd.A + tw.X.scaled(2)).det()
            rinv = r_operator(tw, 1, inverse=True)
            for _ in range(20):
                lam = rinv.apply(random_weight(rng, tw.rank), tw.cd)
                mu = random_weight(rng, tw.rank)
                scaled = det * bilinear_form(lam, mu, tw.cd)
                assert scaled.denominator == 1


class TestModifiedGrouplikeExponents:
    def test_zero_twist(self):
        tw = zero_twist(cartan_matrix("A", 3))
        assert kbar_exponent(tw, 2) == (0, 1, 0)
        assert ktilde_exponent(tw, 3) == (0, 0, 1)

    def test_worked_values(self):
        tw = worked_twist()
        assert kbar_exponent(tw, 2) == (2, 3, 2)
        assert ktilde_exponent(tw, 1) == (5, 8, 10)

    def test_index_bounds(self):
        tw = worked_twist()
        with pytest.raises(IndexError):
            kbar_exponent(tw, 0)
        with pytest.raises(IndexError):
            ktilde_exponent(tw, 4)

    def test_exponents_match_phi_action(self):
        for tw in twist_pool():
            for i in range(1, tw.rank + 1):
                alpha = tw.cd.simple_root(i)
                phi_alpha = apply_phi(tw, alpha)
                minus = tuple(
                    int(a - b) for a, b in zip(alpha.coords, phi_alpha.coords)
                )
                plus = tuple(
                    int(a + b) for a, b in zip(alpha.coords, phi_alpha.coords)
                )
                assert kbar_exponent(tw, i) == minus
                assert ktilde_exponent(tw, i) == plus


def build_corpus(seed=2024, draws=100):
    """(cd, Y) inputs for build_twist.  Parameter vectors x_ij are drawn
    in [-3, 3], or all even in [-6, 6] (where D4 fails half-integrality
    with Y integral).  Y = A^(-1) X is passed as Fractions when it is not
    integral and as ints (valid, or failing half-integrality) when it is;
    each integral Y also comes with one entry raised by 1 (D X no longer
    antisymmetric), as Fractions of denominator 1, and as an IntMatrix."""
    rng = random.Random(seed)
    corpus = []
    for lie_type, n in [("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3),
                        ("C", 3), ("A", 4), ("D", 4)]:
        cd = cartan_matrix(lie_type, n)
        ainv = frac_inverse(cd.A.data)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for _ in range(draws):
            step = rng.choice((1, 2))
            x = [[Fraction(0)] * n for _ in range(n)]
            for i, j in pairs:
                v = step * rng.randint(-3, 3)
                x[i][j], x[j][i] = Fraction(v), Fraction(-cd.d[i] * v, cd.d[j])
            y = frac_matmul(ainv, x)
            if any(v.denominator != 1 for row in y for v in row):
                corpus.append((cd, y))
                continue
            ints = [[int(v) for v in row] for row in y]
            bumped = [row[:] for row in ints]
            bumped[rng.randrange(n)][rng.randrange(n)] += 1
            halves = [[Fraction(2 * v, 2) for v in row] for row in bumped]
            corpus += [(cd, ints), (cd, bumped), (cd, halves), (cd, IntMatrix(ints))]
    corpus.append((C3, c3_parameter_matrix(1, 1, 0)))
    corpus.append((C3, [[1, 1, 1]] * 3))
    return corpus


def wide_corpus(seed=32, draws=12):
    """(cd, Y) inputs for build_twist at the ranks build_corpus never
    reaches (C4, F4, A5, D5, E6, E7, E8, A8, D8).  Y = K (D A) for a sparse
    antisymmetric K is valid; it comes as ints and as an IntMatrix, with
    one entry raised by 1 (D X no longer antisymmetric), and as Fractions
    with one entry raised by 1/2 (not integral).  Y = A^(-1) X for a
    random X with D X antisymmetric is passed as Fractions: not integral,
    or integral and failing half-integrality where det A > 1."""
    rng = random.Random(seed)
    corpus = []
    for lie_type, n in [("C", 4), ("F", 4), ("A", 5), ("D", 5), ("E", 6), ("E", 7),
                        ("E", 8), ("A", 8), ("D", 8)]:
        cd = cartan_matrix(lie_type, n)
        ainv = frac_inverse(cd.A.data)
        da = [[d * a for a in row] for d, row in zip(cd.d, cd.A.data)]
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for _ in range(draws):
            k = [[0] * n for _ in range(n)]
            for i, j in pairs:
                if rng.random() < 0.3:
                    k[i][j] = rng.randint(-2, 2)
                    k[j][i] = -k[i][j]
            ints = [[int(v) for v in row] for row in frac_matmul(k, da)]
            bumped = [row[:] for row in ints]
            bumped[rng.randrange(n)][rng.randrange(n)] += 1
            halves = [list(map(Fraction, row)) for row in ints]
            halves[rng.randrange(n)][rng.randrange(n)] += Fraction(1, 2)
            corpus += [(cd, ints), (cd, IntMatrix(ints)), (cd, bumped), (cd, halves)]
            x = [[Fraction(0)] * n for _ in range(n)]
            for i, j in pairs:
                v = rng.randint(-2, 2) * rng.choice((1, 2))
                x[i][j], x[j][i] = Fraction(v), Fraction(-cd.d[i] * v, cd.d[j])
            corpus.append((cd, frac_matmul(ainv, x)))
    return corpus


class TestAgainstFractionReference:
    """The integer congruence checks give what the former Fraction code
    gave (tests/oracles.py keeps it frozen)."""

    SEARCHES = (
        [(t, n, b) for t, n in [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3),
                                ("C", 2), ("C", 3), ("G", 2)] for b in (0, 1, 2)]
        + [(t, 4, 1) for t in "ABCDF"]
        + [("B", 2, 3), ("G", 2, 3)]
    )

    @pytest.mark.parametrize("lie_type,n,bound", SEARCHES)
    def test_search_lists_match(self, lie_type, n, bound):
        cd = cartan_matrix(lie_type, n)
        for limit in (None, 0, 1, 3, -1):
            twists = list(enumerate_valid_twists(cd, bound, limit))
            got = [(tw.Y.to_lists(), tw.X.to_lists()) for tw in twists]
            assert got == list(fraction_twist_search(cd, bound, limit)), limit
            assert all(tw.cd is cd for tw in twists)

    def test_build_twist_reports_match(self):
        seen = set()
        for cd, y in build_corpus():
            result = build_twist(cd, y)
            expected, violations = fraction_build_twist(cd, y)
            got = [(v.condition, v.indices, v.detail) for v in result.violations]
            assert got == violations, y
            if expected is None:
                assert result.twist is None
            else:
                assert (result.twist.Y.to_lists(), result.twist.X.to_lists()) == expected
            seen |= {v[0] for v in violations} or {"valid"}
        assert seen == {"valid", "integral_parameters", "dx_antisymmetric",
                        "half_integrality"}

    def test_build_twist_reports_match_at_higher_rank(self):
        """The row-tuple products give the frozen Fraction code's twist and
        violations, in order, on every query shape of rank 4 to 8; E8 and
        F4 (det A = 1) can fail no half-integrality."""
        seen = set()
        for cd, y in wide_corpus():
            result = build_twist(cd, y)
            expected, violations = fraction_build_twist(cd, y)
            assert [(v.condition, v.indices, v.detail) for v in result.violations] \
                == violations, (cd.lie_type, cd.rank, y)
            if expected is None:
                assert result.twist is None
            else:
                assert (result.twist.Y.to_lists(), result.twist.X.to_lists()) == expected
            seen |= {(cd, v[0]) for v in violations} or {(cd, "valid")}
        for cd in {cd for cd, _ in seen}:
            conditions = {c for key, c in seen if key == cd}
            assert {"valid", "integral_parameters", "dx_antisymmetric"} <= conditions
            assert ("half_integrality" in conditions) == (cd.A.det() > 1), cd.lie_type
        assert len({cd for cd, _ in seen}) == 9

    def test_a_plus_2x_never_singular_for_integral_y(self):
        # det(A + 2X) = det A det(1 + 2Y) and det(1 + 2Y) is odd, so the
        # invertibility check cannot fail once Y is integral.
        for cd, y in build_corpus(seed=7, draws=20):
            result = build_twist(cd, y)
            assert "a_plus_2x_invertible" not in {v.condition for v in result.violations}
            if result.twist is not None:
                n = cd.rank
                one_2y = IntMatrix([[int(i == j) + 2 * result.twist.Y[i, j]
                                     for j in range(n)] for i in range(n)])
                assert one_2y.det() % 2 == 1


class TestSearchYieldsIntMatrices:
    """The search wraps Y and X without a second check; they are exactly
    what the checking constructor would build."""

    @pytest.mark.parametrize("lie_type,n,bound", [("B", 2, 3), ("C", 3, 2)])
    def test_y_and_x_equal_checked_rebuilds(self, lie_type, n, bound):
        twists = list(enumerate_valid_twists(cartan_matrix(lie_type, n), bound))
        assert len(twists) >= 3 and any(min(map(min, tw.Y.data)) < 0 for tw in twists)
        for tw in twists:
            for m in (tw.Y, tw.X):
                assert m == IntMatrix(m.data) and (m.nrows, m.ncols) == (n, n)
                assert all(type(row) is tuple for row in m.data)
                assert all(type(x) is int for row in m.data for x in row)


class TestSearchScale:
    """Counts measured with the former candidate-by-candidate search, which
    took about 30 s for each of A5 and D5.  D4 at bound 2 has points with
    Y integral that fail half-integrality; at bound 1 it has none."""

    @pytest.mark.parametrize("lie_type,n,bound,limit,count", [
        ("A", 5, 1, None, 65),
        ("D", 5, 1, None, 299),
        ("D", 4, 2, None, 455),
        ("A", 12, 2, 40, 40),
    ])
    def test_counts(self, lie_type, n, bound, limit, count):
        cd = cartan_matrix(lie_type, n)
        start = time.perf_counter()
        found = list(enumerate_valid_twists(cd, bound, limit))
        elapsed = time.perf_counter() - start
        assert len(found) == count
        assert not any(map(any, found[0].Y.data))
        assert len({tw.Y for tw in found}) == count
        assert elapsed < 10, f"{elapsed:.1f} s"
        for tw in found:
            assert fraction_build_twist(cd, tw.Y) == (
                (tw.Y.to_lists(), tw.X.to_lists()), []
            )

    def test_leaves_no_cyclic_garbage(self):
        """Refcounting frees the lattice walk's state whether the search
        runs to the end, stops at its limit or is abandoned: a recursive
        closure left alive would hand each search to the cyclic collector."""
        import gc

        cd = cartan_matrix("C", 3)
        full = list(enumerate_valid_twists(cd, 2))
        gc.collect()
        gc.disable()
        try:
            assert list(enumerate_valid_twists(cd, 2)) == full
            assert gc.collect() == 0
            assert list(enumerate_valid_twists(cd, 2, limit=3)) == full[:3]
            assert gc.collect() == 0
            search = enumerate_valid_twists(cd, 2)
            assert next(search) == full[0]
            del search
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert len(full) > 3
