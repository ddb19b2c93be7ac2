"""Tests for the exact arithmetic substrate."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsubgroups.exact import (
    CyclotomicNumber,
    IntMatrix,
    _factored,
    cyclotomic_polynomial,
    euler_phi,
    hermite_normal_form,
    kernel_lattice,
    kernel_mod,
    reduce_power_basis,
    root_of_unity_power,
    solve_linear_mod,
)

from oracles import (
    brute_kernel,
    cyclotomic_by_division,
    former_cyclotomic_inverse,
    former_cyclotomic_product,
    former_hermite_normal_form,
    former_kernel_lattice,
    former_reduce_power_basis,
    former_solve_linear_mod,
    span_elements,
)


class TestCyclotomicPolynomial:
    def test_base_case(self):
        assert cyclotomic_polynomial(1) == (-1, 1)  # q - 1

    def test_degree_three_matches_division_oracle(self):
        assert list(cyclotomic_polynomial(3)) == cyclotomic_by_division(3)
        assert cyclotomic_polynomial(3) == (1, 1, 1)

    def test_prime_eleven_matches_division_oracle(self):
        assert list(cyclotomic_polynomial(11)) == cyclotomic_by_division(11)
        assert cyclotomic_polynomial(11) == (1,) * 11

    def test_composite_levels_match_division_oracle(self):
        for ell in (2, 4, 6, 9, 12, 15, 21, 105):
            assert list(cyclotomic_polynomial(ell)) == cyclotomic_by_division(ell)

    def test_degree_is_totient(self):
        for ell in range(1, 40):
            assert len(cyclotomic_polynomial(ell)) - 1 == euler_phi(ell)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            cyclotomic_polynomial(0)


class TestReducePowerBasis:
    def test_matches_former_table(self):
        """The remainder mod the cyclotomic polynomial equals the former
        table reduction on random int and Fraction vectors of every length
        the table covered, and int input gives int output."""
        rng = random.Random(1414)
        for ell in (3, 5, 7, 9, 15, 21, 45, 105):
            for length in range(max(2 * euler_phi(ell) - 1, ell) + 1):
                density = rng.choice((0.2, 0.6, 1.0))
                ints = [rng.randint(-9, 9) if rng.random() < density else 0
                        for _ in range(length)]
                fracs = [Fraction(c, rng.randint(1, 5)) for c in ints]
                reduced = reduce_power_basis(ell, ints)
                assert reduced == former_reduce_power_basis(ell, ints), (ell, ints)
                assert all(type(c) is int for c in reduced), (ell, ints)
                assert reduce_power_basis(ell, fracs) == \
                    former_reduce_power_basis(ell, fracs), (ell, fracs)

    def test_any_exponent(self):
        """The former table stopped at exponent max(2 phi - 1, ell) - 1 and
        raised "exponent outside the reduction table" above it."""
        assert CyclotomicNumber.from_polynomial(5, [0] * 20 + [1]) == CyclotomicNumber.one(5)
        assert reduce_power_basis(9, [0] * 31 + [2]) == [0, 0, 0, 0, 2, 0]  # q^31 = q^4
        assert reduce_power_basis(7, []) == [0] * 6


class TestRootOfUnity:
    def test_identity_power(self):
        assert root_of_unity_power(3, 0) == CyclotomicNumber.one(3)

    def test_reduction_at_level_three(self):
        # q^2 mod (q^2 + q + 1) = -1 - q
        assert root_of_unity_power(3, 2).coeffs == (Fraction(-1), Fraction(-1))

    def test_full_period(self):
        assert root_of_unity_power(11, 11) == CyclotomicNumber.one(11)

    def test_rejects_even_or_small_levels(self):
        for ell in (-3, 0, 1, 2, 4):
            with pytest.raises(ValueError):
                root_of_unity_power(ell, 1)

    def test_product_law(self):
        rng = random.Random(7)
        for ell in (3, 5, 9, 11, 15):
            for _ in range(40):
                a, b = rng.randrange(-30, 30), rng.randrange(-30, 30)
                lhs = root_of_unity_power(ell, a) * root_of_unity_power(ell, b)
                assert lhs == root_of_unity_power(ell, a + b)

    def test_minimal_polynomial_vanishes(self):
        for ell in (3, 5, 9, 11, 15):
            eps = root_of_unity_power(ell, 1)
            acc = CyclotomicNumber.zero(ell)
            power = CyclotomicNumber.one(ell)
            for c in cyclotomic_polynomial(ell):
                acc = acc + power * c
                power = power * eps
            assert acc.is_zero()

    def test_inverse(self):
        rng = random.Random(13)
        for ell in (3, 9, 11):
            phi = euler_phi(ell)
            for _ in range(15):
                x = CyclotomicNumber(
                    ell, [Fraction(rng.randrange(-4, 5)) for _ in range(phi)]
                )
                if x.is_zero():
                    continue
                assert x * x.inverse() == CyclotomicNumber.one(ell)

    def test_division_and_power(self):
        eps = root_of_unity_power(11, 3)
        assert eps**-2 == root_of_unity_power(11, -6)
        assert (eps / eps) == CyclotomicNumber.one(11)


small_matrices = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


# every modulus shape the library meets: 1, even, prime, prime power,
# composite with repeated and distinct prime factors
MODULI = (1, 2, 3, 4, 5, 6, 9, 11, 12, 15, 45)


def _assert_hermite_form(h, m, ell):
    """h is the Hermite form of rowspan(m) + ell Z^n: square upper
    triangular, pivots dividing ell, entries above a pivot reduced, and
    every row of m reduces to zero against it."""
    n = m.ncols
    assert (h.nrows, h.ncols) == (n, n)
    for i in range(n):
        assert h[i, i] > 0 and ell % h[i, i] == 0
        assert all(h[i, j] == 0 for j in range(i))
        assert all(0 <= h[k, i] < h[i, i] for k in range(i))
    for row in m.data:
        v = list(row)
        for i in range(n):
            q, r = divmod(v[i], h[i, i])
            assert r == 0
            v = [x - q * y for x, y in zip(v, h.row(i))]


class TestIntMatrix:
    @pytest.mark.parametrize("bad", [True, False, 0.5, 2.0, Fraction(3), Fraction(1, 2),
                                     "1"], ids=repr)
    def test_refuses_non_int_entries(self, bad):
        with pytest.raises(TypeError, match="matrix entries must be int"):
            IntMatrix([[1, 0], [0, bad]])

    def test_ragged_rows_still_value_error(self):
        with pytest.raises(ValueError, match="ragged"):
            IntMatrix([[1, 2], [3]])

    def test_int_rows_kept_as_tuples(self):
        m = IntMatrix([[1, -2], (3, 4)])
        assert m.data == ((1, -2), (3, 4)) and (m.nrows, m.ncols) == (2, 2)
        assert IntMatrix([], ncols=3).ncols == 3


class TestHermiteNormalForm:
    @settings(max_examples=100, deadline=None)
    @given(small_matrices, st.sampled_from(MODULI))
    def test_canonical_for_row_lattice(self, rows, ell):
        m = IntMatrix(rows)
        h = hermite_normal_form(m, ell)
        _assert_hermite_form(h, m, ell)
        # permuting rows, adding one row to another or shifting an entry
        # by ell keeps the form
        permuted = IntMatrix(list(reversed(m.to_lists())))
        assert hermite_normal_form(permuted, ell) == h
        if m.nrows >= 2:
            mixed = m.to_lists()
            mixed[0] = [a + b for a, b in zip(mixed[0], mixed[1])]
            assert hermite_normal_form(IntMatrix(mixed), ell) == h
        shifted = m.to_lists()
        shifted[0][0] -= ell
        assert hermite_normal_form(IntMatrix(shifted), ell) == h

    def test_echelon_shape(self):
        # the rows span 2 Z^2, which contains 12 Z^2 but not 9 Z^2
        m = IntMatrix([[4, 6], [2, 2]])
        assert hermite_normal_form(m, 12).to_lists() == [[2, 0], [0, 2]]
        assert hermite_normal_form(m, 9).to_lists() == [[1, 0], [0, 1]]


def _as_checked(m, shape):
    """m has the given shape, tuple rows of int, and equals the matrix
    IntMatrix builds, with its checks, from the same rows."""
    assert (m.nrows, m.ncols) == shape
    assert m == IntMatrix(m.data, ncols=m.ncols)
    assert type(m.data) is tuple and all(
        type(row) is tuple and len(row) == m.ncols and all(type(x) is int for x in row)
        for row in m.data)


class TestTrustedConstructors:
    """Matrices derived from checked ones come from the unchecked
    IntMatrix._of; each must be the matrix the checked constructor would
    build from its rows, 0-row and 0-column shapes included."""

    SHAPES = [(0, 0), (0, 3), (3, 0), (1, 1), (1, 4), (2, 3), (3, 2), (4, 4)]

    def test_derived_matrices_equal_checked_ones(self):
        rng = random.Random(97)
        for _ in range(25):
            for r, c in self.SHAPES:
                a = IntMatrix([[rng.randint(-60, 60) for _ in range(c)] for _ in range(r)],
                              ncols=c)
                k = rng.randrange(4)
                b = IntMatrix([[rng.randint(-60, 60) for _ in range(k)] for _ in range(c)],
                              ncols=k)
                _as_checked(IntMatrix.identity(r), (r, r))
                _as_checked(IntMatrix.zeros(r, c), (r, c))
                _as_checked(a.transpose(), (c, r))
                _as_checked(a @ b, (r, k))
                for m in (-a, a.scaled(-7), a * 3, a + a, a - a):
                    _as_checked(m, (r, c))
                for ell in (9, 15, 45):
                    _as_checked(hermite_normal_form(a, ell), (c, c))
                    top, kernel = _factored(a, ell)
                    _as_checked(kernel, (c, c))
                    _as_checked(IntMatrix(top, ncols=r + c), (r, r + c))
                    assert all(type(row) is tuple and all(type(x) is int for x in row)
                               for row in top)

    def test_hermite_form_matches_former_algorithm(self):
        """One row operation where the pivot divides the entry, in place of
        an extended-gcd step, gives the same unique Hermite form; composite
        levels included."""
        rng = random.Random(101)
        for ell in MODULI + (7, 63, 105, 1001):
            for _ in range(30):
                r, c = rng.randrange(5), rng.randrange(5)
                rows = [[rng.randrange(-3 * ell, 3 * ell) for _ in range(c)] for _ in range(r)]
                got = hermite_normal_form(IntMatrix(rows, ncols=c), ell)
                assert got.data == former_hermite_normal_form(rows, c, ell), (rows, ell)

    def test_wide_sparse_inputs_match_former_algorithms(self):
        """Wide matrices, about 70 % zeros, so many pivots stay ell, with
        zero rows and zero columns, at prime, prime-power and composite
        levels; then rank-8 kernel systems of up to 16 rows at ell = 45 and
        1001, the shapes the point queries feed.  The Hermite form, the
        kernel lattice and the solver each equal their frozen former
        versions, and the kernel lattice is also read off the former form
        of [M^T | I] directly."""
        rng = random.Random(131)

        def sparse(r, c, ell):
            rows = [[rng.randrange(-2 * ell, 2 * ell) if rng.random() < 0.3 else 0
                     for _ in range(c)] for _ in range(r)]
            if r and c and rng.random() < 0.5:  # one zero row and one zero column
                rows[rng.randrange(r)] = [0] * c
                k = rng.randrange(c)
                for row in rows:
                    row[k] = 0
            return rows

        levels = (1, 2, 3, 4, 8, 9, 12, 15, 16, 27, 45, 63, 105, 210, 1001, 2310)
        shapes = [(rng.randrange(11), rng.randrange(21), ell) for ell in levels for _ in range(25)]
        shapes += [(rng.randrange(9, 17), 8, ell) for ell in (45, 1001) for _ in range(50)]
        for p, k, ell in shapes:
            rows = sparse(p, k, ell)
            m = IntMatrix(rows, ncols=k)
            assert hermite_normal_form(m, ell).data == \
                former_hermite_normal_form(rows, k, ell), (rows, ell)
            kernel = kernel_lattice(m, ell)
            assert kernel == former_kernel_lattice(m, ell), (rows, ell)
            system = [list(col) + [int(i == y) for i in range(k)]
                      for y, col in enumerate(m.transpose().data)]
            assert kernel.data == tuple(
                row[p:] for row in former_hermite_normal_form(system, p + k, ell)[p:])
            y = [rng.randrange(ell) for _ in range(k)]
            for b in (m.apply(y), [rng.randrange(ell) for _ in range(p)]):
                assert solve_linear_mod(m, b, ell) == former_solve_linear_mod(m, b, ell), \
                    (rows, b, ell)

    @pytest.mark.parametrize("bad", [True, 0.5, 9.0, Fraction(9), "9"], ids=repr)
    def test_trusting_paths_check_their_parameters(self, bad):
        """A float or bool modulus or scalar would make the unchecked
        result hold non-ints, so the modulus and the scalar are checked."""
        m = IntMatrix([[1, 2], [3, 4]])
        with pytest.raises(TypeError, match="modulus must be int"):
            hermite_normal_form(m, bad)
        with pytest.raises(TypeError, match="modulus must be int"):
            kernel_mod(m, bad)
        with pytest.raises(TypeError, match="scalars must be int"):
            m.scaled(bad)


class TestKernelMod:
    def test_zero_matrix_full_kernel(self):
        gens = kernel_mod(IntMatrix([[0, 0, 0]]), 11)
        sub = span_elements([g for g, _ in gens], 11, 3)
        assert len(sub) == 1331

    def test_worked_kernel_rank_one(self):
        gens = kernel_mod(IntMatrix([[5, 8, 10], [2, 3, 2]]), 11)
        assert [order for _, order in gens] == [11]
        sub = span_elements([g for g, _ in gens], 11, 3)
        assert sub == span_elements([(3, 1, 1)], 11, 3)

    def test_worked_kernel_rank_two(self):
        gens = kernel_mod(IntMatrix([[2, 3, 2]]), 11)
        sub = span_elements([g for g, _ in gens], 11, 3)
        assert len(sub) == 121
        assert (1, 0, 10) in sub and (0, 1, 4) in sub

    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            kernel_mod(IntMatrix([[1]]), 0)

    def test_matches_brute_force_including_composite(self):
        rng = random.Random(23)
        for ell in (1, 2, 3, 4, 5, 6, 9, 11, 12):
            for _ in range(25):
                n = rng.randrange(1, 4)
                rows = [
                    [rng.randrange(ell) for _ in range(n)]
                    for _ in range(rng.randrange(0, 4))
                ]
                m = IntMatrix(rows, ncols=n)
                gens = kernel_mod(m, ell)
                got = span_elements([g for g, _ in gens], ell, n)
                assert got == brute_kernel(rows, ell, n)
                for g, order in gens:
                    assert all(
                        sum(a * b for a, b in zip(row, g)) % ell == 0
                        for row in rows
                    )
                    assert order > 1
                    assert all((order * x) % ell == 0 for x in g)


class TestSolveLinearMod:
    def test_random_systems_agree_with_enumeration(self):
        rng = random.Random(31)
        for _ in range(80):
            ell = rng.choice([1, 2, 3, 4, 5, 6, 9, 12])
            p, k = rng.randrange(1, 3), rng.randrange(0, 4)
            rows = [[rng.randrange(ell) for _ in range(k)] for _ in range(p)]
            b = [rng.randrange(ell) for _ in range(p)]
            solved = solve_linear_mod(IntMatrix(rows, ncols=k), b, ell)
            import itertools

            expected = {
                y
                for y in itertools.product(range(ell), repeat=k)
                if all(
                    sum(r * x for r, x in zip(row, y)) % ell == bi % ell
                    for row, bi in zip(rows, b)
                )
            }
            if solved is None:
                assert not expected
            else:
                assert solved in expected


class TestLargeEntries:
    def test_normal_forms_with_huge_entries(self):
        rng = random.Random(97)
        for _ in range(10):
            m = IntMatrix(
                [
                    [rng.randrange(-10**12, 10**12) for _ in range(3)]
                    for _ in range(3)
                ]
            )
            for ell in (12, 1001, 2**61 - 1):
                h = hermite_normal_form(m, ell)
                _assert_hermite_form(h, m, ell)
                assert hermite_normal_form(h, ell) == h

    def test_inverse_matches_former_euclid(self):
        """The inverse read off the multiplication matrix equals the former
        extended-Euclid inverse, on dense and sparse random elements with
        rational coefficients at prime and composite levels."""
        rng = random.Random(2113)
        for ell in (3, 5, 9, 15, 21):
            phi = euler_phi(ell)
            for _ in range(25):
                density = rng.choice((0.2, 0.6, 1.0))
                x = CyclotomicNumber(ell, [
                    Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                    if rng.random() < density else 0 for _ in range(phi)])
                if x.is_zero():
                    continue
                inv = x.inverse()
                assert inv == former_cyclotomic_inverse(x), (ell, x)
                assert x * inv == 1
        with pytest.raises(ZeroDivisionError, match="inverse of zero"):
            CyclotomicNumber.zero(9).inverse()

    def test_product_matches_former_fraction_product(self):
        """The product over one cleared denominator equals the former
        schoolbook product of the Fraction coefficient vectors, reduced
        mod the cyclotomic polynomial, on dense and sparse elements."""
        rng = random.Random(4242)
        for ell, rounds in ((9, 30), (15, 30), (101, 3)):
            phi = euler_phi(ell)
            for _ in range(rounds):
                x, y = (CyclotomicNumber(ell, [
                    Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                    if rng.random() < density else 0 for _ in range(phi)])
                    for density in rng.sample((0.0, 0.2, 0.6, 1.0), 2))
                assert x * y == former_cyclotomic_product(x, y), (ell, x, y)

    def test_inverse_at_larger_composite_levels(self):
        rng = random.Random(99)
        for ell in (15, 21):
            phi = euler_phi(ell)
            for _ in range(6):
                x = CyclotomicNumber(
                    ell, [Fraction(rng.randrange(-3, 4)) for _ in range(phi)]
                )
                if x.is_zero():
                    continue
                assert x * x.inverse() == CyclotomicNumber.one(ell)
