"""Tests for exponent-level deformation data and the dual twist."""

import itertools
import operator
import random
from fractions import Fraction
from math import gcd, lcm, prod

import pytest

from qsubgroups.cocycle import (
    Bidegree,
    TableCapExceeded,
    TorusPairElement,
    _Axes,
    _evaluates,
    _h_axis_weights,
    check_level,
    chi_exponent,
    deformation_exponent,
    sigma_inverse_exponent,
    twist_J,
    twist_J_group_algebra,
)
from qsubgroups.exact import (
    CyclotomicNumber,
    IntMatrix,
    invert_rational_matrix,
    reduce_power_basis,
)
from qsubgroups.lie import Basis, CartanDatum, LatticeElement, cartan_matrix
from qsubgroups.torus import TorusSubgroup
from qsubgroups.twist import (
    c3_parameter_matrix,
    enumerate_valid_twists,
    require_twist,
    zero_twist,
)

from oracles import (
    fiber_scan_group_algebra,
    former_packed_fibers,
    former_twist_bilinear,
    former_unpacked,
    pairwise_convolve,
    pairwise_table_lines,
    relabelled_twist,
    relabellings,
)

C3 = cartan_matrix("C", 3)


def worked_twist():
    return require_twist(C3, c3_parameter_matrix(1, 2, 0))


def b2_twist():
    # type B rank 2 admits twists with nonzero cocycle matrix mod 3
    tw = next(
        t for t in enumerate_valid_twists(cartan_matrix("B", 2), bound=2)
        if not t.is_zero()
    )
    return tw


def pairing_oracle(cd, alpha_coords_1, alpha_coords_2):
    """(lam, mu) for ALPHA-coordinate vectors, expanded entrywise through
    (alpha_i, alpha_j) = d_i a_ij."""
    total = Fraction(0)
    n = cd.rank
    for i in range(n):
        for j in range(n):
            total += (
                Fraction(alpha_coords_1[i])
                * Fraction(alpha_coords_2[j])
                * cd.d[i]
                * cd.A[i, j]
            )
    return total


def random_weight(rng, rank):
    return LatticeElement.make(
        Basis.OMEGA, [rng.randrange(-5, 6) for _ in range(rank)]
    )


def random_bidegree(rng, rank):
    return Bidegree(random_weight(rng, rank), random_weight(rng, rank))


class TestChiExponent:
    def test_zero_twist(self):
        tw = zero_twist(C3)
        rng = random.Random(1)
        for _ in range(10):
            assert chi_exponent(tw, random_weight(rng, 3), random_weight(rng, 3)) == 0

    def test_worked_value_against_expansion(self):
        tw = worked_twist()
        # phi(alpha_1) = 4a1 + 8a2 + 10a3; contract against alpha_2 by hand
        expected = -pairing_oracle(C3, (4, 8, 10), (0, 1, 0)) / 2
        got = chi_exponent(tw, C3.simple_root(1), C3.simple_root(2))
        assert got == expected == -2

    def test_diagonal_vanishes(self):
        rng = random.Random(2)
        tw = worked_twist()
        for _ in range(25):
            lam = random_weight(rng, 3)
            assert chi_exponent(tw, lam, lam) == 0

    def test_bicharacter_additivity_and_antisymmetry(self):
        rng = random.Random(3)
        tw = worked_twist()
        for _ in range(50):
            lam, lam2, mu = (random_weight(rng, 3) for _ in range(3))
            assert chi_exponent(tw, lam + lam2, mu) == chi_exponent(
                tw, lam, mu
            ) + chi_exponent(tw, lam2, mu)
            assert chi_exponent(tw, lam, mu) + chi_exponent(tw, mu, lam) == 0

    def test_two_cocycle_identity(self):
        rng = random.Random(4)
        tw = worked_twist()
        for _ in range(50):
            l1, l2, l3 = (random_weight(rng, 3) for _ in range(3))
            lhs = chi_exponent(tw, l2, l3) + chi_exponent(tw, l1, l2 + l3)
            rhs = chi_exponent(tw, l1, l2) + chi_exponent(tw, l1 + l2, l3)
            assert lhs == rhs


class TestSigmaAndDeformation:
    def test_zero_twist(self):
        tw = zero_twist(C3)
        rng = random.Random(5)
        for _ in range(10):
            bd1, bd2 = random_bidegree(rng, 3), random_bidegree(rng, 3)
            assert sigma_inverse_exponent(tw, bd1, bd2) == 0
            assert deformation_exponent(tw, bd1, bd2) == 0

    def test_sigma_inverse_unfolds_to_chi(self):
        tw = worked_twist()
        rng = random.Random(6)
        for _ in range(25):
            lam = random_weight(rng, 3)
            bd1 = Bidegree(lam, lam)
            bd2 = random_bidegree(rng, 3)
            assert sigma_inverse_exponent(tw, bd1, bd2) == chi_exponent(
                tw, lam, bd2.lam
            )

    def test_sigma_inverse_against_direct_expansion(self):
        tw = worked_twist()
        rng = random.Random(7)
        for _ in range(25):
            bd1, bd2 = random_bidegree(rng, 3), random_bidegree(rng, 3)
            # direct expansion of -(phi(mu1), lam2)/2 via the pairing oracle
            expected = -pairing_oracle(
                C3, _phi_alpha(tw, bd1.mu), _to_alpha(tw, bd2.lam)
            ) / 2
            assert sigma_inverse_exponent(tw, bd1, bd2) == expected

    def test_diagonal_bidegrees_vanish(self):
        tw = worked_twist()
        rng = random.Random(8)
        for _ in range(25):
            bd = random_bidegree(rng, 3)
            assert deformation_exponent(tw, bd, bd) == chi_exponent(
                tw, bd.lam, bd.lam
            ) - chi_exponent(tw, bd.mu, bd.mu)

    def test_deformation_is_chi_difference(self):
        tw = worked_twist()
        rng = random.Random(9)
        for _ in range(40):
            bd1, bd2 = random_bidegree(rng, 3), random_bidegree(rng, 3)
            direct = (
                pairing_oracle(C3, _phi_alpha(tw, bd1.mu), _to_alpha(tw, bd2.mu))
                - pairing_oracle(C3, _phi_alpha(tw, bd1.lam), _to_alpha(tw, bd2.lam))
            ) / 2
            via_chi = chi_exponent(tw, bd1.lam, bd2.lam) - chi_exponent(
                tw, bd1.mu, bd2.mu
            )
            assert deformation_exponent(tw, bd1, bd2) == direct == via_chi

    def test_rejects_non_lattice_bidegree(self):
        with pytest.raises(ValueError):
            Bidegree(
                LatticeElement.make(Basis.OMEGA, [Fraction(1, 2), 0, 0]),
                LatticeElement.make(Basis.OMEGA, [0, 0, 0]),
            )


def _to_alpha(tw, lam):
    from qsubgroups.lie import omega_to_alpha

    return tuple(omega_to_alpha(lam, tw.cd).coords)


def _phi_alpha(tw, lam):
    from qsubgroups.lie import omega_to_alpha
    from qsubgroups.twist import apply_phi

    return tuple(omega_to_alpha(apply_phi(tw, lam), tw.cd).coords)


class TestTwistJ:
    def test_zero_twist_gives_zero_cocycle(self):
        cocycle = twist_J(zero_twist(C3), 11)
        rng = random.Random(10)
        for _ in range(20):
            z1 = [rng.randrange(11) for _ in range(3)]
            z2 = [rng.randrange(11) for _ in range(3)]
            assert cocycle.value(z1, z2) == 0

    def test_worked_basis_value(self):
        tw = worked_twist()
        cocycle = twist_J(tw, 11)
        # (phi(alpha_1), alpha_2)/2 expanded by hand, then reduced mod 11
        expected = pairing_oracle(C3, (4, 8, 10), (0, 1, 0)) / 2
        assert expected.denominator == 1
        assert cocycle.value((1, 0, 0), (0, 1, 0)) == int(expected) % 11
        assert cocycle.value((1, 0, 0), (0, 1, 0)) == 2

    def test_normalization(self):
        tw = worked_twist()
        cocycle = twist_J(tw, 11)
        rng = random.Random(11)
        for _ in range(20):
            z = [rng.randrange(11) for _ in range(3)]
            assert cocycle.value((0, 0, 0), z) == 0
            assert cocycle.value(z, (0, 0, 0)) == 0

    def test_well_defined_mod_ell(self):
        tw = worked_twist()
        cocycle = twist_J(tw, 11)
        rng = random.Random(12)
        for _ in range(30):
            z1 = [rng.randrange(11) for _ in range(3)]
            z2 = [rng.randrange(11) for _ in range(3)]
            v = [rng.randrange(-3, 4) for _ in range(3)]
            shifted = [a + 11 * b for a, b in zip(z1, v)]
            assert cocycle.value(shifted, z2) == cocycle.value(z1, z2)

    def test_dual_cocycle_identity(self):
        tw = worked_twist()
        cocycle = twist_J(tw, 11)
        rng = random.Random(13)
        for _ in range(40):
            z1, z2, z3 = (
                tuple(rng.randrange(11) for _ in range(3)) for _ in range(3)
            )
            z12 = tuple((a + b) % 11 for a, b in zip(z1, z2))
            z23 = tuple((a + b) % 11 for a, b in zip(z2, z3))
            lhs = (cocycle.value(z1, z2) + cocycle.value(z12, z3)) % 11
            rhs = (cocycle.value(z2, z3) + cocycle.value(z1, z23)) % 11
            assert lhs == rhs

    @pytest.mark.parametrize("bad", [0.5, 0.0, True, Fraction(1), "1"])
    def test_value_refuses_non_int_coordinates(self, bad):
        cocycle = twist_J(require_twist(cartan_matrix("B", 2), B2_CRIT7), 5)
        assert cocycle.value([1, 0], [0, 1]) == 3
        with pytest.raises(TypeError):
            cocycle.value([bad, 0], [0, 1])
        with pytest.raises(TypeError):
            cocycle.value([1, 0], [0, bad])

    def test_value_length_mismatch(self):
        cocycle = twist_J(worked_twist(), 11)
        with pytest.raises(ValueError):
            cocycle.value((1, 0), (0, 1, 0))

    def test_level_guards(self):
        tw = worked_twist()
        for ell in (1, 2, 4):
            with pytest.raises(ValueError):
                twist_J(tw, ell)
        g2 = zero_twist(cartan_matrix("G", 2))
        with pytest.raises(ValueError):
            twist_J(g2, 9)
        twist_J(g2, 5)  # coprime to 3 is fine

    def test_g2_level_guard_reads_the_matrix(self):
        """check_level refuses ell = 9 for a G2 matrix given without its
        type label (lie_type "X"): the guard reads the entry -3."""
        for rows in ([[2, -1], [-3, 2]], [[2, -3], [-1, 2]]):
            g2 = zero_twist(CartanDatum.from_matrix(IntMatrix(rows)))
            assert g2.cd.lie_type == "X"
            for call in (check_level, twist_J, twist_J_group_algebra):
                with pytest.raises(ValueError, match="coprime to 3 in type G"):
                    call(g2, 9)
            check_level(g2, 5)
        check_level(zero_twist(cartan_matrix("B", 2)), 9)  # a double bond is no G2


class TestGroupAlgebraTwist:
    def test_zero_twist_is_identity_element(self):
        ga = twist_J_group_algebra(zero_twist(cartan_matrix("A", 2)), 3)
        assert ga.element.is_identity()
        assert ga.inverse.is_identity()

    def test_character_values_recovered(self):
        # the tabulated element must evaluate to eps^J(z1,z2) on characters
        tw = b2_twist()
        ell = 3
        cocycle = twist_J(tw, ell)
        ga = twist_J_group_algebra(tw, ell)
        import itertools

        vectors = list(itertools.product(range(ell), repeat=2))
        for z1 in vectors:
            for z2 in vectors:
                total = CyclotomicNumber.zero(ell)
                for g in vectors:
                    for h in vectors:
                        coeff = ga.element.coefficient(g, h)
                        if coeff.is_zero():
                            continue
                        expo = (
                            sum(a * b for a, b in zip(z1, g))
                            + sum(a * b for a, b in zip(z2, h))
                        ) % ell
                        from qsubgroups.exact import root_of_unity_power

                        total = total + coeff * root_of_unity_power(ell, expo)
                assert total == root_of_unity_power(ell, cocycle.value(z1, z2))

    def test_convolution_inverse_level_three(self):
        tw = b2_twist()
        ga = twist_J_group_algebra(tw, 3)
        assert not ga.element.is_identity()  # the check is not vacuous
        assert ga.element.convolve(ga.inverse).is_identity()
        assert ga.inverse.convolve(ga.element).is_identity()

    def test_counit_normalizations(self):
        tw = b2_twist()
        for ell in (3, 5):
            ga = twist_J_group_algebra(tw, ell)
            assert ga.element.counit_is_one("left")
            assert ga.element.counit_is_one("right")

    def test_inverse_and_counits_level_seven(self):
        ga = twist_J_group_algebra(b2_twist(), 7)  # 7^4 entries, default cap
        assert not ga.element.is_identity()
        assert ga.element.convolve(ga.inverse).is_identity()
        assert ga.inverse.convolve(ga.element).is_identity()
        assert ga.element.counit_is_one("left")
        assert ga.element.counit_is_one("right")

    def test_inverse_and_counits_dense_c3_at_five(self):
        # 625 entries over 25 of the 125 h-fibers, each with the same 25 g:
        # both products multiply in plane coordinates on both axes
        ga = twist_J_group_algebra(worked_twist(), 5, cap=5**6)
        assert len(ga.element.vectors) == 625 and not ga.element.is_identity()
        assert ga.element.convolve(ga.inverse).is_identity()
        assert ga.inverse.convolve(ga.element).is_identity()
        assert ga.element.counit_is_one("left")
        assert ga.element.counit_is_one("right")

    @pytest.mark.parametrize("bad", [0.0, 0.5, True, False, Fraction(0), "0"])
    def test_coefficient_refuses_non_int_coordinates(self, bad):
        element = twist_J_group_algebra(b2_twist(), 3).element
        assert element.coefficient((0, 0), (0, 0)) != 0
        with pytest.raises(TypeError):
            element.coefficient((bad, 0), (0, 0))
        with pytest.raises(TypeError):
            element.coefficient((0, 0), (0, bad))

    def test_coefficient_length_mismatch(self):
        element = twist_J_group_algebra(b2_twist(), 3).element
        for g, h in (((0,), (0, 0)), ((0, 0), (0, 0, 0)), ((), ())):
            with pytest.raises(ValueError):
                element.coefficient(g, h)

    def test_table_cap(self):
        tw = worked_twist()
        with pytest.raises(TableCapExceeded):
            twist_J_group_algebra(tw, 11)  # 11^6 entries is far past the cap

    def test_integer_checks_match_canonical_coefficients(self):
        # is_identity and counit_is_one compare in integers; the canonical
        # coefficients through Q(eps) must give the same verdicts, also
        # where the counts reduce nontrivially and the scale is not 1
        one = CyclotomicNumber.one

        def canonical_identity(el):
            zero = ((0,) * el.n, (0,) * el.n)
            return zero in el.vectors and all(
                el.coefficient(*key) == (one(el.ell) if key == zero else 0)
                for key in el.vectors
            )

        def canonical_counit(el, side):
            table = el.counit_side(side)
            zero = (0,) * el.n
            return table.get(zero) == one(el.ell) and all(
                v == 0 for k, v in table.items() if k != zero
            )

        elements = [
            # 3 + eps + eps^2 = 2 and 1 + eps + eps^2 = 0 at ell = 3
            (3, Fraction(1, 2), {((0,), (0,)): (3, 1, 1), ((1,), (2,)): (1, 1, 1)}),
            (3, Fraction(1, 2), {((0,), (0,)): (2, 1, 1), ((1,), (2,)): (1, 1, 1)}),
            (3, Fraction(-1), {((0,), (0,)): (0, 1, 1)}),
            (3, Fraction(0), {((0,), (0,)): (1, 0, 0)}),
            # eps^3 + eps^6 = -1 and 1 + eps^3 + eps^6 = 0 at ell = 9
            (9, Fraction(-1, 2), {
                ((0,), (0,)): (0, 0, 0, 2, 0, 0, 2, 0, 0),
                ((0,), (4,)): (1, 0, 0, 1, 0, 0, 1, 0, 0),
                ((3,), (0,)): (0, 2, 0, 0, 2, 0, 0, 2, 0),
            }),
            (9, Fraction(1), {((0,), (4,)): (1,) + (0,) * 8}),
            # the vector at zero recurs at another key
            (3, Fraction(1), {((0,), (0,)): (1, 0, 0), ((1,), (2,)): (1, 0, 0)}),
            # each distinct vector is reduced once: recurring zeros, and
            # exactly one other key with a nonzero vector (or with 1 + eps + eps^2)
            (3, Fraction(1), {((0,), (0,)): (1, 0, 0), ((1,), (0,)): (0, 0, 0),
                              ((2,), (1,)): (0, 0, 0), ((1,), (1,)): (0, 1, 0),
                              ((2,), (2,)): (2, 2, 2)}),
            (3, Fraction(1), {((0,), (0,)): (1, 0, 0), ((1,), (0,)): (0, 0, 0),
                              ((2,), (1,)): (0, 0, 0), ((1,), (1,)): (1, 1, 1),
                              ((2,), (2,)): (2, 2, 2)}),
        ]
        verdicts = []
        for ell, scale, vectors in elements:
            el = TorusPairElement(ell, 1, scale, vectors)
            assert el.is_identity() == canonical_identity(el)
            for side in ("left", "right"):
                assert el.counit_is_one(side) == canonical_counit(el, side)
            verdicts.append(el.is_identity())
        assert verdicts == [True, False, True, False, True, False, False, False, True]


class TestTwistJBilinearRule:
    def test_matches_exact_pairing_on_random_arguments(self):
        # the matrix rule must agree with (phi(l_z1), l_z2)/2 computed
        # through the lattice machinery, not just on basis vectors
        from qsubgroups.lie import Basis as _Basis

        rng = random.Random(89)
        for tw in (worked_twist(), b2_twist()):
            for ell in (5, 11):
                cocycle = twist_J(tw, ell)
                n = tw.rank
                for _ in range(40):
                    z1 = tuple(rng.randrange(ell) for _ in range(n))
                    z2 = tuple(rng.randrange(ell) for _ in range(n))
                    lam1 = LatticeElement.make(_Basis.ALPHA, z1)
                    lam2 = LatticeElement.make(_Basis.ALPHA, z2)
                    half = -chi_exponent(tw, lam1, lam2)
                    assert half.denominator == 1
                    assert cocycle.value(z1, z2) == int(half) % ell


class TestGroupAlgebraRankThree:
    def test_singular_pairing_matrix_path(self):
        # at odd rank the cocycle matrix is antisymmetric hence singular,
        # so Fourier fibers are non-singletons and coefficients are sums
        # of several root-of-unity terms; the inverse law must still hold
        tw = worked_twist()
        ga = twist_J_group_algebra(tw, 3)
        bil = twist_J(tw, 3).bilinear
        assert bil.det() % 3 == 0
        assert ga.element.convolve(ga.inverse).is_identity()
        assert ga.element.counit_is_one("left")
        assert ga.element.counit_is_one("right")

    def test_character_recovery_on_sample(self):
        import itertools

        from qsubgroups.exact import CyclotomicNumber, root_of_unity_power

        tw = worked_twist()
        ell = 3
        cocycle = twist_J(tw, ell)
        ga = twist_J_group_algebra(tw, ell)
        vectors = list(itertools.product(range(ell), repeat=3))
        rng = random.Random(101)
        for _ in range(6):
            z1 = vectors[rng.randrange(len(vectors))]
            z2 = vectors[rng.randrange(len(vectors))]
            total = CyclotomicNumber.zero(ell)
            for (g, h), _vec in sorted(ga.element.vectors.items()):
                coeff = ga.element.coefficient(g, h)
                if coeff.is_zero():
                    continue
                expo = (
                    sum(a * b for a, b in zip(z1, g))
                    + sum(a * b for a, b in zip(z2, h))
                ) % ell
                total = total + coeff * root_of_unity_power(ell, expo)
            assert total == root_of_unity_power(ell, cocycle.value(z1, z2))


def random_pair_element(rng, ell, n, size, top, dense=False):
    """A TorusPairElement with nonnegative counts below top on size
    random support points over at most three h-fibers (every point if
    dense); a third of the vectors are all-zero."""
    if dense:
        points = [
            (g, h)
            for g in itertools.product(range(ell), repeat=n)
            for h in itertools.product(range(ell), repeat=n)
        ]
    else:
        hs = [tuple(rng.randrange(ell) for _ in range(n)) for _ in range(3)]
        points = {
            (tuple(rng.randrange(ell) for _ in range(n)), rng.choice(hs))
            for _ in range(size)
        }
    vectors = {}
    for key in sorted(points):
        if rng.randrange(3):
            vectors[key] = tuple(rng.randrange(top) for _ in range(ell))
        else:
            vectors[key] = (0,) * ell
    scale = Fraction(rng.randrange(-9, 10), rng.randrange(1, 50))
    return TorusPairElement(ell, n, scale, vectors)


def occupied_element(rng, ell, n, top, box, share):
    """A TorusPairElement with one point over every h-fiber, its g drawn
    from range(box)^n; about share of the vectors hold counts below top,
    the rest are all-zero."""
    vectors = {}
    for h in itertools.product(range(ell), repeat=n):
        g = tuple(rng.randrange(box) for _ in range(n))
        nonzero = rng.random() < share
        vectors[(g, h)] = tuple(rng.randrange(top) if nonzero else 0 for _ in range(ell))
    return TorusPairElement(ell, n, Fraction(rng.randrange(1, 10), rng.randrange(1, 50)),
                            vectors)


def in_product_order(vectors):
    """The items of a dict keyed by (g, h) in the order convolve gives its
    product: h ascending, then g."""
    return sorted(vectors.items(), key=lambda item: item[0][::-1])


OCCUPIED_CASES = [(ell, n) for n in (1, 2) for ell in (3, 5, 7, 9, 15)] + [(3, 3)]


class TestConvolutionAgainstPairwiseLoop:
    """convolve against the frozen pairwise loop: exact vectors and scale."""

    @staticmethod
    def assert_matches(a, b):
        got = a.convolve(b)
        vectors, scale = pairwise_convolve(a, b)
        assert (got.ell, got.n) == (a.ell, a.n)
        assert list(got.vectors.items()) == in_product_order(vectors)
        assert got.scale == scale

    @pytest.mark.parametrize("ell", [3, 5, 7, 9, 15])
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_random_elements(self, ell, n):
        rng = random.Random(1000 * ell + n)
        dense = ell ** (2 * n) <= 81
        small, mid, huge = (
            random_pair_element(rng, ell, n, rng.randrange(1, 13), top)
            for top in (2, 4, 1 << 70)
        )
        empty = TorusPairElement(ell, n, Fraction(1, 3), {})
        zeros = random_pair_element(rng, ell, n, 5, 1)  # every count 0
        for a, b in ((small, mid), (mid, small), (mid, huge), (huge, huge),
                     (empty, small), (small, empty), (zeros, mid), (huge, zeros)):
            self.assert_matches(a, b)
        if dense:
            full = random_pair_element(rng, ell, n, 0, 3, dense=True)
            big = random_pair_element(rng, ell, n, 0, 1 << 45, dense=True)
            for a, b in ((full, full), (full, big), (big, small), (huge, full)):
                self.assert_matches(a, b)

    def test_counts_past_the_former_limb_bound(self):
        # the former 64-bit packing refused (#terms) * ell * m1 * m2 >= 2^63
        rng = random.Random(7)
        for ell, n, top in ((3, 2, 1 << 40), (5, 1, 1 << 64), (15, 1, 1 << 200)):
            a = random_pair_element(rng, ell, n, 20, top)
            b = random_pair_element(rng, ell, n, 20, top)
            a.vectors[((0,) * n, (0,) * n)] = (top - 1,) * ell
            b.vectors[((1,) * n, (0,) * n)] = (top - 1,) * ell
            self.assert_matches(a, b)
            self.assert_matches(b, a)

    def test_twist_products(self):
        # products that are not the identity: J*J, J^-1*J^-1, and the
        # sparse untwisted element squared
        for tw, ell in ((b2_twist(), 3), (worked_twist(), 3),
                        (zero_twist(cartan_matrix("A", 2)), 9)):
            ga = twist_J_group_algebra(tw, ell)
            self.assert_matches(ga.element, ga.element)
            self.assert_matches(ga.inverse, ga.inverse)
            self.assert_matches(ga.element, ga.inverse)


    @pytest.mark.parametrize("ell, n", OCCUPIED_CASES)
    def test_every_fiber_occupied(self, ell, n, monkeypatch):
        # every h-fiber holds a point, so the evaluated product meets every
        # h-axis in full; each product is made by both paths, which must
        # agree with the frozen loop and give identical vectors, order
        # included.  The g-box and the nonzero share keep the big-integer
        # products and the frozen loop small.
        rng = random.Random(10 * ell + n)
        box = ell if n == 1 or ell == 3 else 1 if ell == 15 else 2
        share = min(1, 40 / ell**n)
        small, huge = (occupied_element(rng, ell, n, top, box, share) for top in (4, 1 << 70))
        pairs = [(small, huge), (huge, small), (huge, huge)]
        expected = [pairwise_convolve(a, b) for a, b in pairs]
        products = []
        for forced in (True, False):
            monkeypatch.setattr("qsubgroups.cocycle._evaluates", lambda *_, f=forced: f)
            got = [a.convolve(b) for a, b in pairs]
            assert [(p.vectors, p.scale) for p in got] == expected
            products.append([list(p.vectors.items()) for p in got])
        assert products[0] == products[1]

    @pytest.mark.parametrize("ell", [3, 5, 7, 9, 15])
    def test_weights_are_the_inverse_vandermonde(self, ell):
        # E is the Vandermonde matrix of the evaluation points and W / d its
        # inverse, as invert_rational_matrix gives it, with rows k and
        # k + ell added; d is the lcm of the inverse's denominators
        evaluate, interpolate, d = _h_axis_weights(ell)
        points = [row[1] for row in evaluate]
        assert points == [0] + [s * x for x in range(1, ell) for s in (1, -1)]
        vander = [[x**k for k in range(2 * ell - 1)] for x in points]
        assert evaluate == [row[:ell] for row in vander]
        inverse = list(invert_rational_matrix(vander)) + [(0,) * (2 * ell - 1)]
        assert d == lcm(*(c.denominator for row in inverse for c in row))
        assert [[Fraction(w, d) for w in row] for row in interpolate] == [
            list(map(operator.add, inverse[k], inverse[k + ell])) for k in range(ell)]

    def test_path_rule(self, monkeypatch):
        # evaluated when the fiber pairs outnumber the prod(2 d_i - 1)
        # points of the h-axes, d_i their orders in the h-coordinates: the
        # B2 twist fills the torus, so its axes are the torus's (625 pairs
        # against 81 at ell = 5, 81 against 25 at 3); the C3 twist's fibers
        # fill a plane, two axes of order ell (81 pairs against 25 points at
        # 3, 625 against 81 at 5); the one-point zero twists, one point per
        # fiber on both sides, take the point path and decide nothing
        assert _evaluates(25, 25, [5, 5]) and _evaluates(9, 9, [3, 3])
        assert not _evaluates(9, 9, [3, 3, 3])
        assert not any(_evaluates(1, 1, dims) for dims in ([], [3], [9, 3], [15] * 3))
        from qsubgroups.cocycle import _evaluated_product as real

        decided, evaluated = [], []
        monkeypatch.setattr("qsubgroups.cocycle._evaluates",
                            lambda f1, f2, dims: decided.append((f1, f2, list(dims)))
                            or _evaluates(f1, f2, dims))
        monkeypatch.setattr("qsubgroups.cocycle._evaluated_product",
                            lambda fibers, axes: evaluated.append(list(axes.dims))
                            or real(fibers, axes))
        packed = packed_sizes(monkeypatch)
        for tw, ell in ((b2_twist(), 5), (b2_twist(), 3), (worked_twist(), 3),
                        (worked_twist(), 5), (zero_twist(cartan_matrix("A", 2)), 9),
                        (zero_twist(cartan_matrix("A", 3)), 5)):
            ga = twist_J_group_algebra(tw, ell, cap=5**6)
            assert ga.element.convolve(ga.inverse).is_identity()
        assert evaluated == [[5, 5], [3, 3], [3, 3], [5, 5]]
        assert decided == [(25, 25, [5, 5]), (9, 9, [3, 3]), (9, 9, [3, 3]),
                           (25, 25, [5, 5])]
        # the one-point zero twists are multiplied point by point: no fibers packed
        assert packed == [625, 625, 81, 81, 81, 81, 625, 625]

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_negative_counts_are_refused(self, side):
        good = TorusPairElement(3, 1, Fraction(1), {((0,), (0,)): (1, 0, 0)})
        bad = TorusPairElement(3, 1, Fraction(1), {((0,), (0,)): (1, 0, 0),
                                                   ((1,), (2,)): (2, -1, 0)})
        a, b = (bad, good) if side == "left" else (good, bad)
        with pytest.raises(ValueError, match="nonnegative"):
            a.convolve(b)


def packed_sizes(monkeypatch) -> list:
    """The support sizes of the factors convolve packs into fibers, as it
    packs them; the point path packs none."""
    sizes, real = [], TorusPairElement._packed_fibers
    monkeypatch.setattr(TorusPairElement, "_packed_fibers",
                        lambda self, *args: sizes.append(len(self.vectors)) or real(self, *args))
    return sizes


def one_point_fibers(rng, ell, n, count, top, zeros=0):
    """A TorusPairElement on count points over count distinct h-fibers, g
    random; the vectors of zeros of them are all-zero, the rest below top."""
    hs = set()
    while len(hs) < count:
        hs.add(tuple(rng.randrange(ell) for _ in range(n)))
    vectors = {(tuple(rng.randrange(ell) for _ in range(n)), h):
               tuple(rng.randrange(top) for _ in range(ell)) for h in hs}
    for key in rng.sample(sorted(vectors), zeros):
        vectors[key] = (0,) * ell
    return TorusPairElement(ell, n, Fraction(rng.randrange(1, 9), rng.randrange(1, 9)), vectors)


class TestPointPath:
    """Factors with at most one point in every fiber, on both sides, are
    multiplied point by point; against the frozen pairwise loop, the same
    vectors in the same order (h ascending, then g) and the same scale.
    Any other partner keeps the packed fibers."""

    @pytest.mark.parametrize("ell, n", [(ell, n) for ell in (9, 15, 45) for n in (1, 2, 3)])
    def test_against_pairwise_loop(self, ell, n, monkeypatch):
        rng = random.Random(31 * ell + n)
        count = min(12, ell**n)
        a, b, c = (one_point_fibers(rng, ell, n, count, top, zeros)
                   for top, zeros in ((4, 0), (1 << 71, 3), (1 << 71, 0)))
        empty = TorusPairElement(ell, n, Fraction(5, 7), {})
        packed = packed_sizes(monkeypatch)
        for x, y in ((a, b), (b, a), (b, c), (c, c), (a, a), (a, empty), (empty, c)):
            TestConvolutionAgainstPairwiseLoop.assert_matches(x, y)
        assert packed == []

    @pytest.mark.parametrize("ell, n", [(9, 1), (9, 2), (15, 1), (15, 2), (45, 1), (45, 2)])
    def test_other_partners_stay_packed(self, ell, n, monkeypatch):
        # a fiber of several points on one side, or the whole torus, packs
        # both factors into fibers
        rng = random.Random(7 * ell + n)
        points = one_point_fibers(rng, ell, n, min(12, ell**n), 1 << 71, 2)
        h = tuple(rng.randrange(ell) for _ in range(n))
        one_fiber = TorusPairElement(ell, n, Fraction(1, 3), {
            (g, h): tuple(rng.randrange(4) for _ in range(ell))
            for g in {tuple(rng.randrange(ell) for _ in range(n)) for _ in range(5)}})
        partners = [one_fiber]
        if ell**n <= 9:
            partners.append(random_pair_element(rng, ell, n, 0, 3, dense=True))
        for partner in partners:
            packed = packed_sizes(monkeypatch)
            for x, y in ((points, partner), (partner, points)):
                TestConvolutionAgainstPairwiseLoop.assert_matches(x, y)
            assert packed == [len(x.vectors) for pair in ((points, partner), (partner, points))
                              for x in pair]

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_negative_counts_and_empty_factors(self, side):
        rng = random.Random(5)
        good = one_point_fibers(rng, 9, 2, 4, 8)
        bad = one_point_fibers(rng, 9, 2, 4, 8)
        bad.vectors[next(iter(bad.vectors))] = (3, -1) + (0,) * 7
        empty = TorusPairElement(9, 2, Fraction(2, 3), {})
        for partner in (good, empty):
            with pytest.raises(ValueError, match="nonnegative"):
                bad.convolve(partner) if side == "left" else partner.convolve(bad)
        got = good.convolve(empty) if side == "left" else empty.convolve(good)
        assert (got.vectors, got.scale) == ({}, good.scale * Fraction(2, 3))

    def test_scattered_and_two_fiber_cases(self, monkeypatch):
        # ROADMAP item 7's 12 points over 12 fibers at ell = 15, n = 3, and
        # the ell = 45, n = 3 square of two points in two fibers, whose
        # rows do not split (item 11), take the point path; two points in
        # one fiber stay packed on the whole torus
        rng = random.Random(12)
        packed = packed_sizes(monkeypatch)
        for top in (4, 1 << 71):
            a = one_point_fibers(rng, 15, 3, 12, top)
            TestConvolutionAgainstPairwiseLoop.assert_matches(a, a)
        one = (1,) + (0,) * 44
        two_fibers = TorusPairElement(45, 3, Fraction(1), {
            ((0, 0, 0), (0, 0, 0)): one, ((3, 1, 0), (3, 1, 0)): one[::-1]})
        TestConvolutionAgainstPairwiseLoop.assert_matches(two_fibers, two_fibers)
        assert packed == []
        one_fiber = TorusPairElement(9, 2, Fraction(1), {
            ((0, 0), (0, 0)): one[:9], ((3, 1), (0, 0)): one[:9][::-1]})
        assert _Axes(9, 2, [{(0, 0), (3, 1)}] * 2).bases is None  # the whole torus
        TestConvolutionAgainstPairwiseLoop.assert_matches(one_fiber, one_fiber)
        assert packed == [2, 2]


def random_subgroup(rng, ell, n, rank, largest):
    """The span of rank random vectors, each of order dividing some
    divisor m <= largest of ell."""
    divisors = [m for m in range(2, largest + 1) if ell % m == 0]
    return TorusSubgroup.from_generators(ell, n, [
        [ell // m * rng.randrange(ell) % ell for _ in range(n)]
        for m in (rng.choice(divisors) for _ in range(rank))])


def coset_element(rng, ell, n, g_sub, h_sub, count, top):
    """A TorusPairElement on count random points of (g0 + g_sub) x
    (h0 + h_sub), g0 and h0 random; a third of the vectors are all-zero."""
    g0, h0 = ([rng.randrange(ell) for _ in range(n)] for _ in "gh")
    gs, hs = g_sub.elements(), h_sub.elements()
    points = {(tuple((a + b) % ell for a, b in zip(g0, rng.choice(gs))),
               tuple((a + b) % ell for a, b in zip(h0, rng.choice(hs))))
              for _ in range(count)}
    return TorusPairElement(ell, n, Fraction(rng.randrange(1, 9), rng.randrange(1, 9)), {
        key: tuple(rng.randrange(top) for _ in range(ell)) if rng.randrange(3) else (0,) * ell
        for key in sorted(points)})


# n <= 3, but not 45^3: rows that do not split fall back to the whole
# torus, which pads every fiber to 89^3 g-slots there
COSET_CASES = [(ell, n) for ell in (3, 5, 7, 9, 15, 45) for n in (1, 2, 3) if ell**n < 45**3]


class TestSubgroupCoordinatesAgainstPairwiseLoop:
    """convolve in the coordinates of the subgroups spanned by the
    supports, against the frozen pairwise loop: elements on cosets of
    random subgroups, both factor orders, the same vectors in the same
    order (h ascending, then g) and the same scale."""

    @staticmethod
    def assert_both_orders(a, b):
        for x, y in ((a, b), (b, a)):
            TestConvolutionAgainstPairwiseLoop.assert_matches(x, y)

    @pytest.mark.parametrize("ell, n", COSET_CASES)
    def test_cosets_of_random_subgroups(self, ell, n):
        rng = random.Random(100 * ell + n)
        largest, top = (9, 1 << 8) if ell in (15, 45) else (ell, 1 << 40)
        for _ in range(3):
            g_sub, h_sub = (random_subgroup(rng, ell, n, rng.randrange(1, 3), largest)
                            for _ in "gh")
            count = min(12, g_sub.order * h_sub.order)
            a, b = (coset_element(rng, ell, n, g_sub, h_sub, count, t) for t in (3, top))
            self.assert_both_orders(a, b)
            self.assert_both_orders(a, a)
            axes = _Axes(ell, n, [{g for g, _ in x.vectors} for x in (a, b)])
            points = axes.points()
            assert len(points) == prod(axes.dims) == len(set(points))
            if axes.bases is not None:  # the rows split: S lies in the span of g_sub
                assert prod(axes.dims) <= g_sub.order

    def test_rows_that_do_not_split(self):
        # at ell = 9 the span of (3, 1) is cyclic of order 9, with the
        # Hermite rows (3, 1) and (0, 3), both of order 3: 3 (3, 1) is not
        # 0, so the coordinates fall back to the whole torus
        rng = random.Random(9)
        sub = TorusSubgroup.from_generators(9, 2, [(3, 1)])
        assert sub.order == 9 and sub.lattice.data == ((3, 1), (0, 3))
        for _ in range(3):
            a, b = (coset_element(rng, 9, 2, sub, sub, 9, top) for top in (4, 1 << 20))
            axes = _Axes(9, 2, [{g for g, _ in x.vectors} for x in (a, b)])
            assert axes.bases is None and axes.dims == [9, 9]
            self.assert_both_orders(a, b)
        # at ell = 15 the span of (5, 0) and (0, 3) splits, d = (3, 5)
        sub = TorusSubgroup.from_generators(15, 2, [(5, 0), (0, 3)])
        a, b = (coset_element(rng, 15, 2, sub, sub, 15, top) for top in (4, 1 << 20))
        axes = _Axes(15, 2, [sub.elements(), sub.elements()])
        assert axes.dims == [3, 5] and sorted(axes.points()) == sub.elements()
        self.assert_both_orders(a, b)

    @pytest.mark.parametrize("ell, n", [(3, 2), (9, 1), (15, 2), (45, 1)])
    def test_empty_and_one_point_factors(self, ell, n):
        rng = random.Random(ell + n)
        sub = random_subgroup(rng, ell, n, 2, 9)
        many = coset_element(rng, ell, n, sub, sub, 12, 1 << 30)
        empty = TorusPairElement(ell, n, Fraction(2, 3), {})
        ones = [coset_element(rng, ell, n, sub, sub, 1, top) for top in (2, 1 << 30)]
        zero = TorusPairElement(ell, n, Fraction(1), {((0,) * n, (0,) * n): (0,) * ell})
        for one in ones + [zero]:
            self.assert_both_orders(one, many)
            self.assert_both_orders(one, one)
            self.assert_both_orders(one, empty)
        self.assert_both_orders(empty, many)


def renamed(element, perm):
    """The vectors of element with coordinate k of g and h read from old
    coordinate perm[k]: the torus of the twist renamed by perm."""
    return {(tuple(g[i] for i in perm), tuple(h[i] for i in perm)): vec
            for (g, h), vec in element.vectors.items()}


class TestRelabellingTheSimpleRoots:
    """Renaming the simple roots renames the torus coordinates, so the
    renamed twist's J and J^-1 and both products J * J^-1 and J^-1 * J
    hold the renamed count vectors, unreduced, at the same scale; on the
    evaluated path over the whole torus (B2 at 3 and 5) and over a plane
    (C3 at 3 and 5), and on the pairwise one (the one-fiber A2 zero twist
    at 9)."""

    @pytest.mark.parametrize("twist, ell", [
        ("b2", 3), ("b2", 5), ("worked", 3), ("worked", 5), ("a2-zero", 9)])
    def test_products_are_renamed(self, twist, ell):
        tw = {"b2": b2_twist, "worked": worked_twist,
              "a2-zero": lambda: zero_twist(cartan_matrix("A", 2))}[twist]()

        def elements(ga):
            return [ga.element, ga.inverse, ga.element.convolve(ga.inverse),
                    ga.inverse.convolve(ga.element)]

        original = elements(twist_J_group_algebra(tw, ell, cap=5**6))
        assert original[2].is_identity() and original[3].is_identity()
        for perm, _ in relabellings(tw.rank):
            got = elements(twist_J_group_algebra(relabelled_twist(tw, perm), ell, cap=5**6))
            assert [(x.scale, x.vectors) for x in got] == \
                [(x.scale, renamed(x, perm)) for x in original], perm


def repeating_element(rng, ell, n, top, hs, share):
    """A TorusPairElement over the fibers hs holding about share of the g
    in (0..ell-1)^n over each h, every vector one of three drawn below top
    (one all-zero), so that a few distinct vectors fill many cells."""
    kinds = [(0,) * ell] + [tuple(rng.randrange(top) for _ in range(ell)) for _ in "ab"]
    return TorusPairElement(ell, n, Fraction(1, rng.randrange(1, 9)), {
        (g, h): rng.choice(kinds) for h in hs
        for g in itertools.product(range(ell), repeat=n) if rng.random() < share})


def former_product(a, b, width):
    """(packed buckets of a * b, their cells by the frozen unpacking loop)
    at the given limb width."""
    buckets = {}
    for h1, p1 in former_packed_fibers(a, width).items():
        for h2, p2 in former_packed_fibers(b, width).items():
            h = tuple((x + y) % a.ell for x, y in zip(h1, h2))
            buckets[h] = buckets.get(h, 0) + p1 * p2
    return buckets, [((g, h), vec) for h, packed in sorted(buckets.items())
                     for g, vec in former_unpacked(a, packed, width)]


PACKING_CASES = [(ell, n) for n in (1, 2, 3) for ell in (3, 5, 7, 9, 15)]
PACKING_WIDTHS = (1, 2, 3, 5, 8, 13, 24, 33, 64, 70)


class TestPackingAgainstFormerLoops:
    """_packed_fibers, _unpacked and _mass, which work once per distinct
    vector or cell, against the frozen per-cell loops they replaced: the
    same packed integers, and the same cells in the same order, at limb
    widths from 1 to 70 bits (packed fibers of at most 2^21 bits, products
    of at most 2^18)."""

    @pytest.mark.parametrize("ell, n", PACKING_CASES)
    def test_same_integers_and_cells(self, ell, n):
        rng = random.Random(100 * ell + n)
        slots = 2 * ell - 1
        hs = list({tuple(rng.randrange(ell) for _ in range(n)) for _ in range(3)})
        share = min(1, 40 / ell**n)
        origin = ((0,) * n, (0,) * n)
        for width in (w for w in PACKING_WIDTHS if slots ** (n + 1) * w <= 1 << 21):
            top = 1 << width
            one_fiber, many = (repeating_element(rng, ell, n, top, fibers, share)
                               for fibers in (hs[:1], hs))
            scattered = random_pair_element(rng, ell, n, 12, top)
            zeros = repeating_element(rng, ell, n, 1, hs, share)  # every count 0
            empty = TorusPairElement(ell, n, Fraction(1), {})
            for el in (one_fiber, many, scattered, zeros, empty):
                assert el._packed_fibers(width) == former_packed_fibers(el, width)
                flat = [c for vec in el.vectors.values() for c in vec]
                assert el._mass() == (sum(flat), max(flat, default=0))
            # unit * (counts 0 and 1) needs one-bit limbs
            unit = TorusPairElement(ell, n, Fraction(1), {origin: (0, 1) + (0,) * (ell - 2)})
            bits = repeating_element(rng, ell, n, 2, hs, share)
            pairs = [(unit, bits), (bits, unit)] if width == 1 else []
            if slots ** (n + 1) * width <= 1 << 18:
                pairs += [(one_fiber, many), (many, scattered), (scattered, scattered),
                          (zeros, many), (many, many)]
            for a, b in pairs:
                (t1, m1), (t2, m2) = a._mass(), b._mass()
                w = max(width, min(t1 * m2, m1 * t2).bit_length(), m1.bit_length(),
                        m2.bit_length())
                buckets, cells = former_product(a, b, w)
                assert list(a._unpacked(buckets, w).items()) == cells


def all_ones_element(ell, n, hs):
    """Coefficient 1 (count vector (1, 0, ..., 0)) at every g over each h
    in hs."""
    one = (1,) + (0,) * (ell - 1)
    gs = list(itertools.product(range(ell), repeat=n))
    return TorusPairElement(ell, n, Fraction(1), {(g, h): one for h in hs for g in gs})


LIMB_EDGE_CASES = [(n, ell) for n in (0, 1, 2) for ell in (3, 9, 15)]


class TestLimbEdges:
    """Products whose largest folded cell equals the mass bound
    min(t1 m2, m1 t2) exactly (t the sum, m the largest of a factor's
    counts), so a limb one bit narrower than the bound's bit length would
    overflow.  Checked against the frozen pairwise loop where it is cheap,
    against the closed form otherwise, and for commutativity."""

    @staticmethod
    def assert_product(a, b, largest):
        got = a.convolve(b)
        assert list(got.vectors.items()) == list(b.convolve(a).vectors.items())
        assert max(max(vec) for vec in got.vectors.values()) == largest
        if len(a.vectors) * len(b.vectors) * a.ell**2 <= 10**6:
            vectors, scale = pairwise_convolve(a, b)
            assert (list(got.vectors.items()), got.scale) == (in_product_order(vectors), scale)
        return got

    @pytest.mark.parametrize("n, ell", LIMB_EDGE_CASES)
    def test_dense_all_ones_squared(self, n, ell):
        # over every h each cell is ell^(2n) = t1 * m2; where that square
        # would be slow (n = 2 at ell 9 and 15) the element fills the one
        # fiber h = 0 and each cell is ell^n = t1 * m2
        gs = list(itertools.product(range(ell), repeat=n))
        hs = gs if ell ** (2 * n) <= 15**2 else [(0,) * n]
        a = all_ones_element(ell, n, hs)
        got = self.assert_product(a, a, len(a.vectors))
        cell = (len(a.vectors),) + (0,) * (ell - 1)
        expected = {(g, h): cell for h in hs for g in gs}
        assert list(got.vectors.items()) == list(expected.items())

    @pytest.mark.parametrize("k", [2, 4, 32, 64, 130])
    @pytest.mark.parametrize("n, ell", LIMB_EDGE_CASES)
    def test_one_point_against_many(self, n, ell, k):
        # a: one point of mass t1; b: random points with counts <= m2 and
        # one point with every count m2, so the cell over it and a's point
        # is t1 * m2, the bound: first 2^k - 1 (t1 = 3), then 2^k (t1 = 2)
        rng = random.Random(100 * k + 10 * n + ell)

        def point():
            return tuple(tuple(rng.randrange(ell) for _ in range(n)) for _ in "gh")

        for counts, target in (((1, 2), (1 << k) - 1), ((1, 1), 1 << k)):
            t1 = sum(counts)
            m2 = target // t1
            assert t1 * m2 == target
            a = TorusPairElement(ell, n, Fraction(1, 3),
                                 {point(): counts + (0,) * (ell - 2)})
            b = TorusPairElement(ell, n, Fraction(-2, 7), {
                point(): tuple(rng.randrange(m2 + 1) for _ in range(ell))
                for _ in range(12)
            })
            b.vectors[point()] = (m2,) * ell
            self.assert_product(a, b, target)


# the twisted parameter matrices the bench's twist_algebra round draws from
B2_CRIT7 = [[-1, 2], [-1, 1]]  # the B2 bound-2 twist of acceptance criterion 7
A2_BOUND4 = [[-1, 2], [-2, 1]]
G2_TWISTS = ([[-3, 2], [-6, 3]], [[3, -2], [6, -3]], [[-6, 4], [-12, 6]],
             [[6, -4], [12, -6]])
LEVELS = (3, 5, 7, 9, 15, 25, 27)


def frozen_oracle_cases():
    """(label, twist, ell): the zero twists A1-D4, both signs of the B2
    twist, the A2 bound-4 twist, C3 (1, 2, 0) and the G2 twists, at every
    valid level of LEVELS whose table has at most 15^4 entries, plus the
    A2 twist at 27, where B is degenerate (|K| = 9) and m(g) varies."""
    twists = [(f"{t}{r}:0", zero_twist(cartan_matrix(t, r)))
              for t, r in (("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2),
                           ("B", 3), ("C", 3), ("D", 4))]
    b2, a2, g2 = (cartan_matrix(t, 2) for t in "BAG")
    twists += [("B2:+crit7", require_twist(b2, B2_CRIT7)),
               ("B2:-crit7", require_twist(b2, [[-x for x in r] for r in B2_CRIT7])),
               ("A2:b4", require_twist(a2, A2_BOUND4)),
               ("C3:(1,2,0)", worked_twist())]
    twists += [(f"G2:{i}", require_twist(g2, y)) for i, y in enumerate(G2_TWISTS)]
    cases = [
        pytest.param(tw, ell, id=f"{label}@{ell}")
        for label, tw in twists
        for ell in LEVELS
        if ell ** (2 * tw.rank) <= 15**4 and not (tw.cd.lie_type == "G" and ell % 3 == 0)
    ]
    cases.append(pytest.param(require_twist(a2, A2_BOUND4), 27, id="A2:b4@27"))
    return cases


def vanishing_stride(vec, ell):
    """The proper divisor m of ell if vec is c > 0 on one residue class
    mod m and 0 elsewhere, else None: such a vector is c eps^e (1 + eps^m
    + ... + eps^(ell - m)), which is 0 because eps^m is a primitive
    (ell / m)-th root of unity."""
    support = [k for k, c in enumerate(vec) if c]
    for m in range(1, ell):
        if ell % m == 0 and support and support[0] < m \
                and support == list(range(support[0], ell, m)) \
                and len({vec[k] for k in support}) == 1:
            return m
    return None


class TestClosedFormAgainstFiberScan:
    """twist_J_group_algebra and table_lines against the frozen per-point
    transform and the per-entry table: the oracle's dicts without the
    entries that vanish in Q(eps), key order and bytes included, and
    byte-identical table text."""

    @pytest.mark.parametrize("tw, ell", frozen_oracle_cases())
    def test_group_algebra_twist(self, tw, ell):
        ga = twist_J_group_algebra(tw, ell, cap=ell ** (4 * tw.rank))
        element, inverse, scale = fiber_scan_group_algebra(tw, ell)
        for got, oracle in ((ga.element, element), (ga.inverse, inverse)):
            kept = [(key, vec) for key, vec in oracle.items()
                    if vanishing_stride(vec, ell) is None]
            assert list(got.vectors.items()) == kept
            # the stride rule agrees with reduction mod the cyclotomic polynomial
            removed = {vec for vec in oracle.values() if vanishing_stride(vec, ell)}
            assert not any(any(reduce_power_basis(ell, vec)) for vec in removed)
            assert all(any(reduce_power_basis(ell, vec)) for vec in set(got.vectors.values()))
        assert ga.element.scale == ga.inverse.scale == scale
        assert (ga.element.ell, ga.element.n) == (ell, tw.rank)

    @pytest.mark.parametrize("tw, ell", frozen_oracle_cases())
    def test_table_lines(self, tw, ell):
        cocycle = twist_J(tw, ell)
        assert cocycle.bilinear.data == tuple(map(tuple, former_twist_bilinear(tw, ell)))
        got = "\n".join(cocycle.table_lines(cap=ell ** (4 * tw.rank)))
        expected = pairwise_table_lines(former_twist_bilinear(tw, ell), ell, tw.rank)
        assert got.encode() == "\n".join(expected).encode()


def coset_orders(tw, ell):
    """m(g) = gcd(ell, k.g over every k in K) for each g, with K = ker(z ->
    B^T z mod ell) found by testing every z."""
    bilinear = former_twist_bilinear(tw, ell)
    vectors = list(itertools.product(range(ell), repeat=tw.rank))
    K = [z for z in vectors
         if not any(sum(row[j] * a for row, a in zip(bilinear, z)) % ell
                    for j in range(tw.rank))]
    return [gcd(ell, *(sum(map(operator.mul, k, g)) for k in K)) for g in vectors]


class TestSupportIsTheNonzeroCoefficients:
    @pytest.mark.parametrize("tw, ell", [
        pytest.param(zero_twist(cartan_matrix("A", 1)), ell, id=f"A1:0@{ell}")
        for ell in (9, 15, 27, 45)
    ] + [
        pytest.param(require_twist(cartan_matrix("A", 2), A2_BOUND4), ell, id=f"A2:b4@{ell}")
        for ell in (9, 15)
    ] + [pytest.param(zero_twist(cartan_matrix("A", 2)), 9, id="A2:0@9")])
    def test_brute_force(self, tw, ell):
        assert any(1 < m < ell for m in coset_orders(tw, ell))
        ga = twist_J_group_algebra(tw, ell, cap=ell ** (4 * tw.rank))
        vectors = list(itertools.product(range(ell), repeat=tw.rank))
        for el in (ga.element, ga.inverse):
            nonzero = [(g, h) for g in vectors for h in vectors
                       if any(el.coefficient(g, h).coeffs)]
            assert el.support() == sorted(nonzero)

    @pytest.mark.parametrize("ell", (3, 5, 9, 15))
    @pytest.mark.parametrize("lie_type, rank", (("A", 1), ("A", 2), ("B", 2), ("C", 3)))
    def test_zero_twist_is_one_entry(self, lie_type, rank, ell):
        ga = twist_J_group_algebra(zero_twist(cartan_matrix(lie_type, rank)), ell,
                                   cap=ell ** (2 * rank))
        zero = (0,) * rank
        for el in (ga.element, ga.inverse):
            assert el.vectors == {(zero, zero): (ell**rank,) + (0,) * (ell - 1)}
            assert el.scale == Fraction(1, ell**rank)
            assert el.is_identity()


class TestWorkOncePerTwist:
    def test_cross_check_runs_once_per_twist(self, monkeypatch):
        import qsubgroups.cocycle as cocycle_mod
        import qsubgroups.twist as twist_mod

        calls = []
        original = twist_mod.apply_phi

        def counting(tw, lam):
            calls.append(lam)
            return original(tw, lam)

        for module in (twist_mod, cocycle_mod):
            monkeypatch.setattr(module, "apply_phi", counting)
        tw = require_twist(C3, c3_parameter_matrix(1, 2, 0))  # a fresh TwistMap
        first = twist_J(tw, 3)
        second = twist_J(tw, 5)
        assert len(calls) == tw.rank  # one phi(alpha_s) per row, not 2 n^2
        assert first.bilinear.data == tuple(
            tuple(x % 3 for x in row) for row in second_level_rows(tw))
        assert second.bilinear.data == tuple(
            tuple(x % 5 for x in row) for row in second_level_rows(tw))

    def test_table_cap_before_any_kernel_or_sweep_work(self, monkeypatch):
        import qsubgroups.cocycle as cocycle_mod

        def forbidden(*args, **kwargs):
            raise AssertionError("work done before the table cap check")

        for name in ("TorusSubgroup", "_sweep", "twist_J"):
            monkeypatch.setattr(cocycle_mod, name, forbidden)
        with pytest.raises(TableCapExceeded):
            twist_J_group_algebra(worked_twist(), 11)
        with pytest.raises(TableCapExceeded):
            twist_J_group_algebra(b2_twist(), 5, cap=5**4 - 1)


def second_level_rows(tw):
    """(phi(alpha_s), alpha_t) / 2 expanded entrywise, with phi(alpha_s)
    = 2 Y[:, s] in ALPHA coordinates."""
    n = tw.rank
    rows = []
    for s in range(n):
        phi_s = [2 * tw.Y[j, s] for j in range(n)]
        rows.append([pairing_oracle(tw.cd, phi_s, [int(j == t) for j in range(n)]) / 2
                     for t in range(n)])
    assert all(x.denominator == 1 for row in rows for x in row)
    return [[int(x) for x in row] for row in rows]
