"""Tests for the root-system and lattice engine."""

import collections
import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsubgroups.exact import IntMatrix
from qsubgroups.lie import (
    Basis,
    CartanDatum,
    InvalidCartanMatrix,
    LatticeElement,
    _matvec,
    alpha_to_omega,
    bilinear_form,
    cartan_matrix,
    omega_to_alpha,
    positive_roots,
    roots_supported,
    symmetrizers,
)
from qsubgroups.twist import apply_phi, enumerate_valid_twists, zero_twist

from oracles import (
    former_require_finite_type,
    former_symmetrizers,
    frac_inverse,
    fraction_alpha_to_omega,
    fraction_apply_phi,
    fraction_bilinear_form,
    fraction_omega_to_alpha,
    minimal_symmetrizer,
    positive_roots_by_closure,
)

C3_MATRIX = [[2, -1, 0], [-1, 2, -1], [0, -2, 2]]

ALL_SMALL = [
    cartan_matrix("A", 1),
    cartan_matrix("A", 2),
    cartan_matrix("A", 3),
    cartan_matrix("B", 2),
    cartan_matrix("B", 3),
    cartan_matrix("C", 3),
    cartan_matrix("D", 4),
    cartan_matrix("G", 2),
    cartan_matrix("F", 4),
]


def random_element(rng, basis, rank, integral=False):
    if integral:
        coords = [rng.randrange(-5, 6) for _ in range(rank)]
    else:
        coords = [
            Fraction(rng.randrange(-12, 13), rng.choice([1, 2, 3, 4]))
            for _ in range(rank)
        ]
    return LatticeElement.make(basis, coords)


class TestCartanMatrix:
    def test_a2(self):
        cd = cartan_matrix("A", 2)
        assert cd.A.to_lists() == [[2, -1], [-1, 2]]
        assert cd.d == (1, 1)

    def test_c3_is_the_worked_labelling(self):
        cd = cartan_matrix("C", 3)
        assert cd.A.to_lists() == C3_MATRIX

    def test_c3_symmetrizers_minimal(self):
        cd = cartan_matrix("C", 3)
        assert cd.d == tuple(minimal_symmetrizer(C3_MATRIX))
        assert cd.d == (2, 2, 1)

    def test_b2(self):
        cd = cartan_matrix("B", 2)
        assert cd.A.to_lists() == [[2, -2], [-1, 2]]
        assert cd.d == (1, 2)

    def test_invalid_pairs_rejected(self):
        for lie_type, rank in (("A", 0), ("D", 3), ("E", 9), ("G", 3), ("Q", 2)):
            with pytest.raises(InvalidCartanMatrix):
                cartan_matrix(lie_type, rank)

    def test_symmetrizers_match_brute_force_on_all_builtins(self):
        for cd in ALL_SMALL:
            assert cd.d == tuple(minimal_symmetrizer(cd.A.to_lists()))

    def test_symmetrizers_match_brute_search_on_random_matrices(self):
        """Generalized Cartan matrices of rank <= 3 with off-diagonal
        entries in {0, -1, -2, -3} and a symmetric zero pattern, connected
        or not: accepted exactly when a brute search up to 9 (the ratio
        along two edges) finds a symmetrizer, and then with that one."""
        rng = random.Random(307)
        seen = {"accepted": 0, "refused": 0, "reducible": 0}
        for _ in range(400):
            n = rng.choice((1, 2, 3, 3, 3))
            a = [[2 * (i == j) for j in range(n)] for i in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.75:
                        a[i][j], a[j][i] = rng.choice((-1, -2, -3)), rng.choice((-1, -2, -3))
            try:
                want = tuple(minimal_symmetrizer(a, bound=9))
            except AssertionError:  # none within the bound
                with pytest.raises(InvalidCartanMatrix, match="matrix is not symmetrizable"):
                    symmetrizers(IntMatrix(a))
                seen["refused"] += 1
                continue
            assert symmetrizers(IntMatrix(a)) == want, a
            seen["accepted"] += 1
            seen["reducible"] += n > 1 and sum(x != 0 for row in a for x in row) < 2 * n
        assert min(seen.values()) >= 30, seen

    BUILTIN_TYPES = ([("A", n) for n in range(1, 10)] + [("B", n) for n in range(2, 10)]
                     + [("C", n) for n in range(2, 10)] + [("D", n) for n in range(4, 10)]
                     + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])

    @staticmethod
    def _outcome(A, symmetrize):
        try:
            return "accepted", symmetrize(A)
        except InvalidCartanMatrix as exc:
            return type(exc).__name__, str(exc)

    def test_symmetrizers_match_frozen_fraction_version_on_builtins(self):
        assert len(self.BUILTIN_TYPES) == 36
        for lie_type, n in self.BUILTIN_TYPES:
            A = cartan_matrix(lie_type, n).A
            assert symmetrizers(A) == former_symmetrizers(A), (lie_type, n)

    def test_symmetrizers_match_frozen_fraction_version_on_random_matrices(self):
        """Same value, or the same exception with the same message, on
        seeded random square matrices of rank 0 to 6: mostly generalized
        Cartan matrices (some of them not symmetrizable), plus ones with a
        wrong diagonal, a positive off-diagonal entry or an asymmetric zero
        pattern, and non-square ones."""
        rng = random.Random(2718)
        seen = collections.Counter()
        for _ in range(3000):
            n = rng.randint(0, 6)
            a = [[2 * (i == j) for j in range(n)] for i in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.5:
                        a[i][j], a[j][i] = rng.randint(-6, -1), rng.randint(-6, -1)
            if n and rng.random() < 0.2:
                i, j = rng.randrange(n), rng.randrange(n)
                a[i][j] = rng.randint(-3, 3)
            if rng.random() < 0.02:
                a = [row + [0] for row in a] if n else [[2, 0]]
            A = IntMatrix(a)
            want = self._outcome(A, former_symmetrizers)
            assert self._outcome(A, symmetrizers) == want, a
            seen[want[0] if want[0] == "accepted" else want[1].split(" ")[0]] += 1
        assert min(seen.values()) >= 10 and len(seen) == 6, seen

    def test_non_symmetrizable_rejected(self):
        with pytest.raises(InvalidCartanMatrix):
            symmetrizers(IntMatrix([[2, -1], [-2, 2], [0, 0]]))
        with pytest.raises(InvalidCartanMatrix):
            # inconsistent ratios around a triangle
            symmetrizers(IntMatrix([[2, -1, -1], [-2, 2, -1], [-1, -1, 2]]))

    def test_affine_matrix_rejected(self):
        with pytest.raises(InvalidCartanMatrix):
            CartanDatum.from_matrix(IntMatrix([[2, -2], [-2, 2]]))

    def test_user_supplied_matrix(self):
        cd = CartanDatum.from_matrix(IntMatrix(C3_MATRIX), lie_type="C")
        assert cd.d == (2, 2, 1)

    def test_finite_type_matches_former_minors(self):
        """The one fraction-free elimination of D A accepts and refuses
        exactly what the former check, one determinant per leading minor,
        did, with the same message: random symmetrizable generalized
        Cartan matrices of rank 1 to 5, finite type or not."""
        rng = random.Random(1313)
        pairs = ((-1, -1), (-1, -2), (-2, -1), (-1, -3), (-3, -1), (-2, -2), (-1, -4))

        def outcome(check):
            try:
                check()
            except InvalidCartanMatrix as exc:
                return str(exc)
            return None

        seen = {None: 0, "matrix is not of finite type": 0}
        for _ in range(1500):
            n = rng.randint(1, 5)
            a = [[2 * (i == j) for j in range(n)] for i in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.4:
                        a[i][j], a[j][i] = rng.choice(pairs)
            A = IntMatrix(a)
            try:
                d = symmetrizers(A)
            except InvalidCartanMatrix:
                continue
            want = outcome(lambda: former_require_finite_type(CartanDatum("X", n, A, d)))
            assert outcome(lambda: CartanDatum.from_matrix(A)) == want, a
            seen[want] += 1
        assert min(seen.values()) >= 100, seen


class TestBilinearForm:
    def test_weight_root_pairing(self):
        for cd in ALL_SMALL:
            for i in range(1, cd.rank + 1):
                for j in range(1, cd.rank + 1):
                    value = bilinear_form(
                        cd.fundamental_weight(i), cd.simple_root(j), cd
                    )
                    assert value == (cd.d[i - 1] if i == j else 0)

    def test_root_root_pairing(self):
        for cd in ALL_SMALL:
            for i in range(1, cd.rank + 1):
                for j in range(1, cd.rank + 1):
                    value = bilinear_form(cd.simple_root(i), cd.simple_root(j), cd)
                    assert value == cd.d[i - 1] * cd.A[i - 1, j - 1]

    def test_zero(self):
        cd = cartan_matrix("A", 2)
        zero = LatticeElement.zero(Basis.ALPHA, 2)
        mu = LatticeElement.make(Basis.OMEGA, [3, -2])
        assert bilinear_form(zero, mu, cd) == 0

    def test_symmetry_on_random_elements(self):
        rng = random.Random(11)
        for cd in ALL_SMALL:
            for _ in range(40):
                lam = random_element(rng, rng.choice(list(Basis)), cd.rank)
                mu = random_element(rng, rng.choice(list(Basis)), cd.rank)
                assert bilinear_form(lam, mu, cd) == bilinear_form(mu, lam, cd)

    def test_rank_mismatch(self):
        cd = cartan_matrix("A", 2)
        with pytest.raises(ValueError):
            bilinear_form(
                LatticeElement.make(Basis.ALPHA, [1, 0, 0]),
                LatticeElement.make(Basis.ALPHA, [1, 0]),
                cd,
            )


class TestBasisConversion:
    def test_alpha1_in_a2(self):
        cd = cartan_matrix("A", 2)
        omega = alpha_to_omega(cd.simple_root(1), cd)
        assert omega.coords == (Fraction(2), Fraction(-1))

    def test_omega1_in_a2(self):
        cd = cartan_matrix("A", 2)
        alpha = omega_to_alpha(cd.fundamental_weight(1), cd)
        assert alpha.coords == (Fraction(2, 3), Fraction(1, 3))

    def test_matches_independent_inverse(self):
        for cd in ALL_SMALL:
            ainv = frac_inverse(cd.A.to_lists())
            for j in range(cd.rank):
                alpha = omega_to_alpha(cd.fundamental_weight(j + 1), cd)
                assert list(alpha.coords) == [ainv[i][j] for i in range(cd.rank)]

    def test_round_trips_exact(self):
        rng = random.Random(3)
        for cd in ALL_SMALL:
            for _ in range(25):
                lam = random_element(rng, Basis.ALPHA, cd.rank)
                assert omega_to_alpha(alpha_to_omega(lam, cd), cd) == lam
                mu = random_element(rng, Basis.OMEGA, cd.rank)
                assert alpha_to_omega(omega_to_alpha(mu, cd), cd) == mu

    def test_matvec_matches_the_fraction_sum(self):
        # one common denominator in integers against the former sum of
        # Fraction products, entry by entry and in type, on int and rational
        # matrices and vectors, empty ones included
        rng = random.Random(11)

        def entry():
            if rng.randrange(3):
                return rng.randrange(-40, 41)
            return Fraction(rng.randrange(-10**6, 10**6), rng.randrange(1, 10**4))

        for _ in range(400):
            nrows, ncols = rng.randrange(0, 6), rng.randrange(0, 6)
            rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
            coords = [entry() for _ in range(ncols)]
            got = _matvec(rows, coords)
            want = tuple(sum((a * x for a, x in zip(row, coords)), Fraction(0)) for row in rows)
            assert got == want
            assert all(type(x) is Fraction for x in got)


# every built-in type up to rank 8
BUILTIN_TO_RANK_8 = [(t, r) for t, lo, hi in (("A", 1, 8), ("B", 2, 8), ("C", 2, 8), ("D", 4, 8),
                                              ("E", 6, 8), ("F", 4, 4), ("G", 2, 2))
                     for r in range(lo, hi + 1)]


@functools.cache
def twists_of(lie_type, rank):
    """The zero twist and up to three nonzero twists of entries in -1..1."""
    cd = cartan_matrix(lie_type, rank)
    return [zero_twist(cd)] + [tw for tw in enumerate_valid_twists(cd, 1, limit=4)
                               if not tw.is_zero()]


class TestConversionsAgainstFractionReference:
    """bilinear_form, alpha_to_omega, omega_to_alpha and apply_phi against
    the frozen all-Fraction reference in oracles: the same values, and
    every one a Fraction, whether or not the coordinates are integral."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.data())
    def test_same_fractions(self, data):
        lie_type, rank = data.draw(st.sampled_from(BUILTIN_TO_RANK_8))
        cd = cartan_matrix(lie_type, rank)
        coord = st.integers(-9, 9) if data.draw(st.booleans()) else \
            st.fractions(min_value=-9, max_value=9, max_denominator=12)
        lam, mu = (LatticeElement.make(data.draw(st.sampled_from(list(Basis))),
                                       data.draw(st.lists(coord, min_size=rank, max_size=rank)))
                   for _ in "lm")
        tw = data.draw(st.sampled_from(twists_of(lie_type, rank)))

        def assert_same(got, want):
            assert got == want and all(type(x) is Fraction for x in got)

        alpha = LatticeElement(Basis.ALPHA, lam.coords)
        omega = LatticeElement(Basis.OMEGA, lam.coords)
        assert_same(alpha_to_omega(alpha, cd).coords, fraction_alpha_to_omega(lam.coords, cd))
        assert_same(omega_to_alpha(omega, cd).coords, fraction_omega_to_alpha(lam.coords, cd))
        assert_same((bilinear_form(lam, mu, cd),), (fraction_bilinear_form(lam, mu, cd),))
        for x in (alpha, omega):
            image = apply_phi(tw, x)
            assert image.basis == x.basis
            assert_same(image.coords, fraction_apply_phi(tw, x))


class TestLatticeArithmetic:
    def test_difference_negation_and_scaling(self):
        rng = random.Random(17)
        for basis in (Basis.ALPHA, Basis.OMEGA):
            a, b = (random_element(rng, basis, 3) for _ in range(2))
            assert a - b == a + (-b) and (a - b) + b == a
            assert a - a == -a + a == LatticeElement.zero(basis, 3)
            assert a.scaled(Fraction(-3, 2)).coords == tuple(Fraction(-3, 2) * x for x in a.coords)
            assert a.scaled(2) == a + a and a.scaled(-1) == -a


class TestPositiveRoots:
    def test_a2_set(self):
        roots = {r.coords for r in positive_roots(cartan_matrix("A", 2))}
        assert roots == {(1, 0), (0, 1), (1, 1)}

    def test_counts_and_dimensions(self):
        expected = {
            ("A", 2): 3,
            ("B", 2): 4,
            ("G", 2): 6,
            ("C", 3): 9,
            ("F", 4): 24,
            ("D", 4): 12,
        }
        for (lie_type, rank), count in expected.items():
            cd = cartan_matrix(lie_type, rank)
            roots = positive_roots(cd)
            assert len(roots) == count
            assert len({r.coords for r in roots}) == count

    def test_a_series_count_formula(self):
        for n in range(1, 5):
            assert len(positive_roots(cartan_matrix("A", n))) == n * (n + 1) // 2

    def test_matches_independent_closure(self):
        for cd in ALL_SMALL:
            got = {r.coords for r in positive_roots(cd)}
            assert got == positive_roots_by_closure(cd.A.to_lists())

    def test_reflections_stay_in_root_system(self):
        for cd in ALL_SMALL:
            plus = {r.coords for r in positive_roots(cd)}
            signed = plus | {tuple(-c for c in r) for r in plus}
            for beta in plus:
                for i in range(cd.rank):
                    pairing = sum(cd.A[i, j] * beta[j] for j in range(cd.rank))
                    image = list(beta)
                    image[i] -= pairing
                    assert tuple(image) in signed

    def test_supports(self):
        cd = cartan_matrix("C", 3)
        for root in positive_roots(cd):
            assert root.support == frozenset(
                i + 1 for i, c in enumerate(root.coords) if c
            )


class TestRootsSupported:
    def test_empty(self):
        assert roots_supported(cartan_matrix("A", 2), ()) == ()

    def test_single_simple(self):
        roots = roots_supported(cartan_matrix("A", 2), {1})
        assert [r.coords for r in roots] == [(1, 0)]

    def test_c3_tail_subsystem(self):
        # the rank-2 subsystem on indices {2, 3} closes up independently
        sub = positive_roots_by_closure([[2, -1], [-2, 2]])
        got = roots_supported(cartan_matrix("C", 3), {2, 3})
        assert len(got) == len(sub) == 4
        assert {r.coords[1:] for r in got} == sub

    def test_bad_index(self):
        with pytest.raises(ValueError):
            roots_supported(cartan_matrix("A", 2), {3})
