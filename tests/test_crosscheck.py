"""Cross-checks against an independent computer-algebra system (sympy).

These tests compare core primitives with a second implementation that
shares no code with this package: normal forms, determinants and
inverses, cyclotomic polynomials, Cartan matrices and root-system sizes.
"""

import random
from fractions import Fraction
from math import gcd

import pytest
import sympy
from sympy import Matrix
from sympy.liealgebras.cartan_type import CartanType
from sympy.liealgebras.root_system import RootSystem
from sympy.matrices.normalforms import hermite_normal_form as sympy_hnf
from sympy.matrices.normalforms import smith_normal_form as sympy_snf
from sympy.polys.specialpolys import cyclotomic_poly

from oracles import frac_inverse
from qsubgroups.exact import (
    IntMatrix,
    _det_adj,
    cyclotomic_polynomial,
    hermite_normal_form,
    invert_rational_matrix,
)
from qsubgroups.lie import cartan_matrix, positive_roots
from qsubgroups.torus import TorusSubgroup


class TestAgainstSympy:
    def test_cyclotomic_polynomials(self):
        q = sympy.Symbol("q")
        for ell in list(range(1, 40)) + [60, 105, 120]:
            mine = cyclotomic_polynomial(ell)
            theirs = sympy.Poly(cyclotomic_poly(ell, q), q).all_coeffs()
            assert list(mine) == list(reversed(theirs))

    def test_hermite_form_index_matches_smith_divisors(self):
        # Z^n / (rowspan(M) + ell Z^n) is the sum of Z/gcd(s_i, ell) over
        # the Smith divisors s_i of M (0 past its rank), so the product of
        # the Hermite pivots mod ell must equal the product of those gcds
        rng = random.Random(111)
        for _ in range(120):
            ell = rng.choice([1, 2, 4, 6, 9, 12, 45])
            rows = rng.randrange(1, 5)
            cols = rng.randrange(1, 5)
            data = [
                [rng.randrange(-20, 21) for _ in range(cols)]
                for _ in range(rows)
            ]
            h = hermite_normal_form(IntMatrix(data), ell)
            mine = 1
            for i in range(cols):
                mine *= h[i, i]
            theirs = sympy_snf(Matrix(data), domain=sympy.ZZ)
            diag = [
                abs(theirs[i, i])
                for i in range(min(theirs.rows, theirs.cols))
            ]
            diag += [0] * (cols - len(diag))
            expected = 1
            for d in diag[:cols]:
                expected *= gcd(d, ell)
            assert mine == expected

    def test_subgroup_lattices(self):
        # my row Hermite form of span(gens) + ell Z^n must present the
        # same lattice as sympy's column Hermite form of the transpose
        rng = random.Random(113)
        for _ in range(60):
            ell = rng.choice([3, 5, 9, 11, 12])
            n = rng.randrange(1, 4)
            gens = [
                tuple(rng.randrange(ell) for _ in range(n))
                for _ in range(rng.randrange(0, n + 2))
            ]
            sub = TorusSubgroup.from_generators(ell, n, gens)
            stacked = [list(g) for g in gens] + [
                [ell * int(i == j) for j in range(n)] for i in range(n)
            ]
            theirs = sympy_hnf(Matrix(stacked).T)
            assert theirs.shape == (n, n)
            det_mine = 1
            for i in range(n):
                det_mine *= sub.lattice[i, i]
            det_theirs = abs(theirs.det())
            assert det_mine == det_theirs
            for j in range(n):
                column = tuple(int(theirs[i, j]) for i in range(n))
                assert sub.contains(column)

    def test_builtin_cartan_matrices(self):
        matching = ["A2", "A4", "B2", "B3", "C3", "C4", "D4", "D5", "G2", "E6"]
        for name in matching:
            lie_type, rank = name[0], int(name[1:])
            mine = cartan_matrix(lie_type, rank).A.to_lists()
            theirs = CartanType(name).cartan_matrix().tolist()
            assert mine == theirs
        # type F carries the arrow the other way here; same diagram
        mine = cartan_matrix("F", 4).A
        theirs = CartanType("F4").cartan_matrix().tolist()
        assert mine.transpose().to_lists() == theirs

    def test_positive_root_counts(self):
        for name in ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4",
                     "D4", "D5", "G2", "F4", "E6", "E7"):
            lie_type, rank = name[0], int(name[1:])
            mine = len(positive_roots(cartan_matrix(lie_type, rank)))
            theirs = len(RootSystem(name).all_roots())
            assert 2 * mine == theirs


def _random_square(rng, n, entry):
    """An n x n matrix of entry() values, made singular half the time by
    replacing one row with a combination of two others."""
    rows = [[entry() for _ in range(n)] for _ in range(n)]
    if n >= 3 and rng.random() < 0.5:
        i, j, k = rng.sample(range(n), 3)
        a, b = entry(), entry()
        rows[k] = [a * x + b * y for x, y in zip(rows[i], rows[j])]
    return rows


def _sympy_matrix(rows):
    return Matrix(len(rows), len(rows), [sympy.Rational(x.numerator, x.denominator)
                                         for row in rows for x in map(Fraction, row)])


def _as_fractions(m):
    return [[Fraction(int(x.p), int(x.q)) for x in m.row(i)] for i in range(m.rows)]


class TestEliminationAgainstSympy:
    """IntMatrix.det, invert_rational_matrix and the adjugate all come from
    the one fraction-free elimination exact._det_adj; they must agree with
    sympy and with the frozen Gauss-Jordan oracle frac_inverse."""

    def test_integer_matrices(self):
        rng = random.Random(211)
        for _ in range(300):
            n = rng.randrange(1, 6)
            bound = rng.choice([1, 3, 50, 10**12])
            rows = _random_square(rng, n, lambda: rng.randint(-bound, bound))
            theirs = _sympy_matrix(rows)
            det = IntMatrix(rows).det()
            assert det == theirs.det()
            if det == 0:
                assert _det_adj(rows) == (0, None)
                with pytest.raises(ZeroDivisionError, match="singular matrix"):
                    invert_rational_matrix(rows)
                continue
            assert _det_adj(rows) == (det, _as_fractions(theirs.adjugate()))
            inverse = [list(row) for row in invert_rational_matrix(IntMatrix(rows))]
            assert inverse == _as_fractions(theirs.inv()) == frac_inverse(rows)

    def test_rational_matrices(self):
        rng = random.Random(212)
        for _ in range(150):
            n = rng.randrange(1, 5)
            rows = _random_square(
                rng, n, lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 12)))
            theirs = _sympy_matrix(rows)
            if theirs.det() == 0:
                with pytest.raises(ZeroDivisionError, match="singular matrix"):
                    invert_rational_matrix(rows)
                continue
            inverse = [list(row) for row in invert_rational_matrix(rows)]
            assert inverse == _as_fractions(theirs.inv()) == frac_inverse(rows)

    def test_shapes(self):
        assert IntMatrix([], ncols=0).det() == 1 == _det_adj([])[0]
        assert invert_rational_matrix([]) == ()
        assert invert_rational_matrix([[Fraction(2, 3)]]) == ((Fraction(3, 2),),)
        for rows in ([[1, 2]], [[1, 2], [3]], [[1], [2]]):
            with pytest.raises(ValueError, match="non-square"):
                invert_rational_matrix(rows)
        with pytest.raises(ValueError, match="non-square"):
            IntMatrix([[1, 2]]).det()
        with pytest.raises(ZeroDivisionError, match="singular matrix"):
            invert_rational_matrix([[0]])
