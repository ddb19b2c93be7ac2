"""The twisting map phi and its derived operators.

A twisting map on the rational span of the weight lattice is determined
by an integer matrix Y: column i holds the ALPHA coordinates of tau_i,
where phi(alpha_i) = 2 tau_i.  Writing X = A Y (so column i of X holds
the OMEGA coordinates of tau_i), validity means

  * D X is antisymmetric (phi is skew for the invariant form, and in
    particular x_ii = 0),
  * (phi(omega_i), omega_j) / 2 is an integer for all i, j, which by
    bilinearity makes (phi(l), m) / 2 integral on the whole weight
    lattice,
  * A + 2 X is invertible over the rationals, so 1 +/- phi are
    isomorphisms.

Validation reports every violated condition with a witnessing index pair
instead of stopping at the first failure; parameter families are meant
to be explored interactively.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .exact import IntMatrix, invert_rational_matrix
from .lie import (
    Basis,
    CartanDatum,
    LatticeElement,
    _inverse_cartan,
    _matvec,
    alpha_to_omega,
    omega_to_alpha,
)

__all__ = [
    "TwistMap",
    "TwistViolation",
    "TwistBuildResult",
    "TwistValidationError",
    "build_twist",
    "require_twist",
    "zero_twist",
    "apply_phi",
    "RationalOperator",
    "r_operator",
    "kbar_exponent",
    "ktilde_exponent",
    "c3_parameter_matrix",
    "enumerate_valid_twists",
]


@dataclass(frozen=True)
class TwistMap:
    """A validated twisting map: phi acts as 2Y in ALPHA coordinates."""

    cd: CartanDatum
    Y: IntMatrix
    X: IntMatrix  # X = A Y

    @property
    def rank(self) -> int:
        return self.cd.rank

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.Y.data for x in row)

    def tau_exponent(self, i: int) -> tuple[int, ...]:
        """ALPHA coordinates of tau_i = phi(alpha_i)/2 (column i of Y)."""
        _index_check(self, i)
        return self.Y.column(i - 1)


@dataclass(frozen=True)
class TwistViolation:
    condition: str
    indices: tuple[int, ...] | None
    detail: str


@dataclass(frozen=True)
class TwistBuildResult:
    twist: TwistMap | None
    violations: tuple[TwistViolation, ...]

    @property
    def ok(self) -> bool:
        return self.twist is not None


class TwistValidationError(ValueError):
    def __init__(self, violations):
        self.violations = tuple(violations)
        lines = "; ".join(v.detail for v in self.violations)
        super().__init__(f"invalid twisting map: {lines}")


def build_twist(cd: CartanDatum, Y) -> TwistBuildResult:
    """Validate a parameter matrix and assemble the twisting map.

    Checks, in order: integrality of the parameter matrix, antisymmetry
    of D X, integrality of (phi(omega_i), omega_j) / 2 on all basis
    pairs, and invertibility of A + 2X.  All failures are collected.
    """
    n = cd.rank
    violations: list[TwistViolation] = []

    rows = Y.data if isinstance(Y, IntMatrix) else tuple(tuple(r) for r in Y)
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError(f"parameter matrix must be {n}x{n}")
    for i, j in itertools.product(range(n), range(n)):
        value = Fraction(rows[i][j])
        if value.denominator != 1:
            violations.append(
                TwistViolation(
                    "integral_parameters",
                    (i + 1, j + 1),
                    f"y[{i + 1}][{j + 1}] = {value} is not an integer",
                )
            )
    if violations:
        return TwistBuildResult(None, tuple(violations))

    ymat = Y if isinstance(Y, IntMatrix) else IntMatrix(rows)
    xmat = cd.A @ ymat

    for i in range(n):
        for j in range(i, n):
            lhs = cd.d[i] * xmat[i, j]
            rhs = -cd.d[j] * xmat[j, i]
            if lhs != rhs:
                violations.append(
                    TwistViolation(
                        "dx_antisymmetric",
                        (i + 1, j + 1),
                        f"d_{i + 1} x[{i + 1}][{j + 1}] = {lhs} "
                        f"!= -d_{j + 1} x[{j + 1}][{i + 1}] = {rhs}",
                    )
                )

    # (phi(omega_i), omega_j)/2 = d_j (Y A^(-1))_ji; check every pair
    ainv = _inverse_cartan(cd)
    for i in range(n):
        for j in range(n):
            value = sum(
                (Fraction(ymat[j, k]) * ainv[k][i] for k in range(n)), Fraction(0)
            ) * cd.d[j]
            if value.denominator != 1:
                violations.append(
                    TwistViolation(
                        "half_integrality",
                        (i + 1, j + 1),
                        f"(phi(omega_{i + 1}), omega_{j + 1})/2 = {value} "
                        "is not an integer",
                    )
                )

    a2x = cd.A + xmat.scaled(2)
    if a2x.det() == 0:
        violations.append(
            TwistViolation("a_plus_2x_invertible", None, "A + 2X is singular")
        )

    if violations:
        return TwistBuildResult(None, tuple(violations))
    return TwistBuildResult(TwistMap(cd, ymat, xmat), ())


def require_twist(cd: CartanDatum, Y) -> TwistMap:
    """build_twist, raising on any violation."""
    result = build_twist(cd, Y)
    if result.twist is None:
        raise TwistValidationError(result.violations)
    return result.twist


def zero_twist(cd: CartanDatum) -> TwistMap:
    """The untwisted case phi = 0."""
    zero = IntMatrix.zeros(cd.rank, cd.rank)
    return TwistMap(cd, zero, zero)


def apply_phi(tw: TwistMap, lam: LatticeElement) -> LatticeElement:
    """phi(lam); in ALPHA coordinates phi is the matrix 2Y."""
    if lam.rank != tw.rank:
        raise ValueError("rank mismatch")
    alpha = omega_to_alpha(lam, tw.cd)
    out = LatticeElement(Basis.ALPHA, _matvec(tw.Y.scaled(2).data, alpha.coords))
    if lam.basis == Basis.ALPHA:
        return out
    return alpha_to_omega(out, tw.cd)


@dataclass(frozen=True)
class RationalOperator:
    """An exact rational operator on the lattice, in the ALPHA basis."""

    matrix: tuple[tuple[Fraction, ...], ...]
    basis: Basis = Basis.ALPHA

    def apply(self, lam: LatticeElement, cd: CartanDatum) -> LatticeElement:
        alpha = omega_to_alpha(lam, cd)
        return LatticeElement(Basis.ALPHA, _matvec(self.matrix, alpha.coords))


def r_operator(tw: TwistMap, sign: int = 1, inverse: bool = False) -> RationalOperator:
    """(1 + sign * phi)^(+/-1) as an exact matrix in the ALPHA basis."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    n = tw.rank
    rows = [
        [Fraction(int(i == j)) + 2 * sign * Fraction(tw.Y[i, j]) for j in range(n)]
        for i in range(n)
    ]
    if inverse:
        # nonsingular for every valid twist since A + 2X = A (1 + 2Y)
        rows = [list(r) for r in invert_rational_matrix(rows)]
    return RationalOperator(tuple(tuple(r) for r in rows))


def _index_check(tw: TwistMap, i: int) -> None:
    if not 1 <= i <= tw.rank:
        raise IndexError(f"simple index {i} out of range 1..{tw.rank}")


def kbar_exponent(tw: TwistMap, i: int) -> tuple[int, ...]:
    """Integer ALPHA exponents of (1 - phi)(alpha_i): e_i - 2 Y[:, i]."""
    _index_check(tw, i)
    col = tw.Y.column(i - 1)
    return tuple(int(r == i - 1) - 2 * col[r] for r in range(tw.rank))


def ktilde_exponent(tw: TwistMap, j: int) -> tuple[int, ...]:
    """Integer ALPHA exponents of (1 + phi)(alpha_j): e_j + 2 Y[:, j]."""
    _index_check(tw, j)
    col = tw.Y.column(j - 1)
    return tuple(int(r == j - 1) + 2 * col[r] for r in range(tw.rank))


def c3_parameter_matrix(a, b, c):
    """The built-in three-parameter family for type C rank 3.

    Entries involve b/2 and c/2, so b and c must be even to land in an
    integer matrix; odd values are passed through so that build_twist
    reports the integrality violation explicitly.
    """
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    rows = [
        [a + b / 2, -a + c / 2, -b / 2 - c / 2],
        [2 * a + b, -a + c, -b / 2 - c],
        [2 * a + 3 * b / 2, -a + 3 * c / 2, -b / 2 - c],
    ]
    if all(x.denominator == 1 for row in rows for x in row):
        return IntMatrix([[int(x) for x in row] for row in rows])
    return rows


def enumerate_valid_twists(cd: CartanDatum, bound: int, limit: int | None = None):
    """All valid twisting maps with strictly-upper X entries in [-bound, bound].

    Iterates over the n(n-1)/2 free parameters x_ij (i < j); the lower
    triangle is forced by antisymmetry of D X and Y = A^(-1) X must be
    integral.  Deterministic order.  The zero twist always comes first.
    """
    n = cd.rank
    ainv = _inverse_cartan(cd)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    axis = [0]
    for v in range(1, bound + 1):
        axis += [v, -v]
    count = 0
    for values in itertools.product(axis, repeat=len(pairs)):
        x = [[0] * n for _ in range(n)]
        ok = True
        for (i, j), v in zip(pairs, values):
            x[i][j] = v
            lower = Fraction(-cd.d[i] * v, cd.d[j])
            if lower.denominator != 1:
                ok = False
                break
            x[j][i] = int(lower)
        if not ok:
            continue
        y = [
            [
                sum((ainv[i][k] * x[k][j] for k in range(n)), Fraction(0))
                for j in range(n)
            ]
            for i in range(n)
        ]
        if any(v.denominator != 1 for row in y for v in row):
            continue
        result = build_twist(cd, [[int(v) for v in row] for row in y])
        if result.twist is None:
            continue
        yield result.twist
        count += 1
        if limit is not None and count >= limit:
            return
