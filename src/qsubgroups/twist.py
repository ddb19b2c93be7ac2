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
    isomorphisms, which holds for every integral Y (see build_twist).

With delta = det A and adj A = delta A^(-1), the other conditions are
integer congruences: (phi(omega_i), omega_j) / 2 =
d_j (Y adj A)_ji / delta, and Y = adj A X / delta is integral iff
adj A X == 0 (mod delta).  So the valid parameters form a lattice, and
enumerate_valid_twists walks its points in the box instead of testing
every candidate.  Validation reports every violated condition with a
witnessing index pair, not just the first.  The exponents of tau_i and
(1 -+ phi)(alpha_i) are one table per twist, which the exponent queries
and the torus layer read by kind: "tau", "kbar", "ktilde".
"""

from __future__ import annotations

import functools
import itertools
import operator
from fractions import Fraction
from math import lcm

from ._record import record
from .exact import (
    IntMatrix,
    _int_tuple,
    _rational_tuple,
    invert_rational_matrix,
    kernel_lattice,
)
from .lie import (
    Basis,
    CartanDatum,
    LatticeElement,
    _adjugate_cartan,
    _matvec,
    alpha_to_omega,
    bilinear_form,
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


@record
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
        return _exponent_row(self, "tau", i)

    @functools.cached_property
    def _exponents(self) -> dict[str, tuple[tuple[int, ...], ...]]:
        """The exponent rows by kind, row i - 1 for alpha_i: "tau" column i of
        Y, "kbar" e_i - 2 Y[:, i], "ktilde" e_i + 2 Y[:, i]; built once."""
        cols = tuple(zip(*self.Y.data))
        signed = {kind: tuple(tuple(int(r == i) + s * c for r, c in enumerate(col))
                              for i, col in enumerate(cols))
                  for kind, s in (("kbar", -2), ("ktilde", 2))}
        return {"tau": cols, **signed}

    @functools.cached_property
    def _pairing(self) -> tuple[tuple[int, ...], ...]:
        """The integer matrix Y^T D A, entry (s, t) = (phi(alpha_s),
        alpha_t) / 2, built once per twist (it does not depend on a level)
        and checked entry by entry against the exact bilinear form."""
        n, d, A = self.rank, self.cd.d, self.cd.A
        rows = tuple(
            tuple(sum(self.Y[j, s] * d[j] * A[j, t] for j in range(n)) for t in range(n))
            for s in range(n)
        )
        for s in range(n):  # phi(alpha_s) goes to OMEGA once per row, not once per entry
            phi_s = alpha_to_omega(apply_phi(self, self.cd.simple_root(s + 1)), self.cd)
            for t in range(n):
                half = bilinear_form(phi_s, self.cd.simple_root(t + 1), self.cd) / 2
                assert half == rows[s][t]
        return rows


@record
class TwistViolation:
    condition: str
    indices: tuple[int, ...] | None
    detail: str


@record
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
    of D X, and integrality of (phi(omega_i), omega_j) / 2 on all basis
    pairs.  All failures are collected.  Invertibility of A + 2X follows
    from integrality: det(A + 2X) = det A det(1 + 2Y), and det(1 + 2Y)
    is odd.
    """
    n = cd.rank
    violations: list[TwistViolation] = []

    def violated(condition, i, j, detail):
        violations.append(TwistViolation(condition, (i + 1, j + 1), detail))

    rows = Y.data if isinstance(Y, IntMatrix) else tuple(tuple(r) for r in Y)
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError(f"parameter matrix must be {n}x{n}")
    if not isinstance(Y, IntMatrix):  # bool, float and str raise TypeError
        for i, j in itertools.product(range(n), range(n)):
            if type(rows[i][j]) is not int:
                (value,) = _rational_tuple((rows[i][j],), "parameter matrix entries")
                if value.denominator != 1:
                    violated("integral_parameters", i, j,
                             f"y[{i + 1}][{j + 1}] = {value} is not an integer")
        if violations:
            return TwistBuildResult(None, tuple(violations))
        rows = tuple(tuple(x if type(x) is int else x.numerator for x in r) for r in rows)

    # X = A Y and Y adj A over row tuples, read without IntMatrix indexing
    d, cols = cd.d, tuple(zip(*rows))
    xrows = tuple(tuple(sum(map(operator.mul, r, c)) for c in cols) for r in cd.A.data)
    for i, (di, xi) in enumerate(zip(d, xrows)):
        for j in range(i, n):
            lhs, rhs = di * xi[j], -d[j] * xrows[j][i]
            if lhs != rhs:
                violated("dx_antisymmetric", i, j,
                         f"d_{i + 1} x[{i + 1}][{j + 1}] = {lhs} "
                         f"!= -d_{j + 1} x[{j + 1}][{i + 1}] = {rhs}")

    # (phi(omega_i), omega_j)/2 = d_j (Y adj A)_ji / delta; check every pair
    delta, adj = _adjugate_cartan(cd)  # delta = 1 (E8, F4, G2): every pair is integral
    for i, col in enumerate(zip(*adj.data) if delta > 1 else ()):
        for j, (dj, row) in enumerate(zip(d, rows)):
            if (value := dj * sum(map(operator.mul, row, col))) % delta:
                violated("half_integrality", i, j,
                         f"(phi(omega_{i + 1}), omega_{j + 1})/2 = {Fraction(value, delta)} "
                         "is not an integer")

    if violations:
        return TwistBuildResult(None, tuple(violations))
    ymat = Y if isinstance(Y, IntMatrix) else IntMatrix._of(rows, n)
    return TwistBuildResult(TwistMap(cd, ymat, IntMatrix._of(xrows, n)), ())


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


@record
class RationalOperator:
    """An exact rational operator on the lattice, in the ALPHA basis."""

    matrix: tuple[tuple[Fraction, ...], ...]

    def apply(self, lam: LatticeElement, cd: CartanDatum) -> LatticeElement:
        alpha = omega_to_alpha(lam, cd)
        return LatticeElement(Basis.ALPHA, _matvec(self.matrix, alpha.coords))


def r_operator(tw: TwistMap, sign: int = 1, inverse: bool = False) -> RationalOperator:
    """(1 + sign * phi)^(+/-1) as an exact matrix in the ALPHA basis."""
    if _int_tuple((sign,), "sign")[0] not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    rows = tuple(tuple(Fraction(int(i == j) + 2 * sign * y) for j, y in enumerate(row))
                 for i, row in enumerate(tw.Y.data))
    # nonsingular for every valid twist since A + 2X = A (1 + 2Y)
    return RationalOperator(invert_rational_matrix(rows) if inverse else rows)


def _exponent_row(tw: TwistMap, kind: str, i: int) -> tuple[int, ...]:
    """Row i of the twist's exponent rows of one kind: "tau", "kbar" or "ktilde"."""
    rows = tw._exponents.get(kind)
    if rows is None:
        raise ValueError(f"unknown generator kind {kind!r}")
    if type(i) is not int:  # one C-level test per query; _int_tuple words the refusal
        _int_tuple((i,), "simple indices")
    if not 1 <= i <= tw.rank:
        raise IndexError(f"simple index {i} out of range 1..{tw.rank}")
    return rows[i - 1]


def kbar_exponent(tw: TwistMap, i: int) -> tuple[int, ...]:
    """Integer ALPHA exponents of (1 - phi)(alpha_i): e_i - 2 Y[:, i]."""
    return _exponent_row(tw, "kbar", i)


def ktilde_exponent(tw: TwistMap, j: int) -> tuple[int, ...]:
    """Integer ALPHA exponents of (1 + phi)(alpha_j): e_j + 2 Y[:, j]."""
    return _exponent_row(tw, "ktilde", j)


def c3_parameter_matrix(a, b, c):
    """The built-in three-parameter family for type C rank 3.

    Entries involve b/2 and c/2, so b and c must be even to land in an
    integer matrix; odd values are passed through so that build_twist
    reports the integrality violation explicitly.  Each parameter must be
    an int or a Fraction: bool, float and str raise TypeError.
    """
    a, b, c = _rational_tuple((a, b, c), "c3 parameters")
    rows = [
        [a + b / 2, -a + c / 2, -b / 2 - c / 2],
        [2 * a + b, -a + c, -b / 2 - c],
        [2 * a + 3 * b / 2, -a + 3 * c / 2, -b / 2 - c],
    ]
    if all(x.denominator == 1 for row in rows for x in row):
        return IntMatrix([[int(x) for x in row] for row in rows])
    return rows


def _parameter_lattice(cd: CartanDatum) -> IntMatrix:
    """Hermite basis of the lattice of valid parameter vectors (x_ij)_(i<j).

    With L = lcm(d), X' = L X has integer entries linear in the
    parameters (x_ji = -d_i x_ij / d_j), and every condition that needs
    a check is a congruence mod m = L delta^2 on them:
      * delta (adj A X')_rc == 0: Y = adj A X / delta is integral, and
        with it X = A Y;
      * d_j (adj A X' adj A)_ji == 0 for i < j: half-integrality (the
        pairing is antisymmetric once D X is, so i < j covers it).
    Column k of the condition matrix is the image of the k-th unit vector.
    """
    n = cd.rank
    delta, adj = _adjugate_cartan(cd)
    scale = lcm(*cd.d)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    columns = []
    for i, j in pairs:
        x = [[0] * n for _ in range(n)]
        x[i][j] = scale
        x[j][i] = -(scale // cd.d[j]) * cd.d[i]
        ax = adj @ IntMatrix(x)
        axa = ax @ adj
        columns.append(
            [delta * v for row in ax.data for v in row]
            + [cd.d[b] * axa[b, a] for a, b in pairs]
        )
    return kernel_lattice(IntMatrix(columns).transpose(), scale * delta * delta)


def _lattice_points(basis: IntMatrix, axis):
    """The points of a full-rank lattice, given by its upper-triangular
    Hermite basis, whose coordinates all lie in axis, in the order of
    itertools.product(axis, repeat=p).

    Depth first, first coordinate outermost (the zig-zag order of
    Schnorr & Euchner when axis is 0, 1, -1, 2, -2, ...).  Once the first
    k coordinates fix the multipliers of the first k basis rows, the next
    coordinate must be congruent to the running offset modulo its pivot,
    so only values of that one residue class are tried.
    """
    rows = basis.data
    classes = []
    for k, row in enumerate(rows):
        by_residue: dict[int, list[int]] = {}
        for v in axis:
            by_residue.setdefault(v % row[k], []).append(v)
        classes.append(by_residue)
    yield from _descend(rows, classes, (), [0] * len(rows))


def _descend(rows, classes, prefix: tuple, offset: list):
    """The points of _lattice_points that begin with prefix, offset the
    sum of the rows it fixes; module level, so no walk leaves a cycle."""
    k = len(prefix)
    if k == len(rows):
        yield prefix
        return
    pivot, row = rows[k][k], rows[k]
    for v in classes[k].get(offset[k] % pivot, ()):
        a = (v - offset[k]) // pivot
        yield from _descend(rows, classes, prefix + (v,), [o + a * h for o, h in zip(offset, row)])


def enumerate_valid_twists(cd: CartanDatum, bound: int, limit: int | None = None):
    """All valid twisting maps with strictly-upper X entries in [-bound, bound].

    The n(n-1)/2 free parameters are x_ij (i < j); the lower triangle is
    forced by antisymmetry of D X.  The valid parameters form a lattice
    (_parameter_lattice; A + 2X is invertible at every point, see
    build_twist), whose points in the box are walked in the order of
    itertools.product over 0, 1, -1, ..., bound, -bound, first parameter
    outermost.  The zero twist always comes first; `limit` stops after
    that many twists, but never before the first.
    """
    _int_tuple((bound,), "bound")
    if limit is not None:
        _int_tuple((limit,), "limit")
    n = cd.rank
    delta, adj = _adjugate_cartan(cd)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    axis = [0] + [s * v for v in range(1, bound + 1) for s in (1, -1)]
    for count, values in enumerate(_lattice_points(_parameter_lattice(cd), axis), 1):
        x = [[0] * n for _ in range(n)]
        for (i, j), v in zip(pairs, values):
            x[i][j] = v
            x[j][i] = -cd.d[i] * v // cd.d[j]
        cols = list(zip(*x))
        y = tuple(tuple(sum(map(operator.mul, row, col)) // delta for col in cols)
                  for row in adj.data)
        yield TwistMap(cd, IntMatrix._of(y, n), IntMatrix._of(tuple(map(tuple, x)), n))
        if limit is not None and count >= limit:
            return
