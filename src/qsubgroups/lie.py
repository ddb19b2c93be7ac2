"""Root systems, weight lattices and the invariant bilinear form.

Conventions.  A Cartan matrix A = (a_ij) has a_ij = 2 (alpha_j, alpha_i)
/ (alpha_i, alpha_i); the symmetrizers d_i = (alpha_i, alpha_i) / 2 are
the minimal positive integers making D A symmetric.  Fundamental weights
satisfy (omega_i, alpha_j) = d_i delta_ij, so alpha_i = sum_j a_ji
omega_j; lattice elements carry their basis tag (ALPHA or OMEGA) and
rational coordinates.

The built-in matrices for types B, C, F and G place the arrow so that
for type C of rank 3 one gets
    [[2, -1, 0], [-1, 2, -1], [0, -2, 2]]        with d = (2, 2, 1),
the labelling used by every worked fixture downstream.  Symmetrizers are
always recomputed from the matrix, never assumed from the label, and
arbitrary user-supplied Cartan matrices are accepted.
"""

from __future__ import annotations

import enum
import functools
import operator
from fractions import Fraction
from math import gcd, lcm

from ._record import record
from .exact import IntMatrix, _det_adj, _int_tuple, _rational_tuple

__all__ = [
    "Basis",
    "CartanDatum",
    "LatticeElement",
    "Root",
    "cartan_matrix",
    "symmetrizers",
    "bilinear_form",
    "alpha_to_omega",
    "omega_to_alpha",
    "positive_roots",
    "roots_supported",
]


class Basis(enum.Enum):
    ALPHA = "alpha"
    OMEGA = "omega"


class InvalidCartanMatrix(ValueError):
    pass


def symmetrizers(A: IntMatrix) -> tuple[int, ...]:
    """Minimal positive integers d with d_i a_ij = d_j a_ji, per component.

    Raises InvalidCartanMatrix when no positive solution exists (the
    matrix is not symmetrizable) or the matrix is not a generalized
    Cartan matrix.
    """
    a, n = A.data, A.nrows
    if A.ncols != n:
        raise InvalidCartanMatrix("Cartan matrix must be square")
    for i, row in enumerate(a):
        if row[i] != 2:
            raise InvalidCartanMatrix(f"diagonal entry a[{i}][{i}] != 2")
        for j, x in enumerate(row):
            if i != j:
                if x > 0:
                    raise InvalidCartanMatrix(f"positive off-diagonal at ({i},{j})")
                if (x == 0) != (a[j][i] == 0):
                    raise InvalidCartanMatrix(f"zero pattern asymmetric at ({i},{j})")
    # propagate ratios (num, den) along the Coxeter graph, one component at a time
    d = [0] * n
    for start in range(n):
        if d[start]:
            continue
        ratio = {start: (1, 1)}
        stack = [start]
        while stack:
            i = stack.pop()
            for j, x in enumerate(a[i]):
                if j == i or x == 0 or j in ratio:
                    continue
                # d_i a_ij = d_j a_ji  =>  d_j = d_i a_ij / a_ji (checked below)
                ratio[j] = (ratio[i][0] * -x, ratio[i][1] * -a[j][i])
                stack.append(j)
        # the least positive integers in these ratios: clear dens, divide by the gcd
        scale = lcm(*(den for _, den in ratio.values()))
        unit = gcd(*(num * scale // den for num, den in ratio.values()))
        for j, (num, den) in ratio.items():
            d[j] = num * scale // den // unit
    if any(d[i] * x != d[j] * a[j][i] for i, row in enumerate(a) for j, x in enumerate(row)):
        raise InvalidCartanMatrix("matrix is not symmetrizable")
    return tuple(d)


@record
class CartanDatum:
    """A finite-type Cartan matrix with its symmetrizers."""

    lie_type: str
    rank: int
    A: IntMatrix
    d: tuple[int, ...]

    @classmethod
    def from_matrix(cls, A: IntMatrix, lie_type: str = "X") -> "CartanDatum":
        d = symmetrizers(A)
        datum = cls(lie_type, A.nrows, A, d)
        datum._require_finite_type()
        return datum

    @property
    def has_triple_bond(self) -> bool:  # a_ij = -3, the G2 bond, whatever the label
        return any(-3 in row for row in self.A.data)

    def _require_finite_type(self) -> None:
        # DA positive definite <=> finite type; this also guarantees that
        # the reflection closure below terminates.  Its leading minors are
        # the pivots of one fraction-free elimination without row swaps
        # (Bareiss, Math. Comp. 22, 1968), and each must be positive.
        a = [[d * x for x in row] for d, row in zip(self.d, self.A.data)]
        prev = 1
        for k, pivot in enumerate(a):
            if pivot[k] <= 0:
                raise InvalidCartanMatrix("matrix is not of finite type")
            for i in range(k + 1, len(a)):
                a[i] = [(pivot[k] * x - a[i][k] * y) // prev for x, y in zip(a[i], pivot)]
            prev = pivot[k]

    def simple_root(self, i: int) -> "LatticeElement":
        """alpha_i, 1-based index, in ALPHA coordinates."""
        coords = [Fraction(0)] * self.rank
        coords[i - 1] = Fraction(1)
        return LatticeElement(Basis.ALPHA, tuple(coords))

    def fundamental_weight(self, i: int) -> "LatticeElement":
        return LatticeElement(Basis.OMEGA, self.simple_root(i).coords)


_BUILTIN_RANK_RANGE = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (4, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}
CARTAN_MEMO_SIZE = 64  # (type, rank) keys of _builtin_datum; a run meets a handful


def cartan_matrix(lie_type: str, n: int) -> CartanDatum:
    """Built-in Cartan datum for the finite series A-G, one per (type, rank):
    the arguments are checked before the memo, so it never caches an error."""
    if not isinstance(lie_type, str):
        raise TypeError(f"Lie type must be str, got {type(lie_type).__name__} {lie_type!r}")
    lie_type = lie_type.upper()
    if lie_type not in _BUILTIN_RANK_RANGE:
        raise InvalidCartanMatrix(f"unknown type {lie_type!r}")
    lo, hi = _BUILTIN_RANK_RANGE[lie_type]
    if _int_tuple((n,), "rank")[0] < lo or (hi is not None and n > hi):
        raise InvalidCartanMatrix(f"invalid rank {n} for type {lie_type}")
    return _builtin_datum(lie_type, n)


@functools.lru_cache(maxsize=CARTAN_MEMO_SIZE)
def _builtin_datum(lie_type: str, n: int) -> CartanDatum:
    a = [[2 * int(i == j) for j in range(n)] for i in range(n)]

    def chain_edge(i, j):
        a[i][j] = a[j][i] = -1

    if lie_type in ("A", "B", "C"):
        for i in range(n - 1):
            chain_edge(i, i + 1)
        if lie_type == "B" and n >= 2:
            a[n - 2][n - 1] = -2  # last root long
        if lie_type == "C" and n >= 2:
            a[n - 1][n - 2] = -2  # last root short
    elif lie_type == "D":
        for i in range(n - 2):
            chain_edge(i, i + 1)
        chain_edge(n - 3, n - 1)
    elif lie_type == "E":
        # chain 1-3-4-5-...-n with node 2 hanging off node 4
        chain_edge(0, 2)
        for i in range(2, n - 1):
            chain_edge(i, i + 1)
        chain_edge(1, 3)
    elif lie_type == "F":
        chain_edge(0, 1)
        chain_edge(1, 2)
        a[2][1] = -2
        chain_edge(2, 3)
    elif lie_type == "G":
        a[0][1] = -1
        a[1][0] = -3
    return CartanDatum.from_matrix(IntMatrix(a), lie_type)


@record
class LatticeElement:
    """A vector in the rational span of the weight lattice."""

    basis: Basis
    coords: tuple[Fraction, ...]

    @classmethod
    def make(cls, basis: Basis, coords) -> "LatticeElement":
        """coords must be int or Fraction: bool, float and str raise TypeError."""
        return cls(basis, _rational_tuple(coords, "coordinates"))

    @classmethod
    def zero(cls, basis: Basis, rank: int) -> "LatticeElement":
        return cls(basis, (Fraction(0),) * _int_tuple((rank,), "rank")[0])

    @property
    def rank(self) -> int:
        return len(self.coords)

    def __add__(self, other: "LatticeElement") -> "LatticeElement":
        return self._entrywise(operator.add, other, "add")

    def __sub__(self, other: "LatticeElement") -> "LatticeElement":
        return self._entrywise(operator.sub, other, "subtract")

    def _entrywise(self, op, other, verb: str) -> "LatticeElement":
        if self.basis != other.basis:
            raise ValueError(f"cannot {verb} elements in different bases")
        return LatticeElement(self.basis, tuple(map(op, self.coords, other.coords)))

    def __neg__(self) -> "LatticeElement":
        return LatticeElement(self.basis, tuple(-a for a in self.coords))

    def scaled(self, c) -> "LatticeElement":
        (c,) = _rational_tuple((c,), "scale factors")
        return LatticeElement(self.basis, tuple(c * a for a in self.coords))

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coords)


@functools.lru_cache(maxsize=None)
def _adjugate_cartan(cd: CartanDatum) -> tuple[int, IntMatrix]:
    """(delta, adj A) with delta = det A > 0 and adj A = delta A^(-1)."""
    delta, adj = _det_adj(cd.A.data)
    return delta, IntMatrix(adj)


def _matvec(rows, coords) -> tuple[Fraction, ...]:
    """Exact product of an int or rational matrix and a vector, over a common denominator."""
    den = lcm(*(c.denominator for row in (coords, *rows) for c in row))
    xs = [x.numerator * (den // x.denominator) for x in coords]
    return tuple(Fraction(sum(a.numerator * (den // a.denominator) * x
                              for a, x in zip(row, xs)), den * den) for row in rows)


def alpha_to_omega(lam: LatticeElement, cd: CartanDatum) -> LatticeElement:
    """Coordinates in the fundamental-weight basis: omega = A alpha."""
    _rank_check(lam, cd)
    if lam.basis == Basis.OMEGA:
        return lam
    return LatticeElement(Basis.OMEGA, _matvec(cd.A.data, lam.coords))


def omega_to_alpha(lam: LatticeElement, cd: CartanDatum) -> LatticeElement:
    """Coordinates in the simple-root basis: alpha = adj(A) omega / det A."""
    _rank_check(lam, cd)
    if lam.basis == Basis.ALPHA:
        return lam
    delta, adj = _adjugate_cartan(cd)
    coords = _matvec(adj.data, lam.coords)
    return LatticeElement(Basis.ALPHA, tuple(x / delta for x in coords))


def bilinear_form(lam: LatticeElement, mu: LatticeElement, cd: CartanDatum) -> Fraction:
    """The symmetric form with (omega_i, alpha_j) = d_i delta_ij."""
    left = alpha_to_omega(lam, cd)  # each conversion checks the rank
    right = omega_to_alpha(mu, cd)
    return _matvec([left.coords], tuple(map(operator.mul, cd.d, right.coords)))[0]


def _rank_check(lam: LatticeElement, cd: CartanDatum) -> None:
    if lam.rank != cd.rank:
        raise ValueError(f"rank mismatch: element has {lam.rank}, datum has {cd.rank}")


@record
class Root:
    """A positive root in integer ALPHA coordinates with its support."""

    coords: tuple[int, ...]
    support: frozenset[int]  # 1-based simple indices

    @classmethod
    def from_coords(cls, coords) -> "Root":
        coords = _int_tuple(coords, "root coordinates")
        return cls(coords, frozenset(i + 1 for i, c in enumerate(coords) if c))


@functools.lru_cache(maxsize=None)
def positive_roots(cd: CartanDatum) -> tuple[Root, ...]:
    """All positive roots via the reflection closure of the simple ones.

    Returned sorted by height, then lexicographically on coordinates, a
    fixed deterministic order.  For type A_n the count is n(n+1)/2 and in
    general dim g = rank + 2 * count.
    """
    n = cd.rank
    simples = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    seen = set(simples)
    frontier = list(simples)
    while frontier:
        nxt = []
        for coords in frontier:
            for i, row in enumerate(cd.A.data):  # s_i(c) = c - (A c)_i e_i, ALPHA coordinates
                pairing = sum(a * c for a, c in zip(row, coords))
                image = coords[:i] + (coords[i] - pairing,) + coords[i + 1:]
                if image not in seen and all(c >= 0 for c in image):
                    seen.add(image)
                    nxt.append(image)
        frontier = nxt
    ordered = sorted(seen, key=lambda c: (sum(c), c))
    return tuple(Root.from_coords(c) for c in ordered)


def index_set(ids) -> frozenset[int]:
    """Simple indices as a frozenset; a non-int, a bool too, raises TypeError."""
    return frozenset(_int_tuple(ids, "simple indices"))


def roots_supported(cd: CartanDatum, indices) -> tuple[Root, ...]:
    """Positive roots supported inside the given simple indices."""
    allowed = index_set(indices)
    bad = allowed - set(range(1, cd.rank + 1))
    if bad:
        raise ValueError(f"simple indices out of range: {sorted(bad)}")
    return tuple(r for r in positive_roots(cd) if r.support <= allowed)
