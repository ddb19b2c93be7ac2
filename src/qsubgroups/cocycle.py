"""Deformation bookkeeping at the exponent level.

The multiplication of the twisted function algebra differs from the
untwisted one by monomial factors q^(exponent) on bigraded pieces, so
the whole 2-cocycle / twist calculus reduces to exact exponent
arithmetic:

  chi(l1, l2)            = -(phi(l1), l2) / 2
  sigma^(-1) exponent    = chi(m1, l2)          on bidegrees (-l, m)
  deformation exponent   = ((phi(m1), m2) - (phi(l1), l2)) / 2
                         = chi(l1, l2) - chi(m1, m2)

On the finite torus the dual twist J is the 2-cocycle on (Z/ell)^n
with exponent +(phi(l_z1), l_z2)/2, where l_z = sum z_i alpha_i.  In
matrix terms that exponent is z1^T (Y^T D A) z2, an integer matrix, so
the cocycle is bilinear and all its identities are checked exactly.

The group-algebra realization of J materializes cyclotomic numbers: the
coefficient of the basis element (g, h) is recovered from the character
values eps^(J(z1, z2)) by an exact inverse Fourier transform over
(Z/ell)^n x (Z/ell)^n with rational 1/ell^(2n) scaling.

The product in that group algebra is an exact Kronecker substitution
(Schoenhage 1982; Harvey, J. Symb. Comp. 2009) that stays independent of
the transform, so J * J^-1 = 1 remains a real check.  Each factor's
support is grouped by its h-part; the fiber over h, a polynomial in
g_1..g_n and eps with nonnegative integer counts, is packed into one
Python int with every axis padded to 2 ell - 1 slots, so that products
of fibers do not overlap.  The limbs are as many bytes as the largest
possible coefficient of the product needs.  Every pair of fibers is
multiplied once into the bucket h1 + h2 mod ell, and each bucket is
unpacked once, folding every axis mod ell (eps^ell = 1).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd

from ._record import record
from .exact import CyclotomicNumber, IntMatrix, reduce_power_basis
from .lie import Basis, LatticeElement, bilinear_form
from .twist import TwistMap, apply_phi

__all__ = [
    "Bidegree",
    "chi_exponent",
    "sigma_inverse_exponent",
    "deformation_exponent",
    "GroupTwoCocycle",
    "twist_J",
    "TorusPairElement",
    "twist_J_group_algebra",
    "DEFAULT_TABLE_CAP",
]

DEFAULT_TABLE_CAP = 10_000


class TableCapExceeded(RuntimeError):
    """Raised when a group-algebra tabulation would be too large."""


@record
class Bidegree:
    """The bidegree (-lam, mu) of a matrix coefficient; both weights are
    integral elements of the weight lattice, in OMEGA coordinates."""

    lam: LatticeElement
    mu: LatticeElement

    def __post_init__(self):
        for part in (self.lam, self.mu):
            if part.basis != Basis.OMEGA:
                raise ValueError("bidegree weights must be in OMEGA coordinates")
            if not part.is_integral():
                raise ValueError("bidegree weights must lie in the weight lattice")

    @classmethod
    def make(cls, lam_coords, mu_coords) -> "Bidegree":
        return cls(
            LatticeElement.make(Basis.OMEGA, lam_coords),
            LatticeElement.make(Basis.OMEGA, mu_coords),
        )


def chi_exponent(tw: TwistMap, lam1: LatticeElement, lam2: LatticeElement) -> Fraction:
    """-(phi(lam1), lam2) / 2; an integer whenever both lie in P."""
    return -bilinear_form(apply_phi(tw, lam1), lam2, tw.cd) / 2


def sigma_inverse_exponent(tw: TwistMap, bd1: Bidegree, bd2: Bidegree) -> Fraction:
    """Exponent of the convolution inverse of the deforming 2-cocycle on a
    pair of bidegrees: chi(mu1, lam2)."""
    return chi_exponent(tw, bd1.mu, bd2.lam)


def deformation_exponent(tw: TwistMap, bd1: Bidegree, bd2: Bidegree) -> Fraction:
    """((phi(mu1), mu2) - (phi(lam1), lam2)) / 2, the exponent by which the
    twisted product differs from the untwisted one."""
    return chi_exponent(tw, bd1.lam, bd2.lam) - chi_exponent(tw, bd1.mu, bd2.mu)


def check_level(tw: TwistMap, ell: int) -> None:
    if ell < 3 or ell % 2 == 0:
        raise ValueError(f"level must be odd and >= 3, got {ell}")
    if tw.cd.lie_type == "G" and gcd(ell, 3) != 1:
        raise ValueError("level must be coprime to 3 in type G")


@record
class GroupTwoCocycle:
    """A normalized 2-cocycle on (Z/ell)^n x (Z/ell)^n, in additive
    exponent form, given by the bilinear rule z1 -> z1^T B z2 mod ell."""

    ell: int
    n: int
    bilinear: IntMatrix  # B = Y^T D A reduced mod ell

    def value(self, z1, z2) -> int:
        z1, z2 = tuple(z1), tuple(z2)
        if len(z1) != self.n or len(z2) != self.n:
            raise ValueError("vector length mismatch")
        total = 0
        for i in range(self.n):
            if z1[i]:
                row = self.bilinear.row(i)
                total += z1[i] * sum(row[j] * z2[j] for j in range(self.n))
        return total % self.ell

    def table_lines(self, cap: int | None = None):
        """Exponent table as text: one line per z1 (lexicographic), the
        entries over z2 separated by spaces."""
        size = self.ell**self.n
        limit = cap if cap is not None else DEFAULT_TABLE_CAP
        if size * size > limit:
            raise TableCapExceeded(
                f"table would have {size * size} entries, cap is {limit}"
            )
        vectors = list(itertools.product(range(self.ell), repeat=self.n))
        columns = [self.bilinear.column(j) for j in range(self.n)]
        for z1 in vectors:
            u = [sum(a * b for a, b in zip(z1, col)) for col in columns]  # z1^T B
            yield " ".join(
                str(sum(a * b for a, b in zip(u, z2)) % self.ell) for z2 in vectors
            )


def twist_J(tw: TwistMap, ell: int) -> GroupTwoCocycle:
    """The dual-group 2-cocycle underlying the twist element.

    The rule (z1, z2) -> (phi(l_{z1}), l_{z2}) / 2 mod ell with
    l_z = sum z_i alpha_i; bilinearity gives the matrix form B = Y^T D A,
    integral for every valid twisting map (checked), so the rule is
    well defined mod ell.
    """
    check_level(tw, ell)
    n = tw.rank
    d = tw.cd.d
    rows = []
    for s in range(n):
        row = []
        for t in range(n):
            entry = sum(tw.Y[j, s] * d[j] * tw.cd.A[j, t] for j in range(n))
            row.append(entry % ell)
        rows.append(row)
    bil = IntMatrix(rows, ncols=n)
    # cross-check one basis pair against the exact bilinear form
    for s in range(n):
        for t in range(n):
            lam_s = tw.cd.simple_root(s + 1)
            lam_t = tw.cd.simple_root(t + 1)
            half = bilinear_form(apply_phi(tw, lam_s), lam_t, tw.cd) / 2
            assert half.denominator == 1 and (int(half) - sum(
                tw.Y[j, s] * d[j] * tw.cd.A[j, t] for j in range(n)
            )) == 0
    return GroupTwoCocycle(ell, n, bil)


class TorusPairElement:
    """An element of the group algebra of (Z/ell)^n x (Z/ell)^n over Q(eps).

    Internally every coefficient is an integer vector of length ell in
    the power basis 1, eps, ..., eps^(ell-1) together with one global
    rational scale; reduction modulo the cyclotomic polynomial happens
    only when a coefficient is compared or requested.  The counts are
    nonnegative, which the packed convolution relies on.
    """

    __slots__ = ("ell", "n", "scale", "vectors")

    def __init__(self, ell: int, n: int, scale: Fraction, vectors: dict):
        self.ell = ell
        self.n = n
        self.scale = scale
        self.vectors = vectors  # (g, h) -> tuple of ell nonnegative ints

    @classmethod
    def identity(cls, ell: int, n: int) -> "TorusPairElement":
        zero = (0,) * n
        vec = (1,) + (0,) * (ell - 1)
        return cls(ell, n, Fraction(1), {(zero, zero): vec})

    def coefficient(self, g, h) -> CyclotomicNumber:
        vec = self.vectors.get((tuple(g), tuple(h)))
        if vec is None:
            return CyclotomicNumber.zero(self.ell)
        return self._reduce(vec)

    def _reduce(self, vec) -> CyclotomicNumber:
        return CyclotomicNumber(
            self.ell, [self.scale * c for c in reduce_power_basis(self.ell, vec)]
        )

    def _equals_rational(self, vec, value: int) -> bool:
        """Whether scale * vec is the integer value in Q(eps), compared in
        integers after clearing the scale's denominator."""
        reduced = reduce_power_basis(self.ell, vec)
        num, den = self.scale.numerator, self.scale.denominator
        return num * reduced[0] == value * den and not (num and any(reduced[1:]))

    def support(self):
        return sorted(self.vectors.keys())

    def _packed_fibers(self, width: int) -> dict:
        """h -> the fiber {g: vec} over h packed into one integer: limbs of
        width bytes, the n g-axes (g_1 most significant) and the eps axis
        each padded to 2 ell - 1 slots."""
        ell = self.ell
        slots = 2 * ell - 1
        size = slots ** (self.n + 1) * width
        buffers: dict = {}
        for (g, h), vec in self.vectors.items():
            buf = buffers.get(h)
            if buf is None:
                buf = buffers[h] = bytearray(size)
            slot = 0
            for a in g:
                slot = slot * slots + a
            at = slot * slots * width
            buf[at:at + ell * width] = b"".join(c.to_bytes(width, "little") for c in vec)
        return {h: int.from_bytes(buf, "little") for h, buf in buffers.items()}

    def _unpacked(self, packed: int, width: int):
        """Yield (g, vec) for every nonzero cell of a product of packed
        fibers, each axis folded mod ell (eps^ell = 1, g_i + ell = g_i)."""
        ell = self.ell
        slots = 2 * ell - 1

        def folded_parts(x, step):  # step: bits per slot of the top axis of x
            x = (x & ((1 << ell * step) - 1)) + (x >> ell * step)
            mask = (1 << step) - 1
            return [(x >> k * step) & mask for k in range(ell)]

        step = slots**self.n * width * 8
        cells = {(): packed}
        for _ in range(self.n):
            cells = {
                g + (k,): part
                for g, x in cells.items()
                for k, part in enumerate(folded_parts(x, step))
                if part
            }
            step //= slots
        for g, x in cells.items():
            if x:
                yield g, tuple(folded_parts(x, step))

    def convolve(self, other: "TorusPairElement") -> "TorusPairElement":
        """Group-algebra product (convolution over the pair group)."""
        if (self.ell, self.n) != (other.ell, other.n):
            raise ValueError("mismatched group algebras")
        ell = self.ell
        # every power-basis coefficient of the product, folded or not, is
        # at most (#terms) * ell * m1 * m2 (m = max count); limbs hold it
        # and each factor's own counts (which the bound misses if m1 * m2 = 0)
        m1 = max((max(v) for v in self.vectors.values()), default=0)
        m2 = max((max(v) for v in other.vectors.values()), default=0)
        bound = min(len(self.vectors), len(other.vectors)) * ell * m1 * m2
        width = max(bound, m1, m2).bit_length() // 8 + 1
        fibers = other._packed_fibers(width)
        buckets: dict = {}
        for h1, p1 in self._packed_fibers(width).items():
            for h2, p2 in fibers.items():
                h = tuple((a + b) % ell for a, b in zip(h1, h2))
                buckets[h] = buckets.get(h, 0) + p1 * p2
        vectors = {}
        for h, packed in buckets.items():
            for g, vec in self._unpacked(packed, width):
                vectors[(g, h)] = vec
        return TorusPairElement(ell, self.n, self.scale * other.scale, vectors)

    def is_identity(self) -> bool:
        zero = ((0,) * self.n, (0,) * self.n)
        return zero in self.vectors and all(
            self._equals_rational(vec, 1 if key == zero else 0)
            for key, vec in self.vectors.items()
        )

    def _collapsed(self, side: str) -> dict:
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        collapsed: dict = {}
        for (g, h), vec in self.vectors.items():
            key = h if side == "left" else g
            cur = collapsed.get(key)
            collapsed[key] = (
                tuple(a + b for a, b in zip(cur, vec)) if cur else vec
            )
        return collapsed

    def counit_side(self, side: str) -> dict:
        """Apply the counit on one tensor factor; returns the collapsed
        table mapping group elements to canonical coefficients."""
        return {key: self._reduce(vec) for key, vec in self._collapsed(side).items()}

    def counit_is_one(self, side: str) -> bool:
        zero = (0,) * self.n
        table = self._collapsed(side)
        return zero in table and all(
            self._equals_rational(vec, 1 if key == zero else 0)
            for key, vec in table.items()
        )


@record
class GroupAlgebraTwist:
    """The twist element and its convolution inverse, as tables over the
    group algebra of the doubled torus."""

    element: TorusPairElement
    inverse: TorusPairElement


def twist_J_group_algebra(
    tw: TwistMap, ell: int, cap: int | None = None
) -> GroupAlgebraTwist:
    """Materialize the twist as an element of Q(eps)[T x T].

    The coefficient at the basis pair (g, h) is
        ell^(-2n) * sum over characters (z1, z2) of
                    eps^(J(z1, z2) - z1.g - z2.h),
    computed exactly.  The sum over z2 collapses to a point mass on the
    fiber h = B^T z1 mod ell, which cuts the work to ell^(3n).  Returns
    the element together with its convolution inverse (same transform
    applied to the inverse character values).
    """
    check_level(tw, ell)
    n = tw.rank
    size = ell**n
    limit = cap if cap is not None else DEFAULT_TABLE_CAP
    if size * size > limit:
        raise TableCapExceeded(
            f"table would have {size * size} entries, cap is {limit}"
        )
    cocycle = twist_J(tw, ell)
    vectors = list(itertools.product(range(ell), repeat=n))

    def transform(sign: int) -> TorusPairElement:
        # fibers of z1 -> sign * B^T z1 mod ell: J(z1, z2) = <B^T z1, z2>
        fibers: dict = {}
        for z1 in vectors:
            image = tuple(
                sign * sum(cocycle.bilinear[i, j] * z1[i] for i in range(n)) % ell
                for j in range(n)
            )
            fibers.setdefault(image, []).append(z1)
        table: dict = {}
        for h, fiber in fibers.items():
            for g in vectors:
                vec = [0] * ell
                for z1 in fiber:
                    expo = (-sum(a * b for a, b in zip(z1, g))) % ell
                    vec[expo] += 1
                table[(g, h)] = tuple(vec)
        return TorusPairElement(ell, n, Fraction(1, size), table)

    return GroupAlgebraTwist(element=transform(1), inverse=transform(-1))
