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

The group-algebra realization of J (twist_J_group_algebra) materializes
its cyclotomic coefficients in closed form, from the cosets of the kernel
K of z -> B^T z, and stores only the g of the annihilator K^perp: off it
every coset sum vanishes, for any ell, so a zero twist is one entry.

The product in that group algebra is an exact Kronecker substitution
(Schoenhage 1982; Harvey, J. Symb. Comp. 2009) that stays independent of
the transform, so J * J^-1 = 1 remains a real check.  Each factor's
support is grouped by its h-part; the fiber over h, a polynomial in
g_1..g_n and eps with nonnegative integer counts, is packed into one
Python int with every axis padded to 2 ell - 1 slots, so that products
of fibers do not overlap; each distinct count vector is packed once and
then shifted into place.  Each unit of one factor's count mass meets at
most one count of the other in any cell of the product, so every
coefficient, folded or not, is at most min(t1 m2, m1 t2), with t the sum
and m the largest of a factor's counts; the limbs are exactly as many
bits as that bound needs.  The bucket over h sums the fiber products
over h1 + h2 == h (mod ell), either one product per pair of fibers, or
with the h-axes taken as polynomial variables (Toom 1963; Cook 1966):
each factor is evaluated at the points 0, +-1, ..., +-(ell - 1) of every
h-axis, the values are multiplied pointwise, (2 ell - 1)^n products, and
interpolated exactly by the integer inverse Vandermonde matrix, folding
y^(k + ell) onto y^k.  _evaluates takes whichever way needs fewer
big-integer products, so a single fiber (the zero twists) keeps the
pairwise loop.  To unpack, each g-axis is folded mod ell on the whole
bucket, by a mask of the slots 0..ell-1 of every 2 ell - 1; each cell is
then cut from the bucket's bytes, and each distinct cell is split into
limbs and folded mod eps^ell = 1 once.
"""

from __future__ import annotations

import collections
import functools
import itertools
import operator
from fractions import Fraction
from math import gcd, lcm, prod

from ._record import record
from .exact import (
    CyclotomicNumber,
    IntMatrix,
    _int_tuple,
    _poly_divmod,
    _poly_mul,
    _rational_tuple,
    _validate_level,
    reduce_power_basis,
)
from .lie import Basis, LatticeElement, bilinear_form
from .torus import TorusSubgroup
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
WEIGHTS_MEMO_SIZE = 32  # h-axis evaluation and interpolation weights, one per level


class TableCapExceeded(RuntimeError):
    """Raised when a group-algebra tabulation would be too large."""


def _table_size(ell: int, n: int, cap: int | None) -> int:
    """ell^n, once the ell^(2n) entries of a table are checked against the cap."""
    size = ell**n
    limit = DEFAULT_TABLE_CAP if cap is None else _int_tuple((cap,), "cap")[0]
    if size * size > limit:
        raise TableCapExceeded(f"table would have {size * size} entries, cap is {limit}")
    return size


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
    _validate_level(ell)
    if tw.cd.has_triple_bond and gcd(ell, 3) != 1:
        raise ValueError("level must be coprime to 3 in type G")


@record
class GroupTwoCocycle:
    """A normalized 2-cocycle on (Z/ell)^n x (Z/ell)^n, in additive
    exponent form, given by the bilinear rule z1 -> z1^T B z2 mod ell."""

    ell: int
    n: int
    bilinear: IntMatrix  # B = Y^T D A reduced mod ell

    def value(self, z1, z2) -> int:
        z1, z2 = _int_tuple(z1, "characters"), _int_tuple(z2, "characters")
        if len(z1) != self.n or len(z2) != self.n:
            raise ValueError("vector length mismatch")
        return sum(map(operator.mul, z1, self.bilinear.apply(z2))) % self.ell

    def table_lines(self, cap: int | None = None):
        """Exponent table as text: one line per z1 (lexicographic), the
        entries over z2 separated by spaces."""
        _table_size(self.ell, self.n, cap)
        ell = self.ell
        # row z1 is the sweep of u = z1^T B, whose column j is itself a sweep
        columns = [_sweep(col, ell) for col in self.bilinear.transpose().data]
        residues = [str(v % ell) for v in range(self.n * (ell - 1) + 1)]
        for u in zip(*columns):
            yield " ".join(map(residues.__getitem__, _sweep(u, ell)))


def _sweep(w, ell: int) -> list[int]:
    """[w.g for g in itertools.product(range(ell), repeat=len(w))], one
    list comprehension per coordinate.  The entries of w are read mod
    ell; the values are left unreduced, in 0 .. len(w) (ell - 1)."""
    values = [0]
    for c in w:
        steps = [c * a % ell for a in range(ell)]
        values = [v + s for v in values for s in steps]
    return values


def twist_J(tw: TwistMap, ell: int) -> GroupTwoCocycle:
    """The dual-group 2-cocycle underlying the twist element.

    The rule (z1, z2) -> (phi(l_{z1}), l_{z2}) / 2 mod ell with
    l_z = sum z_i alpha_i; bilinearity gives the matrix form B = Y^T D A,
    integral for every valid twisting map (checked once per twist, see
    TwistMap._pairing), so the rule is well defined mod ell.
    """
    check_level(tw, ell)
    rows = [[x % ell for x in row] for row in tw._pairing]
    return GroupTwoCocycle(ell, tw.rank, IntMatrix(rows, ncols=tw.rank))


class TorusPairElement:
    """An element of the group algebra of (Z/ell)^n x (Z/ell)^n over Q(eps).

    Internally every coefficient is an integer vector of length ell in
    the power basis 1, eps, ..., eps^(ell-1) together with one global
    rational scale; reduction modulo the cyclotomic polynomial happens
    only when a coefficient is compared or requested.  The counts must be
    nonnegative, which the packed convolution relies on: convolve checks
    them and raises ValueError on a negative count.  Construction checks
    the rest: an int or Fraction scale, count vectors of length ell, n int
    coordinates in g and h, those of g (a packed slot) in 0..ell-1.
    """

    __slots__ = ("ell", "n", "scale", "vectors")

    def __init__(self, ell: int, n: int, scale: Fraction, vectors: dict, *, _built=False):
        if not _built:  # the library's own products and twists are valid as built
            _rational_tuple((scale,), "scale")
            coords = _int_tuple(itertools.chain.from_iterable(g for g, _ in vectors), "g")
            _int_tuple(itertools.chain.from_iterable(h for _, h in vectors), "h")
            if set(map(len, itertools.chain.from_iterable(vectors))) - {n} or \
                    set(map(len, vectors.values())) - {ell} or \
                    coords and not 0 <= min(coords) <= max(coords) < ell:
                raise ValueError(f"need g in (0..{ell - 1})^{n}, h of length {n} "
                                 f"and {ell} counts in every entry")
        self.ell = ell
        self.n = n
        self.scale = scale
        self.vectors = vectors  # (g, h) -> tuple of ell nonnegative ints

    @classmethod
    def identity(cls, ell: int, n: int) -> "TorusPairElement":
        zero = (0,) * n
        return cls(ell, n, Fraction(1), {(zero, zero): (1,) + (0,) * (ell - 1)})

    def coefficient(self, g, h) -> CyclotomicNumber:
        g, h = _int_tuple(g, "group elements"), _int_tuple(h, "group elements")
        if len(g) != self.n or len(h) != self.n:
            raise ValueError("vector length mismatch")
        vec = self.vectors.get((g, h))
        if vec is None:
            return CyclotomicNumber.zero(self.ell)
        return self._reduce(vec)

    def _reduce(self, vec) -> CyclotomicNumber:
        reduced = reduce_power_basis(self.ell, vec)
        return CyclotomicNumber(self.ell, [self.scale * c for c in reduced])

    def support(self):
        return sorted(self.vectors.keys())

    def _mass(self) -> tuple[int, int]:
        """(sum, largest) of all counts, each distinct vector weighed once;
        a negative count (the packed product holds none) raises ValueError."""
        counts = collections.Counter(self.vectors.values())
        if min(itertools.chain.from_iterable(counts), default=0) < 0:
            raise ValueError("group-algebra counts must be nonnegative")
        return (sum(sum(vec) * k for vec, k in counts.items()),
                max(itertools.chain.from_iterable(counts), default=0))

    def _packed_fibers(self, width: int) -> dict:
        """h -> the fiber {g: vec} over h packed into one integer: limbs of
        width bits, the n g-axes (g_1 most significant) and the eps axis
        each padded to 2 ell - 1 slots (see the module docstring)."""
        slots = 2 * self.ell - 1
        weights = [slots ** (self.n - i) * width for i in range(self.n)]  # per unit of g_i
        limbs, shifts, fibers = {}, {}, {}  # each distinct vector and g is worked out once
        for (g, h), vec in self.vectors.items():
            if (x := limbs.get(vec)) is None:
                x = limbs[vec] = functools.reduce(lambda y, c: y << width | c, vec[::-1], 0)
            if (s := shifts.get(g)) is None:
                s = shifts[g] = sum(map(operator.mul, g, weights))
            fibers[h] = fibers.get(h, 0) | x << s
        return fibers

    def _unpacked(self, buckets: dict, width: int) -> dict:
        """(g, h) -> vec for every nonzero cell of the buckets, h ascending,
        then g, each axis folded mod ell (see the module docstring)."""
        ell, n, slots = self.ell, self.n, 2 * self.ell - 1
        cell, size = slots * width, ell * slots**n * width  # size: a bucket with g_1 folded
        folds = []  # (shift, mask of slots 0..ell-1 in every period) of each g-axis
        for step in (slots**i * width for i in range(n, 0, -1)):
            lo, span = (1 << ell * step) - 1, slots * step
            while span < size:  # doubling: no (2^(P R) - 1) // (2^P - 1), a quadratic division
                lo, span = lo | lo << span, 2 * span
            folds.append((ell * step, lo))
        slot = [0]  # the g-slot of each g, lexicographically
        for _ in range(n):
            slot = [s * slots + a for s in slot for a in range(ell)]
        cuts = [(g, s * cell >> 3, (s * cell + cell + 7) >> 3, s * cell & 7)  # bytes, 1st bit
                for g, s in zip(itertools.product(range(ell), repeat=n), slot)]
        vectors, seen, mask, limb = {}, {0: ()}, (1 << cell) - 1, (1 << width) - 1
        for h, x in sorted(buckets.items()):
            for shift, lo in folds:
                low = x & lo
                x = low + ((x ^ low) >> shift)
            data = x.to_bytes((x.bit_length() + 7) // 8, "little")
            for g, first, last, bit in cuts:
                vec = seen.get(key := int.from_bytes(data[first:last], "little") >> bit & mask)
                if vec is None:
                    limbs = [key >> k * width & limb for k in range(slots)]
                    vec = seen[key] = tuple(map(operator.add, limbs, limbs[ell:] + [0]))
                if vec:
                    vectors[g, h] = vec
        return vectors

    def convolve(self, other: "TorusPairElement") -> "TorusPairElement":
        """Group-algebra product (convolution over the pair group)."""
        if (self.ell, self.n) != (other.ell, other.n):
            raise ValueError("mismatched group algebras")
        ell, n = self.ell, self.n
        # every limb, folded or not, is at most min(t1 m2, m1 t2) (see the
        # module docstring), and the limbs hold each factor's own counts too
        (t1, m1), (t2, m2) = self._mass(), other._mass()
        width = max(min(t1 * m2, m1 * t2), m1, m2, 1).bit_length()
        fibers1, fibers2 = self._packed_fibers(width), other._packed_fibers(width)
        if _evaluates(len(fibers1), len(fibers2), ell, n):
            buckets = _evaluated_product(fibers1, fibers2, ell, n)
        else:
            buckets = {}
            for h1, p1 in fibers1.items():
                for h2, p2 in fibers2.items():
                    h = tuple((a + b) % ell for a, b in zip(h1, h2))
                    buckets[h] = buckets.get(h, 0) + p1 * p2
        vectors = self._unpacked(buckets, width)
        return TorusPairElement(ell, n, self.scale * other.scale, vectors, _built=True)

    def _is_unit(self, table: dict, zero) -> bool:
        """Whether scale * table holds 1 at zero and 0 at every other key,
        compared in integers: the vector at zero must recur nowhere else,
        and each distinct vector is reduced once."""
        values, one = list(map(tuple, table.values())), tuple(table.get(zero, ()))
        if values.count(one) != 1:  # also when zero is absent: no vector is ()
            return False
        first, *rest = reduce_power_basis(self.ell, one)
        return self.scale * first == 1 and not any(rest) and not any(
            any(reduce_power_basis(self.ell, vec)) for vec in set(values) - {one})

    def is_identity(self) -> bool:
        return self._is_unit(self.vectors, ((0,) * self.n, (0,) * self.n))

    def _collapsed(self, side: str) -> dict:
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        collapsed: dict = {}
        for (g, h), vec in self.vectors.items():
            cur = collapsed.get(key := h if side == "left" else g)
            collapsed[key] = tuple(map(operator.add, cur, vec)) if cur else vec
        return collapsed

    def counit_side(self, side: str) -> dict:
        """Apply the counit on one tensor factor; returns the collapsed
        table mapping group elements to canonical coefficients."""
        return {key: self._reduce(vec) for key, vec in self._collapsed(side).items()}

    def counit_is_one(self, side: str) -> bool:
        return self._is_unit(self._collapsed(side), (0,) * self.n)


def _evaluates(f1: int, f2: int, ell: int, n: int) -> bool:
    """Whether the evaluated product needs fewer big-integer products than
    the pairwise loop on f1 x f2 fibers: one per point, (2 ell - 1)^n."""
    return f1 * f2 > (2 * ell - 1) ** n


@functools.lru_cache(maxsize=WEIGHTS_MEMO_SIZE)
def _h_axis_weights(ell: int) -> tuple:
    """(E, W, d) on one h-axis: E evaluates a polynomial of degree < ell at
    the points x_i = 0, 1, -1, ..., ell - 1, 1 - ell; W / d interpolates one
    of degree < 2 ell - 1 from those values, folding y^(k + ell) onto y^k.
    Column i of the inverse Vandermonde matrix is the Lagrange polynomial
    prod_(j != i) (y - x_j) / (x_i - x_j), and d the lcm of their denominators."""
    points = [0] + [s * x for x in range(1, ell) for s in (1, -1)]
    master = functools.reduce(_poly_mul, ([-x, 1] for x in points))
    basis = [_poly_divmod(master, [-x, 1])[0] for x in points]
    scale = [prod(x - y for y in points if y != x) for x in points]
    d = lcm(*scale)
    folded = [[sum(q[k::ell]) * (d // w) for q, w in zip(basis, scale)] for k in range(ell)]
    return [[x**k for k in range(ell)] for x in points], folded, d


def _along_axes(cells: list, weights, n: int) -> list:
    """The matrix weights applied along each axis of the row-major n-axis
    array cells; each pass moves the axis it transforms last."""
    size = len(weights[0])
    for _ in range(n):
        rest = len(cells) // size
        cells = [sum(map(operator.mul, row, cells[q::rest]))
                 for q in range(rest) for row in weights]
    return cells


def _evaluated_product(fibers1: dict, fibers2: dict, ell: int, n: int) -> dict:
    """h -> the sum of p1 p2 over the fibers h1 + h2 == h (mod ell), for
    every h in lexicographic order (see the module docstring)."""
    evaluate, interpolate, d = _h_axis_weights(ell)
    hs = list(itertools.product(range(ell), repeat=n))
    values = []
    for fibers in (fibers1, fibers2):
        cells = dict.fromkeys(hs, 0)
        for h, p in fibers.items():
            cells[tuple(x % ell for x in h)] += p
        values.append(_along_axes(list(cells.values()), evaluate, n))
    cells = _along_axes(list(map(operator.mul, *values)), interpolate, n)
    return {h: c // d**n for h, c in zip(hs, cells)}


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
    fiber h = B^T z1 mod ell, a coset z0 + K of K = ker(z -> B^T z mod
    ell).  On it z1.g runs through z0.g + m Z/ell, each value |K| m / ell
    times, where m is the gcd of ell and k.g over the generators k of K.
    For m < ell those ell / m powers of eps^m sum to 0, so only the g of
    K^perp (every k.g == 0 mod ell) are stored, each as the monomial
    |K| eps^(-z0.g); a zero twist is the one entry at (0, 0).  The
    inverse uses the character values eps^(-J): the same fibers, over
    -h.  Fibers come in the order of their first z1, and within a fiber
    g runs lexicographically.
    """
    check_level(tw, ell)
    n = tw.rank
    size = _table_size(ell, n, cap)
    bil = twist_J(tw, ell).bilinear
    vectors = list(itertools.product(range(ell), repeat=n))
    # h = B^T z1 for every z1; the dict keeps each fiber's first position
    # and some representative z0 of it
    images = zip(*[[v % ell for v in _sweep(col, ell)] for col in bil.transpose().data])
    fibers = dict(zip(images, vectors))
    K = TorusSubgroup.kernel(ell, n, bil.transpose())
    kept = range(size)  # narrowed to K^perp: k.g == 0 (mod ell) for each generator k of K
    for kg in (_sweep(k, ell) for k in K.generators):
        kept = [i for i in kept if not kg[i] % ell]
    gs = [vectors[i] for i in kept]
    monomials = [(0,) * e + (K.order,) + (0,) * (ell - 1 - e) for e in range(ell)]
    element, inverse = {}, {}
    for h, z0 in fibers.items():
        dots = _sweep([-x for x in z0], ell)
        vecs = [monomials[dots[i] % ell] for i in kept]
        element.update(zip(zip(gs, itertools.repeat(h)), vecs))
        inverse.update(zip(zip(gs, itertools.repeat(tuple(-x % ell for x in h))), vecs))
    scale = Fraction(1, size)
    return GroupAlgebraTwist(
        element=TorusPairElement(ell, n, scale, element, _built=True),
        inverse=TorusPairElement(ell, n, scale, inverse, _built=True),
    )
