"""Deformation bookkeeping at the exponent level.

The multiplication of the twisted function algebra differs from the
untwisted one by monomial factors q^(exponent) on bigraded pieces, so
the whole 2-cocycle / twist calculus reduces to exact exponent
arithmetic:

  chi(l1, l2)            = -(phi(l1), l2) / 2
  sigma^(-1) exponent    = chi(m1, l2)          on bidegrees (-l, m)
  deformation exponent   = ((phi(m1), m2) - (phi(l1), l2)) / 2
                         = chi(l1, l2) - chi(m1, m2)

On the finite torus the dual twist J is the bilinear 2-cocycle of
twist_J; its group-algebra realization (twist_J_group_algebra) keeps only
its nonzero coefficients.  Their product is an exact Kronecker
substitution (Schoenhage 1982; Harvey, J. Symb. Comp. 2009), independent
of the transform, so J * J^-1 = 1 remains a real check.  When every
h-fiber of both factors holds one point (|S_1| |S_2| is the product of
their fiber counts), each pair of points is one product of packed count
vectors, summed per (h1 + h2, g1 + g2) and folded mod eps^ell as below.
Otherwise both axes use the coordinates of _Axes, the one owner of a
product's frames: S is spanned by v - b_k over both supports, b_k a point
of factor k's, and v - b_k has the quotients c_i of its reduction against
S's Hermite rows r_i with pivot a_i < ell, mod d_i = ell / a_i.  They
are exact when every row splits, d_i r_i == 0 (mod ell), as for prime
ell; if not, or if a support fills the torus, S is the whole torus, with
d_i = ell and the identity rows.  A fiber over h, a polynomial in eps and
the g-coordinates, is one int, eps padded to 2 ell - 1 slots and g-axis
i to 2 d_i - 1, with limbs as wide as min(t1 m2, m1 t2), t the sum and m
the largest of a factor's counts: a unit of one factor's mass meets at
most one count of the other in a cell of the product.  The fibers meet
pairwise in buckets over h1 + h2, or, when _evaluates counts fewer
big-integer products, at 0, +-1, ..., +-(d_i - 1) on each h-axis (Toom
1963; Cook 1966): prod(2 d_i - 1) products, interpolated by the integer
inverse Vandermonde matrix, folding y^(k + d_i) onto y^k.  To unpack, a
mask per g-axis folds it mod d_i; each cell, shifted out (past 2^13 bits
cut from the bytes), goes to b_1 + b_2 + sum c_i r_i, folded mod eps^ell.
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
    _reduce,
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
WEIGHTS_MEMO_SIZE = 32  # h-axis evaluation and interpolation weights, one per axis order


def _check_torus(ell: int, n: int, coords: tuple, shaped: bool = True) -> None:
    if not shaped or coords and not 0 <= min(coords) <= max(coords) < ell:
        raise ValueError(f"need g in (0..{ell - 1})^{n}, h too, and {ell} counts in every entry")


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


def _sweep(w, ell: int, dims=None) -> list[int]:
    """[w.g for g in itertools.product(*map(range, dims))], dims ell each
    by default, one list comprehension per coordinate.  The entries of w
    are read mod ell; the values are left unreduced, in 0 .. len(w) (ell - 1)."""
    values = [0]
    for c, d in zip(w, dims or [ell] * len(w)):
        steps = [c * a % ell for a in range(d)]
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
    only when a coefficient is compared or requested.  convolve refuses a
    negative count; construction checks the rest (see its message).
    """

    __slots__ = ("ell", "n", "scale", "vectors")

    def __init__(self, ell: int, n: int, scale: Fraction, vectors: dict, *, _built=False):
        if not _built:  # the library's own products and twists are valid as built
            _rational_tuple((scale,), "scale")
            coords = _int_tuple((x for key in vectors for part in key for x in part), "g and h")
            _check_torus(ell, n, coords, set(map(len, itertools.chain.from_iterable(vectors)))
                         <= {n} and set(map(len, vectors.values())) <= {ell})
        self.ell = ell
        self.n = n
        self.scale = scale
        self.vectors = vectors  # (g, h) -> tuple of ell nonnegative ints

    def coefficient(self, g, h) -> CyclotomicNumber:
        g, h = _int_tuple(g, "group elements"), _int_tuple(h, "group elements")
        if len(g) != self.n or len(h) != self.n:
            raise ValueError("vector length mismatch")
        _check_torus(self.ell, self.n, g + h)
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

    def _packed_fibers(self, width: int, shifts: dict) -> dict:
        """h -> the fiber {g: vec} over h packed into one integer: limbs of
        width bits, g's cell at bit shifts[g], its place in an _Axes frame
        (see _Axes.offsets and the module docstring)."""
        limbs, fibers = {}, {}
        for (g, h), vec in self.vectors.items():
            fibers[h] = fibers.get(h, 0) | _packed(vec, width, limbs) << shifts[g]
        return fibers

    def _unpacked(self, buckets: dict, width: int, axes: "_Axes") -> dict:
        """(g, h) -> vec for every nonzero cell of the buckets, h ascending,
        then g, on the g-axes of the frame axes that packed them."""
        ell, dims, cell = self.ell, axes.dims, (2 * self.ell - 1) * width
        strides = axes.steps(cell, True)
        size = dims[0] * strides[0] if dims else 0
        folds = []  # (shift, mask of slots 0..d-1 in every period) of each g-axis
        for d, step in zip(dims, strides):
            lo, span = (1 << d * step) - 1, (2 * d - 1) * step
            while span < size:  # doubling: no (2^(P R) - 1) // (2^P - 1), a quadratic division
                lo, span = lo | lo << span, 2 * span
            folds.append((d * step, lo))
        cuts = sorted((g, s, s >> 3, (s + cell + 7) >> 3, s & 7)
                      for g, s in zip(axes.points(), _sweep(strides, size, dims)))  # all < size
        vectors, seen, mask = {}, {}, (1 << cell) - 1
        for h, x in sorted(buckets.items()):
            for shift, lo in folds:
                low = x & lo
                x = low + ((x ^ low) >> shift)
            data = x.bit_length() >> 13 and x.to_bytes((x.bit_length() + 7) // 8, "little")
            for g, s, i, j, bit in cuts:  # the cell at bit s: bytes i to j - 1, from bit
                key = (int.from_bytes(data[i:j], "little") >> bit if data else x >> s) & mask
                if vec := _folded(key, ell, width, seen):
                    vectors[g, h] = vec
        return vectors

    def convolve(self, other: "TorusPairElement") -> "TorusPairElement":
        """Group-algebra product (convolution over the pair group)."""
        if (self.ell, self.n) != (other.ell, other.n):
            raise ValueError("mismatched group algebras")
        ell, n, pair, scale = self.ell, self.n, (self, other), self.scale * other.scale
        # every limb, folded or not, is at most min(t1 m2, m1 t2) (see the
        # module docstring), and the limbs hold each factor's own counts too
        (t1, m1), (t2, m2) = self._mass(), other._mass()
        width = max(min(t1 * m2, m1 * t2), m1, m2, 1).bit_length()
        if len(self.vectors) * len(other.vectors) == prod(len({h for _, h in x.vectors})
                                                           for x in pair):  # one point per fiber
            memo, seen = {}, {}  # point by point, an empty factor too; keyed by h + g
            cells = _pairwise(*[{h + g: _packed(vec, width, memo)
                                 for (g, h), vec in x.vectors.items()} for x in pair], ell)
            vectors = {(k[n:], k[:n]): vec for k, x in sorted(cells.items())
                       if (vec := _folded(x, ell, width, seen))}
            return TorusPairElement(ell, n, scale, vectors, _built=True)
        g_axes = _Axes(ell, n, gs := [{g for g, _ in x.vectors} for x in pair])
        fibers = [x._packed_fibers(width, g_axes.offsets(gs[k], k, g_axes.steps(
            (2 * ell - 1) * width, True))) for k, x in enumerate(pair)]
        h_axes = _Axes(ell, n, fibers)
        if _evaluates(len(fibers[0]), len(fibers[1]), h_axes.dims):
            buckets = _evaluated_product(fibers, h_axes)
        else:
            buckets = _pairwise(*fibers, ell)
        vectors = self._unpacked(buckets, width, g_axes)
        return TorusPairElement(ell, n, scale, vectors, _built=True)

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


def _packed(vec, width: int, memo: dict) -> int:
    """vec's counts in limbs of width bits, eps^k at bit k width; once per vec in memo."""
    if (x := memo.get(vec)) is None:
        x = memo[vec] = functools.reduce(lambda y, c: y << width | c, vec[::-1], 0)
    return x


def _folded(x: int, ell: int, width: int, seen: dict) -> tuple:
    """x's 2 ell - 1 limbs, eps^(k + ell) folded onto eps^k, () for 0; once per x in seen."""
    if (vec := seen.get(x)) is None:
        limbs = [x >> k * width & (1 << width) - 1 for k in range(2 * ell - 1)]
        vec = seen[x] = x and tuple(map(operator.add, limbs, limbs[ell:] + [0])) or ()
    return vec


def _pairwise(left: dict, right: dict, ell: int) -> dict:
    """k -> the sum of x y over k1 + k2 == k (mod ell), one update per pair of keys."""
    out = {}
    for k1, x in left.items():
        for k2, y in right.items():
            k = tuple([(a + b) % ell for a, b in zip(k1, k2)])
            out[k] = out.get(k, 0) + x * y
    return out


class _Axes:
    """The one owner of a product's frames: coordinates on the subgroup S
    spanned by v - b_k over the supports k = 0, 1 of its factors, its
    Hermite rows of order d_i, or else the whole torus (module docstring)."""

    def __init__(self, ell: int, n: int, supports=None):
        self.ell, self.n, self.bases, self.axes = ell, n, None, [(i, ell) for i in range(n)]
        if supports and max(map(len, supports)) < ell**n:
            bases = [next(iter(s)) for s in supports]
            vs = tuple({tuple([(a - b) % ell for a, b in zip(v, base)])
                        for s, base in zip(supports, bases) for v in s if v != base})
            rows = vs and TorusSubgroup.from_generators(ell, n, IntMatrix._of(vs, n)).lattice.data
            if not any(ell // row[i] * x % ell for i, row in enumerate(rows) for x in row):
                self.bases, self.lattice = bases, rows
                self.axes = [(i, ell // row[i]) for i, row in enumerate(rows) if row[i] < ell]
        self.dims = [d for _, d in self.axes]

    def offsets(self, support, k: int, steps) -> dict:
        """v -> sum c_i steps[i], c_i the reduction quotients of v - b_k mod d_i."""
        ell, base = self.ell, self.bases and self.bases[k]
        if base is None or not self.axes:  # the whole torus (v in range), or no axis at all
            return {v: sum(map(operator.mul, v, steps)) for v in support}
        return {v: sum([q[i] % d * s for (i, d), s in zip(self.axes, steps)]) for v in support
                for q in [_reduce([(a - b) % ell for a, b in zip(v, base)], self.lattice, 0)]}

    def steps(self, unit: int, padded: bool) -> list:
        """Axis steps in a row-major array of unit cells, d_i (padded: 2 d_i - 1) on axis i."""
        return [unit * prod(2 * d - 1 if padded else d for d in self.dims[i + 1:])
                for i in range(len(self.dims))]

    def points(self) -> list:
        """b_0 + b_1 + sum c_i r_i mod ell for every c in product(range(d_i))."""
        if self.bases is None:
            return list(itertools.product(range(self.ell), repeat=self.n))
        columns = [[(b0 + b1 + v) % self.ell for v in _sweep(col, self.ell, self.dims)]
                   for b0, b1, *col in zip(*self.bases, *(self.lattice[i] for i, _ in self.axes))]
        return list(zip(*columns))  # n > 0 here: at n = 0 one point fills the torus


def _evaluates(f1: int, f2: int, dims) -> bool:
    """Whether the evaluated product needs fewer big-integer products than
    the pairwise loop on f1 x f2 fibers: one per point, prod(2 d_i - 1)."""
    return f1 * f2 > prod(2 * d - 1 for d in dims)


@functools.lru_cache(maxsize=WEIGHTS_MEMO_SIZE)
def _h_axis_weights(d: int) -> tuple:
    """(E, W, D) on an h-axis of order d: E evaluates a polynomial of degree
    < d at x_i = 0, 1, -1, ..., d - 1, 1 - d; W / D interpolates one of degree
    < 2 d - 1 from those values, folding y^(k + d) onto y^k, by the Lagrange
    polynomials prod_(j != i) (y - x_j) / (x_i - x_j), D their denominators' lcm."""
    points = [0] + [s * x for x in range(1, d) for s in (1, -1)]
    master = functools.reduce(_poly_mul, ([-x, 1] for x in points))
    basis = [_poly_divmod(master, [-x, 1])[0] for x in points]
    scale = [prod(x - y for y in points if y != x) for x in points]
    den = lcm(*scale)
    folded = [[sum(q[k::d]) * (den // w) for q, w in zip(basis, scale)] for k in range(d)]
    return [[x**k for k in range(d)] for x in points], folded, den


def _along_axes(cells: list, weights) -> list:
    """The matrices weights[i] applied along axis i of the row-major array
    cells; each pass moves the axis it transforms last."""
    for weight in weights:
        rest = len(cells) // len(weight[0])
        cells = [sum(map(operator.mul, row, column))
                 for column in (cells[q::rest] for q in range(rest)) for row in weight]
    return cells


def _evaluated_product(fibers: list, axes: _Axes) -> dict:
    """h -> the sum of p1 p2 over the fibers h1 + h2 == h (mod ell), for
    every h of the product's coset of S (see the module docstring)."""
    weights, steps = [_h_axis_weights(d) for d in axes.dims], axes.steps(1, False)
    values = []
    for k, factor in enumerate(fibers):
        cells = [0] * prod(axes.dims)
        for h, i in axes.offsets(factor, k, steps).items():
            cells[i] += factor[h]
        values.append(_along_axes(cells, [w[0] for w in weights]))
    cells = _along_axes(list(map(operator.mul, *values)), [w[1] for w in weights])
    d = prod(w[2] for w in weights)
    return {h: c // d for h, c in zip(axes.points(), cells)}


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
