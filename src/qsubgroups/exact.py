"""Exact arithmetic substrate.

Everything downstream is built on three ingredients:

* arbitrary-precision rationals (``fractions.Fraction``, re-exported as
  ``Rational``),
* the cyclotomic field Q(eps) for a primitive ell-th root of unity eps,
  with ell odd, as remainders mod the ell-th cyclotomic polynomial,
* integer matrices with one elimination over Z, the fraction-free
  Gauss-Jordan _det_adj behind every determinant, adjugate and rational
  inverse, and one normal form, the Hermite form of a lattice rowspan(M)
  + ell Z^n computed mod ell, with one reduction _reduce against its rows,
  which drive all linear algebra over Z/ellZ: subgroups, membership,
  kernels and solutions of congruence systems.  ell may be composite, so
  ranks are never trusted; pivots dividing ell are.

All values are immutable after construction and all functions are pure,
so everything here can be shared freely between workers.  Input is
checked once, at the boundary: IntMatrix(rows) types every entry, and
matrices derived from checked ones come from the trusting IntMatrix._of.
"""

from __future__ import annotations

import functools
import operator
from fractions import Fraction
from itertools import chain
from math import gcd, lcm

from ._record import record

Rational = Fraction

SOLVER_MEMO_SIZE = 1024  # factored systems [A^T | I] mod m
FIELD_MEMO_SIZE = 32  # cyclotomic polynomials, one per level

__all__ = [
    "Rational",
    "euler_phi",
    "cyclotomic_polynomial",
    "CyclotomicNumber",
    "reduce_power_basis",
    "root_of_unity_power",
    "IntMatrix",
    "hermite_normal_form",
    "kernel_lattice",
    "kernel_mod",
    "solve_linear_mod",
    "invert_rational_matrix",
]


# ---------------------------------------------------------------------------
# integer polynomials (ascending coefficient lists); _poly_divmod takes monic
# divisors only, so every quotient is integral, and pads the remainder to deg den

def _poly_mul(p, q):
    """p q, skipping the zero terms of both factors."""
    out = [0] * (len(p) + len(q) - 1)
    terms = [(j, b) for j, b in enumerate(q) if b]
    for i, a in enumerate(p):
        if a:
            for j, b in terms:
                out[i + j] += a * b
    return out


def _poly_divmod(num, den):
    """(quotient, remainder) of num by a monic den: pop the top coefficient
    c of num and fold -c times den's lower terms into the entries below."""
    num = list(num)
    d = len(den) - 1
    quot = []
    while len(num) > d:
        c = num.pop()
        quot.append(c)
        if c:
            for j, b in enumerate(den[:d], len(num) - d):
                if b:
                    num[j] -= c * b
    return quot[::-1], num + [0] * (d - len(num))


def euler_phi(n: int) -> int:
    """Euler's totient."""
    if _int_tuple((n,), "totient argument")[0] < 1:
        raise ValueError("totient needs n >= 1")
    result, p = n, 2
    while p * p <= n:  # n keeps the prime factors not yet seen
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1
    return result - result // n if n > 1 else result


@functools.lru_cache(maxsize=FIELD_MEMO_SIZE, typed=True)
def cyclotomic_polynomial(ell: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the ell-th cyclotomic polynomial.

    Computed by dividing q^ell - 1 by the cyclotomic polynomials of the
    proper divisors of ell.  The result is monic of degree phi(ell).
    """
    if _int_tuple((ell,), "cyclotomic level")[0] < 1:
        raise ValueError("cyclotomic level must be >= 1")
    num = (-1,) + (0,) * (ell - 1) + (1,)  # q^ell - 1
    den = (1,)
    for d in range(1, ell):
        if ell % d == 0:
            den = _poly_mul(den, cyclotomic_polynomial(d))
    result, rem = _poly_divmod(num, den)  # den is monic: integral quotient
    assert not any(rem) and len(result) - 1 == euler_phi(ell)
    return tuple(result)


# ---------------------------------------------------------------------------
# the cyclotomic field Q(eps)

def reduce_power_basis(ell: int, coeffs) -> list:
    """Coefficients of sum_k coeffs[k] eps^k in the power basis 1, eps, ...,
    eps^(phi(ell)-1), for any number of int or Fraction coefficients: the
    remainder mod the ell-th cyclotomic polynomial (Cohen, GTM 138, sections
    3.1 and 4.2), taken in integers once the denominators are cleared to
    one common c.  Integer input gives integer output."""
    c = lcm(*(x.denominator for x in coeffs))
    rem = _poly_divmod([x.numerator * (c // x.denominator) for x in coeffs],
                       cyclotomic_polynomial(ell))[1]
    return rem if c == 1 else [Fraction(x, c) for x in rem]


def _validate_level(ell: int) -> None:
    if type(ell) is not int or ell < 3 or ell % 2 == 0:
        _int_tuple((ell,), "cyclotomic level")  # TypeError first
        raise ValueError(f"cyclotomic level must be odd and >= 3, got {ell}")


@record
class CyclotomicNumber:
    """An element of Q(eps), eps a primitive ell-th root of unity.

    Stored as a coefficient vector of length phi(ell) in the power basis
    1, eps, ..., eps^(phi(ell)-1).  Field operations are exact; inverses
    exist for every nonzero element.
    """

    level: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):  # bool, float and str raise, as in LatticeElement.make
        _validate_level(self.level)
        phi = euler_phi(self.level)
        coeffs = _rational_tuple(self.coeffs, "coefficients")
        if len(coeffs) != phi:
            raise ValueError(f"need {phi} coefficients for level {self.level}")
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def zero(cls, level: int) -> "CyclotomicNumber":
        return cls(level, (Fraction(0),) * euler_phi(level))  # one shared zero

    @classmethod
    def one(cls, level: int) -> "CyclotomicNumber":
        return cls.from_rational(level, 1)

    @classmethod
    def from_rational(cls, level: int, value) -> "CyclotomicNumber":
        return cls(level, [value] + [0] * (euler_phi(level) - 1))

    @classmethod
    def from_polynomial(cls, level: int, coeffs) -> "CyclotomicNumber":
        """Reduce an arbitrary polynomial in eps into canonical form."""
        _validate_level(level)
        return cls(level, reduce_power_basis(level, _rational_tuple(coeffs, "coefficients")))

    def _check_partner(self, other):
        if not isinstance(other, CyclotomicNumber):
            raise TypeError("expected a CyclotomicNumber")
        if other.level != self.level:
            raise ValueError("mixed cyclotomic levels")

    def __add__(self, other):
        self._check_partner(other)
        return CyclotomicNumber(
            self.level, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __sub__(self, other):
        self._check_partner(other)
        return CyclotomicNumber(
            self.level, [a - b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __neg__(self):
        return CyclotomicNumber(self.level, [-a for a in self.coeffs])

    def __mul__(self, other):
        if not isinstance(other, CyclotomicNumber):
            (c,) = _rational_tuple((other,), "scalars")
            return CyclotomicNumber(self.level, [a * c for a in self.coeffs])
        self._check_partner(other)  # both over one denominator c: integer products
        c = lcm(*(x.denominator for x in self.coeffs + other.coeffs))
        p, q = ([x.numerator * (c // x.denominator) for x in v]
                for v in (self.coeffs, other.coeffs))
        rem = reduce_power_basis(self.level, _poly_mul(p, q))
        return CyclotomicNumber(self.level, [Fraction(x, c * c) for x in rem])

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        """Multiplicative inverse: the solution x of M x = 1 for the
        matrix M of multiplication by self, whose column k is self eps^k,
        so the first column of M^(-1) (Cohen, GTM 138, section 4.2)."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(eps)")
        cols = [reduce_power_basis(self.level, (0,) * k + self.coeffs)
                for k in range(len(self.coeffs))]
        inv = invert_rational_matrix(zip(*cols))
        return CyclotomicNumber(self.level, [row[0] for row in inv])

    def __truediv__(self, other):
        if not isinstance(other, CyclotomicNumber):
            (c,) = _rational_tuple((other,), "divisors")
            return self * (1 / c)
        return self * other.inverse()  # the product checks the levels

    def __pow__(self, n: int):
        (n,) = _int_tuple((n,), "exponents")
        if n < 0:
            return self.inverse() ** (-n)
        result = CyclotomicNumber.one(self.level)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __eq__(self, other):  # a bool or float compares unequal, never as 1 or 0.5
        if type(other) is int or isinstance(other, Fraction):
            other = CyclotomicNumber.from_rational(self.level, other)
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        return self.level == other.level and self.coeffs == other.coeffs


def root_of_unity_power(ell: int, k: int) -> CyclotomicNumber:
    """eps^(k mod ell) as a canonical element of Q(eps)."""
    _validate_level(ell)
    k = _int_tuple((k,), "exponent")[0] % ell
    return CyclotomicNumber.from_polynomial(ell, [0] * k + [1])


# ---------------------------------------------------------------------------
# integer matrices

_INT_ONLY = frozenset({int})


def _refuse_non_int(values, what: str):
    bad = next(x for x in values if type(x) is not int)
    raise TypeError(f"{what} must be int, got {type(bad).__name__} {bad!r}")


def _int_tuple(values, what: str) -> tuple[int, ...]:
    """values as a tuple, every item of type int: bool, float, Fraction
    and str raise TypeError instead of being coerced.  One C-level type
    test, the one IntMatrix makes of its entries."""
    values = tuple(values)
    if not _INT_ONLY.issuperset(map(type, values)):
        _refuse_non_int(values, what)
    return values


def _rational_tuple(values, what: str) -> tuple[Fraction, ...]:
    """values as a tuple of Fractions, an int made one and a Fraction kept:
    bool, float and str raise TypeError instead of being coerced."""
    values = tuple(values)
    for x in values:
        if type(x) is not int and not isinstance(x, Fraction):
            raise TypeError(f"{what} must be int or Fraction, got {type(x).__name__} {x!r}")
    return tuple(x if type(x) is Fraction else Fraction(x) for x in values)


class IntMatrix:
    """Immutable dense integer matrix (row-major tuples).

    Entries must be of type int: bool, float, Fraction and str are
    refused with TypeError rather than coerced, so 0.5 never becomes 0
    and true never becomes 1.  Callers holding integral rationals convert
    them explicitly.  IntMatrix(rows) checks; the private IntMatrix._of
    trusts rows the library built (tuples of int, ncols long) and every
    method that derives a matrix from checked ones goes through it.
    """

    __slots__ = ("data", "nrows", "ncols")

    def __init__(self, rows, ncols: int | None = None):
        data = tuple(map(tuple, rows))
        if not _INT_ONLY.issuperset(map(type, chain.from_iterable(data))):
            _refuse_non_int(chain.from_iterable(data), "matrix entries")
        if data:
            width = len(data[0])
            if any(len(row) != width for row in data):
                raise ValueError("ragged matrix rows")
        else:
            width = 0 if ncols is None else ncols
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "nrows", len(data))
        object.__setattr__(self, "ncols", width)

    @classmethod
    def _of(cls, data: tuple, ncols: int) -> "IntMatrix":
        """Unchecked: data must be a tuple of int tuples, each ncols long."""
        self = object.__new__(cls)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "nrows", len(data))
        object.__setattr__(self, "ncols", ncols)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    def __reduce__(self):  # pickle and copy rebuild through the checking constructor
        return IntMatrix, (self.data, self.ncols)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        _int_tuple((n,), "matrix size")
        return cls._of(tuple((0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n)), n)

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "IntMatrix":
        _int_tuple((nrows, ncols), "matrix shape")
        return cls._of(((0,) * ncols,) * nrows, ncols)

    def __getitem__(self, key):
        i, j = key
        return self.data[i][j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.data[i]

    def transpose(self) -> "IntMatrix":
        return IntMatrix._of(tuple(zip(*self.data)) or ((),) * self.ncols, self.nrows)

    def __add__(self, other):
        return self._entrywise(operator.add, other)

    def __sub__(self, other):
        return self._entrywise(operator.sub, other)

    def _entrywise(self, op, other) -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            raise TypeError("expected an IntMatrix")
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("matrix shape mismatch")
        rows = zip(self.data, other.data)
        return IntMatrix._of(tuple(tuple(map(op, r1, r2)) for r1, r2 in rows), self.ncols)

    def __neg__(self):
        return IntMatrix._of(tuple(tuple(-a for a in row) for row in self.data), self.ncols)

    def scaled(self, c: int) -> "IntMatrix":
        _int_tuple((c,), "scalars")
        return IntMatrix._of(tuple(tuple(c * a for a in row) for row in self.data), self.ncols)

    def __matmul__(self, other):
        if not isinstance(other, IntMatrix):
            raise TypeError("expected an IntMatrix")
        if self.ncols != other.nrows:
            raise ValueError("matrix shape mismatch in product")
        cols = other.transpose().data
        return IntMatrix._of(tuple(tuple(sum(map(operator.mul, row, col)) for col in cols)
                                   for row in self.data), other.ncols)

    def __mul__(self, other):  # a bool is refused by __matmul__, not taken as 1 or 0
        if type(other) is int:
            return self.scaled(other)
        return self.__matmul__(other)

    def apply(self, vec) -> tuple[int, ...]:
        """Matrix times column vector, whose entries must be int."""
        vec = _int_tuple(vec, "vector entries")
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        return tuple(sum(a * b for a, b in zip(row, vec)) for row in self.data)

    def det(self) -> int:
        """Determinant, by the fraction-free elimination _det_adj."""
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        return _det_adj(self.data)[0]

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.data]

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.data == other.data and self.ncols == other.ncols

    def __hash__(self):
        return hash((self.data, self.ncols))

    def __repr__(self):
        return f"IntMatrix({self.to_lists()!r})"


# ---------------------------------------------------------------------------
# the Hermite normal form mod ell

def _reduce(v: list, rows, first: int) -> list:
    """Reduces v in place against Hermite rows with pivots in columns first,
    first + 1, ..., each entry at a pivot into [0, pivot); returns the quotients."""
    quotients = []
    for j, row in enumerate(rows, first):
        quotients.append(q := v[j] // row[j])
        if q:
            for k in range(j, len(v)):
                v[k] -= q * row[k]
    return quotients


def hermite_normal_form(M: IntMatrix, ell: int) -> IntMatrix:
    """Row-style Hermite normal form of the lattice rowspan(M) + ell Z^n.

    The unique basis of that full-rank lattice that is upper triangular
    with positive pivots, each dividing ell, and every entry above a pivot
    reduced into [0, pivot).  Computed with every entry reduced mod ell
    (Domich, Kannan & Trotter 1987): column j starts from the implicit
    pivot row ell e_j, stored as zero, and each row whose entry b there the
    pivot a does not divide takes one unimodular extended-gcd step against
    it, which leaves g = gcd(a, b) in the pivot and a partner row cleared
    in column j; the Bezout coefficient t of b is an inverse mod a / g.
    The first step meets ell e_j, so it is scalar: the pivot becomes t row
    and the partner (ell / g) row, which is zero when g = 1 and otherwise
    keeps composite ell exact.  A row whose entry a divides loses a
    multiple of the pivot row.  Both rows are zero left of column j, so
    only columns j onward change.  Back-reduction skips the rows that
    stayed ell e_k, which change only entry k: each other row is taken
    mod ell once instead.
    """
    _int_tuple((ell,), "modulus")
    if ell < 1:
        raise ValueError("modulus must be >= 1")
    n = M.ncols
    rows = [row for r in M.data if any(row := [x % ell for x in r])]
    basis = []
    for j in range(n):
        a, pivot, rest = ell, [0] * n, []  # a is the pivot, stored in the row mod ell
        for row in rows:
            if (b := row[j]) and b % a:  # [[s, t], [b/g, -a/g]], s a + t b = g, has det -1
                g = gcd(a, b)
                t, v = pow(b // g, -1, a // g), a // g
                if a == ell:  # the pivot row is ell e_j, stored as zero
                    pivot = row if t == 1 else [t * y % ell for y in row]
                    row = [v * y % ell for y in row] if g > 1 else ()  # zero when g = 1
                else:
                    s, u = (g - t * b) // a, b // g
                    p, r = pivot[j:], row[j:]
                    pivot[j:] = [(s * x + t * y) % ell for x, y in zip(p, r)]
                    row[j:] = [(u * x - v * y) % ell for x, y in zip(p, r)]
                a = g
            elif b:  # a divides b: row - (b/a) pivot clears row[j]
                q = b // a
                row[j:] = [(y - q * x) % ell for x, y in zip(pivot[j:], row[j:])]
            if not b or any(row):  # a row with a zero entry passes on as it is
                rest.append(row)
        pivot[j] = a
        basis.append(pivot)
        rows = rest
    live = [(k, row) for k, row in enumerate(basis) if row[k] != ell]
    for i, (_, v) in enumerate(live):  # its entries off the ell e_k columns end in [0, ell)
        for k, row in live[i + 1:]:
            if q := v[k] // row[k]:
                v[k:] = [x - q * y for x, y in zip(v[k:], row[k:])]
        v[:] = [x % ell for x in v]
    return IntMatrix._of(tuple(map(tuple, basis)), n)


@functools.lru_cache(maxsize=SOLVER_MEMO_SIZE, typed=True)
def _factored(M: IntMatrix, mod: int) -> tuple[tuple, IntMatrix]:
    """(the p top rows, the kernel lattice) of the Hermite form of [M^T | I_k]
    mod m for the p x k matrix M: the one factorization behind
    kernel_lattice, kernel_mod and solve_linear_mod, made once per (M, m).
    typed=True keeps a float or bool m out of an int m's entry."""
    p, k = M.nrows, M.ncols
    system = tuple(map(operator.add, M.transpose().data, IntMatrix.identity(k).data))
    h = hermite_normal_form(IntMatrix._of(system, p + k), mod).data
    return h[:p], IntMatrix._of(tuple(row[p:] for row in h[p:]), k)


def kernel_lattice(M: IntMatrix, ell: int) -> IntMatrix:
    """Hermite normal form of the lattice {z in Z^n : M z == 0 (mod ell)}.

    Every vector (l, z) of rowspan[M^T | I_n] + ell Z^(p+n) has
    l == M z (mod ell), so the rows of its Hermite form whose left block
    vanishes are a basis of the kernel lattice, already in Hermite form.
    """
    return _factored(M, ell)[1]


def kernel_mod(M: IntMatrix, ell: int) -> list[tuple[tuple[int, ...], int]]:
    """Generators, each with its exact order, of the subgroup
    {z in (Z/ell)^n : M z == 0 mod ell}: the rows of kernel_lattice that
    stay nonzero mod ell.  Correct for composite ell."""
    return [(gen, ell // gcd(ell, *gen)) for row in kernel_lattice(M, ell).data
            if any(gen := tuple(x % ell for x in row))]


def solve_linear_mod(A: IntMatrix, b, mod: int) -> tuple[int, ...] | None:
    """One solution y of A y == b (mod m), or None.

    The top rows (l, y) of the Hermite form of [A^T | I_k] mod m have
    their pivots in the left block and l == A y (mod m); (b, 0) is reduced
    against them, and the system is solvable exactly when that clears b.
    b's entries must be int: bool, float, Fraction and str raise TypeError.
    """
    p = A.nrows
    b = _int_tuple(b, "right-hand side entries")
    if len(b) != p:
        raise ValueError("right-hand side length mismatch")
    _reduce(v := list(b) + [0] * A.ncols, _factored(A, mod)[0], 0)
    if any(v[:p]):
        return None
    return tuple(-x % mod for x in v[p:])


def _det_adj(rows) -> tuple[int, list[list[int]] | None]:
    """(det M, adj M) of a square integer matrix M; adj M is None if M is
    singular.  One fraction-free Gauss-Jordan elimination of [M | I]
    (Bareiss, Math. Comp. 22, 1968), each step dividing exactly by the
    previous pivot, ends at [d I | d (P M)^(-1)] with d = det(P M) for the
    row swaps P; their sign is undone at the end."""
    n = len(rows)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    sign = 1
    prev = 1
    for k in range(n):
        swap = next((i for i in range(k, n) if a[i][k]), None)
        if swap is None:
            return 0, None
        if swap != k:
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot = a[k]
        for i, row in enumerate(a):
            if i != k:
                a[i] = [(pivot[k] * x - row[k] * y) // prev for x, y in zip(row, pivot)]
        prev = pivot[k]
    return sign * prev, [[sign * x for x in row[n:]] for row in a]


def invert_rational_matrix(rows) -> tuple[tuple[Fraction, ...], ...]:
    """Exact inverse of a square matrix A with rational entries: with c
    the lcm of its denominators and M = c A, A^(-1) = c adj(M) / det(M)."""
    if isinstance(rows, IntMatrix):
        rows = rows.data
    a = [[Fraction(x) for x in row] for row in rows]
    if any(len(row) != len(a) for row in a):
        raise ValueError("inverse of a non-square matrix")
    c = lcm(*(x.denominator for row in a for x in row))
    det, adj = _det_adj([[(c * x).numerator for x in row] for row in a])
    if not det:
        raise ZeroDivisionError("singular matrix")
    return tuple(tuple(Fraction(c * x, det) for x in row) for row in adj)
