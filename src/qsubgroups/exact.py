"""Exact arithmetic substrate.

Everything downstream is built on three ingredients:

* arbitrary-precision rationals (``fractions.Fraction``, re-exported as
  ``Rational``),
* the cyclotomic field Q(eps) for a primitive ell-th root of unity eps,
  with ell odd, represented modulo the ell-th cyclotomic polynomial,
* integer matrices with Smith and Hermite normal forms, which drive all
  linear algebra over Z/ellZ.  ell may be composite, so ranks are never
  trusted; elementary divisors are.

All values are immutable after construction and all functions are pure,
so everything here can be shared freely between workers.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

Rational = Fraction

__all__ = [
    "Rational",
    "euler_phi",
    "cyclotomic_polynomial",
    "CyclotomicNumber",
    "root_of_unity_power",
    "IntMatrix",
    "smith_normal_form",
    "hermite_normal_form",
    "kernel_mod",
    "solve_linear_mod",
    "invert_rational_matrix",
]


# ---------------------------------------------------------------------------
# polynomials (ascending coefficient tuples, int or Fraction entries)

def _poly_trim(coeffs):
    end = len(coeffs)
    while end > 0 and coeffs[end - 1] == 0:
        end -= 1
    return tuple(coeffs[:end])


def _poly_sub(p, q):
    out = list(p) + [0] * max(len(q) - len(p), 0)
    for i, b in enumerate(q):
        out[i] -= b
    return _poly_trim(out)


def _poly_mul(p, q):
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return _poly_trim(out)


def _poly_divmod(num, den):
    """(quotient, remainder) of num by a nonzero den.

    A monic den keeps integer coefficients integral; any other leading
    coefficient is inverted as a Fraction.
    """
    num = list(num)
    lead = den[-1]
    inv = 1 if lead == 1 else Fraction(1) / lead
    q = [0] * max(len(num) - len(den) + 1, 0)
    for k in range(len(q) - 1, -1, -1):
        c = num[k + len(den) - 1] * inv
        q[k] = c
        if c:
            for j, b in enumerate(den):
                num[k + j] -= c * b
    return _poly_trim(q), _poly_trim(num)


def euler_phi(n: int) -> int:
    """Euler's totient."""
    if n < 1:
        raise ValueError("totient needs n >= 1")
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


_CYCLOTOMIC_CACHE: dict[int, tuple[int, ...]] = {}


def cyclotomic_polynomial(ell: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the ell-th cyclotomic polynomial.

    Computed by dividing q^ell - 1 by the cyclotomic polynomials of the
    proper divisors of ell.  The result is monic of degree phi(ell).
    """
    if ell < 1:
        raise ValueError("cyclotomic level must be >= 1")
    cached = _CYCLOTOMIC_CACHE.get(ell)
    if cached is not None:
        return cached
    num = (-1,) + (0,) * (ell - 1) + (1,)  # q^ell - 1
    den = (1,)
    for d in range(1, ell):
        if ell % d == 0:
            den = _poly_mul(den, cyclotomic_polynomial(d))
    result, rem = _poly_divmod(num, den)  # den is monic: integral quotient
    assert not rem and len(result) - 1 == euler_phi(ell)
    _CYCLOTOMIC_CACHE[ell] = result
    return result


# ---------------------------------------------------------------------------
# the cyclotomic field Q(eps)

_REDUCTION_CACHE: dict[int, list[tuple[Fraction, ...]]] = {}


def _power_reduction_table(ell: int) -> list[tuple[Fraction, ...]]:
    """Table of q^k reduced modulo the ell-th cyclotomic polynomial.

    Covers every exponent k that can appear while multiplying two reduced
    elements or raising eps to a power below ell.
    """
    table = _REDUCTION_CACHE.get(ell)
    if table is not None:
        return table
    phi = euler_phi(ell)
    top = max(2 * phi - 1, ell)
    minpoly = cyclotomic_polynomial(ell)
    table = []
    for k in range(phi):
        row = [Fraction(0)] * phi
        row[k] = Fraction(1)
        table.append(tuple(row))
    for k in range(phi, top):
        # q^k = q * q^(k-1), then fold the overflow coefficient back in
        # using q^phi = -(lower terms of the minimal polynomial).
        prev = table[k - 1]
        row = [Fraction(0)] + list(prev[:-1])
        carry = prev[-1]
        if carry:
            for j in range(phi):
                row[j] -= carry * minpoly[j]
        table.append(tuple(row))
    _REDUCTION_CACHE[ell] = table
    return table


def _validate_level(ell: int) -> None:
    if ell < 3 or ell % 2 == 0:
        raise ValueError(f"cyclotomic level must be odd and >= 3, got {ell}")


class CyclotomicNumber:
    """An element of Q(eps), eps a primitive ell-th root of unity.

    Stored as a coefficient vector of length phi(ell) in the power basis
    1, eps, ..., eps^(phi(ell)-1).  Field operations are exact; inverses
    exist for every nonzero element.
    """

    __slots__ = ("level", "coeffs")

    def __init__(self, level: int, coeffs):
        _validate_level(level)
        phi = euler_phi(level)
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != phi:
            raise ValueError(f"need {phi} coefficients for level {level}")
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("CyclotomicNumber is immutable")

    @classmethod
    def zero(cls, level: int) -> "CyclotomicNumber":
        return cls(level, [0] * euler_phi(level))

    @classmethod
    def one(cls, level: int) -> "CyclotomicNumber":
        return cls.from_rational(level, 1)

    @classmethod
    def from_rational(cls, level: int, value) -> "CyclotomicNumber":
        coeffs = [Fraction(0)] * euler_phi(level)
        coeffs[0] = Fraction(value)
        return cls(level, coeffs)

    @classmethod
    def from_polynomial(cls, level: int, coeffs) -> "CyclotomicNumber":
        """Reduce an arbitrary polynomial in eps into canonical form."""
        _validate_level(level)
        phi = euler_phi(level)
        table = _power_reduction_table(level)
        out = [Fraction(0)] * phi
        for k, c in enumerate(coeffs):
            if not c:
                continue
            c = Fraction(c)
            if k >= len(table):
                raise ValueError("exponent outside the reduction table")
            row = table[k]
            for j in range(phi):
                if row[j]:
                    out[j] += c * row[j]
        return cls(level, out)

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
        if isinstance(other, (int, Fraction)):
            return CyclotomicNumber(self.level, [a * other for a in self.coeffs])
        self._check_partner(other)
        phi = len(self.coeffs)
        prod = [Fraction(0)] * (2 * phi - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        prod[i + j] += a * b
        return CyclotomicNumber.from_polynomial(self.level, prod)

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        """Multiplicative inverse, via the extended Euclidean algorithm
        against the minimal polynomial of eps."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(eps)")
        minpoly = tuple(Fraction(c) for c in cyclotomic_polynomial(self.level))
        r0, r1 = minpoly, _poly_trim(self.coeffs)
        s0, s1 = (), (Fraction(1),)
        while True:
            q, r = _poly_divmod(r0, r1)
            if not r:
                break
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
            r0, r1 = r1, r
        # r1 is a nonzero constant gcd since the minimal polynomial is
        # irreducible; s1 * self == r1 (mod minpoly).
        if len(r1) != 1:
            raise ArithmeticError("cyclotomic polynomial was not coprime")
        scale = 1 / r1[0]
        return CyclotomicNumber.from_polynomial(
            self.level, [scale * c for c in s1]
        )

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        self._check_partner(other)
        return self * other.inverse()

    def __pow__(self, n: int):
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

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CyclotomicNumber.from_rational(self.level, other)
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        return self.level == other.level and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.level, self.coeffs))

    def __repr__(self):
        return f"CyclotomicNumber({self.level}, {list(self.coeffs)!r})"


def root_of_unity_power(ell: int, k: int) -> CyclotomicNumber:
    """eps^(k mod ell) as a canonical element of Q(eps)."""
    _validate_level(ell)
    k = k % ell
    return CyclotomicNumber.from_polynomial(ell, [0] * k + [1])


# ---------------------------------------------------------------------------
# integer matrices

class IntMatrix:
    """Immutable dense integer matrix (row-major tuples)."""

    __slots__ = ("data", "nrows", "ncols")

    def __init__(self, rows, ncols: int | None = None):
        data = tuple(tuple(int(x) for x in row) for row in rows)
        if data:
            width = len(data[0])
            if any(len(row) != width for row in data):
                raise ValueError("ragged matrix rows")
        else:
            width = 0 if ncols is None else ncols
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "nrows", len(data))
        object.__setattr__(self, "ncols", width)

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[int(i == j) for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "IntMatrix":
        return cls([[0] * ncols for _ in range(nrows)], ncols=ncols)

    def __getitem__(self, key):
        i, j = key
        return self.data[i][j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.data[i]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.data)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            [self.column(j) for j in range(self.ncols)], ncols=self.nrows
        )

    def __add__(self, other):
        self._shape_check(other)
        return IntMatrix(
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.data, other.data)
            ],
            ncols=self.ncols,
        )

    def __sub__(self, other):
        self._shape_check(other)
        return IntMatrix(
            [
                [a - b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.data, other.data)
            ],
            ncols=self.ncols,
        )

    def __neg__(self):
        return IntMatrix([[-a for a in row] for row in self.data], ncols=self.ncols)

    def scaled(self, c: int) -> "IntMatrix":
        return IntMatrix([[c * a for a in row] for row in self.data], ncols=self.ncols)

    def __matmul__(self, other):
        if isinstance(other, IntMatrix):
            if self.ncols != other.nrows:
                raise ValueError("matrix shape mismatch in product")
            cols = [other.column(j) for j in range(other.ncols)]
            return IntMatrix(
                [
                    [sum(a * b for a, b in zip(row, col)) for col in cols]
                    for row in self.data
                ],
                ncols=other.ncols,
            )
        raise TypeError("expected an IntMatrix")

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scaled(other)
        return self.__matmul__(other)

    def apply(self, vec) -> tuple[int, ...]:
        """Matrix times column vector."""
        vec = tuple(vec)
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        return tuple(sum(a * b for a, b in zip(row, vec)) for row in self.data)

    def mod(self, m: int) -> "IntMatrix":
        return IntMatrix([[a % m for a in row] for row in self.data], ncols=self.ncols)

    def det(self) -> int:
        """Determinant by fraction-free (Bareiss) elimination."""
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        n = self.nrows
        if n == 0:
            return 1
        a = [list(row) for row in self.data]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                swap = next((i for i in range(k + 1, n) if a[i][k]), None)
                if swap is None:
                    return 0
                a[k], a[swap] = a[swap], a[k]
                sign = -sign
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]

    def _shape_check(self, other):
        if not isinstance(other, IntMatrix):
            raise TypeError("expected an IntMatrix")
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("matrix shape mismatch")

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
# normal forms

def smith_normal_form(M: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form with transforms: U @ M @ V == S.

    U and V are unimodular; S is diagonal with nonnegative entries
    satisfying the divisibility chain s1 | s2 | ...  Works for any shape,
    including empty matrices.
    """
    m, n = M.nrows, M.ncols
    a = [list(row) for row in M.data]
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def row_addmul(i, j, c):
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]

    def col_addmul(i, j, c):
        for row in a:
            row[i] += c * row[j]
        for row in v:
            row[i] += c * row[j]

    def row_negate(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(m, n):
        # pivot: smallest nonzero magnitude in the trailing submatrix
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = a[i][j]
                if x and (best is None or abs(x) < best):
                    best = abs(x)
                    pivot = (i, j)
        if pivot is None:
            break
        if pivot != (t, t):
            if pivot[0] != t:
                row_swap(t, pivot[0])
            if pivot[1] != t:
                col_swap(t, pivot[1])
        if a[t][t] < 0:
            row_negate(t)

        while True:
            dirty = False
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    row_addmul(i, t, -q)
                    if a[i][t]:
                        row_swap(t, i)  # smaller remainder becomes pivot
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    col_addmul(j, t, -q)
                    if a[t][j]:
                        col_swap(t, j)
                        dirty = True
            if dirty:
                continue
            break

        # make the pivot divide everything that remains
        d = a[t][t]
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % d:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_addmul(t, offender, 1)
            continue  # re-clear with the same t
        if a[t][t] < 0:
            row_negate(t)
        t += 1

    return IntMatrix(u, ncols=m), IntMatrix(a, ncols=n), IntMatrix(v, ncols=n)


def hermite_normal_form(M: IntMatrix) -> IntMatrix:
    """Row-style Hermite normal form, zero rows dropped.

    Unique representative of the row lattice: row echelon with positive
    pivots and the entries above each pivot reduced into [0, pivot).
    """
    m, n = M.nrows, M.ncols
    a = [list(row) for row in M.data]
    r = 0
    for j in range(n):
        while True:
            nz = [i for i in range(r, m) if a[i][j]]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(a[i][j]))
            if i0 != r:
                a[r], a[i0] = a[i0], a[r]
            if a[r][j] < 0:
                a[r] = [-x for x in a[r]]
            done = True
            for i in range(r + 1, m):
                if a[i][j]:
                    q = a[i][j] // a[r][j]
                    a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                    if a[i][j]:
                        done = False
            if done:
                break
        if r < m and a[r][j]:
            for i in range(r):
                q = a[i][j] // a[r][j]
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[r])]
            r += 1
    return IntMatrix(a[:r], ncols=n)


def kernel_mod(M: IntMatrix, ell: int) -> list[tuple[tuple[int, ...], int]]:
    """Generators (with orders) of {z in (Z/ell)^n : M z == 0 mod ell}.

    Found from the Smith normal form of M stacked on top of ell times the
    identity: with U (M ; ell I) V = diag(s_i), every s_i divides ell and
    the kernel is generated by (ell/s_i) times the i-th column of V, an
    element of order s_i.  The kernel order is the product of the s_i.
    Correct for composite ell.
    """
    if ell < 1:
        raise ValueError("modulus must be >= 1")
    n = M.ncols
    stacked = IntMatrix(
        list(M.data) + IntMatrix.identity(n).scaled(ell).to_lists(), ncols=n
    )
    _, s, v = smith_normal_form(stacked)
    gens = []
    for i in range(n):
        si = s[i, i]
        assert si > 0 and ell % si == 0
        if si == 1:
            continue
        step = ell // si
        gen = tuple((step * v[r, i]) % ell for r in range(n))
        gens.append((gen, si))
    return gens


def solve_linear_mod(
    A: IntMatrix, b, mod: int
) -> tuple[tuple[int, ...], list[tuple[tuple[int, ...], int]]] | None:
    """One solution of A y == b (mod m) plus kernel generators, or None.

    Uses the Smith normal form: with U A V = S the system becomes
    s_i w_i == (U b)_i (mod m), solvable coordinate by coordinate.
    """
    if mod < 1:
        raise ValueError("modulus must be >= 1")
    p, k = A.nrows, A.ncols
    b = tuple(int(x) for x in b)
    if len(b) != p:
        raise ValueError("right-hand side length mismatch")
    u, s, v = smith_normal_form(A)
    c = u.apply(b)
    w = [0] * k
    for i in range(p):
        si = s[i, i] if i < min(p, k) else 0
        ci = c[i] % mod
        if si == 0:
            if ci != 0:
                return None
            continue
        g = gcd(si, mod)
        if ci % g:
            return None
        sub = mod // g
        w[i] = (ci // g) * pow(si // g, -1, sub) % sub
    y0 = tuple(x % mod for x in v.apply(w))
    return y0, kernel_mod(A, mod)


def invert_rational_matrix(rows) -> tuple[tuple[Fraction, ...], ...]:
    """Exact inverse of a square matrix with rational entries."""
    if isinstance(rows, IntMatrix):
        rows = rows.data
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("inverse of a non-square matrix")
    aug = [row + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if aug[i][col]), None)
        if pivot is None:
            raise ZeroDivisionError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)
