"""Independent brute-force oracles used by the test suite.

Everything here is deliberately written from scratch against the
definitions (exhaustive enumeration, schoolbook polynomial division,
closure by reflections on explicit matrices) so that it shares no code
path with the library it checks.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction


# ---------------------------------------------------------------------------
# integer polynomial arithmetic (ascending coefficients)

def poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1 or 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def poly_div_exact(num, den):
    """Exact division of integer polynomials; raises if not exact."""
    num = list(num)
    qlen = len(num) - len(den) + 1
    q = [0] * qlen
    for k in range(qlen - 1, -1, -1):
        c = num[k + len(den) - 1]
        assert c % den[-1] == 0
        q[k] = c // den[-1]
        for j, b in enumerate(den):
            num[k + j] -= q[k] * b
    assert not any(num)
    return q


def cyclotomic_by_division(ell):
    """Phi_ell from (q^ell - 1) / product of proper-divisor cyclotomics."""
    num = [-1] + [0] * (ell - 1) + [1]
    den = [1]
    for d in range(1, ell):
        if ell % d == 0:
            den = poly_mul(den, cyclotomic_by_division(d))
    return poly_div_exact(num, den)


# ---------------------------------------------------------------------------
# exhaustive (Z/ell)^n computations

def all_vectors(ell, n):
    return list(itertools.product(range(ell), repeat=n))


def brute_kernel(rows, ell, n):
    """{z : M z == 0 mod ell} by full enumeration."""
    out = set()
    for z in all_vectors(ell, n):
        if all(sum(r * x for r, x in zip(row, z)) % ell == 0 for row in rows):
            out.add(z)
    return out


def span_elements(gens, ell, n):
    """The subgroup generated by gens, as a frozen set of tuples."""
    zero = (0,) * n
    seen = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for el in frontier:
            for g in gens:
                cand = tuple((a + b) % ell for a, b in zip(el, g))
                if cand not in seen:
                    seen.add(cand)
                    nxt.append(cand)
        frontier = nxt
    return frozenset(seen)


def brute_cyclic_leq(ell, n, indices, indices2, spec, spec2):
    """Whether d <= d' by the definition, for data over (Z/ell)^n given as
    (I+, I-) and spec = (gens, m, column, w): N spanned by gens, Gamma =
    Z/m sending its generator to exp(2 pi i column / m) (trivial for
    m = 1) and delta(x) the character taking the generator to
    exp(2 pi i w.x / m).  Tries every tau(gen') = t gen, 0 <= t < m, and
    compares gamma tau with gamma' and delta' with delta tau on every
    element of N."""
    (gens, m, column, w), (gens2, m2, column2, w2) = spec, spec2
    if not all(set(b) <= set(a) for a, b in zip(indices, indices2)):
        return False
    elements = span_elements(gens, ell, n)
    if not elements <= span_elements(gens2, ell, n):
        return False

    def integral(x):
        return x.denominator == 1

    for t in range(m):
        if m2 > 1 and not all(integral(Fraction(t * c, m) - Fraction(c2, m2))
                              for c, c2 in zip(column, column2)):
            continue
        dot = [sum(a * b for a, b in zip(v, x)) for x in elements for v in (w, w2)]
        if all(integral(Fraction(b, m2) - Fraction(t * a, m))
               for a, b in zip(dot[::2], dot[1::2])):
            return True
    return False


def brute_annihilator(elements, ell, n):
    """{z : <z, g> == 0 mod ell for all g in elements} by enumeration."""
    out = set()
    for z in all_vectors(ell, n):
        if all(sum(a * b for a, b in zip(z, g)) % ell == 0 for g in elements):
            out.add(z)
    return out


def brute_subgroups(ell, n):
    """Every subgroup of (Z/ell)^n as a frozenset of element sets."""
    vectors = all_vectors(ell, n)
    found = {span_elements([], ell, n)}
    frontier = [span_elements([], ell, n)]
    while frontier:
        nxt = []
        for sub in frontier:
            for v in vectors:
                if v in sub:
                    continue
                bigger = span_elements(list(sub) + [v], ell, n)
                if bigger not in found:
                    found.add(bigger)
                    nxt.append(bigger)
        frontier = nxt
    return found


# ---------------------------------------------------------------------------
# reflection closure on an explicit Cartan matrix

def positive_roots_by_closure(a_rows):
    """Positive roots of a finite-type matrix, from first principles."""
    n = len(a_rows)
    simples = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    roots = set(simples)
    changed = True
    while changed:
        changed = False
        for beta in list(roots):
            for i in range(n):
                pairing = sum(a_rows[i][j] * beta[j] for j in range(n))
                image = list(beta)
                image[i] -= pairing
                image = tuple(image)
                if all(c >= 0 for c in image) and image not in roots:
                    roots.add(image)
                    changed = True
    return roots


def minimal_symmetrizer(a_rows, bound=8):
    """Smallest positive d with d_i a_ij = d_j a_ji, by brute search."""
    n = len(a_rows)
    for total in range(n, bound * n + 1):
        for d in itertools.product(range(1, bound + 1), repeat=n):
            if sum(d) != total:
                continue
            if all(
                d[i] * a_rows[i][j] == d[j] * a_rows[j][i]
                for i in range(n)
                for j in range(n)
            ):
                return d
    raise AssertionError("no symmetrizer within bound")


def former_symmetrizers(A):
    """The library's former lie.symmetrizers, frozen: it propagated the
    ratios d_j / d_i as Fractions, read entries through A[i, j] and
    divided by gcd(numerators) / lcm(denominators)."""
    from math import gcd, lcm

    from qsubgroups.lie import InvalidCartanMatrix

    n = A.nrows
    if A.ncols != n:
        raise InvalidCartanMatrix("Cartan matrix must be square")
    for i in range(n):
        if A[i, i] != 2:
            raise InvalidCartanMatrix(f"diagonal entry a[{i}][{i}] != 2")
        for j in range(n):
            if i != j:
                if A[i, j] > 0:
                    raise InvalidCartanMatrix(f"positive off-diagonal at ({i},{j})")
                if (A[i, j] == 0) != (A[j, i] == 0):
                    raise InvalidCartanMatrix(f"zero pattern asymmetric at ({i},{j})")
    d = [0] * n
    for start in range(n):
        if d[start]:
            continue
        ratio = {start: Fraction(1)}
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if j == i or A[i, j] == 0 or j in ratio:
                    continue
                ratio[j] = ratio[i] * Fraction(A[i, j], A[j, i])
                stack.append(j)
        unit = Fraction(gcd(*(r.numerator for r in ratio.values())),
                        lcm(*(r.denominator for r in ratio.values())))
        for j, r in ratio.items():
            d[j] = int(r / unit)
    if any(d[i] * A[i, j] != d[j] * A[j, i] for i in range(n) for j in range(n)):
        raise InvalidCartanMatrix("matrix is not symmetrizable")
    return tuple(d)


# ---------------------------------------------------------------------------
# exact rational matrices

def frac_matmul(a, b):
    rows, mid, cols = len(a), len(b), len(b[0])
    return [
        [
            sum((Fraction(a[i][k]) * Fraction(b[k][j]) for k in range(mid)),
                Fraction(0))
            for j in range(cols)
        ]
        for i in range(rows)
    ]


def frac_inverse(rows):
    n = len(rows)
    aug = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(rows)
    ]
    for col in range(n):
        pivot = next(i for i in range(col, n) if aug[i][col])
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]


def rref_mod_p(rows, p, n):
    """Reduced row echelon form over the field Z/p (p prime),
    zero rows dropped."""
    a = [[x % p for x in row] for row in rows]
    r = 0
    for j in range(n):
        pivot = next((i for i in range(r, len(a)) if a[i][j]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = pow(a[r][j], -1, p)
        a[r] = [(x * inv) % p for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][j]:
                f = a[i][j]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        r += 1
    return [row for row in a[:r]]


# ---------------------------------------------------------------------------
# frozen reference: the library's former whole-torus subgroup walk

def hermite_walk_subgroups(ambient):
    """Every subgroup of a TorusSubgroup, by the walk the library used
    before it enumerated the ambient's own sublattices: build every
    Hermite-form lattice of the whole torus (Z/ell)^n, keep those that
    contain ell Z^n and lie inside the ambient, sort by (order, lattice).
    Kept verbatim (minus the cap) as a frozen reference; unlike the
    oracles above it uses the library's TorusSubgroup for its candidates.
    """
    from qsubgroups.exact import IntMatrix
    from qsubgroups.torus import TorusSubgroup

    ell, n = ambient.ell, ambient.n
    divisors = [d for d in range(1, ell + 1) if ell % d == 0]
    found = []
    above = [(i, j) for j in range(n) for i in range(j)]
    for diag in itertools.product(divisors, repeat=n):
        ranges = [range(diag[j]) for _, j in above]
        for combo in itertools.product(*ranges):
            rows = [[0] * n for _ in range(n)]
            for k in range(n):
                rows[k][k] = diag[k]
            for (i, j), value in zip(above, combo):
                rows[i][j] = value
            candidate = TorusSubgroup(ell, n, IntMatrix(rows))
            # the lattice must reach ell Z^n and stay inside the ambient
            if not all(
                candidate.contains(tuple(ell * int(r == k) for r in range(n)))
                for k in range(n)
            ):
                continue
            if not candidate.is_subgroup_of(ambient):
                continue
            found.append(candidate)
    return sorted(found, key=lambda s: (s.order, s.lattice.data))


# ---------------------------------------------------------------------------
# frozen reference: the library's former sublattice walk, which built every
# candidate row and kept it iff the lattice still contained ell e_i


def former_sublattices(amb, ell: int, i: int, lower: list):
    """The Hermite lattices of enumerate_subgroups' walk whose rows i+1 ..
    n-1 are lower, as tuples of rows; module level, like twist._descend,
    so no walk leaves a cycle."""
    from qsubgroups.exact import _reduce

    if i < 0:
        yield tuple(lower)
        return
    a, n = amb[i][i], len(amb)
    reps = [range(row[j] // amb[j][j]) for j, row in enumerate(lower, i + 1)]
    for d in (d for d in range(a, ell + 1, a) if ell % d == 0):
        for extra in itertools.product(*reps):
            coef = (d // a,) + extra  # of A_i, A_{i+1}, ..., A_{n-1}
            v = [sum(c * r[k] for c, r in zip(coef, amb[i:])) for k in range(n)]
            row = v
            _reduce(row, lower, i + 1)  # in place; it returns the quotients
            w = [ell // d * x for x in row]
            w[i] = 0  # (ell/d) row - ell e_i
            _reduce(w, lower, i + 1)
            if not any(w):
                yield from former_sublattices(amb, ell, i - 1, [tuple(row)] + lower)


def former_enumerate_subgroups(ambient):
    """enumerate_subgroups as it was over former_sublattices (without the
    cap): every lattice wrapped unchecked, sorted by (order, lattice)."""
    from qsubgroups.exact import IntMatrix
    from qsubgroups.torus import TorusSubgroup

    ell, n = ambient.ell, ambient.n
    found = [TorusSubgroup(ell, n, IntMatrix._of(lattice, n))
             for lattice in former_sublattices(ambient.lattice.data, ell, n - 1, [])]
    return sorted(found, key=lambda s: (s.order, s.lattice.data))


# ---------------------------------------------------------------------------
# frozen reference: the library's former pairwise group-algebra product

def pairwise_convolve(a, b):
    """The product of two TorusPairElements as (vectors, scale), by the
    loop the library used before it packed whole h-fibers: one update per
    pair of support points.  Kept as a frozen reference without the
    64-bit limb packing and its bound; each pair's eps-vectors are
    multiplied schoolbook, cyclically (eps^ell = 1).
    """
    assert (a.ell, a.n) == (b.ell, b.n)
    ell = a.ell
    acc = {}
    for (g1, h1), vec1 in a.vectors.items():
        if not any(vec1):
            continue
        for (g2, h2), vec2 in b.vectors.items():
            if not any(vec2):
                continue
            g = tuple((x + y) % ell for x, y in zip(g1, g2))
            h = tuple((x + y) % ell for x, y in zip(h1, h2))
            out = acc.setdefault((g, h), [0] * ell)
            for i, x in enumerate(vec1):
                for j, y in enumerate(vec2):
                    out[(i + j) % ell] += x * y
    vectors = {key: tuple(vec) for key, vec in acc.items() if any(vec)}
    return vectors, a.scale * b.scale


def former_packed_fibers(element, width):
    """The library's former TorusPairElement._packed_fibers: h -> the fiber
    over h packed into one integer, limbs of width bits, the n g-axes
    (g_1 most significant) and the eps axis each padded to 2 ell - 1
    slots; every cell's vector packed and its slot found on its own."""
    slots = 2 * element.ell - 1
    fibers = {}
    for (g, h), vec in element.vectors.items():
        x = 0
        for c in reversed(vec):
            x = x << width | c
        slot = 0
        for a in g:
            slot = slot * slots + a
        fibers[h] = fibers.get(h, 0) | x << slot * slots * width
    return fibers


def former_unpacked(element, packed, width):
    """The library's former TorusPairElement._unpacked: (g, vec) for every
    nonzero cell of one packed product, g lexicographic, each axis folded
    mod ell by splitting one level of slots at a time."""
    ell = element.ell
    slots = 2 * ell - 1

    def folded_parts(x, step):  # step: bits per slot of the top axis of x
        x = (x & ((1 << ell * step) - 1)) + (x >> ell * step)
        mask = (1 << step) - 1
        return [(x >> k * step) & mask for k in range(ell)]

    step = slots**element.n * width
    cells = {(): packed}
    for _ in range(element.n):
        cells = {
            g + (k,): part
            for g, x in cells.items()
            for k, part in enumerate(folded_parts(x, step))
            if part
        }
        step //= slots
    return [(g, tuple(folded_parts(x, step))) for g, x in cells.items() if x]


# ---------------------------------------------------------------------------
# frozen reference: the library's former group-algebra twist and table

def former_twist_bilinear(tw, ell):
    """B = Y^T D A mod ell as rows, entry by entry, as twist_J built it."""
    n = tw.rank
    d = tw.cd.d
    return [
        [sum(tw.Y[j, s] * d[j] * tw.cd.A[j, t] for j in range(n)) % ell
         for t in range(n)]
        for s in range(n)
    ]


def fiber_scan_group_algebra(tw, ell):
    """(vectors of J, vectors of J^-1, scale) by the transform the library
    used before the coset closed form: the fibers of z1 -> +/- B^T z1 in
    order of their first z1, and for every g a histogram of -z1.g over
    the fiber, one dot product per point of the fiber.
    """
    n = tw.rank
    bilinear = former_twist_bilinear(tw, ell)
    size = ell**n
    vectors = list(itertools.product(range(ell), repeat=n))

    def transform(sign):
        fibers = {}
        for z1 in vectors:
            image = tuple(
                sign * sum(bilinear[i][j] * z1[i] for i in range(n)) % ell
                for j in range(n)
            )
            fibers.setdefault(image, []).append(z1)
        table = {}
        for h, fiber in fibers.items():
            for g in vectors:
                vec = [0] * ell
                for z1 in fiber:
                    expo = (-sum(a * b for a, b in zip(z1, g))) % ell
                    vec[expo] += 1
                table[(g, h)] = tuple(vec)
        return table

    return transform(1), transform(-1), Fraction(1, size)


def pairwise_table_lines(bilinear, ell, n):
    """The exponent table of z1^T B z2 mod ell as text lines, as the
    library wrote it before its row sweep: one dot product per entry."""
    vectors = list(itertools.product(range(ell), repeat=n))
    columns = [tuple(row[j] for row in bilinear) for j in range(n)]
    lines = []
    for z1 in vectors:
        u = [sum(a * b for a, b in zip(z1, col)) for col in columns]  # z1^T B
        lines.append(" ".join(
            str(sum(a * b for a, b in zip(u, z2)) % ell) for z2 in vectors
        ))
    return lines


# ---------------------------------------------------------------------------
# frozen reference: the library's former Fraction twist validation and search

def frac_det(rows):
    """Determinant by Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if a[i][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        for i in range(col + 1, n):
            f = a[i][col] / a[col][col]
            a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return det


def fraction_build_twist(cd, Y):
    """The library's former build_twist, checking in Fractions against
    A^(-1).  Returns ((Y, X) as int lists or None, violations), each
    violation a (condition, indices, detail) tuple."""
    n = cd.rank
    violations = []

    rows = Y.data if hasattr(Y, "data") else tuple(tuple(r) for r in Y)
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError(f"parameter matrix must be {n}x{n}")
    for i, j in itertools.product(range(n), range(n)):
        value = Fraction(rows[i][j])
        if value.denominator != 1:
            violations.append(
                (
                    "integral_parameters",
                    (i + 1, j + 1),
                    f"y[{i + 1}][{j + 1}] = {value} is not an integer",
                )
            )
    if violations:
        return None, violations

    ymat = [[int(x) for x in row] for row in rows]
    xmat = [[int(x) for x in row] for row in frac_matmul(cd.A.data, ymat)]

    for i in range(n):
        for j in range(i, n):
            lhs = cd.d[i] * xmat[i][j]
            rhs = -cd.d[j] * xmat[j][i]
            if lhs != rhs:
                violations.append(
                    (
                        "dx_antisymmetric",
                        (i + 1, j + 1),
                        f"d_{i + 1} x[{i + 1}][{j + 1}] = {lhs} "
                        f"!= -d_{j + 1} x[{j + 1}][{i + 1}] = {rhs}",
                    )
                )

    # (phi(omega_i), omega_j)/2 = d_j (Y A^(-1))_ji; check every pair
    ainv = frac_inverse(cd.A.data)
    for i in range(n):
        for j in range(n):
            value = sum(
                (Fraction(ymat[j][k]) * ainv[k][i] for k in range(n)), Fraction(0)
            ) * cd.d[j]
            if value.denominator != 1:
                violations.append(
                    (
                        "half_integrality",
                        (i + 1, j + 1),
                        f"(phi(omega_{i + 1}), omega_{j + 1})/2 = {value} "
                        "is not an integer",
                    )
                )

    a2x = [[a + 2 * x for a, x in zip(ra, rx)] for ra, rx in zip(cd.A.data, xmat)]
    if frac_det(a2x) == 0:
        violations.append(("a_plus_2x_invertible", None, "A + 2X is singular"))

    if violations:
        return None, violations
    return (ymat, xmat), []


def fraction_twist_search(cd, bound, limit=None):
    """The library's former enumerate_valid_twists: every candidate in the
    box, Y = A^(-1) X in Fractions, then the frozen build_twist.  Yields
    (Y, X) as int lists."""
    n = cd.rank
    ainv = frac_inverse(cd.A.data)
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
        twist, _ = fraction_build_twist(cd, [[int(v) for v in row] for row in y])
        if twist is None:
            continue
        yield twist
        count += 1
        if limit is not None and count >= limit:
            return


# ---------------------------------------------------------------------------
# frozen reference: the library's former Hermite form mod ell, one
# extended-gcd step for every row with a nonzero entry in the pivot column

def former_hermite_normal_form(rows, n, ell):
    """The Hermite form of rowspan(rows) + ell Z^n as a tuple of n rows,
    computed as hermite_normal_form did before a pivot dividing an entry
    cleared it with one row operation."""
    def xgcd(a, b):
        s0, s1, t0, t1 = 1, 0, 0, 1
        while b:
            q, r = divmod(a, b)
            a, b = b, r
            s0, s1 = s1, s0 - q * s1
            t0, t1 = t1, t0 - q * t1
        return a, s0, t0

    rows = [[x % ell for x in row] for row in rows]
    basis = []
    for j in range(n):
        a, pivot, rest = ell, [0] * n, []
        for row in rows:
            b = row[j]
            if b:
                g, s, t = xgcd(a, b)
                u, v = b // g, a // g
                pivot, row = ([(s * x + t * y) % ell for x, y in zip(pivot, row)],
                              [(u * x - v * y) % ell for x, y in zip(pivot, row)])
                a = g
            if any(row):
                rest.append(row)
        pivot[j] = a
        basis.append(pivot)
        rows = rest
    for i in range(n - 2, -1, -1):
        for j in range(i + 1, n):
            q = basis[i][j] // basis[j][j]
            basis[i] = [x - q * y for x, y in zip(basis[i], basis[j])]
    return tuple(map(tuple, basis))


# ---------------------------------------------------------------------------
# frozen reference: the library's former linear solver over Z/m

def _former_with_identity(A):
    """[A^T | I_k] for a p x k IntMatrix A: row y is (A e_y, e_y)."""
    from qsubgroups.exact import IntMatrix

    k = A.ncols
    return IntMatrix(
        [col + tuple(int(i == y) for i in range(k))
         for y, col in enumerate(A.transpose().data)],
        ncols=A.nrows + k,
    )


def former_kernel_lattice(M, ell):
    """The library's former kernel_lattice: a fresh Hermite form of
    [M^T | I_n] mod ell on every call, its bottom rows' right block.  The
    form is former_hermite_normal_form's, so a wrong library form cannot
    give the same wrong kernel on both sides."""
    from qsubgroups.exact import IntMatrix

    p, system = M.nrows, _former_with_identity(M)
    h = former_hermite_normal_form(system.data, system.ncols, ell)
    return IntMatrix([row[p:] for row in h[p:]], ncols=M.ncols)


def former_solve_linear_mod(A, b, mod):
    """The library's former solve_linear_mod: (b, 0) reduced against the
    top rows of a fresh Hermite form of [A^T | I_k] mod m, computed by
    former_hermite_normal_form rather than the library."""
    p, k = A.nrows, A.ncols
    b = tuple(int(x) for x in b)
    if len(b) != p:
        raise ValueError("right-hand side length mismatch")
    h = former_hermite_normal_form(_former_with_identity(A).data, p + k, mod)
    v = list(b) + [0] * k
    for i, row in enumerate(h[:p]):
        q, r = divmod(v[i], row[i])
        if r:
            return None
        v = [x - q * y for x, y in zip(v, row)]
    return tuple(-x % mod for x in v[p:])


# ---------------------------------------------------------------------------
# frozen reference: the library's former datum checks, one derivation per
# call (validate_datum, dim_H, dim_A and predicates before analyze_datum)

def former_validate_datum(tw, ell, d):
    """[(condition, detail)] of every violation, as validate_datum found
    them; delta's relations come from former_kernel_lattice."""
    from qsubgroups.datum import TorusEmbedding
    from qsubgroups.exact import IntMatrix
    from qsubgroups.torus import s_phi_matrix

    violations = []
    n = tw.rank
    bad = (d.iplus | d.iminus) - set(range(1, n + 1))
    if bad:
        violations.append(("index_range", f"simple indices out of range: {sorted(bad)}"))
    if (d.N.ell, d.N.n) != (ell, n):
        violations.append(("n_shape", "N lives in the wrong torus"))
    elif not bad:
        rows = s_phi_matrix(tw, ell, d.iplus, d.iminus).data
        for g in d.N.generators:
            values = [(row, sum(a * b for a, b in zip(row, g)) % ell) for row in rows]
            witness = next((f"{row} . {g} = {val} != 0 (mod {ell})"
                            for row, val in values if val), None)
            if witness is not None:
                violations.append(("n_in_kernel", f"generator {g} is not killed by the "
                                   f"required relations: {witness}"))
    if isinstance(d.embedding, TorusEmbedding):
        if d.embedding.n != n:
            violations.append(("gamma_shape", "embedding has the wrong torus rank"))
        elif not d.embedding.is_injective():
            violations.append(("gamma_injective", "gamma has a nontrivial kernel"))
        if d.delta is None:
            violations.append(("delta_missing", "no delta supplied"))
        elif d.delta.source_generators != d.N.generators:
            violations.append(("delta_source",
                               "delta is not given on N's canonical generators"))
        elif d.delta.target != d.embedding.group:
            violations.append(("delta_target", "delta maps into the wrong group"))
        else:
            cols = IntMatrix(d.delta.source_generators).transpose()
            zero = tuple(0 for _ in d.delta.target.invariant_factors)
            if any(d.delta._combine(rel) != zero
                   for rel in former_kernel_lattice(cols, ell).data):
                violations.append(("delta_well_defined",
                                   "delta does not kill the relations among N's generators"))
    return violations


def former_dim_h(tw, ell, iplus, iminus, N):
    """(sigma_order, roots_plus, roots_minus, simple_plus, simple_minus),
    counting supported positive roots against the brute-force closure."""
    from qsubgroups.torus import s_phi_matrix

    iplus, iminus = frozenset(iplus), frozenset(iminus)
    rows = s_phi_matrix(tw, ell, iplus, iminus).data
    if (N.ell, N.n) != (ell, tw.rank):
        raise ValueError("N lives in a different torus")
    if not N.killed_by(rows):
        raise ValueError("N is not inside the character kernel for (I+, I-)")
    sigma_order, rem = divmod(ell**tw.rank, N.order)
    assert rem == 0
    roots = positive_roots_by_closure(tw.cd.A.to_lists())

    def supported(indices):
        return sum(all(i + 1 in indices for i, c in enumerate(r) if c) for r in roots)

    return (sigma_order, supported(iplus), supported(iminus), len(iplus), len(iminus))


def _former_obstruction(tw, ell, iplus, iminus, recipe):
    """The former _obstruction_check, with no reuse of a known side."""
    from qsubgroups.torus import Triple, annihilator, evaluate_recipe, validate_triple
    from qsubgroups.twist import zero_twist

    sides = []
    for side, some_tw in (("twisted", tw), ("untwisted", zero_twist(tw.cd))):
        sigma = evaluate_recipe(some_tw, ell, recipe)
        report = validate_triple(some_tw, ell, Triple(iplus, iminus, sigma, None))
        if not report.ok:
            raise ValueError(f"recipe does not produce a valid {side} triple; "
                             f"missing generators: {report.missing}")
        nsub = annihilator(sigma)
        sigma_order, rp, rm, _, _ = former_dim_h(some_tw, ell, iplus, iminus, nsub)
        sides.append((sigma.order, nsub.order, sigma_order * ell ** (rp + rm)))
    (s_tw, n_tw, dim_tw), (s_zero, n_zero, dim_zero) = sides
    total = ell**tw.rank
    return (s_tw, n_tw, s_zero, n_zero, dim_tw, dim_zero,
            s_tw == total and s_zero != total)


def former_predicates(tw, ell, d):
    """(pointed_necessary, semisimple, dual_pointed_consistent,
    obstruction tuple) of a valid datum, as the former predicates found
    them; raises the former errors for a recipe it cannot use."""
    from qsubgroups.datum import default_sigma_recipe
    from qsubgroups.torus import annihilator, evaluate_recipe

    recipe = d.sigma_recipe
    if recipe is None:
        recipe = default_sigma_recipe(tw, ell, d, annihilator(d.N))
    elif annihilator(evaluate_recipe(tw, ell, recipe)) != d.N:
        raise ValueError("sigma recipe does not reproduce the datum's N")
    ob = _former_obstruction(tw, ell, d.iplus, d.iminus, recipe)
    finite = not (d.is_opaque and d.embedding.order is None)
    return (not (d.iplus & d.iminus), not (d.iplus | d.iminus) and finite,
            True if not d.is_opaque else None, ob)


def former_dim_a(tw, ell, d):
    """|Gamma| * dim H of a valid datum, None for an opaque infinite Gamma."""
    sigma_order, rp, rm, _, _ = former_dim_h(tw, ell, d.iplus, d.iminus, d.N)
    order = d.embedding.group.order if not d.is_opaque else d.embedding.order
    return order * sigma_order * ell ** (rp + rm) if order else None


# ---------------------------------------------------------------------------
# frozen references: the library's former finite-type test, Q(eps) inverse
# and subgroup element walk

def former_require_finite_type(cd):
    """The library's former CartanDatum._require_finite_type: one full
    determinant per leading minor of D A, each of which must be > 0."""
    from qsubgroups.exact import IntMatrix
    from qsubgroups.lie import InvalidCartanMatrix

    n = cd.rank
    da = [[cd.d[i] * cd.A[i, j] for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        minor = IntMatrix([row[:k] for row in da[:k]])
        if minor.det() <= 0:
            raise InvalidCartanMatrix("matrix is not of finite type")


def _former_poly_trim(coeffs):
    end = len(coeffs)
    while end > 0 and coeffs[end - 1] == 0:
        end -= 1
    return tuple(coeffs[:end])


def _former_poly_sub(p, q):
    out = list(p) + [0] * max(len(q) - len(p), 0)
    for i, b in enumerate(q):
        out[i] -= b
    return _former_poly_trim(out)


def _former_poly_mul(p, q):
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return _former_poly_trim(out)


def _former_poly_divmod(num, den):
    """(quotient, remainder) of num by a nonzero den with Fraction
    coefficients, any leading coefficient."""
    num = list(num)
    inv = Fraction(1) / den[-1]
    q = [0] * max(len(num) - len(den) + 1, 0)
    for k in range(len(q) - 1, -1, -1):
        c = num[k + len(den) - 1] * inv
        q[k] = c
        if c:
            for j, b in enumerate(den):
                num[k + j] -= c * b
    return _former_poly_trim(q), _former_poly_trim(num)


def former_cyclotomic_inverse(x):
    """The library's former CyclotomicNumber.inverse: the extended
    Euclidean algorithm against the minimal polynomial of eps."""
    from qsubgroups.exact import CyclotomicNumber, cyclotomic_polynomial

    if x.is_zero():
        raise ZeroDivisionError("inverse of zero in Q(eps)")
    r0 = tuple(Fraction(c) for c in cyclotomic_polynomial(x.level))
    r1 = _former_poly_trim(x.coeffs)
    s0, s1 = (), (Fraction(1),)
    while True:
        q, r = _former_poly_divmod(r0, r1)
        if not r:
            break
        s0, s1 = s1, _former_poly_sub(s0, _former_poly_mul(q, s1))
        r0, r1 = r1, r
    assert len(r1) == 1, "cyclotomic polynomial was not coprime"
    return CyclotomicNumber.from_polynomial(x.level, [c / r1[0] for c in s1])


def former_cyclotomic_product(x, y):
    """The library's former CyclotomicNumber product: the schoolbook
    product of the two Fraction coefficient vectors, then the reduction
    mod the cyclotomic polynomial."""
    from qsubgroups.exact import CyclotomicNumber

    out = [Fraction(0)] * (len(x.coeffs) + len(y.coeffs) - 1)
    for i, a in enumerate(x.coeffs):
        for j, b in enumerate(y.coeffs):
            out[i + j] += a * b
    return CyclotomicNumber.from_polynomial(x.level, out)


def former_subgroup_elements(sub):
    """The library's former TorusSubgroup.elements (without the cap): the
    breadth-first closure of 0 under adding the canonical generators."""
    seen = {(0,) * sub.n}
    frontier = [(0,) * sub.n]
    while frontier:
        nxt = []
        for el in frontier:
            for g in sub.generators:
                cand = tuple((a + b) % sub.ell for a, b in zip(el, g))
                if cand not in seen:
                    seen.add(cand)
                    nxt.append(cand)
        frontier = nxt
    return sorted(seen)


# ---------------------------------------------------------------------------
# frozen reference: the library's former Q(eps) reduction through a memoised
# table of q^k mod the cyclotomic polynomial


@functools.lru_cache(maxsize=32)
def _former_power_reduction_table(ell: int) -> tuple[tuple[int, ...], ...]:
    """Table of q^k reduced modulo the ell-th cyclotomic polynomial.

    Covers every exponent k that can appear while multiplying two reduced
    elements or raising eps to a power below ell.  The cyclotomic
    polynomial is monic, so every entry is an integer.
    """
    from qsubgroups.exact import IntMatrix, cyclotomic_polynomial, euler_phi

    phi = euler_phi(ell)
    top = max(2 * phi - 1, ell)
    minpoly = cyclotomic_polynomial(ell)
    table = list(IntMatrix.identity(phi).data)  # q^k for k < phi is already reduced
    for k in range(phi, top):
        # q^k = q * q^(k-1), then fold the overflow coefficient back in
        # using q^phi = -(lower terms of the minimal polynomial).
        prev = table[k - 1]
        row = [0] + list(prev[:-1])
        carry = prev[-1]
        if carry:
            for j in range(phi):
                row[j] -= carry * minpoly[j]
        table.append(tuple(row))
    return tuple(table)  # shared by every caller through the memo


def former_reduce_power_basis(ell: int, coeffs) -> list:
    """The library's former reduce_power_basis: coefficients of
    sum_k coeffs[k] eps^k in the power basis 1, eps, ..., eps^(phi(ell)-1),
    for exponents k < max(2 phi(ell) - 1, ell).  Integer input gives
    integer output."""
    table = _former_power_reduction_table(ell)
    out = [0] * len(table[0])
    for k, c in enumerate(coeffs):
        if not c:
            continue
        if k >= len(table):
            raise ValueError("exponent outside the reduction table")
        for j, r in enumerate(table[k]):
            if r:
                out[j] += c * r
    return out


# ---------------------------------------------------------------------------
# relabelling the simple roots

def relabellings(n):
    """Every non-identity renaming of the simple roots, old root perm[k] to
    k + 1, as (perm, {old: new}); P[k][perm[k]] = 1."""
    for perm in itertools.permutations(range(n)):
        if perm != tuple(range(n)):
            yield perm, {old + 1: k + 1 for k, old in enumerate(perm)}


def conjugated(rows, perm):
    """P M P^T for the renaming perm, as lists."""
    return [[rows[i][j] for j in perm] for i in perm]


def relabelled_twist(tw, perm):
    """The twist tw with its simple roots renamed by perm."""
    from qsubgroups.exact import IntMatrix
    from qsubgroups.lie import CartanDatum
    from qsubgroups.twist import require_twist

    return require_twist(CartanDatum.from_matrix(IntMatrix(conjugated(tw.cd.A.data, perm))),
                         IntMatrix(conjugated(tw.Y.data, perm)))


# ---------------------------------------------------------------------------
# library memos

def clear_library_memos():
    """Empty every lru_cache that a qsubgroups module defines, found by
    walking the modules, so a test that counts calls does not depend on
    what earlier tests derived; returns their qualified names."""
    import importlib
    import pkgutil

    import qsubgroups

    cleared = []
    for info in pkgutil.iter_modules(qsubgroups.__path__):
        module = importlib.import_module(f"qsubgroups.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_clear") and value.__module__ == module.__name__:
                value.cache_clear()
                cleared.append(f"{info.name}.{name}")
    return cleared
