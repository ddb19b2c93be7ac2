"""Independent arithmetic the benchmark checks the library against.

Nothing here imports qsubgroups: every order, rank, count and root
number is recomputed from the benchmark's own inputs with plain
integer arithmetic, so a wrong answer in the library cannot hide
behind the same wrong answer in its checker.
"""

from __future__ import annotations

import hashlib
import json
from math import gcd, prod

# Cartan conventions of the package (README "Conventions"): row i holds
# <alpha_i^vee, alpha_j>; B has its last root long, C its last root
# short, D branches at node n-2, E hangs node 2 off node 4.
_RANKS = {"A": (1, 99), "B": (2, 99), "C": (2, 99), "D": (4, 99),
          "E": (6, 8), "F": (4, 4), "G": (2, 2)}


def cartan(lie_type: str, n: int) -> list[list[int]]:
    lo, hi = _RANKS[lie_type]
    if not lo <= n <= hi:
        raise ValueError(f"no type {lie_type}{n}")
    a = [[2 * (i == j) for j in range(n)] for i in range(n)]

    def edge(i, j):
        a[i][j] = a[j][i] = -1

    if lie_type in "ABC":
        for i in range(n - 1):
            edge(i, i + 1)
        if lie_type == "B":
            a[n - 2][n - 1] = -2
        if lie_type == "C":
            a[n - 1][n - 2] = -2
    elif lie_type == "D":
        for i in range(n - 2):
            edge(i, i + 1)
        edge(n - 3, n - 1)
    elif lie_type == "E":
        edge(0, 2)
        for i in range(2, n - 1):
            edge(i, i + 1)
        edge(1, 3)
    elif lie_type == "F":
        edge(0, 1)
        edge(1, 2)
        edge(2, 3)
        a[2][1] = -2
    else:  # G
        a[0][1], a[1][0] = -1, -3
    return a


def symmetrizers(a: list[list[int]]) -> list[int]:
    """Smallest positive d with d_i a_ij = d_j a_ji (connected diagram)."""
    n = len(a)
    num = [0] * n
    den = [0] * n
    num[0] = den[0] = 1
    todo = [0]
    while todo:
        i = todo.pop()
        for j in range(n):
            if j != i and a[i][j] and not num[j]:
                # d_j = d_i a_ij / a_ji
                num[j], den[j] = num[i] * a[i][j], den[i] * a[j][i]
                todo.append(j)
    lcm_den = 1
    for k in range(n):
        g = gcd(num[k], den[k])
        num[k], den[k] = abs(num[k] // g), abs(den[k] // g)
        lcm_den = lcm_den * den[k] // gcd(lcm_den, den[k])
    d = [num[k] * lcm_den // den[k] for k in range(n)]
    g = 0
    for x in d:
        g = gcd(g, x)
    return [x // g for x in d]


def matmul(p, q):
    return [[sum(p[i][k] * q[k][j] for k in range(len(q)))
             for j in range(len(q[0]))] for i in range(len(p))]


def twist_from_antisymmetric(a, d, k):
    """Y = K (D A) for antisymmetric integer K.

    D A is symmetric, so D A Y = (DA) K (DA) is antisymmetric, Y is
    integral, (phi(omega_i), omega_j)/2 = d_i d_j K_ji is integral, and
    det(A + 2 A Y) = det A * det(I + 2Y) is nonzero because det(I + 2Y)
    is odd.  Every such K therefore gives a valid twisting map.
    """
    da = [[d[i] * a[i][j] for j in range(len(a))] for i in range(len(a))]
    return matmul(k, da)


def dx_asymmetry(a, d, y):
    """Pairs (i, j), 1-based with i <= j, where d_i X_ij != -d_j X_ji."""
    x = matmul(a, y)
    n = len(a)
    return sorted((i + 1, j + 1) for i in range(n) for j in range(i, n)
                  if d[i] * x[i][j] != -d[j] * x[j][i])


def coefficient_rows(y, ell, iplus, iminus):
    """Rows e_i - 2 Y[:, i] (i in I+) then e_j + 2 Y[:, j] (j in I-), mod ell."""
    n = len(y)
    rows = [[((r == i - 1) - 2 * y[r][i - 1]) % ell for r in range(n)]
            for i in sorted(iplus)]
    rows += [[((r == j - 1) + 2 * y[r][j - 1]) % ell for r in range(n)]
             for j in sorted(iminus)]
    return rows


def dot(u, v, ell) -> int:
    return sum(a * b for a, b in zip(u, v)) % ell


def kills(rows, vectors, ell) -> bool:
    return all(dot(r, v, ell) == 0 for r in rows for v in vectors)


def diagonal(rows) -> list[int]:
    """Nonzero diagonal of an integer diagonalisation of the row lattice.

    Repeated remainder steps with the smallest entry as pivot; no
    divisibility chain is needed for the orders computed from it.
    """
    m = [list(r) for r in rows if any(r)]
    out = []
    while m:
        i, j = min(((i, j) for i, r in enumerate(m) for j, x in enumerate(r) if x),
                   key=lambda ij: abs(m[ij[0]][ij[1]]))
        p = m[i][j]
        clean = True
        for k, r in enumerate(m):
            if k != i and r[j]:
                q = r[j] // p
                m[k] = [a - q * b for a, b in zip(r, m[i])]
                clean = clean and not m[k][j]
        for c in range(len(m[i])):
            if c != j and m[i][c]:
                q = m[i][c] // p
                for r in m:
                    r[c] -= q * r[j]
                clean = clean and not m[i][c]
        if clean:
            out.append(abs(p))
            m = [[x for c, x in enumerate(r) if c != j]
                 for k, r in enumerate(m) if k != i]
            m = [r for r in m if any(r)]
    return out


def span_order(rows, ell) -> int:
    """Order of the subgroup of (Z/ell)^n generated by the rows."""
    return prod(ell // gcd(a, ell) for a in diagonal(rows))


def kernel_order(rows, n, ell) -> int:
    """Order of {g in (Z/ell)^n : r . g = 0 mod ell for every row r}."""
    return ell**n // span_order(rows, ell)


def rank_mod_p(rows, p) -> int:
    m = [[x % p for x in r] for r in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], -1, p)
        for r in range(len(m)):
            if r != rank and m[r][c]:
                f = m[r][c] * inv % p
                m[r] = [(a - f * b) % p for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def subgroup_count(k: int, p: int) -> int:
    """Subgroups of (Z/p)^k: the sum over j of the Gaussian binomials."""
    total = 0
    for j in range(k + 1):
        num = prod(p ** (k - i) - 1 for i in range(j))
        den = prod(p ** (i + 1) - 1 for i in range(j))
        total += num // den
    return total


def euler_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def is_prime(n: int) -> bool:
    return n > 1 and all(n % q for q in range(2, int(n**0.5) + 1))


def positive_root_count(a, nodes) -> int:
    """Positive roots of the root subsystem on the given 1-based nodes,
    by the root-string algorithm on the Cartan submatrix."""
    idx = sorted(nodes)
    sub = [[a[i - 1][j - 1] for j in idx] for i in idx]
    k = len(idx)
    simple = [tuple(int(r == i) for r in range(k)) for i in range(k)]
    roots = set(simple)
    layer = list(simple)
    while layer:
        nxt = []
        for beta in layer:
            for i in range(k):
                p = 0
                down = list(beta)
                while True:
                    down[i] -= 1
                    if tuple(down) not in roots:
                        break
                    p += 1
                pairing = sum(beta[j] * sub[i][j] for j in range(k))
                if p - pairing > 0:
                    up = tuple(b + (r == i) for r, b in enumerate(beta))
                    if up not in roots:
                        roots.add(up)
                        nxt.append(up)
        layer = nxt
    return len(roots)


def hermite_walk(ell: int, n: int) -> int:
    """Hermite-form candidates between ell Z^n and Z^n: upper triangular,
    pivots d_j dividing ell, the j entries above pivot j reduced mod d_j,
    so the count is the product over j of (sum over d | ell of d^j)."""
    divisors = [d for d in range(1, ell + 1) if ell % d == 0]
    return prod(sum(d**j for d in divisors) for j in range(n))


def twist_search_walk(n: int, bound: int) -> int:
    """Matrices X tried by a box search over the strictly upper entries."""
    return (2 * bound + 1) ** (n * (n - 1) // 2)


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:24]
