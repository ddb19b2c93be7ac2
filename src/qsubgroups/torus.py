"""Subgroups and characters of the finite torus (Z/ell)^n.

The group of group-like elements of the twisted small quantum group is
(Z/ell)^n with basis the K_{alpha_i}; its character group is identified
with (Z/ell)^n via z -> (K_{alpha_t} -> eps^{z_t}).  Everything here is
linear algebra over Z/ell with ell possibly composite, so subgroups are
handled through integer lattices:

  subgroup generated by g_1, ..., g_k
      <->  lattice  Z g_1 + ... + Z g_k + ell Z^n.

The Hermite normal form of that lattice, computed mod ell, is the
canonical form of the subgroup; equality of subgroups is syntactic
equality of the forms, and membership is reduction by exact._reduce.
Every subgroup comes in through one of two doors, each one Hermite form:
TorusSubgroup.from_generators for a span and TorusSubgroup.kernel for the
solutions of a row system mod ell (the character kernel, annihilators,
the kernels of torus embeddings and of the twist's bilinear form).  Each
checks plain rows into an IntMatrix M and takes an IntMatrix as checked;
a span is memoised on (ell, M), and a kernel is read off the Hermite
form that exact._factored holds for (M, ell), so a subgroup that several
checks of one request derive is built from one form; sharing a cached
object is safe because TorusSubgroup is an immutable record.  Only
enumerate_subgroups builds records itself, from the Hermite lattices
between ell Z^n and the ambient's lattice that _sublattices yields; its
column solver _cosets proposes no row that a returned lattice lacks.

A Hopf-subalgebra triple (I+, I-, Sigma) requires Sigma to contain the
exponent vectors (1 -+ phi)(alpha_i) for i in I+-.  Their rows mod ell
form the coefficient matrix S, whose kernel mod ell is the character
kernel.  A bounded memo derives the labels and S from the twist's exponent
rows once per (tw, ell, I+, I-), after exact._validate_level (ell odd, >= 3);
s_phi_matrix returns S itself, and T_I and the kernel are keyed on it.
Bare indices pass lie.index_set on the way in, so a bool never meets a
cache key (which takes True for 1); record readers skip it, since a
Triple or datum checked I+- when it was built.
analyze_triple derives everything a triple determines (T_I, N, |Sigma|,
|N|, |Omega|, the order identity) in one pass, memoised on the triple;
n_phi_from_sigma, sigma_order_identity and omega_order read it.
"""

from __future__ import annotations

import functools
from itertools import product
from math import gcd, prod

from ._record import record
from .exact import (
    IntMatrix,
    _int_tuple,
    _reduce,
    _validate_level,
    hermite_normal_form,
    kernel_lattice,
    root_of_unity_power,
)
from .lie import index_set
from .twist import TwistMap, _exponent_row

__all__ = [
    "TorusSubgroup",
    "Character",
    "SigmaGenerator",
    "Triple",
    "TripleReport",
    "TripleAnalysis",
    "t_phi_I",
    "validate_triple",
    "s_phi_matrix",
    "canonical_row_form",
    "t_hat_I_complement",
    "annihilator",
    "n_phi_from_sigma",
    "sigma_order_identity",
    "omega_order",
    "analyze_triple",
    "enumerate_subgroups",
    "EnumerationGuard",
]

DEFAULT_ENUM_CAP = 200_000
SUBGROUP_MEMO_SIZE = 4096  # entries of each memo here


class EnumerationGuard(RuntimeError):
    """Raised when an enumeration would exceed the configured cap."""


def _enum_cap(cap: int | None) -> int:
    return DEFAULT_ENUM_CAP if cap is None else _int_tuple((cap,), "cap")[0]


@record
class TorusSubgroup:
    """A subgroup of (Z/ell)^n in canonical (Hermite) form; its order and,
    on first read, its nonzero Hermite rows mod ell (generators) are read
    off the lattice."""

    ell: int
    n: int
    lattice: IntMatrix

    def __post_init__(self):
        if type(self.ell) is not int or type(self.n) is not int or self.ell < 1:
            _int_tuple((self.ell, self.n), "subgroup level and rank")  # TypeError first
            raise ValueError("level must be >= 1")
        pivots = prod(row[i] for i, row in enumerate(self.lattice.data))
        order, rem = divmod(self.ell**self.n, pivots)
        assert rem == 0
        object.__setattr__(self, "order", order)

    @functools.cached_property
    def generators(self) -> tuple[tuple[int, ...], ...]:
        ell = self.ell
        return tuple(row_mod for row in self.lattice.data
                     if any(row_mod := tuple(x % ell for x in row)))

    @classmethod
    def from_generators(cls, ell: int, n: int, gens) -> "TorusSubgroup":
        """The span of gens mod ell: rows, or an IntMatrix taken as checked."""
        span = gens if isinstance(gens, IntMatrix) else IntMatrix(gens, ncols=n)
        if span.ncols != n or type(n) is not int:
            _int_tuple((n,), "subgroup rank")  # TypeError first
            raise ValueError("generator length mismatch")
        return _span(ell, span)

    @classmethod
    def kernel(cls, ell: int, n: int, rows) -> "TorusSubgroup":
        """{z : <row, z> = 0 mod ell for every row}, read off one Hermite
        form (see exact.kernel_lattice); rows as from_generators takes them."""
        system = rows if isinstance(rows, IntMatrix) else IntMatrix(rows, ncols=n)
        if system.ncols != n:
            raise ValueError("row length mismatch")
        return cls(ell, n, kernel_lattice(system, ell))

    @classmethod
    def trivial(cls, ell: int, n: int) -> "TorusSubgroup":
        return cls.from_generators(ell, n, [])

    @classmethod
    def full(cls, ell: int, n: int) -> "TorusSubgroup":
        return cls.from_generators(ell, n, IntMatrix.identity(n))

    def _compat(self, other: "TorusSubgroup") -> None:
        if (self.ell, self.n) != (other.ell, other.n):
            raise ValueError("subgroups live in different tori")

    def contains(self, vec) -> bool:
        """Membership: vec reduces to zero against the lattice basis."""
        v = list(_int_tuple(vec, "vector entries"))
        if len(v) != self.n:
            raise ValueError("vector length mismatch")
        _reduce(v, self.lattice.data, 0)
        return not any(v)

    def killed_by(self, rows) -> bool:
        """Whether every row pairs to zero mod ell with every element,
        i.e. whether the subgroup lies in the kernel of the rows."""
        return not any(sum(a * b for a, b in zip(row, g)) % self.ell
                       for row in rows for g in self.generators)

    def is_subgroup_of(self, other: "TorusSubgroup") -> bool:
        self._compat(other)
        return all(other.contains(g) for g in self.generators)

    def join(self, other: "TorusSubgroup") -> "TorusSubgroup":
        self._compat(other)
        return TorusSubgroup.from_generators(self.ell, self.n, self.generators + other.generators)

    def elements(self, cap: int | None = None):
        """All elements, sorted; guarded by cap.  Each is sum c_i b_i mod
        ell over the Hermite rows b_i, once for each 0 <= c_i < ell/pivot_i."""
        limit = _enum_cap(cap)
        if self.order > limit:
            raise EnumerationGuard(f"subgroup order {self.order} exceeds cap {limit}")
        ell, cols = self.ell, self.lattice.transpose().data  # column i holds pivot_i
        seen = {tuple(sum(c * x for c, x in zip(coef, col)) % ell for col in cols)
                for coef in product(*(range(ell // col[i]) for i, col in enumerate(cols)))}
        assert len(seen) == self.order
        return sorted(seen)


@functools.lru_cache(maxsize=SUBGROUP_MEMO_SIZE, typed=True)
def _span(ell: int, S: IntMatrix) -> TorusSubgroup:
    return TorusSubgroup(ell, S.ncols, hermite_normal_form(S, ell))


@record
class Character:
    """A character of the torus, acting on K_{alpha_t} by eps^{z_t}."""

    ell: int
    z: tuple[int, ...]

    def __post_init__(self):
        _validate_level(self.ell)  # value() needs an odd level >= 3
        object.__setattr__(self, "z", _int_tuple(self.z, "character exponents"))

    def pairing(self, g) -> int:
        g = _int_tuple(g, "group elements")
        if len(g) != len(self.z):
            raise ValueError("length mismatch")
        return sum(a * b for a, b in zip(self.z, g)) % self.ell

    def value(self, g):
        return root_of_unity_power(self.ell, self.pairing(g))


# ---------------------------------------------------------------------------
# symbolic Sigma generators

@record
class SigmaGenerator:
    """A generator of Sigma given symbolically, so it can be re-evaluated
    for a different twisting map (in particular for phi = 0).

    kind is one of "kbar" ((1-phi)(alpha_i)), "ktilde" ((1+phi)(alpha_j)),
    "tau" (tau_i = phi(alpha_i)/2) or "vector" (a fixed exponent vector,
    independent of phi).
    """

    kind: str
    index: int | None = None
    vector: tuple[int, ...] | None = None

    def evaluate(self, tw: TwistMap, ell: int) -> tuple[int, ...]:
        raw = self.vector if self.kind == "vector" else _exponent_row(tw, self.kind, self.index)
        return tuple(x % ell for x in raw)

    @classmethod
    def kbar(cls, i: int) -> "SigmaGenerator":
        return cls("kbar", index=i)

    @classmethod
    def ktilde(cls, j: int) -> "SigmaGenerator":
        return cls("ktilde", index=j)

    @classmethod
    def tau(cls, i: int) -> "SigmaGenerator":
        return cls("tau", index=i)

    @classmethod
    def fixed(cls, vec) -> "SigmaGenerator":
        return cls("vector", vector=_int_tuple(vec, "sigma vector entries"))


def evaluate_recipe(tw: TwistMap, ell: int, recipe) -> TorusSubgroup:
    _validate_level(ell)
    return TorusSubgroup.from_generators(ell, tw.rank, [g.evaluate(tw, ell) for g in recipe])


@record
class Triple:
    """(I+, I-, Sigma): the parametrization of Hopf subalgebras.

    The optional recipe records how Sigma's generators depend on the
    twisting map; it is required by the deformation-obstruction check,
    which re-evaluates the same generators at phi = 0.
    """

    iplus: frozenset[int]
    iminus: frozenset[int]
    sigma: TorusSubgroup
    recipe: tuple[SigmaGenerator, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "iplus", index_set(self.iplus))
        object.__setattr__(self, "iminus", index_set(self.iminus))

    @classmethod
    def make(cls, tw: TwistMap, ell: int, iplus, iminus,
             sigma_gens=(), recipe=None) -> "Triple":
        iplus, iminus = index_set(iplus), index_set(iminus)
        _required_memo(tw, ell, iplus, iminus)  # refuses a bad level or index
        gens = [tuple(x % ell for x in _int_tuple(g, "sigma generator entries"))
                for g in sigma_gens]
        if recipe is None:
            return cls(iplus, iminus, TorusSubgroup.from_generators(ell, tw.rank, gens))
        # raw extras join the recipe as fixed vectors, so the whole
        # Sigma stays re-evaluable at a different twist
        recipe = tuple(recipe) + tuple(SigmaGenerator.fixed(g) for g in gens)
        return cls(iplus, iminus, evaluate_recipe(tw, ell, recipe), recipe)


@record
class TripleReport:
    ok: bool
    missing: tuple[tuple[str, int], ...]  # e.g. ("kbar", 2) not in Sigma


@record
class TripleAnalysis:
    """Everything a valid triple determines, derived in one pass."""

    t_I: TorusSubgroup  # the required subgroup T_I
    N: TorusSubgroup  # the annihilator of Sigma
    sigma_order: int
    n_order: int
    omega_order: int  # |Sigma / T_I|
    order_identity: bool  # |Sigma| * |N| == ell^n


@functools.lru_cache(maxsize=SUBGROUP_MEMO_SIZE, typed=True)
def _required_memo(tw: TwistMap, ell: int, iplus: frozenset, iminus: frozenset):
    """The required generators of a triple: labels ("kbar", i) for
    (1-phi)(alpha_i), i in I+, then ("ktilde", j) for (1+phi)(alpha_j),
    j in I-, each ascending, and S, the IntMatrix of their exponent vectors
    mod ell, read from the twist's exponent rows, checked when the twist
    was built; the torus memos are keyed on S itself."""
    _validate_level(ell)
    bad = (iplus | iminus) - set(range(1, tw.rank + 1))
    if bad:
        raise ValueError(f"simple indices out of range: {sorted(bad)}")
    labels = [("kbar", i) for i in sorted(iplus)] + [("ktilde", j) for j in sorted(iminus)]
    S = tuple(tuple(x % ell for x in tw._exponents[kind][i - 1]) for kind, i in labels)
    return tuple(labels), IntMatrix._of(S, tw.rank)


def t_phi_I(tw: TwistMap, ell: int, iplus, iminus) -> TorusSubgroup:
    """The subgroup generated by the required elements of a triple:
    (1-phi)(alpha_i) for i in I+ and (1+phi)(alpha_j) for j in I-."""
    return TorusSubgroup.from_generators(ell, tw.rank, s_phi_matrix(tw, ell, iplus, iminus))


def validate_triple(tw: TwistMap, ell: int, triple: Triple) -> TripleReport:
    """Check that Sigma contains every required generator."""
    return _triple_report(tw, ell, triple.iplus, triple.iminus, triple.sigma)


def _triple_report(tw: TwistMap, ell: int, iplus, iminus, sigma) -> TripleReport:
    labels, S = _required_memo(tw, ell, iplus, iminus)
    missing = tuple(label for label, row in zip(labels, S.data) if not sigma.contains(row))
    return TripleReport(ok=not missing, missing=missing)


def s_phi_matrix(tw: TwistMap, ell: int, iplus, iminus) -> IntMatrix:
    """The coefficient matrix of the character-kernel system mod ell.

    One row per i in I+ with entries (delta_ij - 2 y_ji) and one row per
    j in I- with entries (delta_jk + 2 y_kj); these are exactly the
    exponent vectors of the required Sigma generators.  Rows are ordered
    I+ ascending, then I- ascending.  The indices pass index_set on their
    way in, as a Triple's do.
    """
    return _required_memo(tw, ell, index_set(iplus), index_set(iminus))[1]


def canonical_row_form(M: IntMatrix, ell: int) -> IntMatrix:
    """Canonical row form of a matrix over Z/ell: the canonical generators
    of the subgroup its rows span."""
    return IntMatrix._of(TorusSubgroup.from_generators(ell, M.ncols, M).generators, M.ncols)


def t_hat_I_complement(tw: TwistMap, ell: int, iplus, iminus) -> TorusSubgroup:
    """Characters that kill every required generator: the kernel of the
    coefficient matrix mod ell.  For prime ell its order is
    ell^(n - rank)."""
    return TorusSubgroup.kernel(ell, tw.rank, s_phi_matrix(tw, ell, iplus, iminus))


def annihilator(sub: TorusSubgroup) -> TorusSubgroup:
    """{z : <z, g> = 0 mod ell for every g in sub}: the kernel of its
    generators, which need no second check."""
    return TorusSubgroup.kernel(sub.ell, sub.n, IntMatrix._of(sub.generators, sub.n))


@functools.lru_cache(maxsize=SUBGROUP_MEMO_SIZE, typed=True)
def analyze_triple(tw: TwistMap, ell: int, triple: Triple) -> TripleAnalysis:
    """Validate a triple and derive T_I, N and the orders from it, once.

    Because Sigma contains every required generator, the annihilator N
    of Sigma automatically lands inside the character kernel, so no
    intersection is needed; the inclusion is asserted row by row.  The
    quotient Sigma / T_I is never materialized, only its order.  Memoised
    on (tw, ell, triple), all immutable, as datum.analyze_datum is.
    """
    report = validate_triple(tw, ell, triple)
    if not report.ok:
        raise ValueError(f"invalid triple, missing generators: {report.missing}")
    S = _required_memo(tw, ell, triple.iplus, triple.iminus)[1]
    t_I, nsub = TorusSubgroup.from_generators(ell, tw.rank, S), annihilator(triple.sigma)
    assert nsub.killed_by(S.data)
    omega, rem = divmod(triple.sigma.order, t_I.order)
    assert rem == 0
    return TripleAnalysis(
        t_I=t_I,
        N=nsub,
        sigma_order=triple.sigma.order,
        n_order=nsub.order,
        omega_order=omega,
        order_identity=triple.sigma.order * nsub.order == ell**tw.rank,
    )


def n_phi_from_sigma(tw: TwistMap, ell: int, triple: Triple) -> TorusSubgroup:
    """The character subgroup killing Sigma (analyze_triple's N)."""
    return analyze_triple(tw, ell, triple).N


def sigma_order_identity(tw: TwistMap, ell: int, triple: Triple):
    """(|Sigma|, |N|, |Sigma| * |N| == ell^n)."""
    a = analyze_triple(tw, ell, triple)
    return a.sigma_order, a.n_order, a.order_identity


def omega_order(tw: TwistMap, ell: int, triple: Triple) -> int:
    """Order of Sigma modulo the required subgroup, |Sigma| / |T_I|."""
    return analyze_triple(tw, ell, triple).omega_order


def enumerate_subgroups(ambient: TorusSubgroup, cap: int | None = None):
    """Every subgroup of a subgroup A of (Z/ell)^n, sorted by (order, lattice).

    The subgroups of A are the Hermite-form lattices L with ell Z^n inside
    L inside A, and _sublattices walks exactly those, bottom row first:
    row i of L is (d/a_i) A_i (a_i | d | ell) plus sum c_j A_j (0 <= c_j
    < d_j/a_j), reduced against L's lower rows; L contains ell e_i iff
    (ell/d) row lies in L_{>i} (so d = ell gives ell e_i), which _cosets
    solves column by column: no built row is dropped, so cap bounds the
    work too.  Raises EnumerationGuard on the first lattice past cap.
    """
    ell, n = ambient.ell, ambient.n
    limit = _enum_cap(cap)
    found = []
    for lattice in _sublattices(ambient.lattice.data, ell, n - 1, []):
        found.append(TorusSubgroup(ell, n, IntMatrix._of(lattice, n)))
        if len(found) > limit:
            raise EnumerationGuard(f"subgroup count exceeds cap {limit}")
    return sorted(found, key=lambda s: (s.order, s.lattice.data))


def _sublattices(amb, ell: int, i: int, lower: list):
    """The Hermite lattices of enumerate_subgroups' walk whose rows i+1 ..
    n-1 are lower, as tuples of rows; module level, like twist._descend,
    so no walk leaves a cycle."""
    if i < 0:
        yield tuple(lower)
        return
    a = amb[i][i]
    for d in (d for d in range(a, ell, a) if ell % d == 0):
        v = [d // a * x for x in amb[i]]
        for row in _cosets(amb, lower, ell // d, [ell // a * x for x in amb[i]], v, 0):
            _reduce(row, lower, i + 1)
            yield from _sublattices(amb, ell, i - 1, [tuple(row)] + lower)
    yield from _sublattices(amb, ell, i - 1, [(0,) * i + (ell,) + (0,) * len(lower)] + lower)


def _cosets(amb, lower, m: int, w: list, v: list, k: int):
    """Each row v + sum c_j A_j, j over the pivot columns of lower[k:], with
    0 <= c_j < d_j/a_j and w + m sum c_j A_j in their lattice; w is 0 on
    lower's columns left of them.  Column j asks w_j + m a_j c_j = 0 mod
    d_j: one class of c_j mod d_j/g if g = gcd(m a_j, d_j) divides w_j."""
    if k == len(lower):
        yield v
        return
    j = len(amb) - len(lower) + k
    A, L = amb[j], lower[k]
    g = gcd(m * A[j], L[j])
    if w[j] % g:
        return
    step = L[j] // g
    for c in range(-w[j] // g * pow(m * A[j] // g, -1, step) % step, L[j] // A[j], step):
        q = (w[j] + m * c * A[j]) // L[j]
        yield from _cosets(amb, lower, m, [x + m * c * y - q * z for x, y, z in zip(w, A, L)],
                           [x + c * y for x, y in zip(v, A)], k + 1)
