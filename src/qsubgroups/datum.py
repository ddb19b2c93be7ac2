"""Twisted subgroup data: validation, dimensions, order and equivalence.

A twisted subgroup datum is a tuple (I+, I-, N, Gamma, gamma, delta):
index sets of simple roots, a subgroup N of the character kernel for
(I+, I-), a group Gamma with an injective homomorphism gamma into the
maximal torus, and a homomorphism delta from N into the character group
of Gamma.  Gamma is restricted to finite abelian groups presented by
invariant factors and embedded in the torus; arbitrary groups are
accepted only as opaque records carrying their order, for which the
partial-order test degrades to "unknown" on the bullet that needs the
embedding.

Dimension bookkeeping.  The quotient attached to a triple has
    dim H = |Sigma| * ell^(#Psi+ + #Psi-),
where |Sigma| = ell^n / |N| and Psi+- are the positive roots supported
in I+-; this is the count forced by the PBW basis.  The simpler count
ell^(|I+| + |I-|) agrees exactly when every supported root is simple
and is reported side by side, never asserted.  A finite Gamma then
multiplies: dim A = |Gamma| * dim H.

The partial order on data:  D <= D' iff I'+ <= I+, I'- <= I-, N <= N'
(as annihilator subgroups of (Z/ell)^n, where the comparison map is the
literal inclusion), some tau: Gamma' -> Gamma satisfies gamma tau =
gamma', and delta' restricted to N equals the pullback of delta along
tau.  Mutual <= forces equal (I+, I-, N) and |Gamma| = |Gamma'|.

analyze_datum derives all a datum determines (report, dim H, dim A, the
predicates and their obstruction) once, memoised on (tw, ell, d), and
reads subgroup orders wherever an order decides; validate_datum, dim_A,
predicates and obstruction_check read its record.  dim_H checks bare
indices and N against the character kernel for _dim_h, which
analyze_datum and enumerate_triples call on an N known to lie in it.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import lcm, prod

from ._record import record, replace
from .exact import IntMatrix, _int_tuple, _validate_level, kernel_lattice, solve_linear_mod
from .lie import index_set, positive_roots
from .torus import (
    SigmaGenerator,
    TorusSubgroup,
    Triple,
    _required_memo,
    _triple_report,
    annihilator,
    enumerate_subgroups,
    evaluate_recipe,
    t_hat_I_complement,
)
from .twist import TwistMap, zero_twist

__all__ = [
    "INFINITE",
    "FiniteAbelianGroup",
    "OpaqueGroup",
    "TorusEmbedding",
    "DualHom",
    "TwistedSubgroupDatum",
    "DatumReport",
    "DatumAnalysis",
    "analyze_datum",
    "validate_datum",
    "DimH",
    "dim_H",
    "dim_A",
    "LeqResult",
    "datum_leq",
    "datum_equiv",
    "TripleRecord",
    "enumerate_triples",
    "ObstructionReport",
    "obstruction_check",
    "Predicates",
    "predicates",
]

DATUM_MEMO_SIZE = 1024  # entries of the analyze_datum memo


class _Infinite:
    def __repr__(self):
        return "INFINITE"


INFINITE = _Infinite()


@record
class FiniteAbelianGroup:
    """A finite abelian group by invariant factors m1 | m2 | ... (each >= 2);
    the empty tuple is the trivial group."""

    invariant_factors: tuple[int, ...] = ()

    def __post_init__(self):
        factors = _int_tuple(self.invariant_factors, "invariant factors")
        object.__setattr__(self, "invariant_factors", factors)
        if any(m < 2 for m in factors):
            raise ValueError("invariant factors must be >= 2")
        if any(b % a for a, b in zip(factors, factors[1:])):
            raise ValueError("invariant factors must form a divisibility chain")

    @property
    def order(self) -> int:
        return prod(self.invariant_factors)

    @property
    def ngens(self) -> int:
        return len(self.invariant_factors)

    @property
    def exponent(self) -> int:
        return self.invariant_factors[-1] if self.invariant_factors else 1

    def elements(self):
        return itertools.product(*(range(m) for m in self.invariant_factors))

    def reduce(self, vec) -> tuple[int, ...]:
        vec = _int_tuple(vec, "coordinates")
        if len(vec) != self.ngens:
            raise ValueError(
                f"need {self.ngens} coordinates for invariant factors "
                f"{list(self.invariant_factors)}, got {len(vec)}"
            )
        return tuple(v % m for v, m in zip(vec, self.invariant_factors))


@record
class OpaqueGroup:
    """A group known only by its order, an int >= 1 (None means infinite)."""

    order: int | None = None
    label: str = "opaque"

    def __post_init__(self):
        if self.order is not None and _int_tuple((self.order,), "group order")[0] < 1:
            raise ValueError("group order must be >= 1")


@record
class TorusEmbedding:
    """An injective homomorphism of a finite abelian group into the
    maximal torus: generator i goes to the torus point whose coordinates
    are the i-th column of the matrix, read modulo the i-th invariant
    factor (a root of unity exponent)."""

    group: FiniteAbelianGroup
    matrix: tuple[tuple[int, ...], ...]  # n rows, ngens columns
    n: int

    def __post_init__(self):
        (n,), ngens = _int_tuple((self.n,), "torus rank"), self.group.ngens
        rows = tuple(_int_tuple(row, "embedding matrix entries") for row in self.matrix)
        if len(rows) != n or any(len(r) != ngens for r in rows):
            raise ValueError(f"embedding matrix must be {n} x {ngens}")
        object.__setattr__(self, "matrix", rows)

    @classmethod
    def make(cls, group: FiniteAbelianGroup, matrix, n: int) -> "TorusEmbedding":
        return cls(group, matrix, n)

    @classmethod
    def trivial(cls, n: int) -> "TorusEmbedding":
        return cls(FiniteAbelianGroup(()), ((),) * n, n)

    def point_exponents(self, g, modulus: int) -> tuple[int, ...]:
        """The image of a group element as a vector of root-of-unity
        exponents modulo the given common modulus (a multiple of the
        group exponent)."""
        (modulus,) = _int_tuple((modulus,), "modulus")
        return tuple(x % modulus for x in self._exponent_matrix(modulus).apply(g))

    def _exponent_matrix(self, modulus: int) -> IntMatrix:  # trusts an int modulus, own rows
        factors = self.group.invariant_factors
        if any(modulus % m for m in factors):
            raise ValueError("modulus must be a multiple of every factor")
        steps = [modulus // m for m in factors]
        return IntMatrix._of(tuple(tuple(s * x for s, x in zip(steps, row))
                                   for row in self.matrix), len(factors))

    def is_injective(self) -> bool:
        """Trivial kernel: the solutions of the congruence system contain the
        relations, of order modulus^k / |group|, so they must have that order."""
        factors = self.group.invariant_factors
        if not factors:  # the trivial group
            return True
        modulus = lcm(*factors)
        emat = self._exponent_matrix(modulus)
        solutions = TorusSubgroup.kernel(modulus, len(factors), emat)
        return solutions.order * self.group.order == modulus ** len(factors)


@record
class DualHom:
    """A homomorphism from a torus-character subgroup N into the character
    group of a finite abelian Gamma.

    Given by the images of N's canonical generators; image coordinates
    c_j are read modulo the j-th invariant factor (the character sends
    the j-th Gamma generator to a primitive m_j-th root raised to c_j).
    Well-definedness means every relation among the generators maps to
    the trivial character.
    """

    source_generators: tuple[tuple[int, ...], ...]
    target: FiniteAbelianGroup
    images: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        images = tuple(self.target.reduce(im) for im in self.images)
        if len(images) != len(self.source_generators):
            raise ValueError("need one image per canonical generator")
        object.__setattr__(self, "images", images)

    @classmethod
    def make(cls, source: TorusSubgroup, target: FiniteAbelianGroup, images) -> "DualHom":
        return cls(source.generators, target, images)

    @classmethod
    def trivial(cls, source: TorusSubgroup, target: FiniteAbelianGroup) -> "DualHom":
        return cls(source.generators, target, ((0,) * target.ngens,) * len(source.generators))

    def _combine(self, coeffs) -> tuple[int, ...]:
        return self.target.reduce([sum(x * im[j] for x, im in zip(coeffs, self.images))
                                   for j in range(self.target.ngens)])

    def well_defined(self, ell: int) -> bool:
        """Every relation among the source generators must map to zero.

        The relations are the kernel lattice of the generators taken as
        columns, ell times each unit vector included, so checking its basis
        rows suffices.  evaluate solves against the same factored system."""
        gens = self.source_generators
        relations = kernel_lattice(IntMatrix(zip(*gens), ncols=len(gens)), ell).data
        return not any(any(self._combine(rel)) for rel in relations)

    def evaluate(self, source: TorusSubgroup, vec) -> tuple[int, ...]:
        """Image of an arbitrary element of N (well-definedness makes the
        choice of expression immaterial)."""
        gens = self.source_generators  # the columns of an n x k system
        cols = IntMatrix(zip(*gens) if gens else [()] * source.n, ncols=len(gens))
        coeffs = solve_linear_mod(cols, vec, source.ell)
        if coeffs is None:
            raise ValueError("element not in the source subgroup")
        return self._combine(coeffs)


@record
class TwistedSubgroupDatum:
    """(I+, I-, N, Gamma, gamma, delta) with Gamma torus-embedded (or an
    opaque order-only record)."""

    iplus: frozenset[int]
    iminus: frozenset[int]
    N: TorusSubgroup
    embedding: TorusEmbedding | OpaqueGroup
    delta: DualHom | None
    sigma_recipe: tuple[SigmaGenerator, ...] | None = None

    __post_init__ = Triple.__post_init__  # index_set on iplus and iminus

    @classmethod
    def make(cls, iplus, iminus, N, embedding=None, delta=None,
             sigma_recipe=None) -> "TwistedSubgroupDatum":
        if embedding is None:
            embedding = TorusEmbedding.trivial(N.n)
        if delta is None and isinstance(embedding, TorusEmbedding):
            delta = DualHom.trivial(N, embedding.group)
        if sigma_recipe is not None:
            sigma_recipe = tuple(sigma_recipe)
        return cls(iplus, iminus, N, embedding, delta, sigma_recipe)

    @property
    def gamma_order(self):
        if isinstance(self.embedding, TorusEmbedding):
            return self.embedding.group.order
        return INFINITE if self.embedding.order is None else self.embedding.order

    @property
    def is_opaque(self) -> bool:
        return isinstance(self.embedding, OpaqueGroup)


@record
class DatumViolation:
    condition: str
    detail: str


@record
class DatumReport:
    ok: bool
    violations: tuple[DatumViolation, ...]


def validate_datum(tw: TwistMap, ell: int, d: TwistedSubgroupDatum) -> DatumReport:
    """Check every requirement of the datum, reporting all failures."""
    return analyze_datum(tw, ell, d).report


def _datum_report(tw: TwistMap, ell: int, d: TwistedSubgroupDatum) -> DatumReport:
    found = []  # (condition, detail) of every violation
    n = tw.rank
    bad = (d.iplus | d.iminus) - set(range(1, n + 1))
    if bad:
        found.append(("index_range", f"simple indices out of range: {sorted(bad)}"))
    if (d.N.ell, d.N.n) != (ell, n):
        found.append(("n_shape", "N lives in the wrong torus"))
    elif not bad:
        rows = _required_memo(tw, ell, d.iplus, d.iminus)[1].data
        for g in d.N.generators:
            values = [(row, sum(a * b for a, b in zip(row, g)) % ell) for row in rows]
            witness = next((f"{row} . {g} = {val} != 0 (mod {ell})"
                            for row, val in values if val), None)
            if witness is not None:
                found.append(("n_in_kernel", f"generator {g} is not killed by the "
                              f"required relations: {witness}"))
    if isinstance(d.embedding, TorusEmbedding):
        if d.embedding.n != n:
            found.append(("gamma_shape", "embedding has the wrong torus rank"))
        elif not d.embedding.is_injective():
            found.append(("gamma_injective", "gamma has a nontrivial kernel"))
        if d.delta is None:
            found.append(("delta_missing", "no delta supplied"))
        elif d.delta.source_generators != d.N.generators:
            found.append(("delta_source", "delta is not given on N's canonical generators"))
        elif d.delta.target != d.embedding.group:
            found.append(("delta_target", "delta maps into the wrong group"))
        elif not d.delta.well_defined(ell):
            found.append(("delta_well_defined",
                          "delta does not kill the relations among N's generators"))
    violations = tuple(DatumViolation(*v) for v in found)
    return DatumReport(ok=not violations, violations=violations)


# ---------------------------------------------------------------------------
# dimensions

@record
class DimH:
    """The quotient dimension attached to (I+, I-, N), reported in both
    conventions (root-count exponent is the primary one)."""

    ell: int
    rank: int
    sigma_order: int
    roots_plus: int
    roots_minus: int
    simple_plus: int
    simple_minus: int

    @property
    def value(self) -> int:
        return self.sigma_order * self.ell ** (self.roots_plus + self.roots_minus)

    @property
    def value_simple_convention(self) -> int:
        return self.sigma_order * self.ell ** (self.simple_plus + self.simple_minus)

    def factored(self) -> tuple[int, int]:
        """value as (cofactor, exponent) with value = cofactor * ell^exponent
        and ell not dividing the cofactor."""
        return factor_out(self.value, self.ell)


def factor_out(value: int, base: int) -> tuple[int, int]:
    if value == 0:
        return 0, 0
    e = 0
    while value % base == 0:
        value //= base
        e += 1
    return value, e


def dim_H(tw: TwistMap, ell: int, iplus, iminus, N: TorusSubgroup) -> DimH:
    """|Sigma| * ell^(#roots supported in I+ and I-), with |Sigma| =
    ell^n / |N|.  N must lie in the character kernel of (I+, I-)."""
    S = _required_memo(tw, ell, iplus := index_set(iplus), iminus := index_set(iminus))[1]
    h = _dim_h(tw, ell, iplus, iminus, N)  # the check above refuses a bad level or index
    if not N.killed_by(S.data):
        raise ValueError("N is not inside the character kernel for (I+, I-)")
    return h


def _dim_h(tw: TwistMap, ell: int, iplus: frozenset, iminus: frozenset, N) -> DimH:
    if (N.ell, N.n) != (ell, tw.rank):
        raise ValueError("N lives in a different torus")
    sigma_order, rem = divmod(ell**tw.rank, N.order)
    assert rem == 0
    roots = (sum(r.support <= ids for r in positive_roots(tw.cd)) for ids in (iplus, iminus))
    return DimH(ell, tw.rank, sigma_order, *roots, len(iplus), len(iminus))


def dim_A(tw: TwistMap, ell: int, d: TwistedSubgroupDatum):
    """|Gamma| * dim H; INFINITE for an opaque infinite Gamma."""
    return analyze_datum(tw, ell, d).valid().dim_a


# ---------------------------------------------------------------------------
# partial order

@record
class LeqResult:
    status: str  # "true", "false" or "unknown"
    reasons: tuple[str, ...] = ()
    tau: tuple[tuple[int, ...], ...] | None = None  # columns: images of
    # the second datum's generators in the first datum's group

    def __bool__(self):
        return self.status == "true"


def _solve_tau(
    gamma: TorusEmbedding, gamma_p: TorusEmbedding
) -> tuple[tuple[int, ...], ...] | None:
    """The unique tau with gamma . tau = gamma', or None.

    Works in a common torsion modulus; injectivity of gamma makes the
    solution unique once reduced modulo the invariant factors.
    """
    modulus = lcm(*gamma.group.invariant_factors, *gamma_p.group.invariant_factors)
    emat = gamma._exponent_matrix(modulus)  # factored once, by the first solve
    emat_p = gamma_p._exponent_matrix(modulus)
    columns = []
    for col in emat_p.transpose().data:
        target = [x % modulus for x in col]  # gamma' of one generator
        y0 = solve_linear_mod(emat, target, modulus)
        if y0 is None:
            return None
        columns.append(gamma.group.reduce(y0))
    return tuple(columns)


def _pullback_character(
    coords, source: FiniteAbelianGroup, tau, target: FiniteAbelianGroup
) -> tuple[int, ...]:
    """Pull a character of `source` back along tau: target' -> source,
    yielding a character of the tau domain `target`."""
    out = []
    for col, m in zip(tau, target.invariant_factors):
        terms = zip(coords, col, source.invariant_factors)
        scaled = m * sum((Fraction(c * x, f) for c, x, f in terms), Fraction(0))
        assert scaled.denominator == 1, "pullback character is not integral"
        out.append(int(scaled) % m)
    return tuple(out)


def datum_leq(
    tw: TwistMap, ell: int, d: TwistedSubgroupDatum, dp: TwistedSubgroupDatum
) -> LeqResult:
    """Decide d <= d' with a certificate.

    The comparison map between character kernels is the literal inclusion
    of annihilator subgroups, available exactly when I'+- <= I+-.
    """
    if (d.N.ell, d.N.n) != (dp.N.ell, dp.N.n) or d.N.ell != ell or d.N.n != tw.rank:
        raise ValueError("data live over different levels or ranks")
    if any(x.delta is None and not x.is_opaque for x in (d, dp)):
        raise ValueError("a datum with a torus embedding needs a delta")
    reasons = []
    if not (dp.iplus <= d.iplus and dp.iminus <= d.iminus):
        return LeqResult("false", ("index sets are not nested",))
    if not d.N.is_subgroup_of(dp.N):
        return LeqResult("false", ("N is not contained in N'",))
    if d.is_opaque or dp.is_opaque:
        return LeqResult(
            "unknown",
            ("tau existence is undecidable for an opaque Gamma",),
        )
    tau = _solve_tau(d.embedding, dp.embedding)
    if tau is None:
        return LeqResult("false", ("no tau with gamma . tau = gamma'",))
    # delta' on N must be the pullback of delta along tau
    for g in d.N.generators:
        lhs = dp.delta.evaluate(dp.N, g)
        rhs = _pullback_character(d.delta.evaluate(d.N, g), d.embedding.group, tau,
                                  dp.embedding.group)
        if lhs != rhs:
            reasons.append(
                f"delta mismatch on generator {g}: {lhs} != {rhs}"
            )
    if reasons:
        return LeqResult("false", tuple(reasons))
    return LeqResult("true", (), tau)


def datum_equiv(
    tw: TwistMap, ell: int, d: TwistedSubgroupDatum, dp: TwistedSubgroupDatum
) -> bool:
    """Mutual <=; when it holds the data agree on (I+, I-, N) and the
    group orders match (consistency of the order with equivalence)."""
    forward = datum_leq(tw, ell, d, dp)
    backward = datum_leq(tw, ell, dp, d)
    if forward.status == "unknown" or backward.status == "unknown":
        raise ValueError("equivalence is undecidable for opaque groups")
    result = bool(forward) and bool(backward)
    if result:
        assert d.iplus == dp.iplus and d.iminus == dp.iminus
        assert d.N == dp.N
        assert d.gamma_order == dp.gamma_order
    return result


# ---------------------------------------------------------------------------
# enumeration

@record
class TripleRecord:
    iplus: tuple[int, ...]
    iminus: tuple[int, ...]
    N: TorusSubgroup
    dims: DimH


def enumerate_triples(
    tw: TwistMap,
    ell: int,
    max_results: int | None = None,
    fixed_pair=None,
    cap: int | None = None,
):
    """The list of all classification triples (I+, I-, N) with their dimensions.

    Pairs (I+, I-) run over subsets of the simple roots in binary-mask
    order; for each pair, N runs over every subgroup of the character
    kernel in canonical order.  max_results truncates the list;
    fixed_pair restricts to one (I+, I-), recorded as sorted distinct
    indices.  t_hat_I_complement and _dim_h run once per pair, the latter
    on the kernel; each record then only sets |Sigma| = ell^n / |N|.
    """
    if max_results is not None:  # cap is checked where enumerate_subgroups reads it
        _int_tuple((max_results,), "max_results")
    _validate_level(ell)  # here, as max_results=0 skips the pair loop
    n = tw.rank
    if fixed_pair is not None:
        pairs = [tuple(tuple(sorted(index_set(ids))) for ids in fixed_pair)]
    else:
        subsets = [tuple(i + 1 for i in range(n) if mask >> i & 1)
                   for mask in range(1 << n)]
        pairs = itertools.product(subsets, repeat=2)  # lazy: 4^n pairs
    results, full = [], ell**n
    for iplus, iminus in pairs:
        if max_results is not None and len(results) >= max_results:
            break
        kernel = t_hat_I_complement(tw, ell, iplus, iminus)
        h = _dim_h(tw, ell, frozenset(iplus), frozenset(iminus), kernel)
        roots = h.roots_plus, h.roots_minus, h.simple_plus, h.simple_minus
        results += (TripleRecord(iplus, iminus, sub, DimH(ell, n, full // sub.order, *roots))
                    for sub in enumerate_subgroups(kernel, cap=cap))
    return results[:max_results]


# ---------------------------------------------------------------------------
# structural predicates

@record
class ObstructionReport:
    """Order data of the same generator recipe at phi and at phi = 0."""

    sigma_order_twisted: int
    n_order_twisted: int
    sigma_order_untwisted: int
    n_order_untwisted: int
    dim_twisted: int
    dim_untwisted: int
    obstructed: bool

    @property
    def dim_ratio(self) -> Fraction:
        return Fraction(self.dim_twisted, self.dim_untwisted)


def obstruction_check(
    tw: TwistMap, ell: int, iplus, iminus, recipe
) -> ObstructionReport:
    """Re-evaluate Sigma's generator recipe at phi = 0 and compare.

    The quotient is not a 2-cocycle deformation of its untwisted
    counterpart when Sigma fills the torus at phi but the re-evaluated
    Sigma does not at 0 (the dimensions then differ).  Read from the
    analysis of the datum (I+, I-, N), N the annihilator of Sigma.
    """
    iplus, iminus = index_set(iplus), index_set(iminus)
    recipe = tuple(recipe)
    sigma = evaluate_recipe(tw, ell, recipe)
    _require_triple(tw, ell, iplus, iminus, sigma, "twisted")
    d = TwistedSubgroupDatum.make(iplus, iminus, annihilator(sigma), sigma_recipe=recipe)
    return predicates(tw, ell, d).obstruction


def _require_triple(tw: TwistMap, ell: int, iplus, iminus, sigma, side: str) -> None:
    report = _triple_report(tw, ell, iplus, iminus, sigma)
    if not report.ok:
        raise ValueError(
            f"recipe does not produce a valid {side} triple; "
            f"missing generators: {report.missing}"
        )


@record
class Predicates:
    pointed_necessary: bool
    semisimple: bool
    dual_pointed_consistent: bool | None
    cocycle_deformation_obstructed: bool
    obstruction: ObstructionReport | None = None


def default_sigma_recipe(tw: TwistMap, ell: int, d: TwistedSubgroupDatum, sigma):
    """Recipe used when the datum does not carry one: the required
    generators symbolically, plus the canonical generators of Sigma, the
    annihilator of N, as fixed vectors (treated as twist-independent)."""
    labels, S = _required_memo(tw, ell, d.iplus, d.iminus)
    recipe = [SigmaGenerator(*label) for label in labels]
    required = TorusSubgroup.from_generators(ell, tw.rank, S)
    recipe += [SigmaGenerator.fixed(g) for g in sigma.generators
               if not required.contains(g)]
    return tuple(recipe)


def predicates(
    tw: TwistMap, ell: int, d: TwistedSubgroupDatum, recipe=None
) -> Predicates:
    """The structural predicates of a valid datum; a recipe given here
    replaces the datum's own."""
    if recipe is not None:
        d = replace(d, sigma_recipe=tuple(recipe))
    a = analyze_datum(tw, ell, d).valid()
    if a.failure is not None:
        raise a.failure[0](a.failure[1])
    return a.predicates


# ---------------------------------------------------------------------------
# the analysis of a datum

@record
class DatumAnalysis:
    """Everything a datum determines (see analyze_datum); an invalid datum
    sets only the report.  failure is the (exception type, message) of a
    sigma recipe the predicates cannot use, raised by their every reader."""

    report: DatumReport
    dim_h: DimH | None = None
    dim_a: int | _Infinite | None = None  # INFINITE for an opaque infinite Gamma
    predicates: Predicates | None = None
    failure: tuple[type, str] | None = None

    def valid(self) -> "DatumAnalysis":
        """self; ValueError for an invalid datum."""
        if not self.report.ok:
            raise ValueError(f"invalid datum: {[v.detail for v in self.report.violations]}")
        return self


@functools.lru_cache(maxsize=DATUM_MEMO_SIZE, typed=True)
def analyze_datum(tw: TwistMap, ell: int, d: TwistedSubgroupDatum) -> DatumAnalysis:
    """Validate a datum and derive dim H, dim A and the predicates from it.

    Memoised on (tw, ell, d), all immutable records, so the checks of one
    request share one analysis.  Sigma's recipe (the datum's own, else
    default_sigma_recipe) must reproduce N = Sigma^perp, tested by order.
    The twisted side of the obstruction reuses N and dim H; the untwisted
    side needs only |Sigma_0|, as |N_0| = ell^n / |Sigma_0|.
    """
    report = _datum_report(tw, ell, d)
    if not report.ok:
        return DatumAnalysis(report)
    h = _dim_h(tw, ell, d.iplus, d.iminus, d.N)
    order = d.gamma_order
    dim_a = INFINITE if order is INFINITE else order * h.value
    recipe = d.sigma_recipe
    zero = zero_twist(tw.cd)
    total = ell**tw.rank
    try:
        if recipe is None:  # the default spans the annihilator of N, which gives N
            recipe = default_sigma_recipe(tw, ell, d, sigma := annihilator(d.N))
        elif not (d.N.order * (sigma := evaluate_recipe(tw, ell, recipe)).order == total
                  and d.N.killed_by(sigma.generators)):
            raise ValueError("sigma recipe does not reproduce the datum's N")
        _require_triple(tw, ell, d.iplus, d.iminus, sigma, "twisted")
        sigma_zero = evaluate_recipe(zero, ell, recipe)
        _require_triple(zero, ell, d.iplus, d.iminus, sigma_zero, "untwisted")
    except (ValueError, IndexError) as exc:
        return DatumAnalysis(report, h, dim_a, failure=(type(exc), str(exc)))
    ob = ObstructionReport(sigma.order, d.N.order, sigma_zero.order, total // sigma_zero.order,
                           h.value, replace(h, sigma_order=sigma_zero.order).value,
                           sigma.order == total and sigma_zero.order != total)
    finite = not (d.is_opaque and d.embedding.order is None)
    preds = Predicates(not (d.iplus & d.iminus), not (d.iplus | d.iminus) and finite,
                       True if not d.is_opaque else None, ob.obstructed, ob)
    return DatumAnalysis(report, h, dim_a, preds)
