"""analyze_datum and the shared Hermite solver against the frozen
oracles of tests/oracles.py: the former validate_datum, dim_H, dim_A and
predicates, each deriving everything afresh, and the former
solve_linear_mod and kernel_lattice, each making its own Hermite form.

Data are drawn at random over zero and nonzero twists of A2, B2, G2, A3
and C3 and over prime and composite levels (9, 15, 1001), and reach the
invalid-datum paths (indices out of range, N outside the kernel or in the
wrong torus, a non-injective gamma, an ill-defined delta), opaque Gamma
of finite and infinite order, and sigma recipes that do not reproduce N
or give no valid untwisted triple.  Every check is asked twice, so the
second answer comes from the memo.  derandomize=True and a fixed
max_examples keep the tests deterministic.
"""

import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qsubgroups.datum import (
    INFINITE,
    DualHom,
    FiniteAbelianGroup,
    OpaqueGroup,
    TorusEmbedding,
    TwistedSubgroupDatum,
    analyze_datum,
    dim_A,
    dim_H,
    obstruction_check,
    predicates,
    validate_datum,
)
from qsubgroups.exact import IntMatrix, kernel_lattice, kernel_mod, solve_linear_mod
from qsubgroups.lie import cartan_matrix
from qsubgroups.torus import SigmaGenerator, TorusSubgroup, annihilator, t_hat_I_complement
from qsubgroups.twist import c3_parameter_matrix, kbar_exponent, require_twist, zero_twist

from oracles import (
    _former_obstruction,
    former_dim_a,
    former_dim_h,
    former_kernel_lattice,
    former_predicates,
    former_solve_linear_mod,
    former_validate_datum,
)

FUZZ = settings(derandomize=True, max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

TWISTS = [zero_twist(cartan_matrix(t, n)) for t, n in
          (("A", 2), ("B", 2), ("G", 2), ("A", 3), ("C", 3))]
TWISTS += [require_twist(cartan_matrix("A", 2), [[-1, 2], [-2, 1]]),
           require_twist(cartan_matrix("B", 2), [[-1, 2], [-1, 1]]),
           require_twist(cartan_matrix("G", 2), [[-3, 2], [-6, 3]]),
           require_twist(cartan_matrix("C", 3), c3_parameter_matrix(1, 2, 0))]
LEVELS = [3, 5, 7, 9, 11, 15, 1001]


def subset(draw, n):
    return frozenset(i for i in range(1, n + 1) if draw(st.booleans()))


@st.composite
def data(draw):
    """(tw, ell, datum): valid about half of the time."""
    tw = draw(st.sampled_from(TWISTS))
    n = tw.rank
    ell = draw(st.sampled_from(LEVELS))
    iplus, iminus = subset(draw, n), subset(draw, n)
    if draw(st.integers(0, 9)) == 9:
        iplus |= {n + 1}  # index_range
    kernel = (t_hat_I_complement(tw, ell, iplus, iminus) if max(iplus | iminus, default=0) <= n
              else TorusSubgroup.full(ell, n))
    gens = [tuple(draw(st.integers(0, 3)) * x for x in g) for g in kernel.generators]
    if draw(st.integers(0, 4)) == 4:  # most likely outside the kernel
        gens.append(tuple(draw(st.integers(0, ell - 1)) for _ in range(n)))
    level = draw(st.sampled_from([3, 5])) if draw(st.integers(0, 14)) == 14 else ell
    N = TorusSubgroup.from_generators(level, n, [tuple(x % level for x in g) for g in gens])
    kind = draw(st.sampled_from(["trivial", "cyclic", "cyclic", "pair", "opaque"]))
    if kind == "opaque":
        embedding = OpaqueGroup(order=draw(st.sampled_from([None, 1, 6])))
        delta = None
    elif kind == "trivial":
        embedding, delta = TorusEmbedding.trivial(n), None
    else:
        m = draw(st.sampled_from([3, 5, 9, 15]))
        factors = (m,) if kind == "cyclic" else (3, 3 * m)
        group = FiniteAbelianGroup(factors)
        rows = [[draw(st.integers(0, f - 1)) for f in factors] for _ in range(n)]
        embedding = TorusEmbedding.make(group, rows, n)
        if draw(st.booleans()):
            delta = DualHom.trivial(N, group)
        else:  # often ill-defined
            images = [[draw(st.integers(0, f - 1)) for f in factors] for _ in N.generators]
            delta = DualHom.make(N, group, images)
        if draw(st.integers(0, 9)) == 9:  # delta_source
            delta = DualHom.trivial(TorusSubgroup.full(level, n), group)
    recipe = None
    if draw(st.integers(0, 2)) == 2:
        # a required generator given as its value at tw, not symbolically,
        # is seldom required at phi = 0: no valid untwisted triple
        symbols = [SigmaGenerator.fixed(kbar_exponent(tw, i)) if draw(st.integers(0, 3)) == 3
                   else SigmaGenerator.kbar(i) for i in sorted(iplus) if i <= n]
        symbols += [SigmaGenerator.ktilde(j) for j in sorted(iminus)]
        symbols += [SigmaGenerator.tau(i) for i in range(1, n + 1) if draw(st.booleans())]
        symbols += [SigmaGenerator.fixed(g) for g in annihilator(N).generators
                    if draw(st.booleans())]
        recipe = tuple(draw(st.permutations(symbols)))
    return tw, ell, TwistedSubgroupDatum.make(iplus, iminus, N, embedding, delta, recipe)


def raised(call):
    """(type, message) of what call raises, or None with its value."""
    try:
        return None, call()
    except (ValueError, IndexError) as exc:
        return (type(exc), str(exc)), None


@FUZZ
@given(data())
def test_analyze_datum_matches_frozen_checks(case):
    tw, ell, d = case
    for _ in range(2):  # the second pass reads the memo
        a = analyze_datum(tw, ell, d)
        assert validate_datum(tw, ell, d) is a.report
        want = former_validate_datum(tw, ell, d)
        assert [(v.condition, v.detail) for v in a.report.violations] == want
        assert a.report.ok == (not want)
        if want:
            assert (a.dim_h, a.dim_a, a.predicates) == (None, None, None)
            for check in (dim_A, predicates):
                with pytest.raises(ValueError, match="invalid datum"):
                    check(tw, ell, d)
            continue
        h = a.dim_h
        assert (h.sigma_order, h.roots_plus, h.roots_minus, h.simple_plus,
                h.simple_minus) == former_dim_h(tw, ell, d.iplus, d.iminus, d.N)
        assert dim_H(tw, ell, sorted(d.iplus), list(d.iminus), d.N) == h
        order = former_dim_a(tw, ell, d)
        assert dim_A(tw, ell, d) == (INFINITE if order is None else order)
        failure, expected = raised(lambda: former_predicates(tw, ell, d))
        got_failure, preds = raised(lambda: predicates(tw, ell, d))
        assert got_failure == failure
        if failure is None:
            ob = preds.obstruction
            assert (preds.pointed_necessary, preds.semisimple,
                    preds.dual_pointed_consistent) == expected[:3]
            assert tuple(getattr(ob, k) for k in ob._fields) == expected[3]
            assert preds.cocycle_deformation_obstructed == ob.obstructed


@FUZZ
@given(data())
def test_obstruction_check_matches_frozen_check(case):
    tw, ell, d = case
    recipe = d.sigma_recipe or (SigmaGenerator.tau(1),)
    failure, expected = raised(
        lambda: _former_obstruction(tw, ell, d.iplus, d.iminus, recipe))
    got_failure, ob = raised(lambda: obstruction_check(tw, ell, d.iplus, d.iminus, recipe))
    assert got_failure == failure
    if failure is None:
        assert tuple(getattr(ob, k) for k in ob._fields) == expected


def test_predicates_recipe_argument_replaces_the_datums():
    tw = TWISTS[-1]  # the worked C3 twist
    recipe = (SigmaGenerator.kbar(2), SigmaGenerator.ktilde(1),
              SigmaGenerator.tau(3), SigmaGenerator.tau(2))
    d = TwistedSubgroupDatum.make({2}, {1}, TorusSubgroup.trivial(11, 3))
    assert not predicates(tw, 11, d).cocycle_deformation_obstructed
    ob = predicates(tw, 11, d, recipe=recipe).obstruction
    assert ob.obstructed and ob.dim_ratio == Fraction(11)
    bad = (SigmaGenerator.kbar(2),)
    with pytest.raises(ValueError, match=re.escape("does not reproduce the datum's N")):
        predicates(tw, 11, d, recipe=bad)


def test_recipe_of_the_right_order_must_still_reproduce_n():
    """|N| * |Sigma| = ell^n is not enough: Sigma must also kill N."""
    tw = TWISTS[-1]  # the worked C3 twist
    d = TwistedSubgroupDatum.make({2}, (), TorusSubgroup.from_generators(11, 3, [(3, 1, 1)]))
    assert predicates(tw, 11, d, recipe=(SigmaGenerator.ktilde(1), SigmaGenerator.kbar(2)))
    same_order = (SigmaGenerator.kbar(2), SigmaGenerator.kbar(1))  # |Sigma| = 121, N's is 11
    with pytest.raises(ValueError, match=re.escape("does not reproduce the datum's N")):
        predicates(tw, 11, d, recipe=same_order)


@st.composite
def systems(draw):
    """(A, mod): a p x k integer matrix, 0 <= p, k <= 4, with a modulus."""
    mod = draw(st.sampled_from([1, 2, 3, 5, 9, 15, 45, 1001]))
    p, k = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    entries = st.integers(-2 * mod - 3, 2 * mod + 3)
    rows = [[draw(entries) for _ in range(k)] for _ in range(p)]
    return IntMatrix(rows, ncols=k), mod


@FUZZ
@given(systems(), st.data())
def test_shared_solver_matches_frozen_solver(system, draw):
    A, mod = system
    kernel = former_kernel_lattice(A, mod)
    for _ in range(2):  # the second pass reads the memo
        assert kernel_lattice(A, mod) == kernel
        assert kernel_mod(A, mod) == [
            (gen, mod // gcd(mod, *gen))
            for gen in (tuple(x % mod for x in row) for row in kernel.data) if any(gen)]
    y0 = [draw.draw(st.integers(-mod, mod)) for _ in range(A.ncols)]
    for b in ([draw.draw(st.integers(-mod, 2 * mod)) for _ in range(A.nrows)],
              list(A.apply(y0))):  # any right-hand side, then a solvable one
        y = solve_linear_mod(A, b, mod)
        assert y == former_solve_linear_mod(A, b, mod)
        if y is not None:
            assert all((lhs - rhs) % mod == 0 for lhs, rhs in zip(A.apply(y), b))
    assert solve_linear_mod(A, list(A.apply(y0)), mod) is not None


def test_recipe_without_untwisted_triple_fails_like_the_frozen_check():
    tw = TWISTS[-1]  # the worked C3 twist; (2, 3, 2) is kbar(2) at tw, not at 0
    recipe = (SigmaGenerator.fixed((2, 3, 2)), SigmaGenerator.ktilde(1))
    sigma = TorusSubgroup.from_generators(11, 3, [(2, 3, 2), (5, 8, 10)])
    d = TwistedSubgroupDatum.make({2}, {1}, annihilator(sigma), sigma_recipe=recipe)
    assert validate_datum(tw, 11, d).ok and dim_A(tw, 11, d) == 121 * 11**2
    failure, _ = raised(lambda: former_predicates(tw, 11, d))
    assert failure is not None and "untwisted" in failure[1]
    for _ in range(2):
        assert raised(lambda: predicates(tw, 11, d))[0] == failure
        assert analyze_datum(tw, 11, d).failure == failure
