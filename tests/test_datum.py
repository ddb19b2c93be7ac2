"""Tests for twisted subgroup data: validation, dimensions, order."""

import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from qsubgroups.datum import (
    INFINITE,
    DualHom,
    FiniteAbelianGroup,
    OpaqueGroup,
    TorusEmbedding,
    TripleRecord,
    TwistedSubgroupDatum,
    analyze_datum,
    datum_equiv,
    datum_leq,
    dim_A,
    dim_H,
    enumerate_triples,
    factor_out,
    obstruction_check,
    predicates,
    validate_datum,
)
from qsubgroups.exact import IntMatrix
from qsubgroups.lie import CartanDatum, cartan_matrix
from qsubgroups.torus import (
    EnumerationGuard,
    SigmaGenerator,
    TorusSubgroup,
    Triple,
    annihilator,
    validate_triple,
)
from qsubgroups.twist import (
    build_twist,
    c3_parameter_matrix,
    enumerate_valid_twists,
    require_twist,
    zero_twist,
)

from oracles import (
    brute_cyclic_leq,
    brute_subgroups,
    clear_library_memos,
    conjugated,
    relabelled_twist,
    relabellings,
)

C3 = cartan_matrix("C", 3)


def worked_twist():
    return require_twist(C3, c3_parameter_matrix(1, 2, 0))


def n_from_gens(ell, n, gens):
    return TorusSubgroup.from_generators(ell, n, gens)


def permuted(N, perm):
    """N with coordinate k of the renamed torus read from old coordinate perm[k]."""
    return n_from_gens(N.ell, N.n, [[g[i] for i in perm] for g in N.generators])


class TestGroupsAndEmbeddings:
    def test_invariant_factor_validation(self):
        assert FiniteAbelianGroup((2, 4)).order == 8
        assert FiniteAbelianGroup(()).order == 1
        with pytest.raises(ValueError):
            FiniteAbelianGroup((4, 2))
        with pytest.raises(ValueError):
            FiniteAbelianGroup((1,))

    def test_trivial_embedding_injective(self):
        assert TorusEmbedding.trivial(3).is_injective()

    def test_injectivity_detection(self):
        z2 = FiniteAbelianGroup((2,))
        good = TorusEmbedding.make(z2, [[1], [0], [0]], 3)
        bad = TorusEmbedding.make(z2, [[0], [0], [0]], 3)
        assert good.is_injective()
        assert not bad.is_injective()

    def test_injectivity_multi_factor(self):
        z55 = FiniteAbelianGroup((5, 5))
        assert TorusEmbedding.make(
            z55, [[1, 0], [0, 1], [0, 0]], 3
        ).is_injective()
        # both generators land on the same cyclic line: kernel is nontrivial
        assert not TorusEmbedding.make(
            z55, [[1, 2], [0, 0], [0, 0]], 3
        ).is_injective()

    def test_injectivity_mixed_orders(self):
        z24 = FiniteAbelianGroup((2, 4))
        assert TorusEmbedding.make(
            z24, [[1, 0], [0, 1]], 2
        ).is_injective()
        # the order-2 generator equals the square of the order-4 one
        assert not TorusEmbedding.make(
            z24, [[0, 0], [1, 2]], 2
        ).is_injective()

    def test_injectivity_against_enumeration(self):
        rng = random.Random(71)
        for _ in range(80):
            factors = rng.choice([(2,), (3,), (4,), (6,), (2, 2), (2, 4), (2, 6), (3, 3),
                                  (3, 9), (2, 2, 4)])
            group = FiniteAbelianGroup(factors)
            n = rng.randrange(1, 4)
            emb = TorusEmbedding.make(
                group,
                [[rng.randrange(m) for m in factors] for _ in range(n)],
                n,
            )
            modulus = factors[-1]
            images = set()
            trivial_kernel = True
            for g in group.elements():
                point = emb.point_exponents(g, modulus)
                if point == (0,) * n and any(g):
                    trivial_kernel = False
                images.add(point)
            assert emb.is_injective() == trivial_kernel == (
                len(images) == group.order
            )


class TestDualHom:
    def test_trivial_always_well_defined(self):
        nsub = n_from_gens(11, 3, [(3, 1, 1)])
        delta = DualHom.trivial(nsub, FiniteAbelianGroup((2,)))
        assert delta.well_defined(11)
        assert delta.evaluate(nsub, (3, 1, 1)) == (0,)

    def test_order_compatibility(self):
        # generator of order 11 cannot map to an order-2 character
        nsub = n_from_gens(11, 3, [(3, 1, 1)])
        bad = DualHom.make(nsub, FiniteAbelianGroup((2,)), [(1,)])
        assert not bad.well_defined(11)
        good = DualHom.make(nsub, FiniteAbelianGroup((11,)), [(4,)])
        assert good.well_defined(11)

    def test_evaluate_is_linear(self):
        nsub = n_from_gens(11, 3, [(3, 1, 1)])
        delta = DualHom.make(nsub, FiniteAbelianGroup((11,)), [(4,)])
        g = nsub.generators[0]
        double = tuple((2 * x) % 11 for x in g)
        assert delta.evaluate(nsub, double) == ((2 * 4) % 11,)

    def test_rejects_elements_outside_source(self):
        nsub = n_from_gens(11, 3, [(3, 1, 1)])
        delta = DualHom.trivial(nsub, FiniteAbelianGroup(()))
        with pytest.raises(ValueError):
            delta.evaluate(nsub, (1, 0, 0))

    def test_image_length_must_match_target(self):
        # an image with fewer or more coordinates than Gamma has invariant
        # factors is rejected, never padded or truncated
        nsub = n_from_gens(11, 3, [(3, 1, 1)])
        with pytest.raises(ValueError):
            DualHom.make(nsub, FiniteAbelianGroup((3, 3)), [(1,)])
        with pytest.raises(ValueError):
            DualHom.make(nsub, FiniteAbelianGroup((3,)), [(0, 5)])


class TestValidateDatum:
    def test_trivial_datum_valid(self):
        tw = worked_twist()
        d = TwistedSubgroupDatum.make((), (), TorusSubgroup.trivial(11, 3))
        assert validate_datum(tw, 11, d).ok

    def test_worked_datum_valid(self):
        tw = worked_twist()
        d = TwistedSubgroupDatum.make(
            {2}, (), n_from_gens(11, 3, [(3, 1, 1)])
        )
        assert validate_datum(tw, 11, d).ok

    def test_bad_n_generator_witnessed(self):
        tw = worked_twist()
        d = TwistedSubgroupDatum.make(
            {2}, (), n_from_gens(11, 3, [(1, 0, 0)])
        )
        report = validate_datum(tw, 11, d)
        assert not report.ok
        assert any(v.condition == "n_in_kernel" for v in report.violations)
        # the witnessing equation is the I+ row (2, 3, 2)
        assert any("(2, 3, 2)" in v.detail for v in report.violations)

    def test_non_injective_gamma_reported(self):
        tw = worked_twist()
        z2 = FiniteAbelianGroup((2,))
        d = TwistedSubgroupDatum.make(
            (), (), TorusSubgroup.trivial(11, 3),
            embedding=TorusEmbedding.make(z2, [[0], [0], [0]], 3),
        )
        report = validate_datum(tw, 11, d)
        assert any(v.condition == "gamma_injective" for v in report.violations)

    def test_ill_defined_delta_reported(self):
        tw = worked_twist()
        nsub = n_from_gens(11, 3, [(3, 1, 1)])
        z2 = FiniteAbelianGroup((2,))
        d = TwistedSubgroupDatum.make(
            {2}, (), nsub,
            embedding=TorusEmbedding.make(z2, [[1], [0], [0]], 3),
            delta=DualHom.make(nsub, z2, [(1,)]),
        )
        report = validate_datum(tw, 11, d)
        assert any(v.condition == "delta_well_defined" for v in report.violations)

    @pytest.mark.parametrize("condition", ["gamma_shape", "delta_missing", "delta_target"])
    def test_embedding_and_delta_shapes_reported(self, condition):
        """An embedding of another torus rank, a missing delta and a delta
        into another group are each the one violation of a built datum."""
        nsub, z2 = TorusSubgroup.trivial(11, 3), FiniteAbelianGroup((2,))
        embedding = TorusEmbedding.make(z2, [[1], [0], [0]], 3)
        embedding, delta = {
            "gamma_shape": (TorusEmbedding.make(z2, [[1], [0]], 2), DualHom.trivial(nsub, z2)),
            "delta_missing": (embedding, None),
            "delta_target": (embedding, DualHom.trivial(nsub, FiniteAbelianGroup((3,)))),
        }[condition]
        d = TwistedSubgroupDatum(frozenset(), frozenset(), nsub, embedding, delta)
        report = validate_datum(worked_twist(), 11, d)
        assert [v.condition for v in report.violations] == [condition]


    def test_record_readers_do_not_check_indices_again(self, monkeypatch):
        """A Triple and a datum checked I+- when they were built, so cold
        validate_triple and analyze_datum calls make no index_set call;
        the bare-index dim_H still checks both sets."""
        import qsubgroups.datum as datum_module
        import qsubgroups.lie as lie_module
        import qsubgroups.torus as torus_module

        tw = worked_twist()
        triple = Triple.make(tw, 11, {2}, {1}, sigma_gens=[(2, 3, 2), (5, 8, 10)])
        recipe = (SigmaGenerator.ktilde(1), SigmaGenerator.kbar(2))
        data = [TwistedSubgroupDatum.make({2}, (), n_from_gens(11, 3, [(3, 1, 1)])),
                TwistedSubgroupDatum.make({2}, {1}, annihilator(triple.sigma),
                                          sigma_recipe=recipe)]
        clear_library_memos()
        calls = []

        def counting(ids, original=lie_module.index_set):
            calls.append(ids)
            return original(ids)

        for module in (lie_module, torus_module, datum_module):
            monkeypatch.setattr(module, "index_set", counting)
        assert validate_triple(tw, 11, triple).ok
        assert all(analyze_datum(tw, 11, d).predicates is not None for d in data)
        assert calls == []
        dim_H(tw, 11, [2], (), data[0].N)
        assert calls == [[2], ()]


class TestDimensions:
    def test_empty_sets_trivial_n(self):
        tw = worked_twist()
        h = dim_H(tw, 11, (), (), TorusSubgroup.trivial(11, 3))
        assert h.value == 11**3

    def test_full_sets_give_total_dimension(self):
        expected = {("A", 2): 8, ("B", 2): 10, ("G", 2): 14, ("C", 3): 21}
        for (lie_type, rank), dim_g in expected.items():
            cd = cartan_matrix(lie_type, rank)
            tw = zero_twist(cd)
            every = tuple(range(1, rank + 1))
            h = dim_H(tw, 5, every, every, TorusSubgroup.trivial(5, rank))
            assert h.value == 5**dim_g
            assert h.factored() == (1, dim_g)

    def test_worked_datum_dimension(self):
        tw = worked_twist()
        nsub = n_from_gens(11, 3, [(3, 1, 1)])
        h = dim_H(tw, 11, {2}, (), nsub)
        assert h.sigma_order == 121
        assert h.roots_plus == 1 and h.roots_minus == 0
        assert h.value == 11**3
        assert h.value_simple_convention == 11**3

    def test_conventions_diverge_on_non_simple_support(self):
        tw = worked_twist()
        h = dim_H(tw, 11, {1, 2}, (), TorusSubgroup.trivial(11, 3))
        # the rank-2 subsystem on {1, 2} has 3 positive roots
        assert h.roots_plus == 3 and h.simple_plus == 2
        assert h.value == h.value_simple_convention * 11

    def test_n_outside_kernel_rejected(self):
        tw = worked_twist()
        with pytest.raises(ValueError):
            dim_H(tw, 11, {2}, (), n_from_gens(11, 3, [(1, 0, 0)]))

    def test_kernel_check_is_in_the_public_dim_h(self):
        # dim_H tests a caller's N against the required rows: a proper
        # subgroup of the character kernel passes, and adding one vector
        # outside it is refused; _dim_h, behind it, trusts its caller
        import qsubgroups.datum as datum_module
        from qsubgroups.torus import t_hat_I_complement

        tw = worked_twist()
        kernel = t_hat_I_complement(tw, 11, {2}, ())
        proper = n_from_gens(11, 3, [(3, 1, 1)])
        assert proper.is_subgroup_of(kernel) and proper.order < kernel.order
        assert dim_H(tw, 11, {2}, (), proper) == datum_module._dim_h(
            tw, 11, frozenset({2}), frozenset(), proper)
        assert dim_H(tw, 11, [2], [], kernel).sigma_order == 11**3 // kernel.order
        outside = proper.join(n_from_gens(11, 3, [(1, 0, 0)]))
        with pytest.raises(ValueError, match="not inside the character kernel"):
            dim_H(tw, 11, {2}, (), outside)

    def test_n_from_another_torus_rejected(self):
        # both would pass a row-by-row kernel test that ignores the shape:
        # the trivial subgroup has no generators, and (3, 1, 1, 0) truncated
        # to rank 3 lies in the kernel for I+ = {2}
        tw = worked_twist()
        with pytest.raises(ValueError):
            dim_H(tw, 11, {2}, (), TorusSubgroup.trivial(13, 3))
        with pytest.raises(ValueError):
            dim_H(tw, 11, {2}, (), n_from_gens(11, 4, [(3, 1, 1, 0)]))

    def test_dim_a_multiplies(self):
        tw = worked_twist()
        nsub = n_from_gens(11, 3, [(3, 1, 1)])
        trivial = TwistedSubgroupDatum.make({2}, (), nsub)
        assert dim_A(tw, 11, trivial) == 11**3

        z2 = FiniteAbelianGroup((2,))
        with_z2 = TwistedSubgroupDatum.make(
            {2}, (), nsub,
            embedding=TorusEmbedding.make(z2, [[1], [0], [0]], 3),
            delta=DualHom.trivial(nsub, z2),
        )
        assert dim_A(tw, 11, with_z2) == 2 * 11**3

        z55 = FiniteAbelianGroup((5, 5))
        with_z55 = TwistedSubgroupDatum.make(
            {2}, (), nsub,
            embedding=TorusEmbedding.make(z55, [[1, 0], [0, 1], [0, 0]], 3),
            delta=DualHom.trivial(nsub, z55),
        )
        assert dim_A(tw, 11, with_z55) == 25 * 11**3

    def test_dim_a_opaque_infinite(self):
        tw = worked_twist()
        d = TwistedSubgroupDatum.make(
            (), (), TorusSubgroup.trivial(11, 3),
            embedding=OpaqueGroup(order=None),
            delta=None,
        )
        assert dim_A(tw, 11, d) is INFINITE and repr(INFINITE) == "INFINITE"

    def test_factor_out(self):
        assert factor_out(0, 11) == (0, 0)
        assert factor_out(2 * 11**3, 11) == (2, 3) and factor_out(7, 11) == (7, 0)


def make_simple_datum(tw, ell, iplus, iminus, n_gens, factors=(),
                      embed_rows=None, delta_images=None):
    nsub = n_from_gens(ell, tw.rank, n_gens)
    group = FiniteAbelianGroup(factors)
    if factors:
        emb = TorusEmbedding.make(group, embed_rows, tw.rank)
    else:
        emb = TorusEmbedding.trivial(tw.rank)
    if delta_images is None:
        delta = DualHom.trivial(nsub, group)
    else:
        delta = DualHom.make(nsub, group, delta_images)
    return TwistedSubgroupDatum.make(
        iplus, iminus, nsub, embedding=emb, delta=delta
    )


class TestPartialOrder:
    def test_reflexive(self):
        tw = worked_twist()
        d = make_simple_datum(
            tw, 11, {2}, (), [(3, 1, 1)], (11,), [[1], [0], [0]], [(4,)]
        )
        result = datum_leq(tw, 11, d, d)
        assert result.status == "true"
        assert result.tau == ((1,),)  # identity on the single generator

    def test_worked_comparison(self):
        tw = worked_twist()
        # both N taken as the full character kernel of their index pair
        d = make_simple_datum(tw, 11, {2}, {1}, [(3, 1, 1)])
        dp = make_simple_datum(tw, 11, {2}, (), [(1, 0, 10), (0, 1, 4)])
        # membership: (3,1,1) = 3*(1,0,10) + 1*(0,1,4) mod 11
        combo = tuple(
            (3 * a + b) % 11 for a, b in zip((1, 0, 10), (0, 1, 4))
        )
        assert combo == (3, 1, 1)
        assert datum_leq(tw, 11, d, dp).status == "true"

    def test_index_nesting_fails_fast(self):
        tw = worked_twist()
        d = make_simple_datum(tw, 11, {2}, (), [(3, 1, 1)])
        dp = make_simple_datum(tw, 11, {2, 3}, (), [])
        assert datum_leq(tw, 11, d, dp).status == "false"

    def test_n_containment_required(self):
        tw = worked_twist()
        d = make_simple_datum(tw, 11, {2}, (), [(1, 0, 10), (0, 1, 4)])
        dp = make_simple_datum(tw, 11, {2}, (), [(3, 1, 1)])
        assert datum_leq(tw, 11, d, dp).status == "false"

    def test_tau_image_containment(self):
        tw = worked_twist()
        z5 = FiniteAbelianGroup((5,))
        z55 = FiniteAbelianGroup((5, 5))
        big = TwistedSubgroupDatum.make(
            (), (), TorusSubgroup.trivial(11, 3),
            embedding=TorusEmbedding.make(z55, [[1, 0], [0, 1], [0, 0]], 3),
            delta=None,
        )
        small_inside = TwistedSubgroupDatum.make(
            (), (), TorusSubgroup.trivial(11, 3),
            embedding=TorusEmbedding.make(z5, [[2], [0], [0]], 3),
            delta=None,
        )
        small_outside = TwistedSubgroupDatum.make(
            (), (), TorusSubgroup.trivial(11, 3),
            embedding=TorusEmbedding.make(z5, [[0], [0], [1]], 3),
            delta=None,
        )
        assert datum_leq(tw, 11, big, small_inside).status == "true"
        assert datum_leq(tw, 11, big, small_outside).status == "false"

    def test_delta_compatibility(self):
        tw = worked_twist()
        nsub = [(3, 1, 1)]
        d = make_simple_datum(
            tw, 11, {2}, (), nsub, (11,), [[1], [0], [0]], [(4,)]
        )
        same_delta = make_simple_datum(
            tw, 11, {2}, (), nsub, (11,), [[1], [0], [0]], [(4,)]
        )
        other_delta = make_simple_datum(
            tw, 11, {2}, (), nsub, (11,), [[1], [0], [0]], [(5,)]
        )
        assert datum_leq(tw, 11, d, same_delta).status == "true"
        assert datum_leq(tw, 11, d, other_delta).status == "false"

    def test_opaque_gives_unknown(self):
        tw = worked_twist()
        d = make_simple_datum(tw, 11, (), (), [])
        opaque = TwistedSubgroupDatum.make(
            (), (), TorusSubgroup.trivial(11, 3),
            embedding=OpaqueGroup(order=4),
            delta=None,
        )
        assert datum_leq(tw, 11, d, opaque).status == "unknown"


def leq_datum(ell, iplus, iminus, spec):
    """The datum over (Z/ell)^3 of spec = (gens, m, column, w): N spanned
    by gens, Gamma = Z/m embedded by column / m (trivial for m = 1) and
    delta(x) = w . x mod m, a homomorphism for every N."""
    gens, m, column, w = spec
    nsub = n_from_gens(ell, 3, gens)
    if m == 1:
        return TwistedSubgroupDatum.make(iplus, iminus, nsub)
    emb = TorusEmbedding.make(FiniteAbelianGroup((m,)), [[c] for c in column], 3)
    images = [(sum(a * b for a, b in zip(w, g)) % m,) for g in nsub.generators]
    return TwistedSubgroupDatum.make(iplus, iminus, nsub, embedding=emb,
                                     delta=DualHom.make(nsub, emb.group, images))


def leq_specs(rng, ell):
    """Specs (see leq_datum) of d and d' at level ell: mostly d' relaxes d
    (a larger N, the same Gamma through a unit c with delta' = c delta, or
    a trivial Gamma), so d <= d' unless delta' is perturbed; else random."""
    def vec():
        return [rng.randrange(ell) for _ in range(3)]

    def spec():
        column = vec()
        while math.gcd(ell, *column) != 1:  # gamma must be injective
            column = vec()
        return [vec() for _ in range(rng.randrange(3))], rng.choice((1, ell)), column, vec()

    d = spec()
    if rng.random() < 0.4:
        return d, spec()
    gens, m, column, w = d
    gens = gens + [vec() for _ in range(rng.randrange(2))]
    if m == 1 or rng.random() < 0.3:
        return d, (gens, 1, column, w)
    c = rng.choice([u for u in range(1, ell) if math.gcd(u, ell) == 1])
    shift = vec() if rng.random() < 0.3 else [0, 0, 0]
    return d, (gens, m, [c * x % ell for x in column],
               [(c * x + s) % ell for x, s in zip(w, shift)])


class TestOrderOracles:
    @staticmethod
    def index_pairs(rng):
        """(I+, I-) of d and of d': mostly nested, I'+- inside I+-."""
        def subset():
            return {i for i in range(1, 4) if rng.randrange(2)}

        iplus, iminus = subset(), subset()
        if rng.random() < 0.8:
            return (iplus, iminus), ({i for i in iplus if rng.randrange(3)},
                                     {i for i in iminus if rng.randrange(3)})
        return (iplus, iminus), (subset(), subset())

    def test_leq_splits_across_coprime_levels(self):
        """(Z/pq)^3 is (Z/p)^3 x (Z/q)^3, and a Gamma of order dividing pq is
        its p-part times its q-part, as are tau and the characters delta
        takes values in.  So d <= d' at pq exactly when it holds at p and
        at q, for data glued from one datum at each level: N from q N_p +
        p N_q, Gamma's column a m_q + b m_p over m = m_p m_q, and delta's
        vector the CRT lift of (w_p m_q mod p, w_q m_p mod q).  At p and at
        q the verdict is also checked against the definition, by brute
        force over N's elements and every tau."""
        tw = worked_twist()
        rng = random.Random(211)
        seen = Counter()
        for p, q in ((3, 5), (5, 7), (3, 7)):
            ep, eq = pow(q, -1, p) * q, pow(p, -1, q) * p  # the CRT idempotents

            def glue(at_p, at_q):
                (gp, mp, ap, wp), (gq, mq, aq, wq) = at_p, at_q
                gens = [[q * x for x in g] for g in gp] + [[p * x for x in g] for g in gq]
                column = [(x * mq if mp > 1 else 0) + (y * mp if mq > 1 else 0)
                          for x, y in zip(ap, aq)]
                w = [(x * mq * ep + y * mp * eq) % (p * q) for x, y in zip(wp, wq)]
                return gens, mp * mq, column, w

            for _ in range(40):
                ids, ids2 = self.index_pairs(rng)
                at_p, at_q = leq_specs(rng, p), leq_specs(rng, q)
                status = {}
                for ell, (s, s2) in ((p, at_p), (q, at_q),
                                     (p * q, (glue(at_p[0], at_q[0]), glue(at_p[1], at_q[1])))):
                    d, d2 = leq_datum(ell, *ids, s), leq_datum(ell, *ids2, s2)
                    status[ell] = datum_leq(tw, ell, d, d2).status
                    if ell != p * q:
                        want = brute_cyclic_leq(ell, 3, ids, ids2, s, s2)
                        assert status[ell] == ("true" if want else "false"), (ell, ids, s, s2)
                want = "true" if status[p] == status[q] == "true" else "false"
                assert status[p * q] == want, (p, q, ids, ids2, at_p, at_q)
                seen[status[p], status[q]] += 1
        assert seen["true", "true"] >= 15 and seen["true", "false"] + seen["false", "true"] >= 15

    @pytest.mark.parametrize("ell", [7, 9, 15])
    def test_relabelling_keeps_leq(self, ell):
        """datum_leq reads the torus coordinates only through N, gamma and
        delta, so renaming the simple roots (I+- renamed, the coordinates
        of N's generators, gamma's column and delta's vector permuted)
        keeps the verdict and the certificate tau, though N's canonical
        generators change."""
        tw = worked_twist()
        rng = random.Random(223 + ell)
        statuses = Counter()
        for _ in range(30):
            ids, ids2 = self.index_pairs(rng)
            specs = leq_specs(rng, ell)
            got = datum_leq(tw, ell, leq_datum(ell, *ids, specs[0]),
                            leq_datum(ell, *ids2, specs[1]))
            statuses[got.status] += 1
            for perm, new in relabellings(3):
                def renamed(indices, spec):
                    gens, m, column, w = spec
                    return ([new[i] for i in indices[0]], [new[i] for i in indices[1]],
                            ([[g[i] for i in perm] for g in gens], m,
                             [column[i] for i in perm], [w[i] for i in perm]))

                moved = datum_leq(tw, ell, leq_datum(ell, *renamed(ids, specs[0])),
                                  leq_datum(ell, *renamed(ids2, specs[1])))
                assert (moved.status, moved.tau) == (got.status, got.tau), (perm, ids, specs)
        assert statuses["true"] >= 5 and statuses["false"] >= 5


class TestEquivalence:
    def test_identical(self):
        tw = worked_twist()
        d = make_simple_datum(
            tw, 11, {2}, (), [(3, 1, 1)], (11,), [[1], [0], [0]], [(4,)]
        )
        assert datum_equiv(tw, 11, d, d)

    def test_basis_change(self):
        tw = worked_twist()
        z33 = FiniteAbelianGroup((3, 3))
        nsub = TorusSubgroup.trivial(11, 3)
        e = [[1, 0], [0, 1], [0, 0]]
        d = TwistedSubgroupDatum.make(
            (), (), nsub,
            embedding=TorusEmbedding.make(z33, e, 3),
            delta=DualHom.trivial(nsub, z33),
        )
        # change of basis tau = [[1, 1], [0, 1]]: new generators are
        # gamma(e1) and gamma(e1 + e2)
        e_changed = [[1, 1], [0, 1], [0, 0]]
        dp = TwistedSubgroupDatum.make(
            (), (), nsub,
            embedding=TorusEmbedding.make(z33, e_changed, 3),
            delta=DualHom.trivial(nsub, z33),
        )
        assert datum_equiv(tw, 11, d, dp)

    def test_different_n_not_equivalent(self):
        tw = worked_twist()
        d = make_simple_datum(tw, 11, {2}, (), [(3, 1, 1)])
        dp = make_simple_datum(tw, 11, {2}, (), [])
        assert not datum_equiv(tw, 11, d, dp)


class TestEnumerateTriples:
    def test_rank_one_counts_by_brute_force(self):
        cd = cartan_matrix("A", 1)
        tw = zero_twist(cd)  # the only rank-1 twist
        for ell in (3, 5):
            records = enumerate_triples(tw, ell)
            by_pair = {}
            for rec in records:
                by_pair.setdefault((rec.iplus, rec.iminus), []).append(rec)
            # kernel is everything for the empty pair, else the zero space
            assert len(by_pair[((), ())]) == len(brute_subgroups(ell, 1))
            assert len(by_pair[((1,), ())]) == 1
            assert len(by_pair[((), (1,))]) == 1
            assert len(by_pair[((1,), (1,))]) == 1

    def test_a2_level_three_matches_brute_force(self):
        cd = cartan_matrix("A", 2)
        tw = zero_twist(cd)
        records = enumerate_triples(tw, 3)
        subgroup_sets = brute_subgroups(3, 2)
        assert len(subgroup_sets) == 6
        by_pair = {}
        for rec in records:
            key = (rec.iplus, rec.iminus)
            by_pair.setdefault(key, set()).add(
                frozenset(rec.N.elements())
            )
        for iplus in ((), (1,), (2,), (1, 2)):
            for iminus in ((), (1,), (2,), (1, 2)):
                rows = [
                    tuple(int(j + 1 == i) for j in range(2))
                    for i in list(iplus) + list(iminus)
                ]
                kernel = {
                    z
                    for z in ((a, b) for a in range(3) for b in range(3))
                    if all(
                        sum(r * x for r, x in zip(row, z)) % 3 == 0
                        for row in rows
                    )
                }
                expected = {s for s in subgroup_sets if s <= kernel}
                assert by_pair[(iplus, iminus)] == expected

    def test_fixed_pair_and_max_results(self):
        tw = worked_twist()
        records = enumerate_triples(tw, 11, fixed_pair=((2,), (1,)))
        assert len(records) == 2  # subgroups of a cyclic group of order 11
        assert [rec.N.order for rec in records] == [1, 11]
        assert enumerate_triples(tw, 11, max_results=0) == []

    def test_pair_loop_is_lazy(self):
        """The pairs (I+, I-) are produced one at a time: a guard trip in the
        first pair of A10 at ell = 3 allocates a few hundred KiB, not the
        4^10 pairs first.  The first pair's kernel is the whole torus, so
        max_results=1 does not stop its walk."""
        tw = zero_twist(cartan_matrix("A", 10))
        tracemalloc.start()
        try:
            with pytest.raises(EnumerationGuard, match="exceeds cap 10"):
                enumerate_triples(tw, 3, max_results=1, cap=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak

    def test_fixed_pair_records_sorted_distinct_indices(self):
        tw = worked_twist()
        records = enumerate_triples(tw, 11, fixed_pair=([2, 2], (1, 1)))
        assert records == enumerate_triples(tw, 11, fixed_pair=((2,), (1,)))
        assert {(rec.iplus, rec.iminus) for rec in records} == {((2,), (1,))}
        records = enumerate_triples(tw, 5, fixed_pair=([3, 1, 3], []))
        assert {(rec.iplus, rec.iminus) for rec in records} == {((1, 3), ())}

    def test_one_kernel_and_one_dim_h_per_pair(self, monkeypatch):
        """With every memo cleared, enumerate_triples reaches the character
        kernel through t_hat_I_complement and dim H through _dim_h, once
        per (I+, I-) pair: the kernel lies in itself, so the public dim_H's
        kernel check is not run."""
        import qsubgroups.datum as datum_module

        clear_library_memos()
        calls = {"t_hat_I_complement": [], "_dim_h": [], "dim_H": []}
        for name, log in calls.items():
            def counting(tw, ell, iplus, iminus, *rest, original=getattr(datum_module, name),
                         log=log):
                log.append((iplus, iminus))
                return original(tw, ell, iplus, iminus, *rest)
            monkeypatch.setattr(datum_module, name, counting)
        enumerate_triples(zero_twist(cartan_matrix("A", 2)), 3)
        subsets = [(), (1,), (2,), (1, 2)]
        pairs = [(p, m) for p in subsets for m in subsets]
        assert calls == {"t_hat_I_complement": pairs, "dim_H": [],
                         "_dim_h": [(frozenset(p), frozenset(m)) for p, m in pairs]}

    @pytest.mark.parametrize("shape", ["A2", "A3", "C3"])
    def test_counts_multiply_across_coprime_levels(self, shape):
        """For coprime p and q, (Z/pq)^n splits as (Z/p)^n x (Z/q)^n, and
        so does every subgroup of a character kernel.  So for each (I+, I-)
        the number of triples at pq is the product of the numbers at p and
        at q (a check independent of the Hermite walk)."""
        tw = worked_twist() if shape == "C3" else zero_twist(cartan_matrix("A", int(shape[1])))

        def counts(ell):
            return Counter((rec.iplus, rec.iminus) for rec in enumerate_triples(tw, ell))

        for p, q in ((3, 5), (3, 7)):
            at_p, at_q, at_pq = counts(p), counts(q), counts(p * q)
            assert len(at_pq) == 4**tw.rank
            assert {k: at_p[k] * at_q[k] for k in at_pq} == at_pq, (p, q)

    @pytest.mark.parametrize("shape, ell", [("B3", 3), ("C3", 5), ("G2", 5)])
    def test_relabelling_the_simple_roots(self, shape, ell):
        """The classification does not depend on how the simple roots are
        numbered.  With old root perm[k] renamed k + 1, A' = P A P^T and
        Y' = P Y P^T (P[k][perm[k]] = 1) give the same records, with I+-
        renamed, the coordinates of N permuted and the same DimH."""
        cd = cartan_matrix(shape[0], int(shape[1]))
        n = cd.rank
        twists = list(enumerate_valid_twists(cd, 1, limit=3))
        assert any(not tw.is_zero() for tw in twists) or shape == "B3"  # B3: phi = 0 only
        for tw in twists:
            records = enumerate_triples(tw, ell)
            for perm, new in relabellings(n):
                relabelled = relabelled_twist(tw, perm)
                expected = Counter(TripleRecord(
                    tuple(sorted(new[i] for i in rec.iplus)),
                    tuple(sorted(new[i] for i in rec.iminus)),
                    permuted(rec.N, perm),
                    rec.dims) for rec in records)
                assert Counter(enumerate_triples(relabelled, ell)) == expected, (tw.Y, perm)

    @pytest.mark.parametrize("shape", ["B3", "C3", "G2"])
    def test_relabelling_keeps_build_twist_verdicts(self, shape):
        """build_twist gives P Y P^T over P A P^T the verdict of Y over A:
        the same ok flag, and each violated condition at the renamed index
        pair (unordered for dx_antisymmetric, which reports i <= j only)."""
        cd = cartan_matrix(shape[0], int(shape[1]))
        n = cd.rank
        rng = random.Random(71)
        candidates = [tw.Y.to_lists() for tw in enumerate_valid_twists(cd, 1, limit=3)]
        candidates += [[[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
                       for _ in range(12)]
        candidates.append([[Fraction(1, 2)] + [0] * (n - 1)] + [[0] * n] * (n - 1))

        def verdict(result, new):
            pairs = Counter(
                (v.condition, tuple(sorted(new[i] for i in v.indices))
                 if v.condition == "dx_antisymmetric" else tuple(new[i] for i in v.indices))
                for v in result.violations)
            return result.ok, pairs

        same = {i: i for i in range(1, n + 1)}
        seen = set()
        for y in candidates:
            result = build_twist(cd, y)
            seen |= {v.condition for v in result.violations} | {result.ok}
            for perm, new in relabellings(n):
                cd2 = CartanDatum.from_matrix(IntMatrix(conjugated(cd.A.data, perm)))
                assert verdict(build_twist(cd2, conjugated(y, perm)), same) == \
                    verdict(result, new), (y, perm)
        wanted = {True, False, "integral_parameters", "dx_antisymmetric", "half_integrality"}
        if cd.A.det() == 1:  # G2: adj A is A^(-1), so every integral Y is half-integral
            wanted.remove("half_integrality")
        assert seen >= wanted

    @pytest.mark.parametrize("shape, ell", [("B3", 3), ("C3", 5), ("G2", 5)])
    def test_relabelling_keeps_datum_analyses(self, shape, ell):
        """analyze_datum of the renamed datum (I+- renamed, N's coordinates
        permuted) gives the same DimH, dim A and predicates, for the last
        enumerated N of each (I+, I-); with N the whole torus it fails the
        same conditions.  Same twists as test_relabelling_the_simple_roots."""
        cd = cartan_matrix(shape[0], int(shape[1]))
        n = cd.rank
        full = TorusSubgroup.full(ell, n)
        for tw in enumerate_valid_twists(cd, 1, limit=3):
            last = {(rec.iplus, rec.iminus): rec for rec in enumerate_triples(tw, ell)}
            for perm, new in relabellings(n):
                relabelled = relabelled_twist(tw, perm)
                for (iplus, iminus), rec in last.items():
                    for N in (rec.N, full):
                        a = analyze_datum(tw, ell, TwistedSubgroupDatum.make(iplus, iminus, N))
                        b = analyze_datum(relabelled, ell, TwistedSubgroupDatum.make(
                            [new[i] for i in iplus], [new[i] for i in iminus],
                            permuted(N, perm)))
                        assert a.report.ok == b.report.ok == (N == rec.N or not iplus + iminus)
                        assert Counter(v.condition for v in a.report.violations) == \
                            Counter(v.condition for v in b.report.violations)
                        assert (a.dim_h, a.dim_a, a.predicates) == \
                            (b.dim_h, b.dim_a, b.predicates), (tw.Y, perm, iplus, iminus)
                    assert analyze_datum(tw, ell, TwistedSubgroupDatum.make(
                        iplus, iminus, rec.N)).dim_h == rec.dims


class TestPredicates:
    def worked_obstructed_datum(self):
        tw = worked_twist()
        recipe = (
            SigmaGenerator.kbar(2),
            SigmaGenerator.ktilde(1),
            SigmaGenerator.tau(3),
            SigmaGenerator.tau(2),
        )
        d = TwistedSubgroupDatum.make(
            {2}, {1}, TorusSubgroup.trivial(11, 3), sigma_recipe=recipe
        )
        return tw, d

    def test_worked_obstruction(self):
        tw, d = self.worked_obstructed_datum()
        preds = predicates(tw, 11, d)
        assert preds.cocycle_deformation_obstructed
        ob = preds.obstruction
        assert (ob.sigma_order_twisted, ob.n_order_twisted) == (11**3, 1)
        assert (ob.sigma_order_untwisted, ob.n_order_untwisted) == (121, 11)
        assert ob.dim_ratio == Fraction(11)

    def test_obstruction_check_directly(self):
        tw, d = self.worked_obstructed_datum()
        ob = obstruction_check(tw, 11, {2}, {1}, d.sigma_recipe)
        assert ob.obstructed
        assert ob.dim_twisted == 11 * ob.dim_untwisted

    def test_semisimple(self):
        tw = worked_twist()
        z2 = FiniteAbelianGroup((2,))
        d = TwistedSubgroupDatum.make(
            (), (), TorusSubgroup.trivial(11, 3),
            embedding=TorusEmbedding.make(z2, [[1], [0], [0]], 3),
            delta=DualHom.trivial(TorusSubgroup.trivial(11, 3), z2),
        )
        preds = predicates(tw, 11, d)
        assert preds.semisimple
        assert preds.pointed_necessary

    def test_pointed_necessary_fails_on_overlap(self):
        tw = worked_twist()
        d = TwistedSubgroupDatum.make({1}, {1}, TorusSubgroup.trivial(11, 3))
        preds = predicates(tw, 11, d)
        assert not preds.pointed_necessary
        assert not preds.semisimple

    def test_zero_twist_never_obstructed(self):
        tw = zero_twist(C3)
        d = TwistedSubgroupDatum.make({2}, {1}, TorusSubgroup.trivial(11, 3))
        preds = predicates(tw, 11, d)
        assert not preds.cocycle_deformation_obstructed


B2_CRIT7 = [[-1, 2], [-1, 1]]  # the B2 bound-2 twist of acceptance criterion 7


class TestAnalyzeDatum:
    def test_cold_analysis_hermite_forms_and_dim_h(self, monkeypatch):
        """A cold analysis of the worked datum reads N_0 and dim H_0 off
        |Sigma_0|, tests N = Sigma^perp by orders, builds T_I only for a
        shared index and factors nothing for the trivial Gamma: at most 4
        Hermite forms with the default recipe, 3 with (ktilde 1, kbar 2)
        and 5 with I+ = I- = {2}, and dim H once, on the twisted side."""
        import qsubgroups.datum as datum_module
        import qsubgroups.exact as exact_module
        import qsubgroups.torus as torus_module

        tw = worked_twist()
        nsub = n_from_gens(11, 3, [(3, 1, 1)])
        recipe = (SigmaGenerator.ktilde(1), SigmaGenerator.kbar(2))
        cases = [(TwistedSubgroupDatum.make({2}, (), nsub), 4),
                 (TwistedSubgroupDatum.make({2}, (), nsub, sigma_recipe=recipe), 3),
                 (TwistedSubgroupDatum.make({2}, {2}, TorusSubgroup.trivial(11, 3)), 5)]
        calls = {"hermite_normal_form": [], "_dim_h": []}

        def counting(name, original):
            def wrapper(*args):
                calls[name].append(args)
                return original(*args)
            return wrapper

        for module, name in ((exact_module, "hermite_normal_form"),
                             (torus_module, "hermite_normal_form"), (datum_module, "_dim_h")):
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        for d, most in cases:
            clear_library_memos()
            for log in calls.values():
                log.clear()
            assert analyze_datum(tw, 11, d).predicates is not None
            assert len(calls["hermite_normal_form"]) <= most, d
            assert [args[0].is_zero() for args in calls["_dim_h"]] == [False]

    def test_cold_analysis_checks_few_matrices(self, monkeypatch):
        """Matrices the library derives from checked ones come from the
        trusting IntMatrix._of, so a cold analysis of the worked datum
        types entries in IntMatrix.__init__ only at the boundary: the
        required rows S at phi and at phi = 0, the recipe's Sigma and
        delta's source generators.  At most 4 checked matrices with the
        default recipe, 5 with (ktilde 1, kbar 2) and 4 with I+ = I- = {2}
        (against 26, 20 and 27 when every derived matrix was checked)."""
        tw = worked_twist()
        nsub = n_from_gens(11, 3, [(3, 1, 1)])
        recipe = (SigmaGenerator.ktilde(1), SigmaGenerator.kbar(2))
        cases = [(TwistedSubgroupDatum.make({2}, (), nsub), 4),
                 (TwistedSubgroupDatum.make({2}, (), nsub, sigma_recipe=recipe), 5),
                 (TwistedSubgroupDatum.make({2}, {2}, TorusSubgroup.trivial(11, 3)), 4)]
        checked = []
        original = IntMatrix.__init__

        def counting(self, *args, **kwargs):
            checked.append(args)
            original(self, *args, **kwargs)

        monkeypatch.setattr(IntMatrix, "__init__", counting)
        for d, most in cases:
            clear_library_memos()
            checked.clear()
            assert analyze_datum(tw, 11, d).predicates is not None
            assert 0 < len(checked) <= most, (d, checked)

    @pytest.mark.parametrize("shape", ["C3", "B2"])
    def test_orders_multiply_across_coprime_levels(self, shape):
        """For coprime p and q, (Z/pq)^n splits as (Z/p)^n x (Z/q)^n, and a
        recipe of kbar, ktilde and tau symbols evaluates at pq to the pair
        of its values at p and at q.  So with N = Sigma^perp at each level,
        |Sigma|, dim H and the untwisted |Sigma_0|, |N_0| and dim H_0 at pq
        are the products of their values at p and at q.  (The default
        recipe does not split: its fixed vectors are Sigma's Hermite rows
        at each level.)"""
        if shape == "C3":
            tw = worked_twist()
        else:
            tw = require_twist(cartan_matrix("B", 2), B2_CRIT7)
        n = tw.rank
        symbols = [make(i) for make in (SigmaGenerator.kbar, SigmaGenerator.ktilde,
                                        SigmaGenerator.tau) for i in range(1, n + 1)]

        def orders(ell, iplus, iminus, recipe):
            sigma = TorusSubgroup.from_generators(ell, n, [g.evaluate(tw, ell) for g in recipe])
            d = TwistedSubgroupDatum.make(iplus, iminus, annihilator(sigma), sigma_recipe=recipe)
            a = analyze_datum(tw, ell, d).valid()
            assert a.failure is None, a.failure
            ob = a.predicates.obstruction
            return (a.dim_h.sigma_order, a.dim_h.value, ob.sigma_order_untwisted,
                    ob.n_order_untwisted, ob.dim_untwisted)

        rng = random.Random(43)
        for p, q in ((3, 5), (3, 7), (5, 7)):
            for _ in range(8):
                iplus, iminus = ({i for i in range(1, n + 1) if rng.randrange(2)}
                                 for _ in range(2))
                recipe = tuple([SigmaGenerator.kbar(i) for i in sorted(iplus)]
                               + [SigmaGenerator.ktilde(j) for j in sorted(iminus)]
                               + rng.sample(symbols, rng.randrange(3)))
                at_p, at_q, at_pq = (orders(ell, iplus, iminus, recipe) for ell in (p, q, p * q))
                assert at_pq == tuple(x * y for x, y in zip(at_p, at_q)), (p, q, recipe)


class TestHardening:
    def test_out_of_range_indices_reported_not_raised(self):
        tw = worked_twist()
        d = TwistedSubgroupDatum.make({9}, (), TorusSubgroup.trivial(11, 3))
        report = validate_datum(tw, 11, d)
        assert not report.ok
        assert any(v.condition == "index_range" for v in report.violations)

    def test_obstruction_rejects_incomplete_recipe(self):
        tw = worked_twist()
        # raw vector (2,3,2) is the required generator at phi but not at 0
        recipe = (SigmaGenerator.fixed((2, 3, 2)), SigmaGenerator.ktilde(1))
        with pytest.raises(ValueError, match="untwisted"):
            obstruction_check(tw, 11, {2}, {1}, recipe)

    def test_dim_a_opaque_finite(self):
        tw = worked_twist()
        d = TwistedSubgroupDatum.make(
            (), (), TorusSubgroup.trivial(11, 3),
            embedding=OpaqueGroup(order=6),
            delta=None,
        )
        assert dim_A(tw, 11, d) == 6 * 11**3

    def test_kernel_generator_orders_minimal(self):
        import random as _random

        from qsubgroups.exact import IntMatrix, kernel_mod

        rng = _random.Random(77)
        for ell in (9, 15):
            for _ in range(20):
                n = rng.randrange(1, 4)
                rows = [
                    [rng.randrange(ell) for _ in range(n)]
                    for _ in range(rng.randrange(0, 3))
                ]
                for gen, order in kernel_mod(IntMatrix(rows, ncols=n), ell):
                    actual = next(
                        t
                        for t in range(1, ell + 1)
                        if all((t * x) % ell == 0 for x in gen)
                    )
                    assert actual == order


class TestTauCertificate:
    def test_certificate_satisfies_defining_equation(self):
        tw = worked_twist()
        z55 = FiniteAbelianGroup((5, 5))
        z5 = FiniteAbelianGroup((5,))
        gamma = TorusEmbedding.make(z55, [[1, 0], [0, 1], [0, 0]], 3)
        # gamma' hits the point gamma(2, 3)
        gamma_p = TorusEmbedding.make(z5, [[2], [3], [0]], 3)
        d = TwistedSubgroupDatum.make(
            (), (), TorusSubgroup.trivial(11, 3), embedding=gamma, delta=None
        )
        dp = TwistedSubgroupDatum.make(
            (), (), TorusSubgroup.trivial(11, 3), embedding=gamma_p, delta=None
        )
        result = datum_leq(tw, 11, d, dp)
        assert result.status == "true"
        (tau_col,) = result.tau
        assert tau_col == (2, 3)
        # gamma . tau = gamma' as torus points
        assert gamma.point_exponents(tau_col, 5) == gamma_p.point_exponents(
            (1,), 5
        )

    def test_equiv_rejects_opaque(self):
        tw = worked_twist()
        d = TwistedSubgroupDatum.make(
            (), (), TorusSubgroup.trivial(11, 3),
            embedding=OpaqueGroup(order=2), delta=None,
        )
        with pytest.raises(ValueError):
            datum_equiv(tw, 11, d, d)


NON_INTS = [True, 0.5, 3.0, Fraction(1, 2), Fraction(3), "3"]


class TestStrictIntegers:
    """The datum constructors refuse bool, float, Fraction and str entries
    with TypeError instead of coercing them through int()."""

    @pytest.mark.parametrize("bad", NON_INTS, ids=repr)
    def test_finite_abelian_group(self, bad):
        assert FiniteAbelianGroup([3, 9]).invariant_factors == (3, 9)
        with pytest.raises(TypeError, match="invariant factors must be int"):
            FiniteAbelianGroup((bad, 9))

    @pytest.mark.parametrize("bad", NON_INTS, ids=repr)
    def test_torus_embedding_make(self, bad):
        group = FiniteAbelianGroup((3,))
        assert TorusEmbedding.make(group, [[1], [0]], 2).matrix == ((1,), (0,))
        with pytest.raises(TypeError, match="embedding matrix entries must be int"):
            TorusEmbedding.make(group, [[bad], [0]], 2)

    @pytest.mark.parametrize("bad", NON_INTS, ids=repr)
    def test_twisted_subgroup_datum_make(self, bad):
        N = TorusSubgroup.trivial(5, 2)
        assert TwistedSubgroupDatum.make([1], [2], N).iminus == frozenset({2})
        with pytest.raises(TypeError, match="simple indices must be int"):
            TwistedSubgroupDatum.make([bad], [2], N)
        with pytest.raises(TypeError, match="simple indices must be int"):
            TwistedSubgroupDatum.make([1], [bad], N)

    @pytest.mark.parametrize("bad", NON_INTS, ids=repr)
    def test_reduce_and_dual_hom_images(self, bad):
        group = FiniteAbelianGroup((5,))
        assert group.reduce([7]) == (2,)
        with pytest.raises(TypeError, match="coordinates must be int"):
            group.reduce([bad])
        source = TorusSubgroup.full(5, 1)
        with pytest.raises(TypeError, match="coordinates must be int"):
            DualHom.make(source, group, [[bad]])

    @pytest.mark.parametrize("bad", NON_INTS, ids=repr)
    def test_dim_h_and_obstruction_indices(self, bad):
        tw = zero_twist(cartan_matrix("A", 2))
        N = TorusSubgroup.trivial(5, 2)
        with pytest.raises(TypeError, match="simple indices must be int"):
            dim_H(tw, 5, [bad], (), N)
        with pytest.raises(TypeError, match="simple indices must be int"):
            obstruction_check(tw, 5, (), [bad], ())


class TestOpaqueGroupOrder:
    """An opaque Gamma's order is None (infinite) or an int >= 1: "7" used
    to give dim A the string '777...7', 2.5 a float, True the order 1, -3
    a negative dimension, and 0 an infinite dim A that the semisimple
    predicate still read as finite."""

    tw = zero_twist(cartan_matrix("A", 2))

    def datum(self, order):
        return TwistedSubgroupDatum.make((), (), TorusSubgroup.trivial(5, 2),
                                         embedding=OpaqueGroup(order=order))

    @pytest.mark.parametrize("order", [0, -3])
    def test_order_below_one_is_refused(self, order):
        with pytest.raises(ValueError, match="group order must be >= 1"):
            OpaqueGroup(order=order)

    @pytest.mark.parametrize("order", [2.5, True, "7"], ids=repr)
    def test_non_int_order_is_refused(self, order):
        with pytest.raises(TypeError, match="group order must be int"):
            OpaqueGroup(order=order)

    def test_finite_and_infinite_orders(self):
        dim_h = dim_H(self.tw, 5, (), (), TorusSubgroup.trivial(5, 2)).value
        assert dim_h == 25
        for order in (1, 7):
            d = self.datum(order)
            assert d.gamma_order == order
            assert dim_A(self.tw, 5, d) == order * dim_h
            assert predicates(self.tw, 5, d).semisimple
        d = self.datum(None)
        assert d.gamma_order is INFINITE and dim_A(self.tw, 5, d) is INFINITE
        assert not predicates(self.tw, 5, d).semisimple


class TestLeqNeedsDelta:
    """A datum with a torus embedding but no delta is refused by the
    partial order with ValueError; it used to raise AttributeError from
    inside the comparison of the deltas."""

    tw = zero_twist(cartan_matrix("A", 2))
    N = TorusSubgroup.from_generators(5, 2, [(1, 0)])

    def test_missing_delta_is_refused(self):
        bare = TwistedSubgroupDatum((), (), self.N, TorusEmbedding.trivial(2), None)
        full = TwistedSubgroupDatum.make((), (), self.N)
        for d, dp in ((bare, bare), (bare, full), (full, bare)):
            with pytest.raises(ValueError, match="needs a delta"):
                datum_leq(self.tw, 5, d, dp)
            with pytest.raises(ValueError, match="needs a delta"):
                datum_equiv(self.tw, 5, d, dp)
        assert datum_leq(self.tw, 5, full, full).status == "true"

    @pytest.mark.parametrize("iplus", [(), (1,)], ids=["nested", "not-nested"])
    def test_missing_delta_is_refused_before_any_answer(self, iplus):
        """With trivial N the deltas were never read, so such data got an
        answer ("true" compared with themselves, "false" for index sets
        that are not nested); now they are refused as well."""
        trivial = TorusSubgroup.trivial(5, 2)
        bare = TwistedSubgroupDatum((), (), trivial, TorusEmbedding.trivial(2), None)
        other = TwistedSubgroupDatum(iplus, (), trivial, TorusEmbedding.trivial(2), None)
        for d, dp in ((bare, bare), (bare, other), (other, bare)):
            with pytest.raises(ValueError, match="needs a delta"):
                datum_leq(self.tw, 5, d, dp)
            with pytest.raises(ValueError, match="needs a delta"):
                datum_equiv(self.tw, 5, d, dp)

    def test_opaque_data_stay_unknown(self):
        opaque = TwistedSubgroupDatum((), (), self.N, OpaqueGroup(order=3), None)
        assert datum_leq(self.tw, 5, opaque, opaque).status == "unknown"
        with pytest.raises(ValueError, match="undecidable for opaque groups"):
            datum_equiv(self.tw, 5, opaque, opaque)
