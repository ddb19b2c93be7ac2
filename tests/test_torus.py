"""Tests for torus subgroups, kernels, annihilators and triples."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from qsubgroups import torus
from qsubgroups.exact import IntMatrix, hermite_normal_form, kernel_lattice
from qsubgroups.lie import cartan_matrix
from qsubgroups.torus import (
    SigmaGenerator,
    TorusSubgroup,
    Triple,
    analyze_triple,
    annihilator,
    canonical_row_form,
    enumerate_subgroups,
    evaluate_recipe,
    n_phi_from_sigma,
    omega_order,
    s_phi_matrix,
    sigma_order_identity,
    t_hat_I_complement,
    t_phi_I,
    validate_triple,
)
from qsubgroups.twist import (
    c3_parameter_matrix,
    enumerate_valid_twists,
    require_twist,
    zero_twist,
)

from oracles import (
    brute_annihilator,
    brute_subgroups,
    former_enumerate_subgroups,
    former_subgroup_elements,
    former_sublattices,
    hermite_walk_subgroups,
    span_elements,
)

C3 = cartan_matrix("C", 3)


def worked_twist():
    return require_twist(C3, c3_parameter_matrix(1, 2, 0))


def random_subgroup(rng, ell, n):
    gens = [
        tuple(rng.randrange(ell) for _ in range(n))
        for _ in range(rng.randrange(0, n + 1))
    ]
    return TorusSubgroup.from_generators(ell, n, gens), gens


class TestTorusSubgroup:
    def test_trivial_and_full(self):
        triv = TorusSubgroup.trivial(11, 3)
        full = TorusSubgroup.full(11, 3)
        assert triv.order == 1 and full.order == 11**3
        assert triv.generators == ()
        assert triv.is_subgroup_of(full)

    def test_membership_matches_enumeration(self):
        rng = random.Random(19)
        for ell in (3, 4, 5, 9, 11, 12):
            for _ in range(15):
                n = rng.randrange(1, 4)
                sub, gens = random_subgroup(rng, ell, n)
                elements = span_elements(gens, ell, n)
                assert sub.order == len(elements)
                for _ in range(20):
                    v = tuple(rng.randrange(ell) for _ in range(n))
                    assert sub.contains(v) == (v in elements)

    def test_canonical_form_unique_per_subgroup(self):
        rng = random.Random(37)
        for ell in (3, 4, 9, 11, 12):
            for _ in range(20):
                n = rng.randrange(1, 4)
                sub, gens = random_subgroup(rng, ell, n)
                elements = sorted(span_elements(gens, ell, n))
                # regenerate from random element subsets that still span
                for _ in range(5):
                    pick = [
                        elements[rng.randrange(len(elements))]
                        for _ in range(min(len(elements), n + 2))
                    ]
                    candidate = TorusSubgroup.from_generators(ell, n, pick)
                    if span_elements(pick, ell, n) == frozenset(elements):
                        assert candidate == sub
                        assert candidate.lattice == sub.lattice
                    else:
                        assert candidate != sub or candidate.order == sub.order

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TorusSubgroup.from_generators(5, 3, [(1, 2)])
        with pytest.raises(ValueError):
            TorusSubgroup.kernel(5, 3, [(1, 2)])

    def test_join_and_elements(self):
        a = TorusSubgroup.from_generators(5, 2, [(1, 0)])
        b = TorusSubgroup.from_generators(5, 2, [(0, 1)])
        assert a.join(b) == TorusSubgroup.full(5, 2)
        assert a.elements() == [(i, 0) for i in range(5)]

    def test_elements_match_former_closure(self):
        """The walk over the Hermite rows lists the same sorted elements as
        the former breadth-first closure under the generators, for random
        subgroups at composite levels, the trivial and the full ones."""
        rng = random.Random(4545)
        for ell in (9, 15, 45):
            divisors = [d for d in range(1, ell + 1) if ell % d == 0]
            for _ in range(25):
                n = rng.randint(0, 3 if ell < 45 else 2)
                gens = [[rng.choice(divisors) * rng.randrange(ell) % ell for _ in range(n)]
                        for _ in range(rng.randint(0, 3))]
                sub = TorusSubgroup.from_generators(ell, n, gens)
                assert sub.elements() == former_subgroup_elements(sub), (ell, n, gens)
            for sub in (TorusSubgroup.trivial(ell, 2), TorusSubgroup.full(ell, 2)):
                assert sub.elements() == former_subgroup_elements(sub)


class TestSubgroupMemo:
    """from_generators answers from the bounded _span memo, keyed on the
    checked IntMatrix; kernel reads the Hermite form that exact._factored
    holds.  Both are checked against a fresh build."""

    def test_cached_constructors_match_a_fresh_build(self):
        rng = random.Random(23)
        for ell in (3, 5, 9, 15, 45):
            for _ in range(40):
                n = rng.randrange(1, 4)
                rows = [tuple(rng.randrange(-2 * ell, 2 * ell) for _ in range(n))
                        for _ in range(rng.randrange(0, 4))]
                m = IntMatrix(rows, ncols=n)
                for build, fresh in (
                    (TorusSubgroup.from_generators, hermite_normal_form(m, ell)),
                    (TorusSubgroup.kernel, kernel_lattice(m, ell)),
                ):
                    got = build(ell, n, rows)
                    want = TorusSubgroup(ell, n, fresh)
                    assert got == want, (ell, rows)
                    assert (got.order, got.generators) == (want.order, want.generators)
                    assert build(ell, n, [list(r) for r in rows]) == want
                again = TorusSubgroup.from_generators(ell, n, [list(r) for r in rows])
                assert again is TorusSubgroup.from_generators(ell, n, rows)
                assert again is torus._span(ell, m)
                assert TorusSubgroup.kernel(ell, n, rows).lattice is kernel_lattice(m, ell)

    def test_memo_is_bounded_and_counts_hits(self):
        assert torus._span.cache_info().maxsize == torus.SUBGROUP_MEMO_SIZE
        torus._span.cache_clear()
        TorusSubgroup.from_generators(15, 2, [(3, 5)])
        TorusSubgroup.from_generators(15, 2, [[3, 5]])
        t_I = t_phi_I(zero_twist(cartan_matrix("A", 2)), 15, {1}, ())
        assert t_I is t_phi_I(zero_twist(cartan_matrix("A", 2)), 15, [1], [])
        info = torus._span.cache_info()
        assert (info.hits, info.misses, info.currsize) == (2, 2, 2)

    def test_errors_raise_every_time_and_are_not_cached(self):
        torus._span.cache_clear()
        for _ in range(2):
            for build in (TorusSubgroup.from_generators, TorusSubgroup.kernel):
                with pytest.raises(ValueError):
                    build(0, 2, [(1, 0)])
                with pytest.raises(ValueError):
                    build(5, 2, [(1, 0, 0)])
        assert torus._span.cache_info().currsize == 0

    def test_cached_entry_never_answers_a_non_integer(self):
        TorusSubgroup.from_generators(5, 2, [(1, 0)])
        for bad in ((True, 0), (1.0, 0)):
            with pytest.raises(TypeError):
                TorusSubgroup.from_generators(5, 2, [bad])
            with pytest.raises(TypeError):
                TorusSubgroup.kernel(5, 2, [bad])
        # the memo is typed, so a bool or float level misses the entry of
        # level 1 and meets the Hermite form's modulus check
        TorusSubgroup.from_generators(1, 2, [(1, 0)])
        for level in (True, 1.0):
            with pytest.raises(TypeError, match="modulus must be int"):
                TorusSubgroup.from_generators(level, 2, [(1, 0)])


class TestTPhiI:
    def test_empty_is_trivial(self):
        tw = worked_twist()
        assert t_phi_I(tw, 11, (), ()).order == 1

    def test_worked_pair(self):
        tw = worked_twist()
        sub = t_phi_I(tw, 11, {2}, {1})
        assert sub.order == 121
        assert sub.contains((2, 3, 2)) and sub.contains((5, 8, 10))

    def test_worked_single(self):
        tw = worked_twist()
        sub = t_phi_I(tw, 11, {2}, ())
        assert sub.order == 11
        assert sub.contains((2, 3, 2))


class TestValidateTriple:
    def test_full_torus_always_valid(self):
        tw = worked_twist()
        triple = Triple.make(
            tw, 11, {2}, {1},
            sigma_gens=[(1, 0, 0), (0, 1, 0), (0, 0, 1)],
        )
        assert validate_triple(tw, 11, triple).ok

    def test_worked_triple_fills_torus(self):
        tw = worked_twist()
        triple = Triple.make(
            tw, 11, {2}, {1},
            recipe=[
                SigmaGenerator.kbar(2),
                SigmaGenerator.ktilde(1),
                SigmaGenerator.tau(3),
                SigmaGenerator.tau(2),
            ],
        )
        assert validate_triple(tw, 11, triple).ok
        assert triple.sigma.order == 11**3
        assert triple.sigma == TorusSubgroup.full(11, 3)

    def test_missing_generator_reported(self):
        tw = worked_twist()
        # drop (5, 8, 10): the required generator for 1 in I- goes missing
        triple = Triple.make(
            tw, 11, {2}, {1},
            sigma_gens=[(2, 3, 2), (10, 10, 10)],
        )
        report = validate_triple(tw, 11, triple)
        assert not report.ok
        assert report.missing == (("ktilde", 1),)


class TestSPhiMatrix:
    def test_zero_twist_delta_rows(self):
        tw = zero_twist(cartan_matrix("A", 3))
        s = s_phi_matrix(tw, 7, {2}, {1})
        assert s.to_lists() == [[0, 1, 0], [1, 0, 0]]

    def test_worked_rows_and_canonical_form(self):
        tw = worked_twist()
        s = s_phi_matrix(tw, 11, {2}, {1})
        assert s.to_lists() == [[2, 3, 2], [5, 8, 10]]
        assert canonical_row_form(s, 11).to_lists() == [[1, 0, 8], [0, 1, 10]]

    def test_single_row(self):
        tw = worked_twist()
        assert s_phi_matrix(tw, 11, {2}, ()).to_lists() == [[2, 3, 2]]

    def test_returns_the_memos_own_matrix(self):
        """S is built once, in the memo of the required rows, and handed
        out as is: the same IntMatrix keys T_I and the kernel."""
        tw = worked_twist()
        s = s_phi_matrix(tw, 11, {2}, {1})
        assert s is s_phi_matrix(tw, 11, [2], (1,))
        assert s is torus._required_memo(tw, 11, frozenset({2}), frozenset({1}))[1]
        assert t_phi_I(tw, 11, {2}, {1}) is torus._span(11, s)


    @staticmethod
    def twists_with_negative_entries():
        """Searched A2, B2 and G2 twists and C3 (1,2,0), each with a
        negative entry in Y."""
        tws = [next(tw for tw in enumerate_valid_twists(cartan_matrix(t, 2), bound)
                    if min(map(min, tw.Y.data)) < 0)
               for t, bound in (("A", 4), ("B", 3), ("G", 2))]
        tws.append(worked_twist())
        assert all(min(map(min, tw.Y.data)) < 0 for tw in tws)
        return tws

    @pytest.mark.parametrize("ell", [3, 5, 9, 15, 45, 1001])
    def test_rows_match_the_formula_in_y(self, ell):
        """S, read from the twist's exponent rows, is (delta_ik - 2 y_ki)
        mod ell for i in I+, then (delta_jk + 2 y_kj) mod ell for j in I-,
        each block ascending: recomputed here from Y's lists, for every
        pair (I+, I-)."""
        for tw in self.twists_with_negative_entries():
            y, n = tw.Y.to_lists(), tw.rank
            subsets = [[i + 1 for i in range(n) if mask >> i & 1] for mask in range(1 << n)]
            for iplus, iminus in itertools.product(subsets, repeat=2):
                want = ([[(int(k == i - 1) - 2 * y[k][i - 1]) % ell for k in range(n)]
                         for i in iplus]
                        + [[(int(k == j - 1) + 2 * y[k][j - 1]) % ell for k in range(n)]
                           for j in iminus])
                S = s_phi_matrix(tw, ell, iplus, iminus)
                assert S.to_lists() == want, (tw.Y, iplus, iminus)
                assert (S.nrows, S.ncols) == (len(want), n)
                assert all(type(x) is int for row in S.data for x in row)

    @pytest.mark.parametrize("ell", [3, 5, 9, 15])
    def test_tau_rows_match_the_columns_of_y(self, ell):
        """A tau generator, read from the twist's exponent rows by kind,
        is column i of Y mod ell, recomputed here from Y's lists."""
        for tw in self.twists_with_negative_entries():
            y = tw.Y.to_lists()
            for i in range(1, tw.rank + 1):
                want = tuple(row[i - 1] % ell for row in y)
                assert SigmaGenerator.tau(i).evaluate(tw, ell) == want, (tw.Y, i)

    def test_unknown_kind_is_refused(self):
        tw = worked_twist()
        with pytest.raises(ValueError, match="unknown generator kind 'bogus'"):
            SigmaGenerator("bogus", 1).evaluate(tw, 5)
        with pytest.raises(ValueError, match="unknown generator kind 'bogus'"):
            SigmaGenerator("bogus", True).evaluate(tw, 5)  # the kind is read first


class TestKernelAndAnnihilator:
    def test_worked_kernels(self):
        tw = worked_twist()
        k_a = t_hat_I_complement(tw, 11, {2}, {1})
        assert k_a.order == 11
        assert k_a.contains((3, 1, 1))
        assert k_a == TorusSubgroup.from_generators(11, 3, [(3, 1, 1)])

        k_b = t_hat_I_complement(tw, 11, {2}, ())
        assert k_b.order == 121
        assert k_b.contains((1, 0, 10)) and k_b.contains((0, 1, 4))

        k_empty = t_hat_I_complement(tw, 11, (), ())
        assert k_empty.order == 11**3

    def test_annihilator_extremes(self):
        assert annihilator(TorusSubgroup.trivial(9, 2)) == TorusSubgroup.full(9, 2)
        assert annihilator(TorusSubgroup.full(9, 2)) == TorusSubgroup.trivial(9, 2)

    def test_spanning_generators_annihilate_to_trivial(self):
        # determinant of the three generators is 6 mod 11, hence a spanning set
        gens = [(2, 3, 2), (5, 8, 10), (10, 10, 10)]
        assert IntMatrix(gens).det() % 11 == 6
        sub = TorusSubgroup.from_generators(11, 3, gens)
        assert sub.order == 11**3
        assert annihilator(sub).order == 1

    def test_double_annihilator_and_order_product(self):
        rng = random.Random(53)
        for ell in (3, 5, 9, 11):
            for _ in range(20):
                n = rng.randrange(1, 4)
                sub, _ = random_subgroup(rng, ell, n)
                ann = annihilator(sub)
                assert sub.order * ann.order == ell**n
                assert annihilator(ann) == sub

    def test_annihilator_matches_brute_force(self):
        rng = random.Random(59)
        for ell in (3, 5, 9):
            for _ in range(15):
                n = rng.randrange(1, 4)
                sub, gens = random_subgroup(rng, ell, n)
                expected = brute_annihilator(
                    span_elements(gens, ell, n), ell, n
                )
                got = set(annihilator(sub).elements())
                assert got == expected

    def test_prime_level_rank_formula(self):
        rng = random.Random(61)
        tw = worked_twist()
        for iplus, iminus in (((), ()), ((2,), ()), ((2,), (1,)), ((1, 2, 3), ())):
            s = s_phi_matrix(tw, 11, iplus, iminus)
            kernel = t_hat_I_complement(tw, 11, iplus, iminus)
            rank = len(canonical_row_form(s, 11).data)
            assert kernel.order == 11 ** (3 - rank)


class TestNPhiAndOrderIdentity:
    def test_worked_triple_a(self):
        tw = worked_twist()
        triple = Triple.make(
            tw, 11, {2}, {1},
            sigma_gens=[(2, 3, 2), (5, 8, 10), (10, 10, 10)],
        )
        nsub = n_phi_from_sigma(tw, 11, triple)
        assert nsub.order == 1
        assert sigma_order_identity(tw, 11, triple) == (11**3, 1, True)

    def test_worked_triple_b(self):
        tw = worked_twist()
        triple = Triple.make(
            tw, 11, {2}, (),
            sigma_gens=[(5, 8, 10), (2, 3, 2)],
        )
        nsub = n_phi_from_sigma(tw, 11, triple)
        assert nsub.order == 11
        assert nsub.contains((3, 1, 1))
        assert nsub == TorusSubgroup.from_generators(11, 3, [(3, 1, 1)])
        assert sigma_order_identity(tw, 11, triple) == (121, 11, True)

    def test_full_sigma_gives_trivial_n(self):
        tw = worked_twist()
        triple = Triple.make(
            tw, 11, {2}, {1},
            sigma_gens=IntMatrix.identity(3).to_lists(),
        )
        assert n_phi_from_sigma(tw, 11, triple).order == 1

    def test_invalid_triple_rejected(self):
        tw = worked_twist()
        triple = Triple.make(tw, 11, {2}, {1}, sigma_gens=[(2, 3, 2)])
        for derived in (n_phi_from_sigma, sigma_order_identity, omega_order,
                        analyze_triple):
            with pytest.raises(ValueError):
                derived(tw, 11, triple)

    def test_order_identity_on_random_valid_triples(self):
        rng = random.Random(67)
        tw = worked_twist()
        for _ in range(40):
            iplus = frozenset(i for i in (1, 2, 3) if rng.random() < 0.4)
            iminus = frozenset(i for i in (1, 2, 3) if rng.random() < 0.4)
            required = t_phi_I(tw, 11, iplus, iminus)
            extras = [
                tuple(rng.randrange(11) for _ in range(3))
                for _ in range(rng.randrange(0, 3))
            ]
            triple = Triple.make(
                tw, 11, iplus, iminus,
                sigma_gens=list(required.generators) + extras,
            )
            sigma_order, n_order, ok = sigma_order_identity(tw, 11, triple)
            assert ok and sigma_order * n_order == 11**3


class TestEnumerateSubgroups:
    def test_small_counts_match_brute_force(self):
        for ell, n in ((3, 1), (3, 2), (5, 1), (9, 1), (5, 2)):
            got = enumerate_subgroups(TorusSubgroup.full(ell, n))
            expected = brute_subgroups(ell, n)
            assert len(got) == len(expected)
            assert {frozenset(s.elements()) for s in got} == expected

    def test_respects_ambient(self):
        ambient = TorusSubgroup.from_generators(11, 3, [(3, 1, 1)])
        subs = enumerate_subgroups(ambient)
        assert [s.order for s in subs] == [1, 11]

    @pytest.mark.parametrize("ell", [1, 2, 3, 4, 5, 6, 8, 9, 12, 15, 25, 27])
    def test_matches_frozen_whole_torus_walk(self, ell):
        """Same lattices in the same order as the former walk over the
        whole torus, on the full, the trivial and seeded random ambients."""
        rng = random.Random(ell)
        for n in range(4):
            if ell**n > 2000:
                continue
            ambients = [TorusSubgroup.full(ell, n), TorusSubgroup.trivial(ell, n)]
            ambients += [
                random_subgroup(rng, ell, n)[0]
                for _ in range(3 if ell**n <= 300 else 1)
            ]
            for ambient in ambients:
                assert enumerate_subgroups(ambient) == hermite_walk_subgroups(ambient)

    @pytest.mark.parametrize("ell", [3, 5, 9, 15, 25, 27, 45, 63, 1001])
    def test_matches_frozen_rejection_walk(self, ell):
        """Same lattices in the same order, from the walk and after the
        sort, as the former walk, which built every candidate row and kept
        those whose lattice still contained ell e_i, on the full, the
        trivial and seeded random ambients of ranks 1-4; an ambient with
        more than 20000 subgroups is skipped."""
        from qsubgroups.torus import EnumerationGuard

        rng = random.Random(1000 + ell)
        compared = []
        for n in range(1, 5):
            ambients = [TorusSubgroup.full(ell, n), TorusSubgroup.trivial(ell, n)]
            ambients += [random_subgroup(rng, ell, n)[0] for _ in range(3)]
            for k, ambient in enumerate(ambients):
                try:
                    got = enumerate_subgroups(ambient, cap=20000)
                except EnumerationGuard:
                    continue
                amb = ambient.lattice.data
                assert list(torus._sublattices(amb, ell, n - 1, [])) == \
                    list(former_sublattices(amb, ell, n - 1, []))
                assert got == former_enumerate_subgroups(ambient)
                compared.append((n, k))
        assert {(1, 0), (2, 0), (1, 1), (4, 1)} <= set(compared)

    def test_composite_counts_are_crt_products(self):
        """A subgroup of (Z/ell)^n is the product of its p-parts, so its
        count at a composite ell is the product of the counts at the
        prime-power factors of ell."""
        def count(ell, n):
            return len(enumerate_subgroups(TorusSubgroup.full(ell, n)))

        cases = [(45, n, (9, 5)) for n in range(4)] + [(63, 2, (9, 7)), (1001, 2, (7, 11, 13))]
        for ell, n, factors in cases:
            assert count(ell, n) == math.prod(count(q, n) for q in factors), (ell, n)
        assert (count(9, 3), count(5, 3), count(45, 3)) == (445, 64, 28480)

    @pytest.mark.parametrize("ell, n", [(5, 4), (45, 2)])
    def test_builds_one_row_per_row_prefix(self, monkeypatch, ell, n):
        """No rejection: the walk reduces at most one proposed row per
        distinct row-prefix (rows i..n-1, built bottom first) of the
        lattices it yields, so it builds no row that a returned subgroup
        does not hold."""
        original, reduced = torus._reduce, []

        def counting(v, rows, first):
            reduced.append(first)
            return original(v, rows, first)

        monkeypatch.setattr(torus, "_reduce", counting)
        subs = enumerate_subgroups(TorusSubgroup.full(ell, n))
        monkeypatch.undo()
        prefixes = {s.lattice.data[i:] for s in subs for i in range(n)}
        assert len(subs) == {(5, 4): 1120, (45, 2): 184}[ell, n]
        assert 0 < len(reduced) <= len(prefixes)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_full_torus_counts_are_gaussian_binomial_sums(self, p):
        def gaussian_binomial(k, j):
            num = den = 1
            for i in range(j):
                num *= p ** (k - i) - 1
                den *= p ** (i + 1) - 1
            return num // den

        for k in range(5):
            expected = sum(gaussian_binomial(k, j) for j in range(k + 1))
            assert len(enumerate_subgroups(TorusSubgroup.full(p, k))) == expected

    def test_builds_only_returned_subgroups(self, monkeypatch):
        original = TorusSubgroup.__init__
        for ambient, count in (
            (TorusSubgroup.trivial(7, 4), 1),
            (TorusSubgroup.full(5, 2), 8),
        ):
            built = []

            def counting(self, *args):
                built.append(args)
                original(self, *args)

            monkeypatch.setattr(TorusSubgroup, "__init__", counting)
            subs = enumerate_subgroups(ambient)
            monkeypatch.undo()
            assert len(subs) == count
            assert len(built) == count

    def test_leaves_no_cyclic_garbage(self):
        """Refcounting frees the walk's state: a recursive closure left
        alive would hand every walked subgroup to the cyclic collector."""
        import gc

        ambient = TorusSubgroup.full(5, 2)
        gc.collect()
        gc.disable()
        try:
            subs = enumerate_subgroups(ambient)
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert len(subs) == 8

    def test_cap_admits_exactly_the_subgroup_count(self):
        """(Z/5)^2 has 8 subgroups: cap=8 returns them all, cap=7 trips
        the guard on the eighth."""
        from qsubgroups.torus import EnumerationGuard

        full = TorusSubgroup.full(5, 2)
        subs = enumerate_subgroups(full, cap=8)
        assert len(subs) == 8 and subs == enumerate_subgroups(full)
        with pytest.raises(EnumerationGuard, match="exceeds cap 7"):
            enumerate_subgroups(full, cap=7)

    def test_cap_is_not_read_from_the_environment(self, monkeypatch):
        """Only the CLI reads QSUBGROUPS_ENUM_CAP: a library call without
        cap= walks under the default cap whatever the variable holds."""
        monkeypatch.setenv("QSUBGROUPS_ENUM_CAP", "3")
        full = TorusSubgroup.full(3, 2)
        assert len(enumerate_subgroups(full)) == 6 and len(full.elements()) == 9
        monkeypatch.setenv("QSUBGROUPS_ENUM_CAP", "x")
        assert len(enumerate_subgroups(full)) == 6

    def test_guard_stop_leaves_no_cyclic_garbage(self):
        """A walk stopped by the guard frees its suspended generators
        and the records it built by reference counting."""
        import gc

        from qsubgroups.torus import EnumerationGuard

        ambient = TorusSubgroup.full(5, 2)
        tripped = False
        gc.collect()
        gc.disable()
        try:
            try:
                enumerate_subgroups(ambient, cap=7)
            except EnumerationGuard:
                tripped = True
            assert tripped and gc.collect() == 0
        finally:
            gc.enable()


class TestLevelGate:
    """The torus and datum layers refuse the levels that the paper
    excludes (ell odd and >= 3), as exact and cocycle do, with ValueError
    rather than a ZeroDivisionError or an answer for a meaningless ell."""

    @staticmethod
    def entry_points(ell):
        from qsubgroups.datum import enumerate_triples, obstruction_check

        tw = zero_twist(cartan_matrix("A", 2))
        return (
            lambda: s_phi_matrix(tw, ell, (1,), ()),
            lambda: t_hat_I_complement(tw, ell, (1,), ()),
            lambda: Triple.make(tw, ell, (1,), ()),
            lambda: enumerate_triples(tw, ell),
            lambda: enumerate_triples(tw, ell, max_results=0),
            lambda: obstruction_check(tw, ell, (1,), (), [SigmaGenerator.kbar(1)]),
        )

    @pytest.mark.parametrize("ell", [0, -3, 1, 2, 4])
    def test_refused(self, ell):
        for call in self.entry_points(ell):
            with pytest.raises(ValueError, match="must be odd and >= 3"):
                call()


    @pytest.mark.parametrize("ell", [4, 0, 1, 2, -3])
    def test_refused_before_the_pair_loop(self, ell):
        """max_results=0 skips enumerate_triples' pair loop, not its level
        check."""
        from qsubgroups.datum import enumerate_triples

        with pytest.raises(ValueError, match="must be odd and >= 3"):
            enumerate_triples(zero_twist(cartan_matrix("A", 2)), ell, max_results=0)

    @pytest.mark.parametrize("ell", [5.0, "5", True], ids=repr)
    def test_non_int_level_refused(self, ell):
        """A float, str or bool level is refused with TypeError by every
        entry point, as CyclotomicNumber refuses it, max_results=0 included."""
        for call in self.entry_points(ell):
            with pytest.raises(TypeError, match="cyclotomic level must be int"):
                call()

    def test_max_results_zero_at_a_valid_level_is_empty(self):
        from qsubgroups.datum import enumerate_triples

        assert enumerate_triples(zero_twist(cartan_matrix("A", 2)), 5, max_results=0) == []


class TestOmegaOrder:
    def test_worked_values(self):
        from qsubgroups.torus import omega_order

        tw = worked_twist()
        triple_a = Triple.make(
            tw, 11, {2}, {1},
            sigma_gens=[(2, 3, 2), (5, 8, 10), (10, 10, 10)],
        )
        # |Sigma| = 11^3 over |T_I| = 121
        assert omega_order(tw, 11, triple_a) == 11
        triple_b = Triple.make(tw, 11, {2}, (), sigma_gens=[(5, 8, 10), (2, 3, 2)])
        # |Sigma| = 121 over |T_I| = 11
        assert omega_order(tw, 11, triple_b) == 11
        minimal = Triple.make(tw, 11, {2}, (), sigma_gens=[(2, 3, 2)])
        assert omega_order(tw, 11, minimal) == 1

    def test_shared_index_containment_confirmed(self):
        tw = worked_twist()
        triple = Triple.make(
            tw, 11, {1}, {1},
            sigma_gens=IntMatrix.identity(3).to_lists(),
        )
        report = validate_triple(tw, 11, triple)
        assert report.ok  # T_{I'} inside T_I holds at odd level


class TestCharacter:
    def test_pairing_and_value(self):
        from qsubgroups.exact import root_of_unity_power
        from qsubgroups.torus import Character

        chi = Character(11, (3, 1, 1))
        assert chi.pairing((2, 3, 2)) == (6 + 3 + 2) % 11
        assert chi.value((5, 8, 10)) == root_of_unity_power(11, 15 + 8 + 10)

    def test_kernel_characters_kill_required_generators(self):
        tw = worked_twist()
        from qsubgroups.torus import Character

        kernel = t_hat_I_complement(tw, 11, {2}, {1})
        for z in kernel.elements():
            chi = Character(11, z)
            assert chi.pairing((2, 3, 2)) == 0
            assert chi.pairing((5, 8, 10)) == 0

    @pytest.mark.parametrize("ell", [0, -3, 1, 4])
    def test_level_is_checked_when_built(self, ell):
        """The level of value() is checked when a character is built:
        Character(0, (1,)) used to fail its pairing with ZeroDivisionError,
        and Character(-3, (1, 2)) paired mod -3."""
        from qsubgroups.torus import Character

        with pytest.raises(ValueError, match="cyclotomic level must be odd and >= 3"):
            Character(ell, (1, 2))


class TestGuards:
    def test_elements_guard(self):
        from qsubgroups.torus import EnumerationGuard

        big = TorusSubgroup.full(11, 3)
        with pytest.raises(EnumerationGuard):
            big.elements(cap=100)

    def test_enumerate_subgroups_guard(self):
        from qsubgroups.torus import EnumerationGuard

        with pytest.raises(EnumerationGuard):
            enumerate_subgroups(TorusSubgroup.full(11, 3), cap=5)


class TestCanonicalRowForm:
    def test_matches_field_rref_for_prime_levels(self):
        from oracles import rref_mod_p

        rng = random.Random(83)
        for p in (3, 5, 11):
            for _ in range(30):
                n = rng.randrange(1, 4)
                rows = [
                    [rng.randrange(p) for _ in range(n)]
                    for _ in range(rng.randrange(0, 4))
                ]
                got = canonical_row_form(IntMatrix(rows, ncols=n), p)
                assert got.to_lists() == rref_mod_p(rows, p, n)


NON_INTS = [True, 0.5, 2.0, Fraction(1, 2), Fraction(2), "1"]


class TestStrictIntegers:
    """The torus constructors refuse bool, float, Fraction and str entries
    with TypeError instead of coercing them through int()."""

    @pytest.mark.parametrize("bad", NON_INTS, ids=repr)
    def test_sigma_generator_fixed(self, bad):
        assert SigmaGenerator.fixed([1, 0, 2]).vector == (1, 0, 2)
        with pytest.raises(TypeError, match="sigma vector entries must be int"):
            SigmaGenerator.fixed([bad, 0, 0])

    @pytest.mark.parametrize("bad", NON_INTS, ids=repr)
    def test_triple_make_indices_and_generators(self, bad):
        tw = worked_twist()
        triple = Triple.make(tw, 11, [2], (), sigma_gens=[(5, 8, 10), (2, 3, 2)])
        assert triple.iplus == frozenset({2})
        with pytest.raises(TypeError, match="simple indices must be int"):
            Triple.make(tw, 11, [bad], (), sigma_gens=[(5, 8, 10)])
        with pytest.raises(TypeError, match="simple indices must be int"):
            Triple.make(tw, 11, (), [bad], sigma_gens=[(5, 8, 10)])
        with pytest.raises(TypeError, match="sigma generator entries must be int"):
            Triple.make(tw, 11, [2], (), sigma_gens=[(5, bad, 10)])

    def test_evaluate_recipe_checks_a_directly_built_vector(self):
        """A SigmaGenerator built directly skips fixed's check, so its rows
        are not the library's own: evaluate_recipe builds Sigma checked."""
        tw = zero_twist(cartan_matrix("A", 2))
        with pytest.raises(TypeError, match="matrix entries must be int"):
            evaluate_recipe(tw, 5, [SigmaGenerator("vector", vector=(0.5, 0))])

    @pytest.mark.parametrize("bad", NON_INTS, ids=repr)
    def test_contains(self, bad):
        full = TorusSubgroup.full(5, 2)
        assert full.contains((1, 2))
        with pytest.raises(TypeError, match="vector entries must be int"):
            full.contains((bad, 0))


class TestCharacterKernelIsNotSymmetricInIPlusMinus:
    """The character kernel of (I+, I-) against rows derived straight from
    Y, e_i - 2 Y[:, i] for i in I+ and e_j + 2 Y[:, j] for j in I-, with
    the kernel counted over all of (Z/ell)^n.  Swapping I+ with I- changes
    the count for some of these pairs, so a library that swapped them (or
    read the rows mod anything but ell) would fail here, where the CRT and
    relabelling oracles, both symmetric in I+-, pass it."""

    TWISTS = [
        require_twist(cartan_matrix("A", 2), [[-1, 2], [-2, 1]]),
        require_twist(cartan_matrix("B", 2), [[-1, 2], [-1, 1]]),
        require_twist(cartan_matrix("G", 2), [[-3, 2], [-6, 3]]),
        worked_twist(),
    ]

    def test_kernel_order_and_rows(self):
        swapped_differs = 0
        for tw, ell in itertools.product(self.TWISTS, (5, 9, 15)):
            n, Y = tw.rank, tw.Y.data
            kbar = [tuple(int(r == i) - 2 * Y[r][i] for r in range(n)) for i in range(n)]
            ktilde = [tuple(int(r == i) + 2 * Y[r][i] for r in range(n)) for i in range(n)]
            # masks[m]: how many z are killed by exactly the rows in bit set m
            # (bit i - 1 for kbar_i, bit n + j - 1 for ktilde_j)
            masks = Counter(
                sum(1 << b for b, row in enumerate(kbar + ktilde)
                    if not sum(a * x for a, x in zip(row, z)) % ell)
                for z in itertools.product(range(ell), repeat=n))

            def count(bits):
                return sum(c for m, c in masks.items() if m & bits == bits)

            subsets = [s for k in range(n + 1) for s in itertools.combinations(range(1, n + 1), k)]
            for iplus, iminus in itertools.product(subsets, repeat=2):
                if iplus == iminus:
                    continue
                rows = [kbar[i - 1] for i in iplus] + [ktilde[j - 1] for j in iminus]
                assert s_phi_matrix(tw, ell, iplus, iminus).data == tuple(
                    tuple(x % ell for x in row) for row in rows)
                plus = sum(1 << (i - 1) for i in iplus)
                minus = sum(1 << (n + j - 1) for j in iminus)
                want = count(plus | minus)
                assert t_hat_I_complement(tw, ell, iplus, iminus).order == want
                swapped = sum(1 << (n + i - 1) for i in iplus) | sum(
                    1 << (j - 1) for j in iminus)
                swapped_differs += count(swapped) != want
        assert swapped_differs > 0


class TestOneWayIn:
    """TorusSubgroup.from_generators and TorusSubgroup.kernel take plain
    rows, which they check, or an IntMatrix, which is already checked; a
    matrix and its rows give the same subgroup, and a matrix of the wrong
    width is refused."""

    @pytest.mark.parametrize("ell", [5, 9, 15, 45])
    def test_matrix_and_rows_give_the_same_subgroup(self, ell):
        rng = random.Random(ell)
        for _ in range(40):
            n = rng.randrange(1, 4)
            rows = [tuple(rng.randrange(-ell, 2 * ell) for _ in range(n))
                    for _ in range(rng.randrange(0, n + 2))]
            matrix = IntMatrix(rows, ncols=n)
            # the span memo is keyed on the matrix, so the span is the same object
            assert TorusSubgroup.from_generators(ell, n, matrix) is \
                TorusSubgroup.from_generators(ell, n, rows)
            assert TorusSubgroup.kernel(ell, n, matrix) == TorusSubgroup.kernel(ell, n, rows)

    def test_identity_matrix_spans_the_full_torus(self):
        full = TorusSubgroup.full(5, 3)
        assert full.order == 125
        assert full is TorusSubgroup.from_generators(5, 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert TorusSubgroup.kernel(5, 3, IntMatrix.identity(3)) == TorusSubgroup.trivial(5, 3)

    @pytest.mark.parametrize("matrix", [IntMatrix([[1, 0]]), IntMatrix([[1, 0, 0, 2]]),
                                        IntMatrix([], ncols=2), IntMatrix([], ncols=4)],
                             ids=["narrow", "wide", "empty-narrow", "empty-wide"])
    def test_wrong_width_matrix_is_refused(self, matrix):
        with pytest.raises(ValueError, match="generator length mismatch"):
            TorusSubgroup.from_generators(5, 3, matrix)
        with pytest.raises(ValueError, match="row length mismatch"):
            TorusSubgroup.kernel(5, 3, matrix)

    def test_a_matrix_is_not_unpacked_as_rows(self):
        """An IntMatrix used to fail with "cannot unpack non-iterable int"."""
        assert TorusSubgroup.from_generators(5, 2, IntMatrix([[1, 0]])).generators == ((1, 0),)
        assert TorusSubgroup.kernel(5, 2, IntMatrix([[1, 0]])).generators == ((0, 1),)
