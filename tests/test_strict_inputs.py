"""Fuzz test of the library's integer inputs: a bool, float, Fraction or
str put in place of one int must raise TypeError and never give a result,
where the input used to pass through int() or Fraction() and the call
answered for a coerced value (0.5 read as 0, True as 1).  An lru_cache
key treats True == 1 and 1.0 == 1 as the same, so a coercing front end of
a memoised function would alias different inputs silently.

Covers solve_linear_mod's right-hand side, roots_supported's indices,
Root.from_coords, IntMatrix.apply and through it
TorusEmbedding.point_exponents, Character.pairing, c3_parameter_matrix,
build_twist's parameter entries (a Fraction is still checked and
reported, a bool, float or str raises), cartan_matrix's type (a str, not
bytes or None), the index of simple_root and fundamental_weight (an
IndexError out of 1..rank), LatticeElement.make and scaled and CyclotomicNumber's coefficients,
factories and scalars (which also take a Fraction), CyclotomicNumber's
level and TorusPairElement's scale and g and h coordinates, whose g range
and count vector length are checked too.  Simple indices (the exponent
queries, s_phi_matrix, t_phi_I, t_hat_I_complement, a Sigma generator,
a directly built Triple or TwistedSubgroupDatum, dim_H), the matrix and
rank of a directly built TorusEmbedding, the images of a DualHom and the
guard arguments max_results, cap, bound and limit take only an int as
well, as do the modulus of point_exponents and the level and rank of a
directly built TorusSubgroup; a guard may still be None.  So do, over
NON_INTS, euler_phi, cyclotomic_polynomial (also while its memo holds
the entry on 1), root_of_unity_power's exponent, IntMatrix.identity
and zeros, cartan_matrix's rank, LatticeElement.zero's rank, r_operator's
sign and a Character's level and exponents, which it checks when built.
derandomize=True and a fixed max_examples keep the test deterministic.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsubgroups.cocycle import TorusPairElement, twist_J, twist_J_group_algebra
from qsubgroups.datum import (
    DualHom,
    FiniteAbelianGroup,
    TorusEmbedding,
    TwistedSubgroupDatum,
    analyze_datum,
    dim_H,
    enumerate_triples,
    validate_datum,
)
from qsubgroups.exact import (
    CyclotomicNumber,
    IntMatrix,
    cyclotomic_polynomial,
    euler_phi,
    root_of_unity_power,
    solve_linear_mod,
)
from qsubgroups import lie
from qsubgroups.lie import (
    Basis,
    InvalidCartanMatrix,
    LatticeElement,
    Root,
    cartan_matrix,
    roots_supported,
)
from qsubgroups.torus import (
    Character,
    SigmaGenerator,
    TorusSubgroup,
    Triple,
    analyze_triple,
    enumerate_subgroups,
    s_phi_matrix,
    t_hat_I_complement,
    t_phi_I,
    validate_triple,
)
from qsubgroups.twist import (
    build_twist,
    c3_parameter_matrix,
    enumerate_valid_twists,
    kbar_exponent,
    ktilde_exponent,
    r_operator,
    require_twist,
)

from oracles import clear_library_memos

NON_INTS = [True, 0.5, 2.0, Fraction(1, 2), Fraction(2), "1"]
FUZZ = settings(derandomize=True, max_examples=200, deadline=None)

BAD = st.one_of(
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.fractions(max_denominator=7),
    st.text(alphabet="0123456789.-x", max_size=3),
)
CARTAN = [cartan_matrix(t, n) for t, n in (("A", 2), ("B", 3), ("C", 3), ("D", 4))]


def with_bad(draw, values):
    """values with one entry replaced by a non-int."""
    values = list(values)
    values[draw(st.integers(0, len(values) - 1))] = draw(BAD)
    return values


def refused(call, match="must be int"):
    with pytest.raises(TypeError, match=match):
        result = call()
        pytest.fail(f"returned {result!r}")


@FUZZ
@given(st.data())
def test_solve_linear_mod_right_hand_side(data):
    p, k = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 3))
    A = IntMatrix([[data.draw(st.integers(-9, 9)) for _ in range(k)] for _ in range(p)],
                  ncols=k)
    mod = data.draw(st.sampled_from([3, 9, 15, 1001]))
    b = [data.draw(st.integers(-20, 20)) for _ in range(p)]
    solve_linear_mod(A, b, mod)  # ints answer
    refused(lambda: solve_linear_mod(A, with_bad(data.draw, b), mod))


@FUZZ
@given(st.data())
def test_roots_supported_indices(data):
    cd = data.draw(st.sampled_from(CARTAN))
    indices = data.draw(st.lists(st.integers(1, cd.rank), min_size=1, max_size=cd.rank))
    roots_supported(cd, indices)
    refused(lambda: roots_supported(cd, with_bad(data.draw, indices)))


@FUZZ
@given(st.data())
def test_root_from_coords(data):
    coords = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=8))
    assert Root.from_coords(coords).coords == tuple(coords)
    refused(lambda: Root.from_coords(with_bad(data.draw, coords)))


@FUZZ
@given(st.data())
def test_c3_parameter_matrix(data):
    params = [data.draw(st.integers(-4, 4)) for _ in range(3)]
    assert c3_parameter_matrix(*params) is not None
    spots = data.draw(st.integers(0, 2))
    fraction = list(params)
    fraction[spots] = data.draw(st.fractions(max_denominator=7))
    assert c3_parameter_matrix(*fraction) is not None  # Fraction is allowed
    bad = list(params)
    bad[spots] = data.draw(st.one_of(st.booleans(), st.floats(allow_nan=False, width=32),
                                     st.text(max_size=3)))
    with pytest.raises(TypeError, match="int or Fraction"):
        result = c3_parameter_matrix(*bad)
        pytest.fail(f"returned {result!r}")


@FUZZ
@given(st.data())
def test_build_twist_entries(data):
    """A bool, float or str entry of a parameter matrix raises TypeError
    before any check: 0.5 was read as 1/2 and reported as a violation of
    integral_parameters, "1/2" too, while 2.0 raised only once the matrix
    was built.  Exact Fractions are still checked and reported."""
    cd = data.draw(st.sampled_from(CARTAN))
    rows = [[0] * cd.rank for _ in range(cd.rank)]
    assert build_twist(cd, rows).ok
    i, j = data.draw(st.integers(0, cd.rank - 1)), data.draw(st.integers(0, cd.rank - 1))
    rows[i][j] = Fraction(1, 2)
    assert [v.condition for v in build_twist(cd, rows).violations] == ["integral_parameters"]
    rows[data.draw(st.integers(0, cd.rank - 1))][j] = data.draw(st.one_of(
        st.booleans(), st.floats(allow_nan=False, width=32), st.text(max_size=3)))
    refused(lambda: build_twist(cd, rows), "parameter matrix entries must be int or Fraction")


@pytest.mark.parametrize("entry", [0.5, 2.0, "1/2", "2", True, False], ids=repr)
def test_build_twist_named_entries(entry):
    refused(lambda: build_twist(CARTAN[0], [[entry, 0], [0, 0]]), "int or Fraction")
    refused(lambda: build_twist(CARTAN[0], [[Fraction(1, 2), 0], [0, entry]]),
            "int or Fraction")  # raises even where a Fraction violated integrality


@pytest.mark.parametrize("lie_type", [3, None, b"A", ["A"]], ids=repr)
def test_cartan_matrix_type_must_be_str(lie_type):
    """A non-str Lie type raised AttributeError (no attribute 'upper')."""
    refused(lambda: cartan_matrix(lie_type, 2), "Lie type must be str")


@FUZZ
@given(st.data())
def test_matrix_apply_and_point_exponents(data):
    k = data.draw(st.integers(1, 3))
    rows = [[data.draw(st.integers(-9, 9)) for _ in range(k)] for _ in range(2)]
    vec = [data.draw(st.integers(-20, 20)) for _ in range(k)]
    assert IntMatrix(rows).apply(vec) == tuple(sum(map(int.__mul__, r, vec)) for r in rows)
    refused(lambda: IntMatrix(rows).apply(with_bad(data.draw, vec)))
    factors = data.draw(st.sampled_from([(3,), (5,), (3, 9), (15,)]))
    embedding = TorusEmbedding.make(FiniteAbelianGroup(factors),
                                    [[1] * len(factors), [0] * len(factors)], 2)
    g = [data.draw(st.integers(0, 8)) for _ in factors]
    embedding.point_exponents(g, 45)
    refused(lambda: embedding.point_exponents(with_bad(data.draw, g), 45))


@FUZZ
@given(st.data())
def test_character_pairing(data):
    ell = data.draw(st.sampled_from([3, 5, 9, 15]))
    z = data.draw(st.lists(st.integers(0, ell - 1), min_size=1, max_size=4))
    g = [data.draw(st.integers(0, ell - 1)) for _ in z]
    character = Character(ell, tuple(z))
    assert character.pairing(g) == sum(a * b for a, b in zip(z, g)) % ell
    refused(lambda: character.pairing(with_bad(data.draw, g)))


@FUZZ
@given(st.data())
def test_lattice_element_make(data):
    basis = data.draw(st.sampled_from(list(Basis)))
    good = st.one_of(st.integers(-9, 9), st.fractions(max_denominator=7))
    coords = data.draw(st.lists(good, min_size=1, max_size=4))
    assert LatticeElement.make(basis, coords).coords == tuple(map(Fraction, coords))
    bad = list(coords)
    bad[data.draw(st.integers(0, len(bad) - 1))] = data.draw(
        st.one_of(st.booleans(), st.floats(allow_nan=False, width=32), st.text(max_size=3)))
    with pytest.raises(TypeError, match="int or Fraction"):
        result = LatticeElement.make(basis, bad)
        pytest.fail(f"returned {result!r}")


@st.composite
def elements(draw):
    """(ell, n, vectors) of a valid TorusPairElement."""
    ell, n = draw(st.sampled_from([3, 5, 9])), draw(st.integers(0, 2))
    point = st.tuples(*[st.integers(0, ell - 1)] * n)
    keys = draw(st.lists(st.tuples(point, point), min_size=1, max_size=4, unique=True))
    return ell, n, {key: tuple(draw(st.integers(0, 3)) for _ in range(ell)) for key in keys}


@FUZZ
@given(elements(), st.data())
def test_torus_pair_element(element, data):
    ell, n, vectors = element
    scale = data.draw(st.one_of(st.integers(-3, 3), st.fractions(max_denominator=7)))
    assert TorusPairElement(ell, n, scale, vectors).vectors == vectors
    bad_scale = data.draw(st.one_of(st.booleans(), st.floats(allow_nan=False, width=32),
                                    st.text(max_size=3)))
    with pytest.raises(TypeError, match="scale must be int or Fraction"):
        TorusPairElement(ell, n, bad_scale, vectors)
    (g, h), vec = next(iter(vectors.items()))
    rest = {key: value for key, value in vectors.items() if key != (g, h)}
    if n:  # the bad key goes first: a dict keeps the first of equal keys
        refused(lambda: TorusPairElement(ell, n, scale,
                                         {(tuple(with_bad(data.draw, g)), h): vec, **rest}))
        refused(lambda: TorusPairElement(ell, n, scale,
                                         {(g, tuple(with_bad(data.draw, h))): vec, **rest}))
        out = list(g)
        out[data.draw(st.integers(0, n - 1))] = data.draw(
            st.one_of(st.integers(ell, 3 * ell), st.integers(-3 * ell, -1)))
        with pytest.raises(ValueError, match=r"need g in \(0\.\."):
            TorusPairElement(ell, n, scale, {**rest, (tuple(out), h): vec})
    longer = vec + tuple(data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=3)))
    with pytest.raises(ValueError, match="counts in every entry"):
        TorusPairElement(ell, n, scale, {**rest, (g, h): longer})


def test_h_outside_the_torus_is_refused():
    """h is checked like g: read mod ell, two keys could name one cell, and
    the packed product, whose limbs assume distinct cells, overflowed: the
    aliased element times {((0,), (0,)): (3, 0, 0)} came back as (2, 1, 0)
    at (0, 0), where the frozen pairwise loop gives (18, 0, 0)."""
    aliased = {((0,), (0,)): (3, 0, 0), ((0,), (3,)): (3, 0, 0)}
    with pytest.raises(ValueError, match=r"need g in \(0\.\.2\)\^1, h too"):
        TorusPairElement(3, 1, Fraction(1), aliased)
    for h in ((-1,), (3,), (7,)):
        with pytest.raises(ValueError, match="h too"):
            TorusPairElement(3, 1, Fraction(1), {((0,), h): (1, 0, 0)})
    one = TorusPairElement(3, 1, Fraction(1), {((0,), (0,)): (3, 0, 0)})
    assert one.convolve(one).vectors == {((0,), (0,)): (9, 0, 0)}


def test_elements_the_library_builds_pass_the_check():
    """convolve and twist_J_group_algebra skip the check (_built=True);
    what they build must pass it."""
    from qsubgroups.cocycle import twist_J_group_algebra
    from qsubgroups.twist import require_twist, zero_twist

    for tw, ell in ((require_twist(cartan_matrix("B", 2), [[-1, 2], [-1, 1]]), 5),
                    (zero_twist(cartan_matrix("A", 2)), 9),
                    (require_twist(CARTAN[2], c3_parameter_matrix(1, 2, 0)), 3)):
        ga = twist_J_group_algebra(tw, ell, cap=ell ** (2 * tw.rank))
        for el in (ga.element, ga.inverse, ga.element.convolve(ga.inverse)):
            assert TorusPairElement(ell, tw.rank, el.scale, el.vectors).vectors == el.vectors


def test_probes():
    """The inputs that used to be coerced or silently mis-read."""
    A = IntMatrix([[1, 2], [3, 4]])
    refused(lambda: solve_linear_mod(A, [0.5, True], 5))
    refused(lambda: roots_supported(CARTAN[0], [1.9, True]))
    with pytest.raises(TypeError):
        c3_parameter_matrix(1.5, True, 0)
    assert c3_parameter_matrix(Fraction(1), 2, 0) == c3_parameter_matrix(1, 2, 0)
    with pytest.raises(ValueError):  # was squared to {}
        TorusPairElement(3, 1, Fraction(1), {((4,), (0,)): (1, 0, 0)})
    with pytest.raises(ValueError):  # was "negative shift count"
        TorusPairElement(3, 1, Fraction(1), {((-1,), (0,)): (1, 0, 0)})
    with pytest.raises(ValueError):  # spilled into the next g slot
        TorusPairElement(3, 1, Fraction(1), {((0,), (0,)): (1, 0, 0, 5)})
    with pytest.raises(TypeError):  # a float scale was kept
        TorusPairElement(3, 1, 0.5, {((0,), (0,)): (1, 0, 0)})
    refused(lambda: Character(5, (1, 2)).pairing((0.5, True)))  # was 2.5
    refused(lambda: TorusEmbedding.make(FiniteAbelianGroup((5,)), [[1], [0]], 2)
            .point_exponents((2.5,), 5))  # was (2.5, 0.0)
    for modulus in (15.0, True, Fraction(15), "15"):  # its matrix is built unchecked
        refused(lambda: TorusEmbedding.make(FiniteAbelianGroup((5,)), [[1], [0]], 2)
                .point_exponents((2,), modulus))
    refused(lambda: IntMatrix([[1, 2]]).apply([0.5, True]))  # was (2.5,)
    with pytest.raises(TypeError):  # was IntMatrix([[1, 2]])
        IntMatrix([[1, 2]]) * True
    refused(lambda: TorusPairElement(3, 1, Fraction(1), {((0,), (0.5,)): (1, 0, 0)}))
    with pytest.raises(TypeError, match="int or Fraction"):  # was 1/2 and 1
        LatticeElement.make(Basis.OMEGA, [0.5, True])
    with pytest.raises(TypeError, match="level must be int"):  # kept the level 5.0
        CyclotomicNumber(5.0, [1, 0, 0, 0])
    with pytest.raises(TypeError, match="int or Fraction"):  # was 1/2 and 1
        CyclotomicNumber(5, [0.5, True, 0, 0])
    one = CyclotomicNumber.one(5)
    for call in (lambda: CyclotomicNumber.from_polynomial(5, [0.5, True]),  # 1/2, 1
                 lambda: CyclotomicNumber.from_rational(5, 0.25),  # was 1/4
                 lambda: one * True,  # was one
                 lambda: one / True,  # was one
                 lambda: LatticeElement.make(Basis.OMEGA, [1, 2]).scaled(0.5)):  # halved
        refused(call, "int or Fraction")
    refused(lambda: one ** True)  # was one
    refused(lambda: one ** 2.0)
    assert (one == True) is False  # used to raise TypeError
    assert (one == 1.0) is False
    assert one == 1 and one == Fraction(1)
    tw = require_twist(CARTAN[2], c3_parameter_matrix(1, 2, 0))
    refused(lambda: s_phi_matrix(tw, 5, [True], []))  # was [[1, 0, 0]]
    refused(lambda: t_phi_I(tw, 5, [True], []))
    refused(lambda: t_hat_I_complement(tw, 5, [True], [2.0]))  # "tuple indices must be..."
    refused(lambda: kbar_exponent(tw, True))
    refused(lambda: ktilde_exponent(tw, True))
    refused(lambda: tw.tau_exponent(True))
    refused(lambda: SigmaGenerator.kbar(True).evaluate(tw, 5))
    with pytest.raises(IndexError):  # out of range stays an IndexError
        kbar_exponent(tw, 4)
    a2 = require_twist(CARTAN[0], [[0, 0], [0, 0]])
    refused(lambda: enumerate_triples(a2, 3, max_results=True))  # was 1 of 27 records
    refused(lambda: enumerate_triples(a2, 3, max_results=2.5))  # "slice indices must be..."
    refused(lambda: list(enumerate_valid_twists(CARTAN[0], True)))  # walked bound 1
    refused(lambda: list(twist_J(a2, 3).table_lines(cap=81.0)))  # ran
    refused(lambda: TorusSubgroup.full(3, 2).elements(cap=9.5))  # ran


# each answered for the coerced value: euler_phi(True) gave True,
# cyclotomic_polynomial(True) (-1, 1), identity(True) [[1]], r_operator's
# sign True the +1 operator, Character(5, (1, 0.5)) paired (1, 1) to 1.5
ONE_INT_CALLS = {
    "euler_phi": euler_phi,
    "cyclotomic_polynomial": cyclotomic_polynomial,
    "root_of_unity_power": lambda k: root_of_unity_power(5, k),
    "IntMatrix.identity": IntMatrix.identity,
    "IntMatrix.zeros rows": lambda m: IntMatrix.zeros(m, 2),
    "IntMatrix.zeros cols": lambda m: IntMatrix.zeros(2, m),
    "cartan_matrix": lambda n: cartan_matrix("A", n),
    "LatticeElement.zero": lambda n: LatticeElement.zero(Basis.ALPHA, n),
    "r_operator": lambda sign: r_operator(TWISTS[2], sign=sign),
    "Character level": lambda ell: Character(ell, (1, 1)).pairing((1, 1)),
    "Character exponents": lambda z: Character(5, (1, z)).pairing((1, 1)),
}


@pytest.mark.parametrize("bad", NON_INTS, ids=repr)
@pytest.mark.parametrize("call", ONE_INT_CALLS.values(), ids=ONE_INT_CALLS.keys())
def test_one_int_arguments(call, bad):
    refused(lambda: call(bad))


def test_one_int_arguments_still_answer():
    assert euler_phi(1) == 1
    assert cyclotomic_polynomial(1) == (-1, 1)  # the memo now holds 1's entry
    with pytest.raises(TypeError, match="got bool True"):  # not read from 1's entry
        cyclotomic_polynomial(True)
    assert root_of_unity_power(5, 1) == CyclotomicNumber(5, (0, 1, 0, 0))
    assert IntMatrix.identity(1) == IntMatrix([[1]])
    assert IntMatrix.zeros(1, 2) == IntMatrix([[0, 0]])
    assert cartan_matrix("A", 1).rank == LatticeElement.zero(Basis.ALPHA, 1).rank == 1
    assert r_operator(TWISTS[2], sign=-1).matrix[0][0] == 3  # 1 - 2 y_11
    assert Character(5, (1, 2)).pairing((1, 1)) == 3
    listed = Character(5, [1, 2])  # its exponents are kept as a tuple, so it hashes
    assert listed == Character(5, (1, 2)) and hash(listed) == hash(Character(5, (1, 2)))


def test_cartan_memo_checks_every_call():
    """cartan_matrix hands out one datum per (type, rank), upper-cased, and
    checks its arguments on every call, before the memo: a rank equal to a
    held key (True == 1, 2.0 == 2), a str rank, an out-of-range rank and an
    unknown type raise after a hit, and no error is held."""
    assert cartan_matrix("a", 3) is cartan_matrix("A", 3)
    for rank in (1, 2, 3):
        assert cartan_matrix("A", rank).rank == rank  # the memo now holds these keys
    held = lie._builtin_datum.cache_info().currsize
    for bad in (True, 2.0, "3"):
        refused(lambda: cartan_matrix("A", bad))
    for lie_type, rank in (("E", 9), ("G", 3), ("D", 3), ("B", 1), ("A", 0), ("H", 2)):
        with pytest.raises(InvalidCartanMatrix):
            cartan_matrix(lie_type, rank)
    assert lie._builtin_datum.cache_info().currsize == held
    assert lie._builtin_datum.cache_info().maxsize == lie.CARTAN_MEMO_SIZE


def test_clearing_memos_empties_the_cartan_memo():
    first = cartan_matrix("B", 3)
    assert lie._builtin_datum.cache_info().currsize > 0
    clear_library_memos()
    assert lie._builtin_datum.cache_info().currsize == 0
    again = cartan_matrix("B", 3)
    assert again == first and again is not first


@pytest.mark.parametrize("method", ["simple_root", "fundamental_weight"])
def test_simple_root_and_fundamental_weight_indices(method):
    """An index is an int in 1..rank: at rank 2, simple_root(0) gave
    alpha_2 and fundamental_weight(-1) omega_1 (the list index wrapped),
    simple_root(True) alpha_1, and simple_root(3) raised "list assignment
    index out of range"."""
    a2 = cartan_matrix("A", 2)
    call = getattr(a2, method)
    for bad in NON_INTS:
        refused(lambda: call(bad), match="simple indices must be int")
    for i in (0, -1, 3):
        with pytest.raises(IndexError, match=fr"^simple index {i} out of range 1\.\.2$"):
            call(i)
    basis = Basis.ALPHA if method == "simple_root" else Basis.OMEGA
    assert [call(i) for i in (1, 2)] == [LatticeElement.make(basis, [1, 0]),
                                         LatticeElement.make(basis, [0, 1])]


def test_coefficient_outside_the_torus_is_refused():
    """coefficient refuses a g or h outside 0..ell-1 as construction does:
    on the B2 criterion-7 J at ell = 3, (0, 0), (0, 0) holds 1/9, and
    (3, 0), (0, 0) and (0, 0), (-3, 0), which name that cell too, used to
    answer 0."""
    J = twist_J_group_algebra(TWISTS[2], 3).element
    assert J.coefficient((0, 0), (0, 0)) == CyclotomicNumber(3, (Fraction(1, 9), 0))
    for g, h in (((3, 0), (0, 0)), ((0, 0), (-3, 0)), ((0, 0), (0, 7))):
        with pytest.raises(ValueError, match=r"need g in \(0\.\.2\)\^2, h too"):
            J.coefficient(g, h)
    with pytest.raises(ValueError, match="vector length mismatch"):
        J.coefficient((0,), (0, 0))


@FUZZ
@given(st.data())
def test_cyclotomic_number(data):
    ell = data.draw(st.sampled_from([3, 5, 9, 15]))
    good = st.one_of(st.integers(-9, 9), st.fractions(max_denominator=7))
    coeffs = data.draw(st.lists(good, min_size=euler_phi(ell), max_size=euler_phi(ell)))
    assert CyclotomicNumber(ell, coeffs).coeffs == tuple(map(Fraction, coeffs))
    bad = list(coeffs)
    bad[data.draw(st.integers(0, len(bad) - 1))] = data.draw(
        st.one_of(st.booleans(), st.floats(allow_nan=False, width=32), st.text(max_size=3)))
    with pytest.raises(TypeError, match="int or Fraction"):
        result = CyclotomicNumber(ell, bad)
        pytest.fail(f"returned {result!r}")
    bad_level = data.draw(st.one_of(st.just(float(ell)), st.just(True), st.just(str(ell))))
    with pytest.raises(TypeError, match="level must be int"):
        CyclotomicNumber(bad_level, coeffs)
    x = CyclotomicNumber(ell, coeffs)
    bad_scalar = data.draw(st.one_of(st.booleans(), st.floats(allow_nan=False, width=32),
                                     st.text(max_size=3)))
    for call in (lambda: CyclotomicNumber.from_polynomial(ell, coeffs + [bad_scalar]),
                 lambda: CyclotomicNumber.from_rational(ell, bad_scalar),
                 lambda: x * bad_scalar, lambda: bad_scalar * x, lambda: x / bad_scalar):
        refused(call, "int or Fraction")
    assert (x == bad_scalar) is False


TWISTS = [require_twist(CARTAN[0], [[0, 0], [0, 0]]),
          require_twist(CARTAN[2], c3_parameter_matrix(1, 2, 0)),
          require_twist(cartan_matrix("B", 2), [[-1, 2], [-1, 1]])]


@FUZZ
@given(st.data())
def test_simple_indices(data):
    tw = data.draw(st.sampled_from(TWISTS))
    i = data.draw(st.integers(1, tw.rank))
    bad = data.draw(BAD)
    for query in (kbar_exponent, ktilde_exponent, type(tw).tau_exponent):
        assert len(query(tw, i)) == tw.rank
        refused(lambda: query(tw, bad))
        with pytest.raises(IndexError):
            query(tw, data.draw(st.one_of(st.integers(-3, 0),
                                          st.integers(tw.rank + 1, tw.rank + 3))))
    SigmaGenerator.kbar(i).evaluate(tw, 5)
    refused(lambda: SigmaGenerator.ktilde(bad).evaluate(tw, 5))
    iplus = data.draw(st.lists(st.integers(1, tw.rank), min_size=1, max_size=tw.rank))
    for build in (s_phi_matrix, t_phi_I, t_hat_I_complement):
        build(tw, 5, iplus, [i])
        refused(lambda: build(tw, 5, with_bad(data.draw, iplus), [i]))
        refused(lambda: build(tw, 5, [i], with_bad(data.draw, iplus)))


def test_directly_built_triple_is_refused():
    """A cache key takes frozenset({True}) for frozenset({1}), so a Triple
    built without Triple.make must still be refused, even while the memo
    of the required rows of (I+, I-) and the triple memo hold the entry
    on {1}: the Triple itself refuses the index when it is built.  So
    must dim_H's indices."""
    tw = TWISTS[1]
    sigma = TorusSubgroup.full(5, 3)
    for build in (s_phi_matrix, t_phi_I, t_hat_I_complement):
        build(tw, 5, [1], [])  # the memo now holds the pair ({1}, {})
    analyze_triple(tw, 5, Triple(frozenset({1}), frozenset(), sigma))  # and the triple
    refused(lambda: Triple(frozenset(), frozenset({True}), sigma))
    refused(lambda: validate_triple(tw, 5, Triple(frozenset({True}), frozenset(), sigma)))
    refused(lambda: analyze_triple(tw, 5, Triple(frozenset({True}), frozenset(), sigma)))
    refused(lambda: dim_H(tw, 5, [True], [], t_hat_I_complement(tw, 5, [1], [])))


def test_directly_built_torus_subgroup_is_refused():
    """A TorusSubgroup built directly takes only an int level and rank:
    5.0 used to give the order 5.0 and float generators, True the level
    True."""
    lattice = IntMatrix([[1, 0], [0, 5]])
    assert TorusSubgroup(5, 2, lattice).order == 5
    for ell, n in ((5.0, 2), (True, 2), (Fraction(5), 2), ("5", 2), (5, 2.0), (5, True)):
        refused(lambda: TorusSubgroup(ell, n, lattice))
    refused(lambda: TorusSubgroup(True, 1, IntMatrix([[1]])))


def test_from_generators_takes_an_int_rank():
    """from_generators refuses a non-int rank as kernel does, also when
    the rows have the width it stands for: 2.0 used to give rank 2."""
    for n, rows in ((2.0, [[1, 0]]), (True, [[1]]), (Fraction(2), [[1, 0]]), ("2", [[1, 0]])):
        refused(lambda: TorusSubgroup.from_generators(5, n, rows))
        refused(lambda: TorusSubgroup.from_generators(5, n, IntMatrix(rows)))
    assert TorusSubgroup.from_generators(5, 2, [[1, 0]]).n == 2


def test_directly_built_datum_parts_are_refused():
    """TwistedSubgroupDatum, TorusEmbedding and DualHom check their own
    fields when they are built, so a bool index, matrix entry or image
    never reaches the datum memo, even while it holds the datum on {1}."""
    tw = TWISTS[1]
    N = t_hat_I_complement(tw, 5, [1], [])
    good = TwistedSubgroupDatum.make(frozenset({1}), frozenset(), N)
    assert validate_datum(tw, 5, good).ok  # the datum memo now holds {1}
    assert analyze_datum(tw, 5, good) is analyze_datum(
        tw, 5, TwistedSubgroupDatum(frozenset({1}), frozenset(), N, good.embedding, good.delta))
    refused(lambda: TwistedSubgroupDatum(frozenset({True}), frozenset(), N,
                                         good.embedding, good.delta))
    refused(lambda: TwistedSubgroupDatum(frozenset(), [1.0], N, good.embedding, good.delta))
    z5 = FiniteAbelianGroup((5,))
    assert TorusEmbedding(z5, ((1,), (0,)), 2).matrix == ((1,), (0,))
    refused(lambda: TorusEmbedding(z5, ((True,), (0,)), 2))
    refused(lambda: TorusEmbedding(z5, ((1,), (0,)), True), "torus rank must be int")
    with pytest.raises(ValueError, match=r"must be 2 x 1"):
        TorusEmbedding(z5, ((1,),), 2)
    source = TorusSubgroup.from_generators(5, 2, [[1, 0]])
    assert DualHom(source.generators, z5, [[7]]).images == ((2,),)
    refused(lambda: DualHom(source.generators, z5, ((True,),)))
    refused(lambda: DualHom.make(source, z5, [[2.0]]))
    with pytest.raises(ValueError, match="one image per canonical generator"):
        DualHom(source.generators, z5, ())


@FUZZ
@given(st.data())
def test_guard_arguments(data):
    """max_results, cap, bound and limit take an int or None, never a
    bool, float, Fraction or str."""
    tw = TWISTS[0]
    bad = data.draw(BAD)
    sub = TorusSubgroup.from_generators(3, 2, [[1, 2]])
    refused(lambda: enumerate_triples(tw, 3, max_results=bad))
    refused(lambda: enumerate_triples(tw, 3, cap=bad))
    refused(lambda: list(enumerate_valid_twists(tw.cd, bad)))
    refused(lambda: list(enumerate_valid_twists(tw.cd, 1, limit=bad)))
    refused(lambda: list(twist_J(tw, 3).table_lines(cap=bad)))
    refused(lambda: twist_J_group_algebra(tw, 3, cap=bad))
    refused(lambda: sub.elements(cap=bad))
    refused(lambda: enumerate_subgroups(sub, cap=bad))


def test_guard_arguments_take_int_and_none():
    tw = TWISTS[0]
    assert len(enumerate_triples(tw, 3)) == 27
    assert len(enumerate_triples(tw, 3, max_results=1, cap=None)) == 1
    assert len(enumerate_triples(tw, 3, max_results=None, cap=100)) == 27
    assert len(list(enumerate_valid_twists(tw.cd, 1))) == \
        len(list(enumerate_valid_twists(tw.cd, 1, limit=None)))
    assert len(list(enumerate_valid_twists(tw.cd, 1, limit=1))) == 1
    assert len(list(twist_J(tw, 3).table_lines(cap=81))) == 9
    assert len(list(twist_J(tw, 3).table_lines())) == 9
    twist_J_group_algebra(tw, 3, cap=81)
    full = TorusSubgroup.full(3, 2)
    assert len(full.elements(cap=9)) == len(full.elements()) == 9
    assert len(enumerate_subgroups(full, cap=6)) == len(enumerate_subgroups(full)) == 6

