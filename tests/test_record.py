"""The library's records against frozen dataclasses built from the same
class bodies: same fields, defaults, repr, equality, hash, immutability,
__post_init__ and replace.  The tests import dataclasses; the library
does not (test_hygiene checks that)."""

import copy
import dataclasses
import functools
import inspect
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import qsubgroups
from qsubgroups import cli, cocycle, datum, exact, lie, torus, twist
from qsubgroups._record import record, replace
from qsubgroups.datum import FiniteAbelianGroup, TorusEmbedding
from qsubgroups.exact import IntMatrix
from qsubgroups.lie import Basis, LatticeElement
from qsubgroups.torus import TorusSubgroup

MODULES = (cli, cocycle, datum, exact, lie, torus, twist)
RECORDS = sorted(
    (value for mod in MODULES for value in vars(mod).values()
     if isinstance(value, type) and value.__module__ == mod.__name__
     and "_fields" in vars(value)),
    key=lambda cls: (cls.__module__, cls.__qualname__),
)

# values of a record's leading fields that pass its __post_init__; the
# fields after them, and every field of a record not listed, take any value
VALID = {
    "Bidegree": (LatticeElement.make(Basis.OMEGA, (1, 0)),
                 LatticeElement.make(Basis.OMEGA, (0, -2))),
    "FiniteAbelianGroup": ([3, 9],),
    "CyclotomicNumber": (5, (1, 0, -2, 3)),
    "Character": (5, (1, 2)),
    "TorusSubgroup": (3, 2, IntMatrix([[1, 2], [0, 3]])),
    "Triple": (frozenset({1}), frozenset({1, 2}), TorusSubgroup.full(3, 2), None),
    "TwistedSubgroupDatum": (frozenset({2}), frozenset(), TorusSubgroup.trivial(3, 2),
                             TorusEmbedding.trivial(2), None, None),
    "TorusEmbedding": (FiniteAbelianGroup((3,)), ((1,), (0,)), 2),
    "DualHom": (((1, 2),), FiniteAbelianGroup((3,)), ((2,),)),
    "OpaqueGroup": (6,),  # order is checked, label is not
}


def twin(cls):
    """A frozen dataclass made by dataclasses from cls's own annotations,
    defaults, __post_init__ and lazy attributes (functools.cached_property,
    TorusSubgroup.generators), under the same qualname."""
    own = vars(cls)
    body = {name: own[name] for name in own["__annotations__"] if name in own}
    if "__post_init__" in own:
        body["__post_init__"] = own["__post_init__"]
    body.update((name, value) for name, value in own.items()
                if isinstance(value, functools.cached_property))
    body.update(__annotations__=dict(own["__annotations__"]),
                __qualname__=cls.__qualname__, __module__=cls.__module__)
    return dataclasses.dataclass(frozen=True)(type(cls.__name__, (), body))


def sample(cls):
    """VALID's values, then a placeholder for each remaining field."""
    given = VALID.get(cls.__name__, ())
    return given + tuple(
        (cls.__name__, name, k) for k, name in enumerate(cls._fields) if k >= len(given)
    )


def free_last(cls):
    """Whether the last field takes any value, so a test may change it."""
    return len(VALID.get(cls.__name__, ())) < len(cls._fields)


def test_every_record_found():
    assert len(RECORDS) == 31  # CyclotomicNumber is the 30th, TorusSubgroup the 31st
    for mod in MODULES:
        assert not any(dataclasses.is_dataclass(v) for v in vars(mod).values())


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__qualname__)
class TestAgainstDataclass:
    def test_fields_and_defaults(self, cls):
        def params(c):
            return [(p.name, p.default, p.kind)
                    for p in inspect.signature(c).parameters.values()]

        assert params(cls) == params(twin(cls))
        assert cls._fields == tuple(f.name for f in dataclasses.fields(twin(cls)))

    def test_repr_eq_hash(self, cls):
        dc = twin(cls)
        values = sample(cls)
        rec, mirror = cls(*values), dc(*values)
        assert repr(rec) == repr(mirror)
        assert rec == cls(*values) and not rec != cls(*values)
        assert (rec == cls(**dict(zip(cls._fields, values)))) is True
        if free_last(cls):
            assert rec != cls(*values[:-1], ("changed",))
        assert hash(rec) == hash(mirror)

    def test_defaults_fill_in(self, cls):
        required = [p.name for p in inspect.signature(cls).parameters.values()
                    if p.default is inspect.Parameter.empty]
        if len(required) == len(cls._fields):
            return
        kwargs = dict(zip(required, sample(cls)))
        assert repr(cls(**kwargs)) == repr(twin(cls)(**kwargs))

    def test_equality_is_class_strict(self, cls):
        values = sample(cls)
        other = record(type(cls.__name__, (), {
            "__annotations__": dict(vars(cls)["__annotations__"]),
            "__qualname__": cls.__qualname__,
        }))
        rec = cls(*values)
        assert rec != other(*values)
        assert rec != twin(cls)(*values)
        assert rec != tuple(getattr(rec, name) for name in cls._fields)

    def test_frozen(self, cls):
        rec, mirror = cls(*sample(cls)), twin(cls)(*sample(cls))
        for name in (cls._fields[0], "not_a_field"):
            with pytest.raises(AttributeError) as got:
                setattr(rec, name, 1)
            with pytest.raises(AttributeError) as want:
                setattr(mirror, name, 1)
            assert str(got.value) == str(want.value)
            with pytest.raises(AttributeError) as got:
                delattr(rec, name)
            with pytest.raises(AttributeError) as want:
                delattr(mirror, name)
            assert str(got.value) == str(want.value)

    def test_hash_is_the_field_hash_before_and_after_first_use(self, cls):
        rec = cls(*sample(cls))
        want = hash(tuple(getattr(rec, name) for name in cls._fields))
        assert "_hash" not in vars(rec)
        assert hash(rec) == want  # first use: computed and cached
        assert vars(rec)["_hash"] == want
        assert hash(rec) == want == hash(cls(*sample(cls)))

    def test_replace(self, cls):
        values = sample(cls)
        name = cls._fields[-1]
        new = ("replaced",) if free_last(cls) else values[-1]
        got = replace(cls(*values), **{name: new})
        assert type(got) is cls
        assert repr(got) == repr(dataclasses.replace(twin(cls)(*values), **{name: new}))
        with pytest.raises(TypeError):
            replace(cls(*values), not_a_field=1)


def test_post_init_runs():
    group = datum.FiniteAbelianGroup([3, 9])
    assert group.invariant_factors == (3, 9)
    assert type(group.invariant_factors) is tuple
    assert group == datum.FiniteAbelianGroup((3, 9))
    assert hash(group) == hash(((3, 9),))
    assert datum.FiniteAbelianGroup() == datum.FiniteAbelianGroup(())
    for cls in (datum.FiniteAbelianGroup, twin(datum.FiniteAbelianGroup)):
        with pytest.raises(ValueError, match="divisibility"):
            cls((3, 4))
    alpha = LatticeElement.make(Basis.ALPHA, (1, 0))
    for cls in (cocycle.Bidegree, twin(cocycle.Bidegree)):
        with pytest.raises(ValueError, match="OMEGA"):
            cls(alpha, alpha)
    lattice = IntMatrix([[1, 2], [0, 3]])
    for cls in (TorusSubgroup, twin(TorusSubgroup)):
        sub = cls(3, 2, lattice)
        assert (sub.order, sub.generators) == (3, ((1, 2),))
        assert hash(sub) == hash((3, 2, lattice))  # the hash of the former class
        with pytest.raises(ValueError, match="level"):
            cls(0, 1, IntMatrix([[1]]))
    for cls in (torus.Triple, twin(torus.Triple)):
        assert cls([2, 1], (), TorusSubgroup.full(3, 2)).iplus == frozenset({1, 2})
    for cls in (datum.DualHom, twin(datum.DualHom)):
        assert cls(((1, 2),), FiniteAbelianGroup((3,)), [[5]]).images == ((2,),)


def test_cached_hash_is_not_carried_by_pickle_or_copy():
    """A str hashes differently in each process, so a record's cached
    hash stays behind: a clone hashes its own fields on first use, and a
    record unpickled in a process with another hash seed hashes there as
    its field tuple does."""
    rec = torus.SigmaGenerator("kbar", 2)
    want = hash(("kbar", 2, None))
    assert hash(rec) == want and vars(rec)["_hash"] == want
    for clone in (pickle.loads(pickle.dumps(rec)), copy.copy(rec), copy.deepcopy(rec)):
        assert clone == rec and "_hash" not in vars(clone)
        assert hash(clone) == want
    script = ("import pickle, sys; rec = pickle.loads(sys.stdin.buffer.read()); "
              "print(hash(rec) == hash((rec.kind, rec.index, rec.vector)))")
    src = str(Path(qsubgroups.__file__).resolve().parents[1])
    for seed in ("1", "2"):  # at least one differs from this process's seed
        out = subprocess.run([sys.executable, "-c", script], input=pickle.dumps(rec),
                             capture_output=True, check=True,
                             env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src))
        assert out.stdout.strip() == b"True", out.stderr


def test_records_holding_a_matrix_pickle_and_copy():
    """IntMatrix rebuilds through its checking constructor, so records
    that hold one go through pickle, copy and deepcopy: each clone is
    equal, hashes the same and still refuses assignment."""
    for matrix in (IntMatrix([[1, 2], [0, 3]]), IntMatrix.zeros(0, 3)):
        for clone in (pickle.loads(pickle.dumps(matrix)), copy.copy(matrix),
                      copy.deepcopy(matrix)):
            assert (clone.data, clone.nrows, clone.ncols) == \
                (matrix.data, matrix.nrows, matrix.ncols)
            with pytest.raises(AttributeError, match="immutable"):
                clone.data = ()
    tw = twist.require_twist(lie.cartan_matrix("C", 3), twist.c3_parameter_matrix(1, 2, 0))
    sub = TorusSubgroup.from_generators(5, 3, [[1, 2, 3]])
    assert sub.generators  # the lazy generators are read before the copy
    triple = torus.Triple.make(tw, 5, [1], [2], sigma_gens=[[1, 2, 3]])
    for rec in (sub, tw, triple):
        for clone in (pickle.loads(pickle.dumps(rec)), copy.copy(rec), copy.deepcopy(rec)):
            assert type(clone) is type(rec)
            assert clone == rec and hash(clone) == hash(rec)
            with pytest.raises(AttributeError):
                setattr(clone, rec._fields[0], None)
    assert pickle.loads(pickle.dumps(sub)).generators == ((1, 2, 3),)


def test_triple_record_sigma_order_matches_dataclasses_replace():
    tw = twist.zero_twist(lie.cartan_matrix("A", 2))
    dims = twin(datum.DimH)
    records = datum.enumerate_triples(tw, 3)
    assert len(records) > 2
    for rec in records:
        kernel = torus.t_hat_I_complement(tw, 3, rec.iplus, rec.iminus)
        base = datum.dim_H(tw, 3, rec.iplus, rec.iminus, kernel)
        mirror = dataclasses.replace(
            dims(*(getattr(base, name) for name in datum.DimH._fields)),
            sigma_order=9 // rec.N.order,
        )
        assert repr(rec.dims) == repr(mirror)
        assert hash(rec.dims) == hash(mirror)
        assert replace(base, sigma_order=9 // rec.N.order) == rec.dims


def test_own_methods_are_kept():
    def point(decorate):
        @decorate
        class Point:
            x: int
            y: int = 0

            def __repr__(self):
                return "point"

            def __eq__(self, other):
                return self.x == other.x

        return Point

    rec, mirror = point(record), point(dataclasses.dataclass(frozen=True))
    for cls in (rec, mirror):
        assert repr(cls(1, 2)) == "point"
        assert cls(1, 2) == cls(1, 3)
        # an own __eq__ without an own __hash__ still gets the field hash
        assert hash(cls(1, 2)) == hash((1, 2))


def test_fields_follow_the_mro():
    def child(decorate):
        @decorate
        class Base:
            a: int
            b: int = 1

        @decorate
        class Child(Base):
            c: int = 2
            b: int = 5

        return Child

    rec, mirror = child(record), child(dataclasses.dataclass(frozen=True))
    assert rec._fields == ("a", "b", "c")
    assert str(inspect.signature(rec)) == "(a, b=5, c=2)"
    # both classes are nested, so the repr shows the full qualname
    assert repr(rec(0)) == repr(mirror(0))
    assert repr(rec(0)).endswith("<locals>.Child(a=0, b=5, c=2)")


def test_field_less_class_is_refused():
    with pytest.raises(TypeError, match="no fields"):
        record(type("Empty", (), {}))
