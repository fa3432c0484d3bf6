"""The contract of the package's record types: equal fields give equal
records with equal hashes, fields cannot be assigned (except on the
scan's accumulator ``ScanReport``), every record is truthy, records
survive a pickle round trip, and a germ's and a lattice's derived data
is built once."""

import inspect
import pickle
from enum import Enum
from fractions import Fraction as F

import pytest

import toricmld as t
from toricmld.invariants import Rebased

FOURRAY = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)]


def _germ():
    return t.make_germ(t.make_cone(3, FOURRAY), None, t.lattice_from_generators(3, [(F(1, 2), F(1, 2), F(0))]))


def _instance():
    return t.ConjectureInstance(t.family("ex1", 4), F(1, 2), F(1, 2))


def _decomposition():
    germ = _germ()
    return germ, t.decompose(germ, t.mld(germ).minimizers[0])


# each builds one record from scratch, so two calls give equal, distinct records
RECORDS = {
    t.Cone: lambda: t.make_cone(3, FOURRAY),
    t.Face: lambda: t.minimal_face_containing(t.make_cone(3, FOURRAY), (1, 1, 0)),
    t.LatticeBasis: lambda: t.lattice_from_generators(2, [(F(1, 3), F(2, 3))]),
    t.ToricGerm: _germ,
    Rebased: lambda: _germ().rebased,
    t.MldResult: lambda: t.mld(_germ()),
    t.WindowCount: lambda: t.count_window(_germ(), 1, 3),
    t.FiniteAbelianGroup: lambda: t.pi1_reg(_germ()),
    t.Simplicial: lambda: t.trichotomy(t.make_cone(2, [(1, 0), (0, 1)]), (1, 1)),
    t.FullDimSubcone: lambda: t.trichotomy(t.make_cone(3, FOURRAY), (2, 2, 1)),
    t.SpanningPair: lambda: t.trichotomy(t.make_cone(3, FOURRAY), (1, 1, 0)),
    t.Decomposition: lambda: _decomposition()[1],
    t.BlowupReport: lambda: t.blowup_report(*_decomposition()),
    t.ConjectureInstance: _instance,
    t.InstanceResult: lambda: t.check_instance(_instance()),
    t.ScanReport: lambda: t.scan([_instance()]),
}


def test_every_public_record_is_covered():
    public = {
        obj for obj in map(t.__dict__.get, t.__all__)
        if isinstance(obj, type) and not issubclass(obj, (Enum, Exception))
    }
    assert public | {Rebased} == set(RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_contract(cls):
    a, b = RECORDS[cls](), RECORDS[cls]()
    assert type(a) is cls and a is not b and a == b and not a != b
    fields = list(inspect.signature(cls).parameters)
    assert cls(*[getattr(a, name) for name in fields]) == a
    assert a and pickle.loads(pickle.dumps(a)) == a
    if cls is t.ScanReport:  # the scan folds into it in place
        assert cls.__hash__ is None
        a.degenerate += 1
        assert a != b
        return
    assert hash(a) == hash(b)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(b, name))
    assert a == b


def test_derived_data_is_built_once():
    germ = _germ()
    assert germ.rebased is germ.rebased and germ.orbifold is germ.orbifold
    lattice = germ.lattice
    assert lattice.rows is lattice.rows and lattice.is_standard is lattice.is_standard
    assert germ == _germ() and hash(germ) == hash(_germ())
