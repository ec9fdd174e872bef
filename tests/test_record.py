"""Behaviour of the frozen value classes: construction, repr, equality,
hashing and immutability, for one class compared by value (ClosedDisc)
and one compared by identity (IndexSet)."""

import dataclasses
import math

import numpy as np
import pytest

from freqdyn.density import DensityReport, IndexSet
from freqdyn.geometry import AnnularSector, ClosedDisc, Domain, DomainKind
from freqdyn.maps import Mobius


def test_value_class_equality_and_hash():
    a, b = ClosedDisc(1 + 2j, 0.5), ClosedDisc(1 + 2j, 0.5)
    assert a == b and a is not b
    assert hash(a) == hash(b) == hash((1 + 2j, 0.5))
    assert a != ClosedDisc(1 + 2j, 0.25)
    assert a != AnnularSector(1.0, 2.0, 0.5)
    assert a.__eq__((1 + 2j, 0.5)) is NotImplemented
    assert len({a, b, ClosedDisc(0j, 0.5)}) == 2


def test_identity_class_equality_and_hash():
    a = IndexSet(np.array([1, 3]), 5)
    b = IndexSet(np.array([1, 3]), 5)
    assert a == a and a != b
    assert hash(a) == object.__hash__(a)
    assert len({a, b}) == 2


@pytest.mark.parametrize(
    "obj, name",
    [(ClosedDisc(0j, 1.0), "radius"), (IndexSet(np.array([2]), 3), "n_max")],
)
def test_fields_cannot_be_set_or_deleted(obj, name):
    before = getattr(obj, name)
    with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field '{name}'"):
        setattr(obj, name, 2)
    with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field '{name}'"):
        delattr(obj, name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        obj.other = 1
    assert getattr(obj, name) == before


def test_repr_is_the_dataclass_format():
    assert repr(AnnularSector(1.0, 0.25, 0.5)) == "AnnularSector(rmin=1.0, rmax=0.25, half_angle=0.5)"
    assert repr(ClosedDisc(1j, 2.0)) == "ClosedDisc(center=1j, radius=2.0)"
    assert str(Domain.slit_plane()) == "Domain(kind=<DomainKind.SLIT_PLANE: 'slit_plane'>)"
    s = IndexSet(np.array([4]), 9, "four")
    assert repr(s) == (
        "IndexSet(elements=array([4]), n_max=9, descriptor='four',"
        " closed_form_density=None)"
    )


def test_construction_by_position_keyword_and_default():
    assert ClosedDisc(1j, 2.0) == ClosedDisc(radius=2.0, center=1j) == ClosedDisc(1j, radius=2.0)
    s = IndexSet(np.array([1, 2]), 4)
    assert (s.descriptor, s.closed_form_density) == (None, None)
    t = IndexSet(np.array([1, 2]), n_max=4, closed_form_density=0.5)
    assert (t.descriptor, t.closed_form_density) == (None, 0.5)
    assert IndexSet(np.array([1]), 4, "d", 0.25).closed_form_density == 0.25
    # records compare by value through fields that are records and enums
    disc = Domain.unit_disc()
    assert disc == Domain(kind=DomainKind.UNIT_DISC) and disc != Domain.slit_plane()
    m = Mobius(1j, 0j, 0.0, 1.0, disc)
    assert m == Mobius(1j, 0j, 0.0, 1.0, domain=Domain(DomainKind.UNIT_DISC))
    assert m != Mobius(1j, 0j, 0.0, 1.0, Domain.slit_plane())
    rep = DensityReport(0.1, 0.2, 1, 10, False)
    assert rep.checkpoints == () and rep.closed_form is None


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        ((1j,), {}, "missing required argument 'radius'"),
        ((), {"radius": 1.0}, "missing required argument 'center'"),
        ((1j, 1.0, 2.0), {}, "takes 2 positional arguments but 3 were given"),
        ((1j, 1.0), {"colour": 1}, "unexpected keyword argument 'colour'"),
        ((1j,), {"radius": 1.0, "center": 0j}, "multiple values for argument 'center'"),
    ],
)
def test_bad_arguments_raise_type_error(args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        ClosedDisc(*args, **kwargs)


def test_identity_class_bad_arguments_raise_type_error():
    with pytest.raises(TypeError, match="missing required argument 'n_max'"):
        IndexSet(np.array([1]))
    with pytest.raises(TypeError, match="unexpected keyword argument 'size'"):
        IndexSet(np.array([1]), 2, size=1)


def test_post_init_validates_and_normalises():
    with pytest.raises(ValueError, match="center must be finite"):
        ClosedDisc(complex(math.nan, 0.0), 1.0)
    with pytest.raises(ValueError, match="center must be finite"):
        ClosedDisc(radius=1.0, center=complex(0.0, math.nan))
    with pytest.raises(ValueError, match="radius"):
        ClosedDisc(0j, -1.0)
    with pytest.raises(ValueError, match="strictly increasing"):
        IndexSet(np.array([3, 2]), 5)
    s = IndexSet([1, 2], 3)
    assert isinstance(s.elements, np.ndarray) and s.elements.dtype == np.int64


def test_record_fields():
    assert ClosedDisc._fields == ("center", "radius")
    assert IndexSet._fields == ("elements", "n_max", "descriptor", "closed_form_density")
    assert not dataclasses.is_dataclass(ClosedDisc)
