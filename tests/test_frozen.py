"""Value semantics of the library's frozen classes: read-only fields,
equality and hashing over the fields, the ``Name(field=value)`` repr, and
``replace`` running the constructor's checks again."""

import pytest

from tropsurf import bergman as bg
from tropsurf import cosheaf_homology as ch
from tropsurf import fan_cycles as fc
from tropsurf import matroid as mt
from tropsurf import surface_calculus as sc
from tropsurf._frozen import replace
from tropsurf.errors import SurfaceError


def point():
    return mt.Matroid(1, ((frozenset(),), (frozenset({0}),)))


def segment():
    return ch.Segment("F", (0, 0), (1, 2), (1, 0))


SEGMENT_REPR = (
    "Segment(face='F', start=(Fraction(0, 1), Fraction(0, 1)), "
    "end=(Fraction(1, 1), Fraction(2, 1)), coeff=(1, 0))"
)

# class name -> (a fresh instance, a field, the repr of the instance)
VALUES = {
    "Matroid": (
        point,
        "n",
        "Matroid(n=1, flats_by_rank=((frozenset(),), (frozenset({0}),)))",
    ),
    "Basis": (
        lambda: bg.Basis(((1, 0), (0, 1))),
        "vectors",
        "Basis(vectors=((1, 0), (0, 1)))",
    ),
    "Ray": (
        lambda: bg.Ray(frozenset({0}), (1, 0)),
        "direction",
        "Ray(flat=frozenset({0}), direction=(1, 0))",
    ),
    "Cone": (
        lambda: bg.Cone(0, 1, ((1, 0), (0, 1))),
        "sectors",
        "Cone(i=0, j=1, sectors=((1, 0), (0, 1)))",
    ),
    "FanPlane": (
        lambda: bg.FanPlane(point(), bg.Basis(((1,),)), (), ()),
        "degenerate_plane",
        "FanPlane(matroid=Matroid(n=1, flats_by_rank=((frozenset(),), "
        "(frozenset({0}),))), basis=Basis(vectors=((1,),)), rays=(), cones=(), "
        "degenerate_plane=False)",
    ),
    "MissingRayClass": (
        lambda: bg.MissingRayClass("none"),
        "kind",
        "MissingRayClass(kind='none', missing=(), parts=())",
    ),
    "FanCycle": (
        lambda: fc.FanCycle(1, (((1,), 1), ((-1,), 1))),
        "rays",
        "FanCycle(dim=1, rays=(((-1,), 1), ((1,), 1)))",
    ),
    "Cell": (lambda: ch.Cell("x", 0), "dim", "Cell(id='x', dim=0)"),
    "Attachment": (
        lambda: ch.Attachment("E", "x", 1, ((1,),)),
        "sign",
        "Attachment(big='E', small='x', sign=1, iota1=((1,),))",
    ),
    "CellComplex": (
        lambda: ch.CellComplex((ch.Cell("x", 0),), (), (("x", 1),)),
        "cells",
        "CellComplex(cells=(Cell(id='x', dim=0),), attachments=(), f1_rank=(('x', 1),))",
    ),
    "Homology": (
        lambda: ch.Homology(1, (2,)),
        "torsion",
        "Homology(free_rank=1, torsion=(2,))",
    ),
    "Segment": (segment, "coeff", SEGMENT_REPR),
    "OneOneCycle": (
        lambda: ch.OneOneCycle((segment(),)),
        "segments",
        f"OneOneCycle(segments=({SEGMENT_REPR},))",
    ),
    "CurveDescriptor": (
        lambda: sc.CurveDescriptor(0, (1, 1)),
        "b1",
        "CurveDescriptor(b1=0, valencies=(1, 1))",
    ),
    "LedgerEntry": (
        lambda: sc.LedgerEntry(sc.CurveDescriptor(0, (1, 1)), -1),
        "self_intersection",
        "LedgerEntry(curve=CurveDescriptor(b1=0, valencies=(1, 1)), "
        "self_intersection=-1, crossings=frozenset())",
    ),
    "Surface": (lambda: sc.Surface(1, 9, 3), "k2", "Surface(chi=1, k2=9, c2=3, ledger=())"),
    "Fan2D": (
        lambda: sc.Fan2D(((1, 0), (0, 1), (-1, -1))),
        "rays",
        "Fan2D(rays=((1, 0), (0, 1), (-1, -1)))",
    ),
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_value_semantics(name):
    make, field, shown = VALUES[name]
    a, b = make(), make()
    assert type(a).__name__ == name
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert a == b and not a != b and hash(a) == hash(b)
    for other, *_ in VALUES.values():
        if other is not make:
            assert a != other()
    assert repr(a) == shown


def test_replace_changes_a_field():
    x = sc.Surface(1, 9, 3)
    assert replace(x, k2=8, c2=4) == sc.Surface(1, 8, 4)
    assert x == sc.Surface(1, 9, 3)


def test_replace_runs_the_checks_again():
    with pytest.raises(SurfaceError, match="Noether fails"):
        replace(sc.Surface(1, 9, 3), k2=8)
    with pytest.raises(SurfaceError, match="valencies and b1 disagree"):
        replace(sc.CurveDescriptor(0, (1, 1)), b1=1)
