"""Invariant calculus for compact tropical surfaces built from toric
pieces by summing along boundary curves.

Surfaces are expression trees, not geometric objects: each node carries
the Euler characteristic chi, the canonical self-intersection K^2, the
degree c2 of the second Chern class, and a ledger of boundary curves
(combinatorial curve type, self-intersection, crossing information).
The calculus implements:

  toric     -- a complete unimodular fan in R^2
  self_sum  -- glue a surface to itself along two disjoint boundary
               curves, isomorphic with opposite self-intersections
  sum       -- glue two surfaces along such curves: the self-sum of their
               disjoint union, with ids prefixed "a." and "b."
  modify    -- a locally degree-1 modification along a curve; invariants
               are unchanged, the centre joins the ledger
  contract  -- remove a rational (-1)-curve (Castelnuovo-Enriques); the
               curves that crossed it gain +1

Gluing and contraction drop curves from the ledger by one rule: a curve
that crossed a dropped curve crosses its replacements instead (the other
glued curve's neighbours, or the contracted curve's), never itself.
Every node asserts Noether's identity 12 chi = K^2 + c2, and that its
crossings are symmetric and name other curves of its ledger.
"""

from __future__ import annotations

import math

from ._frozen import frozen, replace
from .errors import SurfaceError, boolean, field, integer, integers


# -- curves ------------------------------------------------------------------


@frozen
class CurveDescriptor:
    """Combinatorial type of a boundary curve: first Betti number and the
    multiset of vertex valencies (leaves included).  A circle has no
    vertices; a torus boundary line of a toric surface is a segment with
    valencies (1, 1)."""

    b1: int
    valencies: tuple = ()

    def __post_init__(self):
        vals = tuple(sorted(int(v) for v in self.valencies))
        object.__setattr__(self, "valencies", vals)
        if self.b1 < 0 or any(v < 1 for v in vals):
            raise SurfaceError("invalid curve descriptor")
        if sum(v - 2 for v in vals) != 2 * self.b1 - 2:
            raise SurfaceError(
                "valencies and b1 disagree: sum(val - 2) must be 2 b1 - 2"
            )

    @property
    def leaf_count(self):
        return sum(1 for v in self.valencies if v == 1)

    @property
    def k_degree(self):
        """Degree of the canonical class of the curve: 2 b1 - 2."""
        return 2 * self.b1 - 2

    def isomorphic(self, other):
        return self.b1 == other.b1 and self.valencies == other.valencies


SEGMENT = CurveDescriptor(0, (1, 1))
CIRCLE = CurveDescriptor(1, ())


@frozen
class LedgerEntry:
    curve: CurveDescriptor
    self_intersection: int
    crossings: frozenset = frozenset()


@frozen
class Surface:
    chi: int
    k2: int
    c2: int
    ledger: tuple = ()  # tuple of (id, LedgerEntry), ids unique strings

    def __post_init__(self):
        if 12 * self.chi != self.k2 + self.c2:
            raise SurfaceError(
                f"Noether fails: 12*{self.chi} != {self.k2} + {self.c2}"
            )
        entries = dict(self.ledger)
        if len(entries) != len(self.ledger):
            raise SurfaceError("duplicate ledger ids")
        for i, e in self.ledger:
            for c in e.crossings:
                if c == i or c not in entries or i not in entries[c].crossings:
                    raise SurfaceError(
                        f"boundary curve {i!r} lists the crossing {c!r}, "
                        "which is not another ledger curve that crosses it back"
                    )

    @property
    def triple(self):
        return (self.chi, self.k2, self.c2)

    def entry(self, curve_id):
        for i, e in self.ledger:
            if i == curve_id:
                return e
        raise SurfaceError(f"no boundary curve {curve_id!r}")


# -- toric surfaces ----------------------------------------------------------


@frozen
class Fan2D:
    """A complete unimodular fan in R^2: primitive rays, counterclockwise,
    every consecutive pair a lattice basis of determinant +1."""

    rays: tuple

    def __post_init__(self):
        rays = tuple(tuple(int(x) for x in v) for v in self.rays)
        object.__setattr__(self, "rays", rays)
        n = len(rays)
        if n < 3:
            raise SurfaceError("a complete fan has at least 3 rays")
        for v in rays:
            if v == (0, 0) or math.gcd(abs(v[0]), abs(v[1])) != 1:
                raise SurfaceError(f"ray {v} is not primitive")
        if len(set(rays)) != n:
            raise SurfaceError("repeated rays")
        for k in range(n):
            a, b = rays[k], rays[(k + 1) % n]
            if a[0] * b[1] - a[1] * b[0] != 1:
                raise SurfaceError(
                    f"consecutive rays {a}, {b} are not a positive lattice basis"
                )

    @property
    def n(self):
        return len(self.rays)

    def self_intersections(self):
        """D_i^2 = -a_i where v_{i-1} + v_{i+1} = a_i v_i."""
        out = []
        n = self.n
        for i in range(n):
            s = tuple(
                self.rays[(i - 1) % n][k] + self.rays[(i + 1) % n][k]
                for k in range(2)
            )
            v = self.rays[i]
            if v[0] != 0:
                a, rem = divmod(s[0], v[0])
                ok = rem == 0 and s[1] == a * v[1]
            else:
                a, rem = divmod(s[1], v[1])
                ok = rem == 0 and s[0] == a * v[0]
            if not ok:
                raise SurfaceError("neighbour sum not a multiple of the ray")
            out.append(-a)
        return tuple(out)

    def star_subdivide(self, i):
        """Insert v_i + v_{i+1} between rays i and i+1."""
        n = self.n
        v = tuple(self.rays[i][k] + self.rays[(i + 1) % n][k] for k in range(2))
        rays = self.rays[: i + 1] + (v,) + self.rays[i + 1 :]
        return Fan2D(rays)


def tp2_fan():
    return Fan2D(((1, 0), (0, 1), (-1, -1)))


def hirzebruch_fan(k):
    """Rays (1, k), (0, 1), (-1, 0), (0, -1); k = 0 is P^1 x P^1."""
    return Fan2D(((1, k), (0, 1), (-1, 0), (0, -1)))


def toric_surface(fan):
    """Surface of a complete unimodular fan: chi = 1, c2 = n,
    K^2 = sum D_i^2 + 2n (= 12 - n)."""
    selfs = fan.self_intersections()
    n = fan.n
    k2 = sum(selfs) + 2 * n
    ledger = []
    for i, s in enumerate(selfs):
        crossings = frozenset({f"D{(i - 1) % n}", f"D{(i + 1) % n}"})
        ledger.append((f"D{i}", LedgerEntry(SEGMENT, s, crossings)))
    return Surface(1, k2, n, tuple(ledger))


# -- gluing operations -------------------------------------------------------


def _splice(x, replacements, gain=0):
    """x's ledger without the curves keyed in ``replacements``.  A curve
    that crossed a dropped curve c crosses replacements[c] instead, never
    itself, and its self-intersection goes up by ``gain``."""
    ledger = []
    for i, e in x.ledger:
        if i in replacements:
            continue
        met = e.crossings & replacements.keys()
        if met:
            crossings = e.crossings - met
            for c in met:
                crossings |= replacements[c]
            e = replace(e, self_intersection=e.self_intersection + gain,
                        crossings=crossings - {i})
        ledger.append((i, e))
    return tuple(ledger)


def tropical_sum(x1, id1, x2, id2):
    """Glue x1 and x2 along the boundary curves id1 and id2: the self-sum
    of their disjoint union along a.id1 and b.id2."""
    x1.entry(id1), x2.entry(id2)  # a missing curve is named by its own id
    ledger = tuple(
        (p + i, replace(e, crossings=frozenset(p + c for c in e.crossings)))
        for p, x in (("a.", x1), ("b.", x2))
        for i, e in x.ledger
    )
    union = Surface(x1.chi + x2.chi, x1.k2 + x2.k2, x1.c2 + x2.c2, ledger)
    return self_sum(union, "a." + id1, "b." + id2)


def self_sum(x, ida, idb):
    """Glue a surface to itself along two disjoint boundary curves."""
    if ida == idb:
        raise SurfaceError("self-sum needs two distinct curves")
    ea, eb = x.entry(ida), x.entry(idb)
    if idb in ea.crossings:
        raise SurfaceError("self-summed curves must be disjoint")
    if not ea.curve.isomorphic(eb.curve):
        raise SurfaceError("summed curves must be isomorphic")
    if ea.self_intersection != -eb.self_intersection:
        raise SurfaceError(
            "summed curves need opposite self-intersections "
            f"({ea.self_intersection} vs {eb.self_intersection})"
        )
    kc = ea.curve.k_degree
    ledger = _splice(x, {ida: eb.crossings, idb: ea.crossings})
    return Surface(x.chi - (1 - ea.curve.b1), x.k2 + 4 * kc, x.c2 + 2 * kc, ledger)


def modify(x, curve, self_intersection, new_id):
    """A locally degree-1 modification of the surface along a curve: it
    leaves (chi, K^2, c2) unchanged, and the centre curve joins the ledger."""
    if any(i == new_id for i, _ in x.ledger):
        raise SurfaceError(f"ledger id {new_id!r} already in use")
    ledger = x.ledger + ((new_id, LedgerEntry(curve, self_intersection)),)
    return Surface(x.chi, x.k2, x.c2, ledger)


def contract(x, curve_id):
    """Contract a rational (-1) boundary curve E: chi is unchanged, K^2 goes
    up by 1 and c2 down by 1.  E leaves the ledger; each curve that crossed
    E gains +1 in self-intersection and now crosses the other curves that
    crossed E."""
    e = x.entry(curve_id)
    if e.curve.b1 != 0:
        raise SurfaceError("only rational curves can be contracted")
    if e.self_intersection != -1:
        raise SurfaceError("contraction needs self-intersection -1")
    return Surface(x.chi, x.k2 + 1, x.c2 - 1, _splice(x, {curve_id: e.crossings}, gain=1))


# -- checks ------------------------------------------------------------------


def noether_check(x):
    """Noether's identity for the node (asserted at construction too)."""
    return {
        "chi": x.chi,
        "k2": x.k2,
        "c2": x.c2,
        "lhs": 12 * x.chi,
        "rhs": x.k2 + x.c2,
        "holds": 12 * x.chi == x.k2 + x.c2,
    }


def signature_hypothesis(x):
    """(K^2 - 2 c2) / 3, the conjectural signature of the (1,1)-pairing.
    Always an integer when Noether holds."""
    num = x.k2 - 2 * x.c2
    if num % 3:
        raise SurfaceError("K^2 - 2 c2 is not divisible by 3")
    return num // 3


def adjunction_check(x, curve_id):
    """Adjunction for a boundary curve C with simple normal crossings:

        K_X . C = K^o . C - C^2 - sum_i D_i . C

    with K^o . C = sum over vertices of C of (val - 2) plus one for each
    leaf (the crossing makes every leaf 2-valent in the augmented graph)
    and sum_i D_i . C = number of leaves.  The genus formula
    b1 = (K_X . C + C^2)/2 + 1 is verified.
    """
    e = x.entry(curve_id)
    c = e.curve
    ko_c = c.k_degree + c.leaf_count
    d_c = c.leaf_count
    k_c = ko_c - e.self_intersection - d_c
    rhs, rem = divmod(k_c + e.self_intersection, 2)
    holds = rem == 0 and c.b1 == rhs + 1
    return {
        "curve": curve_id,
        "b1": c.b1,
        "self_intersection": e.self_intersection,
        "K.C": k_c,
        "Ko.C": ko_c,
        "boundary.C": d_c,
        "holds": holds,
    }


# -- JSON expression trees ---------------------------------------------------


def _at(where, path, message):
    return ": ".join(filter(None, (where, path, message)))


def parse_curve(obj, path="curve"):
    if not isinstance(obj, dict):
        raise SurfaceError(f"{path} must be an object, got {obj!r}")
    b1 = integer(field(obj, "b1", path, SurfaceError), f"{path}.b1", SurfaceError)
    valencies = integers(obj.get("valencies", []), f"{path}.valencies", SurfaceError)
    try:
        return CurveDescriptor(b1, valencies)
    except SurfaceError as exc:
        raise SurfaceError(f"{path}: {exc}") from exc


# the sub-expressions of each operation, in evaluation order
_OPERANDS = {
    "toric": (),
    "sum": ("left", "right"),
    "selfsum": ("base",),
    "modify": ("base",),
    "contract": ("base",),
}


def parse_surface(obj, where="", path=""):
    """Build a Surface from a nested expression object; see the README for
    the schema.  Exactly one of the operation keys must be present.  Input
    errors name the node by its path of keys, such as
    ``selfsum.base.toric``, after ``where: `` when ``where`` is given."""
    if not isinstance(obj, dict) or len(obj) != 1:
        raise SurfaceError(
            _at(where, path, "surface expression must have exactly one operation")
        )
    (op, body), = obj.items()
    if op not in _OPERANDS:
        raise SurfaceError(_at(where, path, f"unknown surface operation {op!r}"))
    path = f"{path}.{op}" if path else op
    node = f"{where}: {path}" if where else path
    if not isinstance(body, dict):
        raise SurfaceError(f"{node} must be an object, got {body!r}")
    # one Python frame per level of nesting: a plain loop, no helper call
    sub = []
    for key in _OPERANDS[op]:
        sub.append(parse_surface(field(body, key, node, SurfaceError), where, f"{path}.{key}"))

    def name(key):
        return str(field(body, key, node, SurfaceError))

    # field reads name their own node; only the library call is wrapped, so a
    # domain error names the node once
    if op == "toric":
        rays = field(body, "rays", node, SurfaceError)
        if not isinstance(rays, (list, tuple)) or any(
            not isinstance(r, (list, tuple)) or len(r) != 2 for r in rays
        ):
            raise SurfaceError(f"{node}.rays must be a list of integer pairs, got {rays!r}")
        rays = tuple(integers(r, f"{node}.rays[{k}]", SurfaceError) for k, r in enumerate(rays))
        build, args = (lambda rays: toric_surface(Fan2D(rays))), (rays,)
    elif op == "sum":
        build, args = tropical_sum, (sub[0], name("left_curve"), sub[1], name("right_curve"))
    elif op == "selfsum":
        build, args = self_sum, (sub[0], name("curve1"), name("curve2"))
    elif op == "modify":
        build, args = modify, (
            sub[0],
            parse_curve(field(body, "curve", node, SurfaceError), f"{node}.curve"),
            integer(field(body, "self_intersection", node, SurfaceError),
                    f"{node}.self_intersection", SurfaceError),
            name("id"),
        )
        if not boolean(body.get("locally_degree_1", True), f"{node}.locally_degree_1",
                       SurfaceError):
            raise SurfaceError(f"{node}: only locally degree-1 modifications are supported")
    else:
        build, args = contract, (sub[0], name("curve"))
    try:
        return build(*args)
    except SurfaceError as exc:
        raise SurfaceError(f"{node}: {exc}") from exc


def surface_report(x):
    return {
        "chi": x.chi,
        "K2": x.k2,
        "c2": x.c2,
        "noether": noether_check(x)["holds"],
        "signature_hypothesis": signature_hypothesis(x),
        "boundary": [
            {
                "id": i,
                "b1": e.curve.b1,
                "valencies": list(e.curve.valencies),
                "self_intersection": e.self_intersection,
            }
            for i, e in x.ledger
        ],
    }
