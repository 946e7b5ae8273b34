"""Intersection numbers of compactified 1-cycles in a fan tropical plane:
corner multiplicities, the vertex multiplicity, Bezout, the
self-intersection of the canonical cycle, and the point multiplicity of
the second Chern class with its behaviour under vertex splits.
"""

from __future__ import annotations

from itertools import combinations

from . import bergman, fan_cycles
from . import matroid as mt
from .errors import CycleError, FanError


def _rays_by_corner(plane, cycle):
    """Group the rays of a cycle in the plane by the corner p_I they leave
    through: the support I of their positive decomposition r, when it has
    two or more elements.  Such a support is a rank-2 flat, since the ray
    lies in the plane."""
    out = {}
    for d, w in cycle.rays:
        r = fan_cycles.positive_decomposition(plane.basis, d)
        support = frozenset(i for i, x in enumerate(r) if x)
        if len(support) > 1:
            out.setdefault(support, []).append((w, r))
    return out


def _in_face(r, flat, i):
    """Does a ray of the plane leaving through p_I lie in the fine face
    {i} < I, spanned by u_i and u_I?  Exactly when r is constant on
    I - {i}.  For |I| >= 3 this needs the ray to lie in the plane: then the
    upper level sets of r form a flag of flats (Ardila-Klivans), and no
    proper subset of I with two or more elements is a flat, so r is some b
    on I - {i} and at least b at i."""
    return len({r[k] for k in flat if k != i}) == 1


def _chart_pair(flat, rays1, rays2):
    """The pair (i, j) in the flat whose two fine faces contain every ray
    meeting the corner p_I.  For |I| = 2 there is no choice."""
    flat_sorted = sorted(flat)
    if len(flat) == 2:
        return tuple(flat_sorted)
    rs = [r for _, r in rays1 + rays2]
    for i, j in combinations(flat_sorted, 2):
        if all(_in_face(r, flat, i) or _in_face(r, flat, j) for r in rs):
            return (i, j)
    raise FanError(
        f"no two faces at p_{flat_sorted} contain all rays meeting the corner"
    )


def corner_multiplicities(plane, c1, c2):
    """dict: rank-2 flat I -> (C1 . C2)_{p_I} for corners both curves meet.

    With r the positive decomposition of a ray and {i} < I, {j} < I two
    fine faces that contain every ray of C1 and C2 leaving through p_I,

        (C1 . C2)_{p_I} = sum of w1 w2 min(r1(i) r2(j), r1(j) r2(i))

    over the rays (r1, w1) of C1 and (r2, w2) of C2 leaving through p_I.
    """
    for c in (c1, c2):
        fan_cycles.require_balanced(c)
        if not fan_cycles.lies_in(c, plane):
            raise CycleError("cycle does not lie in the plane")
    by1 = _rays_by_corner(plane, c1)
    by2 = _rays_by_corner(plane, c2)
    out = {}
    for flat in sorted(set(by1) & set(by2), key=sorted):
        i, j = _chart_pair(flat, by1[flat], by2[flat])
        out[flat] = sum(
            w1 * w2 * min(r1[i] * r2[j], r1[j] * r2[i])
            for w1, r1 in by1[flat]
            for w2, r2 in by2[flat]
        )
    return out


def bezout(plane, c1, c2):
    """Full intersection report; total always equals deg C1 * deg C2.  The
    corners come first: they check that both cycles lie in the plane."""
    corners = corner_multiplicities(plane, c1, c2)
    d1 = fan_cycles.degree(c1, plane.basis)
    d2 = fan_cycles.degree(c2, plane.basis)
    vertex = d1 * d2 - sum(corners.values())
    return {
        "deg1": d1,
        "deg2": d2,
        "vertex": vertex,
        "corners": {tuple(sorted(f)): v for f, v in sorted(corners.items(), key=lambda kv: sorted(kv[0]))},
        "total": vertex + sum(corners.values()),
    }


# -- canonical self-intersection --------------------------------------------


def k_squared(m):
    """K_P^2 = (N - 2)^2 - sum over rank-2 flats of (|I| - 2)^2,
    ground set {0, ..., N}."""
    if m.rank != 3 or not m.is_simple():
        raise FanError("needs a simple rank-3 matroid")
    nn = m.n - 1
    return (nn - 2) ** 2 - sum((len(f) - 2) ** 2 for f in m.flats(2))


def k_squared_local(m, basis=None):
    """The same number from the local structure of the coarse fan:

    * 0 when the support contains a lineality space,
    * 8 - 4|Edge| + 2|Face| for a cone over a complete bipartite graph,
    * 10 + N - 5|Edge| + 2|Face| - sum of sigma(E) otherwise.
    """
    cls = bergman.classify_missing_ray(m)
    if cls.kind in ("full_plane", "line_times_r"):
        return 0
    plane = bergman.build_fan(m, basis)
    edges, faces = bergman.counts(plane)
    if cls.kind == "bipartite_cone":
        return 8 - 4 * edges + 2 * faces
    nn = m.n - 1
    s = sum(bergman.sigma(plane, k) for k in range(len(plane.rays)))
    return 10 + nn - 5 * edges + 2 * faces - s


# -- second Chern class ------------------------------------------------------


def c2_point_multiplicity(m):
    """Multiplicity of the vertex in c_2: the reduced characteristic
    polynomial at 1."""
    return mt.chi_bar_at_one(m)


def c2_point_multiplicity_local(m, basis=None):
    """The same number from the coarse fan: 2 - N + |Face| - |Edge|."""
    cls = bergman.classify_missing_ray(m)
    if cls.kind == "full_plane":
        return 0
    plane = bergman.build_fan(m, basis)
    edges, faces = bergman.counts(plane)
    return 2 - (m.n - 1) + faces - edges


def modification_vertex_split(m, through=()):
    """Split the vertex of the plane of m by the modification along the
    line through the chosen flats; returns the bookkeeping of c_2 point
    multiplicities.  The identity

        before == after_interior + (2 - r)

    with r the number of rays of the divisor line (rank-2 flats of the
    extended matroid through the new element) is checked.
    """
    before = c2_point_multiplicity(m)
    extended = mt.extend_by_line(m, through)
    e = m.n
    r = sum(1 for f in extended.flats(2) if e in f)
    after_interior = c2_point_multiplicity(extended)
    after_boundary = 2 - r
    if before != after_interior + after_boundary:
        raise FanError("vertex split does not preserve the c_2 multiplicity")
    return {
        "before": before,
        "after_interior": after_interior,
        "after_boundary": after_boundary,
        "divisor_rays": r,
        "extended": extended,
    }
