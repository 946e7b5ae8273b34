"""Coarse fan structure: rays, cones, pruning, classification, and
reconstruction of the matroid from the fan."""

import random
import time
from fractions import Fraction
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropsurf import bergman as bg
from tropsurf import fan_cycles as fc
from tropsurf import fan_intersect as fi
from tropsurf import matroid as mt
from tropsurf.errors import FanError
from tropsurf.intlinalg import solve

from cycle_gen import generators
from test_matroid import matroids


@st.composite
def unimodular_vectors(draw):
    """Rows of a random product of elementary integer matrices (det +-1)."""
    n = draw(st.integers(1, 5))
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    if n > 1:
        for _ in range(draw(st.integers(0, 8))):
            i, j = draw(st.permutations(range(n)))[:2]
            c = draw(st.integers(-3, 3))
            a[i] = [x + c * y for x, y in zip(a[i], a[j])]
    if draw(st.booleans()):
        a[0] = [-x for x in a[0]]
    return [tuple(row) for row in a]


@st.composite
def sector_triples(draw):
    """(v, d1, d2) in Z^n, 2 <= n <= 6, with small entries so that zero
    coordinates are common; d1 or d2 may be zero, d2 may be a multiple of
    d1, and v is often a small combination of d1 and d2 (either sign)."""
    n = draw(st.integers(2, 6))
    vec = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    zero = st.just([0] * n)
    d1 = draw(st.one_of(vec, zero))
    multiple = st.integers(-2, 2).map(lambda c: [c * x for x in d1])
    d2 = draw(st.one_of(vec, zero, multiple))
    a, b = draw(st.integers(-2, 3)), draw(st.integers(-2, 3))
    combination = st.just([a * x + b * y for x, y in zip(d1, d2)])
    v = draw(st.one_of(vec, combination))
    return tuple(v), tuple(d1), tuple(d2)


def fraction_decompose(basis, v):
    """The rational solution of v = sum a_i u_i, as the basis once computed it."""
    n = basis.dim
    return tuple(solve([[basis.vectors[j][k] for j in range(n)] for k in range(n)], list(v)))


def path_merging_fan(m, basis=None):
    """The coarse fan as build_fan once computed it: one path per flag
    {i} < I, each pruned vertex's two incident paths found by a scan of
    every path and spliced into one, and each path oriented from its lower
    ray index to its higher one."""
    basis = basis or bg.standard_basis(m.n - 1)
    rank2 = list(m.flats(2))
    paths = [[frozenset([i]), flat] for flat in rank2 for i in sorted(flat)]
    pruned = [f for f in rank2 if len(f) == 2]
    pruned += [frozenset([b]) for b in range(m.n) if m.point_count(b) == 2]
    for f in pruned:
        incident = [p for p in paths if p[0] == f or p[-1] == f]
        if len(incident) == 1 and incident[0][0] == f and incident[0][-1] == f:
            return bg.FanPlane(m, basis, (), (), degenerate_plane=True)
        p1, p2 = incident
        paths.remove(p1)
        paths.remove(p2)
        if p1[0] == f:
            p1.reverse()
        if p2[-1] == f:
            p2.reverse()
        paths.append(p1 + p2[1:])
    flats = sorted({p[0] for p in paths} | {p[-1] for p in paths},
                   key=lambda f: (len(f), sorted(f)))
    rays = tuple(bg.Ray(f, basis.direction(f)) for f in flats)
    index = {f: k for k, f in enumerate(flats)}
    cones = []
    for p in paths:
        i, j = index[p[0]], index[p[-1]]
        if j < i:
            p.reverse()
            i, j = j, i
        cones.append(bg.Cone(i, j, tuple(basis.direction(f) for f in p)))
    cones.sort(key=lambda c: (c.i, c.j, c.sectors))
    return bg.FanPlane(m, basis, rays, tuple(cones))


class TestBasis:
    def test_standard(self):
        b = bg.standard_basis(3)
        assert b.u0 == (1, 1, 1)
        assert b.direction([0, 1]) == (0, 1, 1)
        assert b.decompose((-2, -1, 0)) == (2, 1, 0)

    def test_rejects_non_unimodular(self):
        with pytest.raises(FanError):
            bg.Basis(((2, 0), (0, 1)))

    def test_non_standard_unimodular(self):
        b = bg.Basis(((1, 1), (0, 1)))
        assert b.decompose((1, 2)) == (1, 1)

    @settings(max_examples=100, deadline=None)
    @given(unimodular_vectors(), st.data())
    def test_decompose_inverts_direction(self, vecs, data):
        b = bg.Basis(vecs)
        n = b.dim
        assert b.u0 == tuple(-sum(v[k] for v in vecs) for k in range(n))
        for size in range(1, n + 2):
            for flat in combinations(range(n + 1), size):
                a = b.decompose(b.direction(flat))
                assert a == tuple(int(i in flat) - int(0 in flat) for i in range(1, n + 1))
                assert a == fraction_decompose(b, b.direction(flat))
        v = data.draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
        a = b.decompose(v)
        assert all(type(x) is int for x in a)
        assert a == fraction_decompose(b, v)
        assert [sum(x * u[k] for x, u in zip(a, vecs)) for k in range(n)] == v

    @settings(max_examples=50, deadline=None)
    @given(unimodular_vectors(), st.integers(0, 4))
    def test_det_two_and_singular_bases_raise(self, vecs, k):
        k %= len(vecs)
        doubled = list(vecs)
        doubled[k] = tuple(2 * x for x in vecs[k])
        with pytest.raises(FanError, match="unimodular"):
            bg.Basis(doubled)
        singular = list(vecs)
        singular[k] = tuple(2 * x for x in vecs[k - 1]) if len(vecs) > 1 else (0,)
        with pytest.raises(FanError, match="unimodular"):
            bg.Basis(singular)

    def test_decompose_rejects_non_integral_vectors(self):
        b = bg.standard_basis(3)
        assert b.decompose((1.0, Fraction(2), 0)) == (-1, -2, 0)
        for v in [(Fraction(1, 2), 0, 0), (0.5, 0, 0), (1, 0), (1, 0, 0, 0)]:
            with pytest.raises(FanError, match="integrally"):
                b.decompose(v)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_standard_basis_is_shared(self, n):
        b = bg.standard_basis(n)
        assert bg.standard_basis(n) is b
        fresh = bg.Basis(tuple(tuple(-int(k == i) for k in range(n)) for i in range(n)))
        assert fresh == b and hash(fresh) == hash(b)
        assert fresh.u0 == b.u0 == (1,) * n


class TestBuildFan:
    def test_u34(self, u34):
        plane = bg.build_fan(u34)
        assert bg.counts(plane) == (4, 6)
        assert {tuple(sorted(r.flat)) for r in plane.rays} == {(0,), (1,), (2,), (3,)}
        # all two-element flats pruned: every cone spans two line rays
        assert all(len(c.sectors) == 3 for c in plane.cones)

    def test_braid_counts(self, braid):
        plane = bg.build_fan(braid)
        assert bg.counts(plane) == (10, 15)

    def test_braid_link_is_petersen(self, braid):
        g = nx.Graph([(c.i, c.j) for c in bg.build_fan(braid).cones])
        assert nx.is_isomorphic(g, nx.petersen_graph())

    def test_u33_degenerates_to_plane(self, u33):
        plane = bg.build_fan(u33)
        assert plane.degenerate_plane
        assert plane.rays == () and plane.cones == ()
        assert plane.contains_direction((5, -7))

    def test_line_times_r_is_a_multigraph(self):
        m = mt.direct_sum(mt.uniform(2, 4), mt.uniform(1, 1))
        plane = bg.build_fan(m)
        edges = [(c.i, c.j) for c in plane.cones]
        assert len(plane.rays) == 2
        assert len(edges) == 4
        assert len(set(edges)) == 1
        # opposite rays: the support contains a line
        v, w = (r.direction for r in plane.rays)
        assert v == tuple(-x for x in w)

    def test_bipartite_cone(self):
        plane = bg.build_fan(mt.parallel_connection(2, 3))
        g = nx.Graph([(c.i, c.j) for c in plane.cones])
        assert nx.is_isomorphic(g, nx.complete_bipartite_graph(3, 4))

    def test_sigma_u34(self, u34):
        plane = bg.build_fan(u34)
        assert [bg.sigma(plane, k) for k in range(4)] == [1, 1, 1, 1]

    def test_sigma_braid(self, braid):
        plane = bg.build_fan(braid)
        assert [bg.sigma(plane, k) for k in range(10)] == [-1] * 10

    def test_membership(self, u34):
        plane = bg.build_fan(u34)
        assert plane.contains_direction((-2, -1, 0))
        assert plane.contains_direction((1, 1, 1))
        assert not plane.contains_direction((1, -1, 0))

    @settings(max_examples=300, deadline=None)
    @given(sector_triples())
    def test_in_sector_agrees_with_the_solve(self, triple):
        v, d1, d2 = triple
        ab = solve([[a, b] for a, b in zip(d1, d2)], list(v))
        assert bg._in_sector(v, d1, d2) == (ab is not None and ab[0] >= 0 and ab[1] >= 0)

    def test_support_check_spares_the_solve(self, library_matroids, monkeypatch):
        # A sector whose two directions both vanish at a nonzero entry of v
        # never reaches the solve; solving every sector takes 8,888 solves.
        calls = []

        def counting(rows, rhs):
            calls.append(rows)
            return solve(rows, rhs)

        monkeypatch.setattr(bg, "solve", counting)
        for m in library_matroids.values():
            plane = bg.build_fan(m)
            assert all(fc.lies_in(g, plane) for g in generators(plane))
        assert len(calls) == 4454

    def test_flag_walk_equals_the_path_merging_oracle(self, all_small_matroids):
        for m in all_small_matroids:
            assert bg.build_fan(m) == path_merging_fan(m), m
        assert len(all_small_matroids) == 8778

    def test_u3_100_within_a_second(self):
        # the path-merging scan took about 2 s on this plane
        m = mt.from_lines(100, [])
        start = time.perf_counter()
        plane = bg.build_fan(m)
        assert time.perf_counter() - start < 1.0
        assert bg.counts(plane) == (100, 4950)

    @settings(max_examples=30, deadline=None)
    @given(matroids)
    def test_counting_identities(self, m):
        # with no missing rays: |Edge| = N + 1 + #big points and
        # |Face| = #double points + sum of |I| over big points
        if bg.classify_missing_ray(m).kind != "none":
            return
        plane = bg.build_fan(m)
        edges, faces = bg.counts(plane)
        big = [f for f in m.flats(2) if len(f) >= 3]
        double = [f for f in m.flats(2) if len(f) == 2]
        assert edges == m.n + len(big)
        assert faces == len(double) + sum(len(f) for f in big)


class TestClassification:
    def test_none(self, braid, u34):
        assert bg.classify_missing_ray(braid).kind == "none"
        assert bg.classify_missing_ray(u34).kind == "none"

    def test_full_plane(self, u33):
        cls = bg.classify_missing_ray(u33)
        assert cls.kind == "full_plane"
        assert cls.missing == (0, 1, 2)

    def test_line_times_r(self):
        m = mt.direct_sum(mt.uniform(2, 3), mt.uniform(1, 1))
        cls = bg.classify_missing_ray(m)
        assert cls.kind == "line_times_r"
        assert cls.parts == ((0, 1, 2),)

    def test_bipartite(self):
        cls = bg.classify_missing_ray(mt.parallel_connection(2, 2))
        assert cls.kind == "bipartite_cone"
        assert cls.parts == ((0, 1, 2), (0, 3, 4))


class TestReconstruction:
    def roundtrip(self, m):
        plane = bg.build_fan(m)
        rays = [r.direction for r in plane.rays]
        cones = [(c.i, c.j) for c in plane.cones]
        return bg.reconstruct_matroid(rays, cones, m.n - 1)

    def test_named(self, braid, u33, u34):
        for m in (braid, u33, u34, mt.parallel_connection(2, 2),
                  mt.direct_sum(mt.uniform(2, 3), mt.uniform(1, 1))):
            assert mt.is_isomorphic(self.roundtrip(m), m)

    def test_rejects_garbage(self):
        with pytest.raises(FanError):
            bg.reconstruct_matroid([(1, 2, 3)], [], 3)

    @pytest.mark.parametrize(
        "name, i, j, lines",
        [
            ("braid", 0, 1, "[0, 1, 3] and [0, 1]"),
            ("braid", 0, 5, "[0, 2, 5] and [0, 5]"),
            ("pc22", 2, 3, "[0, 3, 4] and [3, 4]"),
            ("star7", 0, 5, "[0, 5, 6] and [0, 5]"),
        ],
    )
    def test_an_extra_cone_names_the_lines_it_overlaps(self, library_matroids, name, i, j, lines):
        # a cone between two point rays on a line adds a two-element line inside
        # it; the lines are named in the order of the rays and then the cones, so
        # the line ray comes first
        plane = bg.build_fan(library_matroids[name])
        rays = [r.direction for r in plane.rays]
        cones = [(c.i, c.j) for c in plane.cones] + [(i, j)]
        with pytest.raises(FanError) as exc:
            bg.reconstruct_matroid(rays, cones, plane.ambient_dim)
        assert str(exc.value) == (
            f"ray data is not a fan tropical plane: lines {lines} share two elements"
        )

    def test_a_missing_cone_is_not_reproduced(self, u34):
        plane = bg.build_fan(u34)
        rays = [r.direction for r in plane.rays]
        cones = [(c.i, c.j) for c in plane.cones if (c.i, c.j) != (0, 1)]
        assert len(cones) == len(plane.cones) - 1
        with pytest.raises(FanError, match="^reconstructed matroid does not reproduce the cones$"):
            bg.reconstruct_matroid(rays, cones, 3)

    def test_a_missing_ray_is_not_reproduced(self, u34):
        # u_3 and its cones dropped: the lines {0,1}, {0,2}, {1,2} still
        # give U_{3,4}, whose fan has the ray u_3
        plane = bg.build_fan(u34)
        assert plane.rays[3].direction == bg.standard_basis(3).direction([3])
        rays = [r.direction for r in plane.rays[:3]]
        cones = [(c.i, c.j) for c in plane.cones if 3 not in (c.i, c.j)]
        with pytest.raises(FanError, match="^reconstructed matroid does not reproduce the rays$"):
            bg.reconstruct_matroid(rays, cones, 3)

    @settings(max_examples=30, deadline=None)
    @given(matroids)
    def test_roundtrip_random(self, m):
        assert mt.is_isomorphic(self.roundtrip(m), m)


def random_unimodular_basis(rng, n):
    """A basis of Z^n from a seeded product of elementary integer matrices."""
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n if n > 1 else 0):
        (i, j), c = rng.sample(range(n), 2), rng.choice((-1, 1))
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
    return bg.Basis(tuple(tuple(row) for row in a))


class TestOtherBases:
    def test_every_small_matroid_in_a_random_basis(self):
        # every layer that takes a basis agrees with its standard-basis or
        # closed-form counterpart
        rng = random.Random(5)
        checked = 0
        for n in range(3, 7):
            for m in mt.enumerate_simple_rank3(n):
                basis = random_unimodular_basis(rng, n - 1)
                plane = bg.build_fan(m, basis)
                assert plane == path_merging_fan(m, basis)
                rays = [r.direction for r in plane.rays]
                cones = [(c.i, c.j) for c in plane.cones]
                assert bg.reconstruct_matroid(rays, cones, n - 1, basis) == m
                assert fi.k_squared_local(m, basis) == fi.k_squared(m)
                assert fi.c2_point_multiplicity_local(m, basis) == fi.c2_point_multiplicity(m)
                assert fc.degree(fc.canonical_cycle(plane), basis) == n - 3
                checked += 1
        assert checked == 389


class TestSaturatedTriangle:
    def test_braid_has_one(self, braid):
        assert bg.has_saturated_triangle(braid)

    def test_uniform_has_none(self, u34):
        assert not bg.has_saturated_triangle(u34)
        assert not bg.has_saturated_triangle(mt.uniform(3, 5))

    def test_agrees_with_search_over_flat_triples(self, all_small_matroids):
        def by_flats(m):
            ground = frozenset(range(m.n))
            for fi, fj, fk in combinations(m.flats(2), 3):
                if fi | fj | fk != ground:
                    continue
                ab, ac, bc = fi & fj, fi & fk, fj & fk
                if len(ab) == len(ac) == len(bc) == 1 and len(ab | ac | bc) == 3:
                    return True
            return False

        for m in all_small_matroids:
            assert bg.has_saturated_triangle(m) == by_flats(m), m
