"""Corner and vertex intersection multiplicities, canonical
self-intersection, and c2 point multiplicities."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropsurf import bergman as bg
from tropsurf import fan_cycles as fc
from tropsurf import fan_intersect as fi
from tropsurf import matroid as mt
from tropsurf.errors import FanError

from cycle_gen import random_cycle
from test_fan_cycles import CONIC
from test_matroid import matroids


class TestCorners:
    def test_conic_self(self, u34):
        plane = bg.build_fan(u34)
        corners = fi.corner_multiplicities(plane, CONIC, CONIC)
        assert {tuple(sorted(f)): v for f, v in corners.items()} == {
            (0, 2): 1,
            (0, 3): 2,
            (1, 2): 2,
        }
        assert fi.bezout(plane, CONIC, CONIC)["vertex"] == -1
        rep = fi.bezout(plane, CONIC, CONIC)
        assert rep["total"] == 4

    def test_conic_with_generic_line(self, u34):
        plane = bg.build_fan(u34)
        line = fc.standard_line(plane.basis)
        assert fi.corner_multiplicities(plane, CONIC, line) == {}
        assert fi.bezout(plane, CONIC, line)["vertex"] == 2

    def test_point_difference_cycle(self, braid):
        # C = u_I - u_0 - u_1 - u_3 at the triple point I = {0,1,3} has
        # degree 0, meets p_I with multiplicity 1, so the vertex gets -1
        plane = bg.build_fan(braid)
        flat = frozenset([0, 1, 3])
        rays = [(plane.basis.direction(flat), 1)]
        rays += [(plane.basis.direction([i]), -1) for i in (0, 1, 3)]
        c = fc.FanCycle(5, tuple(rays))
        assert fc.degree(c, plane.basis) == 0
        corners = fi.corner_multiplicities(plane, c, c)
        assert corners == {flat: 1}
        assert fi.bezout(plane, c, c)["vertex"] == -1

    def test_big_point_needs_two_faces(self, braid):
        plane = bg.build_fan(braid)
        b = plane.basis
        flat = frozenset([3, 4, 5])
        u_f = b.direction(flat)

        def sector(x):
            v = tuple(p + q for p, q in zip(b.direction([x]), u_f))
            return fc.FanCycle(
                5, ((v, 1), (b.direction([x]), -1), (u_f, -1))
            )

        c1 = sector(3)
        c2 = sector(4) + sector(5)
        with pytest.raises(FanError):
            fi.corner_multiplicities(plane, c1, c2)
        # pairs within two faces are fine
        assert fi.corner_multiplicities(plane, c1, sector(4))

    @settings(max_examples=25, deadline=None)
    @given(matroids, st.randoms(use_true_random=False))
    def test_symmetry(self, m, rng):
        plane = bg.build_fan(m)
        c1 = random_cycle(plane, rng)
        c2 = random_cycle(plane, rng)
        assert fi.corner_multiplicities(plane, c1, c2) == fi.corner_multiplicities(
            plane, c2, c1
        )


class TestCanonicalSquare:
    def test_named_values(self, braid, u33, u34):
        assert fi.k_squared(u34) == 1
        assert fi.k_squared(braid) == 5
        assert fi.k_squared(u33) == 0
        assert fi.k_squared(mt.parallel_connection(2, 2)) == 2
        assert fi.k_squared(mt.direct_sum(mt.uniform(2, 4), mt.uniform(1, 1))) == 0

    def test_local_formula_agrees(self, library_matroids):
        for m in library_matroids.values():
            assert fi.k_squared(m) == fi.k_squared_local(m)

    @settings(max_examples=30, deadline=None)
    @given(matroids)
    def test_local_formula_random(self, m):
        assert fi.k_squared(m) == fi.k_squared_local(m)

    @staticmethod
    def vertex_of_canonical_square(m):
        plane = bg.build_fan(m)
        if plane.degenerate_plane:
            return None
        kp = fc.canonical_cycle(plane)
        return fi.bezout(plane, kp, kp)["vertex"]

    def test_vertex_of_canonical_square_small(self, all_small_matroids):
        # deg K_P = n - 3, so this pins the corners of K_P . K_P to
        # sum over rank-2 flats of (|I| - 2)^2: not true by construction
        small = [m for m in all_small_matroids if m.n <= 5]
        vertices = [self.vertex_of_canonical_square(m) for m in small]
        checked = [(v, m) for v, m in zip(vertices, small) if v is not None]
        assert len(checked) == 36
        for v, m in checked:
            assert v == fi.k_squared(m), m

    def test_vertex_of_canonical_square_sampled(self, all_small_matroids):
        rng = random.Random(2015)
        for n in (6, 7):
            pool = [m for m in all_small_matroids if m.n == n]
            for m in rng.sample(pool, 20):
                assert self.vertex_of_canonical_square(m) == fi.k_squared(m), m


class TestChernVertex:
    def test_named_values(self, braid, u34):
        assert fi.c2_point_multiplicity(u34) == 1
        assert fi.c2_point_multiplicity(braid) == 2
        assert fi.c2_point_multiplicity_local(braid) == 2

    @settings(max_examples=30, deadline=None)
    @given(matroids)
    def test_local_formula_random(self, m):
        assert fi.c2_point_multiplicity(m) == fi.c2_point_multiplicity_local(m)


class TestVertexSplit:
    def test_free_split_of_u33(self, u33):
        rep = fi.modification_vertex_split(u33)
        assert (rep["before"], rep["after_interior"], rep["after_boundary"]) == (
            0,
            1,
            -1,
        )
        assert rep["divisor_rays"] == 3

    def test_split_through_one_point(self, u33):
        rep = fi.modification_vertex_split(u33, [[0, 1]])
        assert (rep["before"], rep["after_interior"], rep["after_boundary"]) == (
            0,
            0,
            0,
        )

    def test_split_through_two_points(self, u34):
        rep = fi.modification_vertex_split(u34, [[0, 1], [2, 3]])
        assert rep["before"] == 1
        assert rep["after_boundary"] == 0

    @settings(max_examples=30, deadline=None)
    @given(matroids, st.randoms(use_true_random=False))
    def test_split_random(self, m, rng):
        flats = list(m.flats(2))
        rng.shuffle(flats)
        chosen = []
        for f in flats:
            if all(not (f & g) for g in chosen):
                chosen.append(f)
        chosen = chosen[: rng.randint(0, 3)]
        rep = fi.modification_vertex_split(m, chosen)
        assert rep["before"] == rep["after_interior"] + rep["after_boundary"]
