"""Corner and vertex intersection multiplicities, canonical
self-intersection, and c2 point multiplicities."""

import random
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropsurf import bergman as bg
from tropsurf import fan_cycles as fc
from tropsurf import fan_intersect as fi
from tropsurf import matroid as mt
from tropsurf.errors import FanError

from cycle_gen import generators, random_cycle
from test_bergman import random_unimodular_basis
from test_fan_cycles import CONIC
from test_matroid import matroids


def sector_corners(plane, c1, c2):
    """The corner multiplicities by the torus charts the integer formula
    replaced: rays grouped by ``boundary_point``, the chart pair chosen by
    sector solves, and each ray pushed to the chart (-r(i), -r(j)) as a
    primitive direction whose weight takes the index."""

    def by_point(cycle):
        out = {}
        for d, w in cycle.rays:
            kind, where = fc.boundary_point(plane.basis, plane.matroid, d)
            if kind == "point":
                out.setdefault(where, []).append((d, w, fc.positive_decomposition(plane.basis, d)))
        return out

    def chart_pair(flat, rays):
        if len(flat) == 2:
            return tuple(sorted(flat))
        u_flat = plane.basis.direction(flat)
        for i, j in combinations(sorted(flat), 2):
            if all(bg._in_sector(d, plane.basis.direction([i]), u_flat)
                   or bg._in_sector(d, plane.basis.direction([j]), u_flat)
                   for d, _, _ in rays):
                return (i, j)
        raise FanError(f"no two faces at p_{sorted(flat)} contain all rays meeting the corner")

    def projected(rays, i, j):
        out = []
        for _, w, r in rays:
            t = (-r[i], -r[j])
            g = gcd(*t)
            out.append(((t[0] // g, t[1] // g), w * g))
        return out

    by1, by2 = by_point(c1), by_point(c2)
    out = {}
    for flat in sorted(set(by1) & set(by2), key=sorted):
        i, j = chart_pair(flat, by1[flat] + by2[flat])
        out[flat] = sum(
            w1 * w2 * min(k[0] * l[1], k[1] * l[0])
            for k, w1 in projected(by1[flat], i, j)
            for l, w2 in projected(by2[flat], i, j)
        )
    return out


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
        message = r"no two faces at p_\[3, 4, 5\] contain all rays meeting the corner"
        with pytest.raises(FanError, match=message):
            fi.corner_multiplicities(plane, c1, c2)
        with pytest.raises(FanError, match=message):
            sector_corners(plane, c1, c2)
        # pairs within two faces are fine
        assert fi.corner_multiplicities(plane, c1, sector(4))

    @settings(max_examples=25, deadline=None)
    @given(matroids, st.randoms(use_true_random=False))
    def test_symmetry(self, m, rng):
        plane = bg.build_fan(m)
        gens = generators(plane)
        c1 = random_cycle(plane, rng, gens)
        c2 = random_cycle(plane, rng, gens)
        assert fi.corner_multiplicities(plane, c1, c2) == fi.corner_multiplicities(
            plane, c2, c1
        )


class TestIntegerCorners:
    """The integer face rule and corner formula against the sector solves
    and torus charts they replaced, on seeded cycle pairs in every plane of
    a matroid on at most 6 elements."""

    @staticmethod
    def seeded_pairs(kind):
        rng = random.Random(22)
        for n in range(3, 7):
            for m in mt.enumerate_simple_rank3(n):
                basis = random_unimodular_basis(rng, n - 1) if kind == "random" else None
                plane = bg.build_fan(m, basis)
                gens = generators(plane)
                c1 = random_cycle(plane, rng, gens)
                # c2 shares the corners of c1 unless their rays cancel
                yield plane, c1, c1 + random_cycle(plane, rng, gens)

    @pytest.mark.parametrize(
        "kind, faces_checked, big_corners",
        [("standard", 3110, 179), ("random", 3182, 189)],
        ids=["standard", "random"],
    )
    def test_agree_with_the_sector_charts(self, kind, faces_checked, big_corners, monkeypatch):
        solves, checks, inside = [], [], []

        def counting_solve(rows, rhs):
            solves.append(bool(inside))
            return solve(rows, rhs)

        def counting_lies_in(cycle, plane):
            checks.append(cycle)
            inside.append(cycle)
            try:
                return lies_in(cycle, plane)
            finally:
                inside.pop()

        solve, lies_in = bg.solve, fc.lies_in
        pairs = faces = corners = solved = 0
        for plane, c1, c2 in self.seeded_pairs(kind):
            basis = plane.basis
            for c in (c1, c2):
                for flat, rays in fi._rays_by_corner(plane, c).items():
                    if len(flat) < 3:
                        continue  # a corner with two faces needs no choice
                    u_flat = basis.direction(flat)
                    d_of = {fc.positive_decomposition(basis, d): d for d, _ in c.rays}
                    for _, r in rays:
                        for i in flat:
                            u_i = basis.direction([i])
                            assert fi._in_face(r, flat, i) == bg._in_sector(d_of[r], u_i, u_flat)
                            faces += 1
            monkeypatch.setattr(bg, "solve", counting_solve)
            monkeypatch.setattr(fc, "lies_in", counting_lies_in)
            try:
                got = fi.corner_multiplicities(plane, c1, c2)
            finally:
                monkeypatch.undo()
            # the only solves are those of the two membership checks
            assert checks == [c1, c2] and all(solves)
            solved += len(solves)
            solves.clear()
            checks.clear()
            assert got == sector_corners(plane, c1, c2)
            pairs += 1
            corners += sum(len(flat) > 2 for flat in got)
        assert (pairs, faces, corners) == (389, faces_checked, big_corners)
        assert solved


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
