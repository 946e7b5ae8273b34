"""Acceptance gate: the worked examples and property suites that define
"done" for this package, with their time budgets."""

import random
import time

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form

from tropsurf import bergman as bg
from tropsurf import cosheaf_homology as ch
from tropsurf import fan_cycles as fc
from tropsurf import fan_intersect as fi
from tropsurf import matroid as mt
from tropsurf import surface_calculus as sc

from conftest import load_data
from cycle_gen import generators, random_cycle
from test_fan_cycles import CONIC
from test_surface_calculus import random_surface, subdivided_fans

import networkx as nx


def test_01_klein_bottle_diamond():
    start = time.monotonic()
    x = ch.parse_complex(load_data("klein_bottle.json"))
    d = {k: str(v) for k, v in ch.diamond(x).items()}
    assert d == {
        (2, 0): "Z/2",
        (2, 1): "Z",
        (2, 2): "Z",
        (1, 0): "Z + Z/2",
        (1, 1): "Z + Z + Z/2",
        (1, 2): "Z",
        (0, 0): "Z",
        (0, 1): "Z + Z/2",
        (0, 2): "0",
    }
    assert time.monotonic() - start < 1.0


def test_02_klein_bottle_pairing_table():
    start = time.monotonic()
    g = {
        k: ch.parse_cycle(v)
        for k, v in load_data("klein_cycles.json")["cycles"].items()
    }
    pair = ch.intersection_pairing
    assert pair(g["gamma"], g["gamma"]) == 0
    assert pair(g["gamma"], g["gamma1"]) == 0
    assert pair(g["gamma"], g["gamma2"]) == 1
    assert pair(g["gamma1"], g["gamma1"]) == 0
    assert pair(g["gamma1"], g["gamma2"]) == 0
    assert pair(g["gamma2"], g["gamma2"]) == 0
    assert time.monotonic() - start < 1.0


def test_03_conic_degree(u34):
    plane = bg.build_fan(u34)
    assert fc.lies_in(CONIC, plane)
    assert fc.degree(CONIC, plane.basis) == 2


def test_04_petersen_fan(braid):
    plane = bg.build_fan(braid)
    assert bg.counts(plane) == (10, 15)
    edges = [(c.i, c.j) for c in plane.cones]
    assert nx.is_isomorphic(nx.Graph(edges), nx.petersen_graph())
    # c2 multiplicity two ways: local fan count and chi-bar(1)
    assert fi.c2_point_multiplicity_local(braid) == 2
    assert mt.chi_bar_at_one(braid) == 2


def test_05_k_squared_cross_check_exhaustive(all_small_matroids):
    start = time.monotonic()
    for m in all_small_matroids:
        assert fi.k_squared(m) == fi.k_squared_local(m)
    assert time.monotonic() - start < 60.0


def test_06_bezout_randomized(library_matroids):
    rng = random.Random(20260824)
    checked = 0
    planes = [
        (bg.build_fan(m), m)
        for m in library_matroids.values()
        if m.rank == 3 and not bg.build_fan(m).degenerate_plane
    ]
    while checked < 1000:
        plane, m = planes[rng.randrange(len(planes))]
        g = generators(plane)
        c1 = random_cycle(plane, rng, g)
        c2 = random_cycle(plane, rng, g)
        rep = fi.bezout(plane, c1, c2)
        assert rep["total"] == rep["deg1"] * rep["deg2"]
        checked += 1
    assert checked >= 1000


def test_07_reconstruction_roundtrip_exhaustive(all_small_matroids):
    for m in all_small_matroids:
        plane = bg.build_fan(m)
        rays = [r.direction for r in plane.rays]
        cones = [(c.i, c.j) for c in plane.cones]
        rec = bg.reconstruct_matroid(rays, cones, m.n - 1)
        assert mt.is_isomorphic(rec, m)


def _disjoint_flat_subsets(flats):
    """All pairwise-disjoint subsets of a list of flats."""
    out = [[]]
    for k, f in enumerate(flats):
        out += [
            sub + [f]
            for sub in out
            if all(not (f & g) for g in sub)
        ]
    return out


def test_08_vertex_split_identity(library_matroids):
    checked = 0
    for m in library_matroids.values():
        if m.rank != 3:
            continue
        for through in _disjoint_flat_subsets(sorted(m.flats(2), key=sorted)):
            rep = fi.modification_vertex_split(m, through)
            assert rep["before"] == rep["after_interior"] + rep["after_boundary"]
            checked += 1
    assert checked > 50


def test_09_noether():
    start = time.monotonic()
    for fan in subdivided_fans(6):
        x = sc.toric_surface(fan)
        assert x.triple == (1, 12 - fan.n, fan.n)
        assert sc.noether_check(x)["holds"]
    rng = random.Random(99)
    for _ in range(200):
        assert sc.noether_check(random_surface(rng))["holds"]
    # the named worked examples
    h2 = sc.toric_surface(sc.hirzebruch_fan(2))
    assert sc.self_sum(h2, "D0", "D2").triple == (0, 0, 0)
    bl = sc.toric_surface(sc.tp2_fan().star_subdivide(0))
    assert sc.contract(bl, "D1").triple == (1, 9, 3)
    assert time.monotonic() - start < 30.0


def test_10_adjunction():
    for fan in subdivided_fans(6):
        x = sc.toric_surface(fan)
        for i, _ in x.ledger:
            assert sc.adjunction_check(x, i)["holds"]
    rng = random.Random(99)
    for _ in range(200):
        x = random_surface(rng)
        for i, _ in x.ledger:
            assert sc.adjunction_check(x, i)["holds"]


def _constant_coefficient_homology(x):
    """Independent cellular homology with ZZ coefficients: boundary
    matrices assembled from the attachment signs alone."""
    out = {}
    for q in range(x.max_dim + 1):
        def sign_matrix(qq):
            src = x.cells_of_dim(qq)
            dst = x.cells_of_dim(qq - 1)
            di = {c.id: i for i, c in enumerate(dst)}
            si = {c.id: j for j, c in enumerate(src)}
            m = sympy.zeros(len(dst), len(src))
            for a in x.attachments:
                if a.big in si:
                    m[di[a.small], si[a.big]] += a.sign
            return m

        d_out = sign_matrix(q) if q > 0 else sympy.zeros(0, len(x.cells_of_dim(q)))
        d_in = sign_matrix(q + 1)
        n = len(x.cells_of_dim(q))
        free = n - d_out.rank() - d_in.rank()
        torsion = ()
        if d_in.shape[0] and d_in.shape[1]:
            snf = smith_normal_form(d_in)
            torsion = tuple(
                abs(snf[i, i])
                for i in range(min(d_in.shape))
                if abs(snf[i, i]) > 1
            )
        out[q] = (free, torsion)
    return out


@pytest.mark.parametrize("name", ["klein_bottle.json", "torus.json"])
def test_11_constant_coefficient_oracle(name):
    x = ch.parse_complex(load_data(name))
    oracle = _constant_coefficient_homology(x)
    for q in range(x.max_dim + 1):
        h = ch.homology(x, 0, q)
        assert (h.free_rank, h.torsion) == oracle[q]
