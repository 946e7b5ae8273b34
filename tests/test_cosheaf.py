"""Cell complexes with transported lattice coefficients: homology
diamonds, the (1,1) intersection pairing, and its signature."""

import math
import random
import time

import numpy
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_form

from tropsurf import cosheaf_homology as ch
from tropsurf import intlinalg as il
from tropsurf import surface_calculus as sc
from tropsurf.errors import ComplexError

from conftest import load_data


@pytest.fixture(scope="module")
def klein():
    return ch.parse_complex(load_data("klein_bottle.json"))


@pytest.fixture(scope="module")
def torus():
    return ch.parse_complex(load_data("torus.json"))


# -- exact linear algebra against sympy ---------------------------------------


def random_matrix(rng, m, n, lo=-4, hi=4):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


class TestIntLinalg:
    @settings(max_examples=100, deadline=None)
    @given(st.randoms(use_true_random=False), st.sampled_from(["random", "product", "zero"]))
    def test_smith_invariants_match_sympy(self, rng, kind):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        if kind == "random":
            a = random_matrix(rng, m, n)
        elif kind == "product":
            # rank at most r, below min(m, n) when min(m, n) > 1
            r = max(1, min(m, n) - rng.randint(1, 3))
            a = il.matmul(random_matrix(rng, m, r), random_matrix(rng, r, n))
        else:
            a = [[0] * n for _ in range(m)]
        ours = il.smith_invariants(a)
        snf = smith_normal_form(sympy.Matrix(a))
        theirs = [abs(snf[i, i]) for i in range(min(m, n)) if snf[i, i] != 0]
        assert ours == theirs
        # homology takes its ranks from the number of invariant factors
        assert len(ours) == sympy.Matrix(a).rank()

    def test_smith_divisibility(self):
        inv = il.smith_invariants([[2, 0], [0, 3]])
        assert inv == [1, 6]

    @pytest.mark.parametrize("rows", [[], [[]], [[0, 0]]], ids=["no-rows", "no-columns", "zero"])
    def test_smith_invariants_of_empty_shapes(self, rows):
        assert il.smith_invariants(rows) == []

    def test_smith_invariants_without_coefficient_growth(self):
        # the middle exterior power of a dense 6 x 6 matrix: a pivot loop
        # that never reduces the rest of its block takes over 10 s on it
        rng = random.Random(2)
        b = random_matrix(rng, 6, 6, -10**6, 10**6)
        e = il.exterior_power(b, 3)
        start = time.monotonic()
        inv = il.smith_invariants(e)
        assert time.monotonic() - start < 1.0
        assert math.prod(inv) == abs(il.det(e))
        assert inv[0] == math.gcd(*(x for row in e for x in row))

    @settings(max_examples=30, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(0, 2))
    def test_exterior_power_functorial(self, rng, p):
        # Lambda^p(A B) = Lambda^p(A) Lambda^p(B)
        k, m, n = rng.randint(p, 4), rng.randint(p, 4), rng.randint(p, 4)
        a = random_matrix(rng, k, m, -2, 2)
        b = random_matrix(rng, m, n, -2, 2)
        ab = il.matmul(a, b)
        left = il.exterior_power(ab, p, shape=(k, n))
        right = il.matmul(
            il.exterior_power(a, p, shape=(k, m)),
            il.exterior_power(b, p, shape=(m, n)),
        )
        assert left == right

    @settings(max_examples=30, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_signature_matches_eigenvalue_count(self, rng):
        n = rng.randint(1, 4)
        b = random_matrix(rng, n, n, -3, 3)
        gram = [
            [sum(b[i][k] * b[j][k] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        # shift to get mixed signs
        d = rng.randint(-6, 6)
        for i in range(n):
            gram[i][i] += d
        evs = numpy.linalg.eigvalsh(numpy.array(gram, dtype=float))
        if min(abs(evs)) < 1e-8:
            return  # numerically ambiguous kernel; skip
        sig = int(numpy.sum(evs > 0) - numpy.sum(evs < 0))
        assert il.symmetric_signature(gram) == sig


# -- complexes and validation -------------------------------------------------


class TestValidation:
    def test_wrong_iota_shape(self):
        cells = (ch.Cell("x", 0), ch.Cell("e", 1))
        with pytest.raises(ComplexError):
            ch.CellComplex(
                cells,
                (ch.Attachment("e", "x", 1, ((1,),)),),
                (("x", 2), ("e", 2)),
            )

    def test_dimension_gap(self):
        cells = (ch.Cell("x", 0), ch.Cell("f", 2))
        with pytest.raises(ComplexError):
            ch.CellComplex(
                cells,
                (ch.Attachment("f", "x", 1, ((1, 0), (0, 1))),),
                (("x", 2), ("f", 2)),
            )

    def test_boundary_squared_enforced(self):
        # interval attached to two points, face attached to the interval
        # only: d^2 does not vanish
        cells = (
            ch.Cell("a", 0),
            ch.Cell("b", 0),
            ch.Cell("e", 1),
            ch.Cell("f", 2),
        )
        atts = (
            ch.Attachment("e", "a", -1, ((1,),)),
            ch.Attachment("e", "b", 1, ((1,),)),
            ch.Attachment("f", "e", 1, ((1,),)),
        )
        with pytest.raises(ComplexError, match=r"^boundary squared nonzero at p=0, q=2$"):
            ch.CellComplex(cells, atts, (("a", 1), ("b", 1), ("e", 1), ("f", 1)))

    def test_klein_with_a_flipped_face_sign_fails_only_at_p1(self):
        # F1 -> E1 with the wrong sign: the constant coefficients cannot
        # see it, the transported ones can
        obj = load_data("klein_bottle.json")
        obj["incidences"][6]["sign"] *= -1
        with pytest.raises(ComplexError, match=r"^boundary squared nonzero at p=1, q=2$"):
            ch.parse_complex(obj)


KLEIN_DIAMOND = {
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

TORUS_DIAMOND = {
    (2, 0): "Z",
    (2, 1): "Z + Z",
    (2, 2): "Z",
    (1, 0): "Z + Z",
    (1, 1): "Z + Z + Z + Z",
    (1, 2): "Z + Z",
    (0, 0): "Z",
    (0, 1): "Z + Z",
    (0, 2): "Z",
}


class TestDiamonds:
    def test_klein_bottle(self, klein):
        assert {k: str(v) for k, v in ch.diamond(klein).items()} == KLEIN_DIAMOND

    def test_torus(self, torus):
        assert {k: str(v) for k, v in ch.diamond(torus).items()} == TORUS_DIAMOND

    def test_klein_p0_is_singular_homology(self, klein):
        # p = 0 forgets the coefficients: classical Klein bottle homology
        assert str(ch.homology(klein, 0, 0)) == "Z"
        assert str(ch.homology(klein, 0, 1)) == "Z + Z/2"
        assert str(ch.homology(klein, 0, 2)) == "0"


def chi_c2(d):
    """(chi, c2) read off a diamond: chi = sum_q (-1)^q h_{0,q} and
    c2 = sum_{p,q} (-1)^{p+q} h_{p,q}."""
    chi = sum((-1) ** q * h.free_rank for (p, q), h in d.items() if p == 0)
    c2 = sum((-1) ** (p + q) * h.free_rank for (p, q), h in d.items())
    return chi, c2


class TestToricComplex:
    """A second route to (chi, c2): the homology of a toric surface's cell
    complex against the invariants surface_calculus gives it."""

    def test_projective_plane(self):
        d = ch.diamond(ch.toric_complex(sc.tp2_fan()))
        assert {k: str(h) for k, h in d.items() if h.free_rank or h.torsion} == {
            (0, 0): "Z", (1, 1): "Z", (2, 2): "Z"
        }

    def test_subdivided_fans_match_the_calculus(self):
        rng = random.Random(20151)
        for _ in range(40):
            if rng.random() < 0.3:
                fan = sc.tp2_fan()
            else:
                fan = sc.hirzebruch_fan(rng.randint(0, 5))
            for _ in range(rng.randint(0, 5)):
                fan = fan.star_subdivide(rng.randrange(fan.n))
            d = ch.diamond(ch.toric_complex(fan))
            assert all(h.torsion == () for h in d.values())
            assert d[1, 1].free_rank == fan.n - 2
            x = sc.toric_surface(fan)
            assert chi_c2(d) == (x.chi, x.c2)


class TestOneBuildPerMatrix:
    def test_diamond_builds_and_reduces_each_boundary_once(self, monkeypatch):
        powers, reduced = [], []

        def power(rows, p, shape=None):
            powers.append(p)
            return il.exterior_power(rows, p, shape)

        def smith(rows):
            reduced.append(rows)
            return il.smith_invariants(rows)

        monkeypatch.setattr(ch, "exterior_power", power)
        monkeypatch.setattr(ch, "smith_invariants", smith)
        x = ch.parse_complex(load_data("torus.json"))
        assert len(powers) == len(x.attachments) * (x.max_rank + 1)
        for _ in range(2):
            assert {k: str(v) for k, v in ch.diamond(x).items()} == TORUS_DIAMOND
        assert len(powers) == len(x.attachments) * (x.max_rank + 1)
        stored = [
            x.boundary_matrix(p, q)
            for p in range(x.max_rank + 1)
            for q in range(x.max_dim + 2)
        ]
        # two diamonds, one Smith reduction of each stored D_{p,q}
        assert len(reduced) == len(stored)
        assert all(any(rows is d for d in stored) for rows in reduced)


def random_graph_complex(rng):
    """A 1-dimensional complex with random transports; always valid since
    there is nothing to square."""
    nv = rng.randint(1, 4)
    ne = rng.randint(0, 5)
    cells = [ch.Cell(f"v{i}", 0) for i in range(nv)]
    ranks = {c.id: rng.randint(1, 3) for c in cells}
    atts = []
    for k in range(ne):
        eid = f"e{k}"
        cells.append(ch.Cell(eid, 1))
        ranks[eid] = rng.randint(1, 3)
        for sign in (1, -1):
            v = f"v{rng.randrange(nv)}"
            iota = tuple(
                tuple(rng.randint(-2, 2) for _ in range(ranks[eid]))
                for _ in range(ranks[v])
            )
            atts.append(ch.Attachment(eid, v, sign, iota))
    return ch.CellComplex(tuple(cells), tuple(atts), tuple(ranks.items()))


class TestConstantCoefficientOracle:
    """For p = 0 every transport collapses to its sign, so H_{0,*} must
    agree with the homology of an independently assembled sign matrix."""

    @settings(max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_graph_complexes(self, rng):
        x = random_graph_complex(rng)
        verts = x.cells_of_dim(0)
        edges = x.cells_of_dim(1)
        vi = {c.id: i for i, c in enumerate(verts)}
        d1 = [[0] * len(edges) for _ in verts]
        for j, e in enumerate(edges):
            for a in x.attachments:
                if a.big == e.id:
                    d1[vi[a.small]][j] += a.sign
        m = sympy.Matrix(d1) if edges else sympy.zeros(len(verts), 0)
        r = m.rank()
        h0 = ch.homology(x, 0, 0)
        h1 = ch.homology(x, 0, 1)
        assert h0.free_rank == len(verts) - r
        assert h1.free_rank == len(edges) - r
        assert h1.torsion == ()
        if edges:
            snf = smith_normal_form(m)
            tor = tuple(
                abs(snf[i, i])
                for i in range(min(m.shape))
                if abs(snf[i, i]) > 1
            )
            assert h0.torsion == tor

    @pytest.mark.parametrize("p", [0, 1, 2])
    def test_klein_oracle(self, klein, p):
        # the free rank of H_{p,1} from sympy's ranks of the two boundaries
        d1 = sympy.Matrix(klein.boundary_matrix(p, 1))
        d2 = sympy.Matrix(klein.boundary_matrix(p, 2))
        assert ch.homology(klein, p, 1).free_rank == (
            klein.chain_rank(p, 1) - d1.rank() - d2.rank()
        )


# -- (1,1)-cycles and the pairing ---------------------------------------------


@pytest.fixture(scope="module")
def klein_cycles():
    data = load_data("klein_cycles.json")
    return {k: ch.parse_cycle(v) for k, v in data["cycles"].items()}


@pytest.fixture(scope="module")
def torus_cycles():
    data = load_data("torus_cycles.json")
    return {k: ch.parse_cycle(v) for k, v in data["cycles"].items()}


class TestPairing:
    def test_transversal_crossing(self):
        a = ch.OneOneCycle(
            (ch.Segment("f", (0, 0), (1, 0), (1, 0)),)
        )
        b = ch.OneOneCycle(
            (ch.Segment("f", ("1/2", -1), ("1/2", 1), (0, 1)),)
        )
        assert ch.intersection_pairing(a, b) == 1
        # both determinants flip under swapping, so the pairing is symmetric
        assert ch.intersection_pairing(b, a) == 1

    def test_different_faces_never_meet(self):
        a = ch.OneOneCycle((ch.Segment("f", (0, 0), (1, 0), (1, 0)),))
        b = ch.OneOneCycle((ch.Segment("g", (0, 0), (1, 1), (0, 1)),))
        assert ch.intersection_pairing(a, b) == 0

    def test_parallel_coefficients_self_pair_to_zero(self):
        a = ch.OneOneCycle((ch.Segment("f", (0, 0), (1, 0), (2, 0)),))
        assert ch.intersection_pairing(a, a) == 0

    def test_collinear_overlap_rejected(self):
        a = ch.OneOneCycle((ch.Segment("f", (0, 0), (2, 0), (1, 0)),))
        b = ch.OneOneCycle((ch.Segment("f", (1, 0), (3, 0), (0, 1)),))
        with pytest.raises(ComplexError):
            ch.intersection_pairing(a, b)

    def test_endpoint_touch_rejected(self):
        a = ch.OneOneCycle((ch.Segment("f", (0, 0), (1, 0), (1, 0)),))
        b = ch.OneOneCycle((ch.Segment("f", ("1/2", 0), ("1/2", 1), (0, 1)),))
        with pytest.raises(ComplexError):
            ch.intersection_pairing(a, b)

    def test_klein_table(self, klein_cycles):
        g = klein_cycles
        names = ["gamma", "gamma1", "gamma2"]
        table = {
            (a, b): ch.intersection_pairing(g[a], g[b])
            for a in names
            for b in names
        }
        assert table[("gamma", "gamma2")] == 1
        assert table[("gamma2", "gamma")] == 1
        assert all(
            v == 0
            for k, v in table.items()
            if k not in {("gamma", "gamma2"), ("gamma2", "gamma")}
        )

    def test_torus_table(self, torus_cycles):
        g = torus_cycles
        assert ch.intersection_pairing(g["alpha"], g["alpha"]) == 0
        assert ch.intersection_pairing(g["beta"], g["beta"]) == 0
        assert ch.intersection_pairing(g["alpha"], g["beta"]) in (1, -1)


class TestSignature:
    def test_klein_free_part(self, klein_cycles):
        g = klein_cycles
        sig = ch.signature_1_1([g["gamma"], g["gamma1"], g["gamma2"]])
        assert sig == 0

    def test_torus(self, torus_cycles):
        g = torus_cycles
        assert ch.signature_1_1([g["alpha"], g["beta"]]) == 0

    def test_definite_example(self):
        a = ch.OneOneCycle((ch.Segment("f", (0, 0), (1, 0), (1, 0)),))
        b = ch.OneOneCycle((ch.Segment("f", ("1/2", -1), ("1/2", 1), (0, 1)),))
        # off-diagonal hyperbolic block
        assert ch.signature_1_1([(a, a), (b, b)]) == 0

    def test_alternate_representative_used_on_diagonal(self):
        # b and c are homologous slanted/vertical lines crossing once, so
        # the (b, c) pair yields a nonzero diagonal self-pairing
        b = ch.OneOneCycle((ch.Segment("f", ("1/2", -1), ("1/2", 1), (0, 1)),))
        c = ch.OneOneCycle((ch.Segment("f", ("1/4", -1), ("3/4", 1), (1, 0)),))
        assert ch.intersection_pairing(b, c) == 1
        assert ch.signature_1_1([(b, c)]) == 1

