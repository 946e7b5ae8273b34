"""Balancing, positive decompositions, degrees, and boundary points of
fan 1-cycles."""

import random
from fractions import Fraction

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropsurf import bergman as bg
from tropsurf import fan_cycles as fc
from tropsurf.errors import CycleError

from cycle_gen import generators, random_cycle
from test_bergman import random_unimodular_basis
from test_matroid import matroids

CONIC = fc.FanCycle(3, (((-2, -1, 0), 1), ((1, 0, 1), 1), ((1, 1, -1), 1)))


class TestDecomposition:
    def test_conic_rays(self):
        b = bg.standard_basis(3)
        assert fc.positive_decomposition(b, (-2, -1, 0)) == (0, 2, 1, 0)
        assert fc.positive_decomposition(b, (1, 0, 1)) == (1, 0, 1, 0)
        assert fc.positive_decomposition(b, (1, 1, -1)) == (1, 0, 0, 2)

    def test_min_entry_is_zero(self):
        b = bg.standard_basis(4)
        r = fc.positive_decomposition(b, (3, -2, 7, 1))
        assert min(r) == 0
        assert all(x >= 0 for x in r)


class TestDegree:
    def test_conic(self):
        assert fc.degree(CONIC, bg.standard_basis(3)) == 2

    def test_standard_line(self):
        b = bg.standard_basis(4)
        assert fc.degree(fc.standard_line(b), b) == 1

    def test_unbalanced_rejected(self):
        c = fc.FanCycle(2, (((1, 0), 1), ((0, 1), 1)))
        with pytest.raises(CycleError):
            fc.degree(c, bg.standard_basis(2))

    def test_degree_over_bases(self):
        b1 = bg.standard_basis(2)
        b2 = bg.Basis(((-1, 0), (-1, -1)))
        line = fc.standard_line(b1)
        # the degree is taken in the basis given; the projective degree is
        # the least over all unimodular bases
        assert [fc.degree(line, b) for b in (b1, b2)] == [1, 2]

    @settings(max_examples=25, deadline=None)
    @given(matroids, st.randoms(use_true_random=False))
    def test_additivity(self, m, rng):
        plane = bg.build_fan(m)
        gens = generators(plane)
        c1 = random_cycle(plane, rng, gens)
        c2 = random_cycle(plane, rng, gens)
        b = plane.basis
        assert fc.degree(c1 + c2, b) == fc.degree(c1, b) + fc.degree(c2, b)
        assert fc.degree(c1.scale(3), b) == 3 * fc.degree(c1, b)

    def test_every_coordinate_total_is_the_degree(self, library_matroids):
        # balancing makes sum_e w_e r_e(i) the same for every i, in the
        # standard basis of each library plane and in random unimodular bases
        rng = random.Random(7)
        for m in library_matroids.values():
            for basis in (None, random_unimodular_basis(rng, m.n - 1)):
                plane = bg.build_fan(m, basis)
                gens = generators(plane)
                for _ in range(20):
                    c = random_cycle(plane, rng, gens)
                    totals = {sum(w * fc.positive_decomposition(plane.basis, d)[i]
                                  for d, w in c.rays) for i in range(m.n)}
                    assert totals == {fc.degree(c, plane.basis)}


class TestCanonicalCycle:
    def test_u34_is_the_line(self, u34):
        plane = bg.build_fan(u34)
        kp = fc.canonical_cycle(plane)
        assert kp.rays == fc.standard_line(plane.basis).rays

    @settings(max_examples=25, deadline=None)
    @given(matroids)
    def test_degree_n_minus_2(self, m):
        plane = bg.build_fan(m)
        kp = fc.canonical_cycle(plane)
        assert fc.degree(kp, plane.basis) == m.n - 3


class TestBoundaryPoints:
    def test_conic(self, u34):
        b = bg.standard_basis(3)
        ends = [fc.boundary_point(b, u34, d)[1] for d, _ in CONIC.rays]
        assert sorted(map(sorted, ends)) == [[0, 2], [0, 3], [1, 2]]

    def test_line_interior(self, u34):
        b = bg.standard_basis(3)
        assert fc.boundary_point(b, u34, (-1, 0, 0)) == ("line", 1)
        assert fc.boundary_point(b, u34, (2, 2, 2)) == ("line", 0)

    def test_non_flat_support_rejected(self, braid):
        b = bg.standard_basis(5)
        # {0, 1} is inside the triple point {0, 1, 3}, not a flat
        with pytest.raises(CycleError):
            fc.boundary_point(b, braid, (0, 0, 1, 1, 1))


class TestMembership:
    def test_conic_in_u34(self, u34):
        assert fc.lies_in(CONIC, bg.build_fan(u34))

    def test_not_in_smaller_plane(self, braid):
        plane = bg.build_fan(braid)
        c = fc.FanCycle(5, (((1, -1, 0, 0, 0), 1), ((-1, 1, 0, 0, 0), 1)))
        assert not fc.lies_in(c, plane)

    @settings(max_examples=25, deadline=None)
    @given(matroids, st.randoms(use_true_random=False))
    def test_generated_cycles_lie_in_plane(self, m, rng):
        plane = bg.build_fan(m)
        c = random_cycle(plane, rng, generators(plane))
        assert fc.is_balanced(c)
        assert fc.lies_in(c, plane)


class TestNormalization:
    def test_parallel_rays_merge(self):
        c = fc.FanCycle(2, (((2, 0), 1), ((1, 0), 1), ((-1, 0), 3)))
        assert c.rays == (((-1, 0), 3), ((1, 0), 3))

    def test_zero_direction_rejected(self):
        with pytest.raises(CycleError):
            fc.FanCycle(2, (((0, 0), 1),))

    @pytest.mark.parametrize(
        "ray, named",
        [
            (((1.5, 0), 1), "1.5"),
            (((Fraction(3, 2), 0), 1), "Fraction(3, 2)"),
            (((1, 0), 1.7), "1.7"),
            (((1, 0), Fraction(1, 2)), "Fraction(1, 2)"),
        ],
    )
    def test_non_integral_ray_rejected(self, ray, named):
        with pytest.raises(CycleError, match="not integral") as err:
            fc.FanCycle(2, (ray, ((-1, 0), 1)))
        assert named in str(err.value)

    def test_integral_fractions_and_floats_accepted(self):
        c = fc.FanCycle(2, (((Fraction(4), 0.0), 1.0), ((-1, 0), Fraction(2))))
        assert c.rays == (((-1, 0), 2), ((1, 0), 4))
        assert all(type(x) is int for d, w in c.rays for x in d + (w,))

    def test_negative_dim_rejected(self):
        with pytest.raises(CycleError, match="dim must be >= 0, got -3"):
            fc.FanCycle(-3, ())


class TestSharedDirections:
    """A primitive tuple of ints is kept as given, so cycles derived from
    one another hold the same direction objects; anything else is
    converted to a fresh normalized tuple of ints."""

    def test_primitive_int_tuples_are_kept(self):
        given_dirs = [(-2, -1, 0), (1, 0, 1), (1, 1, -1)]
        c = fc.FanCycle(3, tuple((d, 1) for d in given_dirs))
        kept = [d for d, _ in c.rays]
        assert sorted(map(id, kept)) == sorted(map(id, given_dirs))
        for derived in (c.scale(3), c.scale(-1), c + c, c + c.scale(2)):
            assert all(a is b for (a, _), (b, _) in zip(derived.rays, c.rays))

    def test_sum_of_generators_shares_their_directions(self, braid):
        gens = generators(bg.build_fan(braid))
        owned = {id(d) for g in gens for d, _ in g.rays}
        c = gens[0] + gens[1].scale(2) + gens[-1].scale(-1)
        assert c.rays and all(id(d) in owned for d, _ in c.rays)

    @pytest.mark.parametrize(
        "direction, weight",
        [
            ([1, 0], 1),
            ((True, False), 1),
            ((numpy.int64(1), numpy.int64(0)), 1),
            ((Fraction(1), Fraction(0)), 1),
            ((3, 0), 3),
        ],
        ids=["list", "bool", "numpy", "fraction", "non-primitive"],
    )
    def test_other_directions_are_converted(self, direction, weight):
        c = fc.FanCycle(2, ((direction, 1), ((-1, 0), 2)))
        assert c.rays == (((-1, 0), 2), ((1, 0), weight))
        d = c.rays[1][0]
        assert type(d) is tuple and d is not direction
        assert all(type(x) is int for x in d)


def naive_rays(rays):
    """Divide each direction by the largest k dividing every entry, add up
    the weights of equal directions and drop those that cancel."""
    total = {}
    for d, w in rays:
        d = [int(x) for x in d]
        k = next(j for j in range(max(map(abs, d)), 0, -1) if all(x % j == 0 for x in d))
        prim = tuple(x // k for x in d)
        total[prim] = total.get(prim, 0) + k * int(w)
    return tuple(sorted((d, w) for d, w in total.items() if w != 0))


@st.composite
def raw_rays(draw, dim):
    """Rays with small primitive parts, so that directions repeat, scaled
    by 1..3, signed, and with some entries and weights as Fractions."""
    entry = st.integers(-2, 2)
    out = []
    for _ in range(draw(st.integers(0, 6))):
        base = draw(st.lists(entry, min_size=dim, max_size=dim).filter(any))
        k = draw(st.integers(1, 3))
        d = [draw(st.sampled_from([int, Fraction]))(k * x) for x in base]
        w = draw(st.sampled_from([int, Fraction]))(draw(st.integers(-2, 2)))
        out.append((tuple(d), w))
    return tuple(out)


@st.composite
def ray_pairs(draw):
    dim = draw(st.integers(1, 3))
    return dim, draw(raw_rays(dim)), draw(raw_rays(dim))


class TestNormalizationContract:
    @settings(max_examples=100, deadline=None)
    @given(ray_pairs())
    def test_matches_naive_normalizer(self, case):
        dim, rays1, rays2 = case
        c1, c2 = fc.FanCycle(dim, rays1), fc.FanCycle(dim, rays2)
        assert c1.rays == naive_rays(rays1)
        assert (c1 + c2).rays == naive_rays(rays1 + rays2)
        assert c1 + c2 == c2 + c1
        assert c1.scale(0).rays == ()
        assert c1.scale(-2).rays == naive_rays([(d, -2 * w) for d, w in rays1])


FACTORS = (-2, -1, 0, 1, 2, Fraction(1, 2), 2.0)


def assert_built_as_by_constructor(make, construct):
    """make() gives the cycle that construct() builds through the full
    constructor, or raises the CycleError that it raises."""
    try:
        want = construct()
    except CycleError:
        with pytest.raises(CycleError):
            make()
        return
    got = make()
    assert got.rays == want.rays
    assert all(type(w) is int for _, w in got.rays)
    assert got == want and hash(got) == hash(want)


def check_arithmetic(c1, c2):
    assert_built_as_by_constructor(
        lambda: c1 + c2, lambda: fc.FanCycle(c1.dim, c1.rays + c2.rays)
    )
    for c in (c1, c2):
        for k in FACTORS:
            assert_built_as_by_constructor(
                lambda: c.scale(k),
                lambda: fc.FanCycle(c.dim, tuple((d, k * w) for d, w in c.rays)),
            )
        assert c.scale(2).scale(Fraction(1, 2)) == c


class TestArithmeticKeepsTheNormalForm:
    """``+`` and ``scale`` skip the constructor's normalization for an int
    factor; the constructor applied to the raw rays is their oracle."""

    @settings(max_examples=100, deadline=None)
    @given(ray_pairs())
    def test_agrees_with_the_constructor(self, case):
        dim, rays1, rays2 = case
        check_arithmetic(fc.FanCycle(dim, rays1), fc.FanCycle(dim, rays2))

    def test_agrees_on_generated_cycles(self, library_matroids):
        rng = random.Random(25)
        for m in library_matroids.values():
            plane = bg.build_fan(m)
            gens = generators(plane)
            for _ in range(20):
                c1 = random_cycle(plane, rng, gens)
                check_arithmetic(c1, random_cycle(plane, rng, gens))
                check_arithmetic(c1, c1.scale(-1))

    def test_sum_of_scaled_generators_normalizes_nothing(self, library_matroids, monkeypatch):
        counts = {"primitive": 0, "__post_init__": 0}
        real_primitive, real_post_init = fc.primitive, fc.FanCycle.__post_init__

        def primitive(vec):
            counts["primitive"] += 1
            return real_primitive(vec)

        def post_init(self):
            counts["__post_init__"] += 1
            real_post_init(self)

        rng = random.Random(25)
        draws = 0
        for m in library_matroids.values():
            plane = bg.build_fan(m)
            gens = generators(plane)
            with monkeypatch.context() as patch:
                patch.setattr(fc, "primitive", primitive)
                patch.setattr(fc.FanCycle, "__post_init__", post_init)
                for _ in range(30):
                    random_cycle(plane, rng, gens)
                    draws += 1
        # only each draw's empty starting cycle goes through the constructor
        assert counts == {"primitive": 0, "__post_init__": draws}

    @pytest.mark.parametrize("other", [1, 0, None, CONIC.rays], ids=["1", "0", "None", "rays"])
    def test_adding_a_non_cycle_is_a_type_error(self, other):
        assert CONIC.__add__(other) is NotImplemented
        with pytest.raises(TypeError):
            CONIC + other

    def test_adding_across_ambients_is_a_cycle_error(self):
        with pytest.raises(CycleError, match="different ambients"):
            CONIC + fc.FanCycle(2, ())
