"""Toric building blocks, sums, contractions, Noether, and adjunction."""

import random
import re

import pytest

from tropsurf import surface_calculus as sc
from tropsurf._frozen import replace
from tropsurf.errors import SurfaceError


def subdivided_fans(depth):
    """All complete unimodular fans within `depth` star subdivisions of
    the projective plane fan, one per set of rays."""
    seen = {}
    frontier = [sc.tp2_fan()]
    seen[frozenset(frontier[0].rays)] = frontier[0]
    for _ in range(depth):
        new = []
        for fan in frontier:
            for i in range(fan.n):
                sub = fan.star_subdivide(i)
                key = frozenset(sub.rays)
                if key not in seen:
                    seen[key] = sub
                    new.append(sub)
        frontier = new
    return list(seen.values())


def random_surface(rng, ops=4):
    fan = sc.tp2_fan() if rng.random() < 0.3 else sc.hirzebruch_fan(rng.randint(0, 3))
    for _ in range(rng.randint(0, 4)):
        fan = fan.star_subdivide(rng.randrange(fan.n))
    x = sc.toric_surface(fan)
    for _ in range(ops):
        op = rng.choice(["modify", "sum", "selfsum", "contract"])
        if op == "modify":
            x = sc.modify(
                x, sc.SEGMENT, rng.randint(-2, 2), f"M{rng.randrange(10**6)}"
            )
        elif op == "sum":
            ids = [i for i, e in x.ledger if e.curve.isomorphic(sc.SEGMENT)]
            if not ids:
                continue
            i = rng.choice(ids)
            s = x.entry(i).self_intersection
            other = sc.toric_surface(sc.hirzebruch_fan(abs(s)))
            oid = next(
                j for j, e in other.ledger if e.self_intersection == -s
            )
            x = sc.tropical_sum(x, i, other, oid)
        elif op == "selfsum":
            pairs = [
                (i, j)
                for i, e in x.ledger
                for j, f in x.ledger
                if i < j
                and e.curve.isomorphic(f.curve)
                and e.self_intersection == -f.self_intersection
                and j not in e.crossings
                and i not in f.crossings
            ]
            if pairs:
                x = sc.self_sum(x, *rng.choice(pairs))
        elif op == "contract":
            ids = [
                i
                for i, e in x.ledger
                if e.curve.b1 == 0 and e.self_intersection == -1
            ]
            if ids:
                x = sc.contract(x, rng.choice(ids))
    return x


class TestFan2D:
    def test_validation(self):
        with pytest.raises(SurfaceError):
            sc.Fan2D(((1, 0), (0, 1)))  # not complete
        with pytest.raises(SurfaceError):
            sc.Fan2D(((2, 0), (0, 1), (-1, -1)))  # not primitive
        with pytest.raises(SurfaceError):
            sc.Fan2D(((1, 0), (-1, 1), (-1, -1)))  # det 1 fails

    def test_self_intersections(self):
        assert sc.tp2_fan().self_intersections() == (1, 1, 1)
        assert sc.hirzebruch_fan(2).self_intersections() == (0, -2, 0, 2)

    def test_star_subdivision(self):
        fan = sc.tp2_fan().star_subdivide(0)
        assert fan.rays == ((1, 0), (1, 1), (0, 1), (-1, -1))
        assert fan.self_intersections() == (0, -1, 0, 1)

    def test_self_intersections_satisfy_the_defining_relation(self):
        # v_{i-1} + v_{i+1} = -D_i^2 v_i on seeded subdivisions of TP^2 and F_k
        rng = random.Random(11)
        for _ in range(300):
            k = rng.randint(-5, 4)
            fan = sc.tp2_fan() if k == -5 else sc.hirzebruch_fan(k)
            for _ in range(rng.randint(0, 6)):
                fan = fan.star_subdivide(rng.randrange(fan.n))
            r, n = fan.rays, fan.n
            for i, s in enumerate(fan.self_intersections()):
                assert tuple(a + b for a, b in zip(r[i - 1], r[(i + 1) % n])) == tuple(
                    -s * x for x in r[i])


class TestToric:
    def test_tp2(self):
        x = sc.toric_surface(sc.tp2_fan())
        assert x.triple == (1, 9, 3)
        assert all(e.self_intersection == 1 for _, e in x.ledger)

    def test_hirzebruch(self):
        x = sc.toric_surface(sc.hirzebruch_fan(2))
        assert x.triple == (1, 8, 4)

    def test_k2_is_12_minus_n(self):
        for fan in subdivided_fans(3):
            assert sc.toric_surface(fan).triple == (1, 12 - fan.n, fan.n)

    def test_crossings_are_consecutive(self):
        x = sc.toric_surface(sc.hirzebruch_fan(1))
        assert x.entry("D0").crossings == frozenset({"D1", "D3"})


class TestSum:
    def test_hirzebruch_self_sum(self):
        x = sc.toric_surface(sc.hirzebruch_fan(2))
        assert sc.self_sum(x, "D0", "D2").triple == (0, 0, 0)
        assert sc.self_sum(x, "D1", "D3").triple == (0, 0, 0)

    def test_self_sum_rejects_crossing_curves(self):
        x = sc.toric_surface(sc.hirzebruch_fan(0))
        with pytest.raises(SurfaceError):
            sc.self_sum(x, "D0", "D1")

    def test_sum_rejects_mismatched_self_intersections(self):
        tp2 = sc.toric_surface(sc.tp2_fan())
        with pytest.raises(SurfaceError):
            sc.tropical_sum(tp2, "D0", tp2, "D1")

    def test_sum_rejects_non_isomorphic_curves(self):
        tp2 = sc.toric_surface(sc.tp2_fan())
        y = sc.modify(tp2, sc.CIRCLE, -1, "C")
        z = sc.modify(tp2, sc.SEGMENT, 1, "S")
        with pytest.raises(SurfaceError):
            sc.tropical_sum(y, "C", z, "S")

    def test_elliptic_sum_arithmetic(self):
        # gluing along circles: K_C = 0, chi(C) = 0
        a = sc.modify(sc.toric_surface(sc.tp2_fan()), sc.CIRCLE, 2, "C")
        b = sc.modify(sc.toric_surface(sc.tp2_fan()), sc.CIRCLE, -2, "C")
        s = sc.tropical_sum(a, "C", b, "C")
        assert s.triple == (2, 18, 6)

    def test_crossing_transfer(self):
        bl = sc.toric_surface(sc.Fan2D(((1, 0), (1, 1), (0, 1), (-1, -1))))
        s = sc.tropical_sum(
            bl, "D1", sc.toric_surface(sc.tp2_fan()), "D0"
        )
        # curves that crossed D1 now cross the TP2 lines next to D0
        assert "b.D1" in s.entry("a.D0").crossings
        assert "b.D2" in s.entry("a.D0").crossings


class TestLedger:
    def test_self_sum_never_makes_a_curve_cross_itself(self):
        # D1 met both glued curves, so it now crosses D0's other neighbour
        x = sc.self_sum(sc.toric_surface(sc.hirzebruch_fan(0)), "D0", "D2")
        assert x.entry("D1").crossings == frozenset({"D3"})
        assert x.entry("D3").crossings == frozenset({"D1"})

    def test_sum_never_crosses_a_glued_curve(self):
        x = sc.self_sum(sc.toric_surface(sc.hirzebruch_fan(0)), "D0", "D2")
        y = sc.tropical_sum(x, "D1", sc.toric_surface(sc.hirzebruch_fan(0)), "D1")
        assert y.entry("b.D0").crossings == frozenset({"a.D3", "b.D3"})
        assert {i for i, _ in y.ledger} == {"a.D3", "b.D0", "b.D2", "b.D3"}

    @pytest.mark.parametrize(
        "crossings_of_a, crossings_of_b",
        [({"B", "C"}, {"A"}), ({"A", "B"}, {"A"}), ({"B"}, set())],
        ids=["dangling", "self", "one-sided"],
    )
    def test_unsound_ledger_unrepresentable(self, crossings_of_a, crossings_of_b):
        ledger = (
            ("A", sc.LedgerEntry(sc.SEGMENT, 0, frozenset(crossings_of_a))),
            ("B", sc.LedgerEntry(sc.SEGMENT, 0, frozenset(crossings_of_b))),
        )
        with pytest.raises(SurfaceError, match="boundary curve 'A'"):
            sc.Surface(1, 9, 3, ledger)

    def test_every_random_tree_builds(self):
        # every node re-checks its ledger, so building the tree is the test
        rng = random.Random(11)
        for _ in range(300):
            x = random_surface(rng, rng.randint(1, 8))
            ids = {i for i, _ in x.ledger}
            assert all(e.crossings <= ids - {i} for i, e in x.ledger)


class TestContract:
    def test_blowdown(self):
        bl = sc.toric_surface(sc.Fan2D(((1, 0), (1, 1), (0, 1), (-1, -1))))
        y = sc.contract(bl, "D1")
        assert y.triple == (1, 9, 3)
        assert [i for i, _ in y.ledger] == ["D0", "D2", "D3"]

    def test_double_blowdown(self):
        # two star subdivisions insert the rays D1 = (1,1) and D3 = (-1,0);
        # contracting them in turn undoes both blowups
        fan = sc.tp2_fan().star_subdivide(0).star_subdivide(2)
        x = sc.toric_surface(fan)
        assert x.triple == (1, 7, 5)
        x = sc.contract(sc.contract(x, "D1"), "D3")
        assert x.triple == (1, 9, 3)

    def test_blowdown_recomputes_the_ledger(self):
        # the curves that crossed D1 gain +1 and now cross each other
        y = sc.contract(sc.toric_surface(sc.tp2_fan().star_subdivide(0)), "D1")
        assert {i: e.self_intersection for i, e in y.ledger} == {"D0": 1, "D2": 1, "D3": 1}
        with pytest.raises(SurfaceError, match="self-summed curves must be disjoint"):
            sc.self_sum(y, "D0", "D2")

    def test_blowdown_gives_the_tp2_ledger_up_to_renaming(self):
        y = sc.contract(sc.toric_surface(sc.tp2_fan().star_subdivide(0)), "D1")
        tp2 = sc.toric_surface(sc.tp2_fan())
        rename = dict(zip((i for i, _ in y.ledger), (i for i, _ in tp2.ledger)))
        renamed = tuple(
            (rename[i], replace(e, crossings=frozenset(rename[c] for c in e.crossings)))
            for i, e in y.ledger
        )
        assert (y.triple, renamed) == (tp2.triple, tp2.ledger)

    def test_rejects_wrong_curve(self):
        tp2 = sc.toric_surface(sc.tp2_fan())
        with pytest.raises(SurfaceError):
            sc.contract(tp2, "D0")


class TestChecks:
    def test_noether_everywhere(self):
        rng = random.Random(7)
        for _ in range(40):
            x = random_surface(rng)
            assert sc.noether_check(x)["holds"]

    def test_noether_violation_unrepresentable(self):
        with pytest.raises(SurfaceError):
            sc.Surface(1, 9, 4)

    def test_signature_hypothesis(self):
        assert sc.signature_hypothesis(sc.toric_surface(sc.tp2_fan())) == 1
        x = sc.self_sum(sc.toric_surface(sc.hirzebruch_fan(0)), "D0", "D2")
        assert sc.signature_hypothesis(x) == 0

    def test_adjunction_toric(self):
        for fan in subdivided_fans(3):
            x = sc.toric_surface(fan)
            for i, _ in x.ledger:
                assert sc.adjunction_check(x, i)["holds"]

    def test_adjunction_elliptic(self):
        x = sc.modify(sc.toric_surface(sc.tp2_fan()), sc.CIRCLE, 0, "C")
        assert sc.adjunction_check(x, "C")["holds"]

    def test_curve_descriptor_validation(self):
        with pytest.raises(SurfaceError):
            sc.CurveDescriptor(0, (1, 1, 1))  # sum(val-2) != -2


class TestParsing:
    def test_roundtrip_expression(self):
        expr = {
            "selfsum": {
                "base": {"toric": {"rays": [[1, 0], [0, 1], [-1, 0], [0, -1]]}},
                "curve1": "D0",
                "curve2": "D2",
            }
        }
        assert sc.parse_surface(expr).triple == (0, 0, 0)

    def test_unknown_operation(self):
        with pytest.raises(SurfaceError):
            sc.parse_surface({"glue": {}})

    @pytest.mark.parametrize(
        "expr, message",
        [
            (
                {"sum": {"left": {"toric": {"rays": [[1, 0], [0, 1], [-1, -1]]}},
                         "left_curve": "D0", "right_curve": "D0",
                         "right": {"toric": {"rays": [[1, 0], [0, "y"], [-1, -1]]}}}},
                "sum.right.toric.rays[1] must be a list of integers",
            ),
            (
                {"modify": {"base": {"toric": {"rays": [[1, 0], [0, 1], [-1, -1]]}},
                            "curve": {"b1": "x"}, "self_intersection": 0, "id": "E"}},
                "modify.curve.b1 must be an integer, got 'x'",
            ),
            (
                {"contract": {"base": {"glue": {}}, "curve": "D0"}},
                "contract.base: unknown surface operation 'glue'",
            ),
            ({"selfsum": []}, "selfsum must be an object"),
        ],
        ids=["sum-ray", "modify-b1", "nested-unknown", "body-not-object"],
    )
    def test_input_errors_name_the_node(self, expr, message):
        with pytest.raises(SurfaceError, match=re.escape(message)):
            sc.parse_surface(expr)
