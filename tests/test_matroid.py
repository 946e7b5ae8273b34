"""Matroid construction, characteristic polynomials, and extensions.

The characteristic polynomial has an independent oracle: the Whitney
rank expansion chi(t) = sum over subsets S of (-1)^|S| t^(r - r(S)),
which only uses rank_of and never touches the Moebius recursion.
"""

import hashlib
import json
import random
import time
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropsurf import matroid as mt
from tropsurf.errors import MatroidError


def whitney_char_poly(m):
    coeffs = [0] * (m.rank + 1)
    for size in range(m.n + 1):
        for s in combinations(range(m.n), size):
            coeffs[m.rank - m.rank_of(s)] += (-1) ** size
    coeffs.reverse()
    return tuple(coeffs)


def reference_validate(n, levels):
    """The axioms ``Matroid`` checks, in the same order, on frozensets: no
    bitmasks and no shortcut.  Returns the first violation's message, or None."""
    if n < 1:
        return "ground set must be nonempty"
    if not levels or levels[0] != (frozenset(),):
        return "unique rank-0 flat must be the empty set (loopless)"
    ground = frozenset(range(n))
    if levels[-1] != (ground,):
        return "unique top flat must be the whole ground set"
    seen = set()
    for r, level in enumerate(levels):
        if not level:
            return f"no flats of rank {r}"
        for f in level:
            if not f <= ground:
                return f"flat {sorted(f)} outside ground set"
            if f in seen:
                return f"flat {sorted(f)} listed twice"
            seen.add(f)
    mid = [f for level in levels[1:-1] for f in level]
    for f, g in combinations(mid, 2):
        if f & g not in seen:
            return f"flats not closed under intersection: {sorted(f)}, {sorted(g)}"
    for r in range(len(levels) - 2):
        for f in levels[r]:
            covered = f
            for g in levels[r + 1]:
                if f < g:
                    if covered & g != f:
                        return f"covers of {sorted(f)} overlap outside the flat"
                    covered |= g
            if covered != ground:
                return f"covers of {sorted(f)} do not partition the rest"
    for r in range(1, len(levels) - 1):
        for g in levels[r]:
            if not any(f < g for f in levels[r - 1]):
                return f"flat {sorted(g)} has no subflat of rank {r - 1}"
    return None


def pairwise_rule(lines):
    """The two lines ``from_lines`` names for lines inside the ground set of
    2..n-1 elements: the first two, in the order given, that share two
    elements; None when no two do."""
    return next(
        ((a, b) for a, b in combinations(map(frozenset, lines), 2) if len(a & b) > 1), None
    )


def corrupt(m, rng):
    """The levels of m with its rank-2 level dropped from, grown, shrunk,
    merged or added to at random, or left as they are; each level in the
    canonical order ``Matroid`` keeps."""
    lines = list(m.flats(2))
    how = rng.choice(["drop", "grow", "shrink", "merge", "add", "keep"])
    k = rng.randrange(len(lines))
    if how == "drop":
        del lines[k]
    elif how == "grow" and len(lines[k]) < m.n:
        lines[k] |= {rng.choice(sorted(set(range(m.n)) - lines[k]))}
    elif how == "shrink":
        lines[k] -= {rng.choice(sorted(lines[k]))}
    elif how == "merge":
        j = rng.choice([j for j in range(len(lines)) if j != k])
        lines = [f for i, f in enumerate(lines) if i not in (j, k)] + [lines[j] | lines[k]]
    elif how == "add":
        lines.append(frozenset(rng.sample(range(m.n), rng.randrange(2, m.n))))
    return canonical(m.flats_by_rank[:2] + (tuple(lines),) + m.flats_by_rank[3:])


def canonical(levels):
    """Each level by size, then by sorted elements."""
    return tuple(tuple(sorted(sorted(lv, key=sorted), key=len)) for lv in levels)


def delete(m, e):
    """Delete element e from a simple rank-3 matroid that keeps rank 3,
    shifting the elements above e down: the inverse of ``extend_by_line``
    that the roundtrip tests check it against."""
    assert m.rank == 3 and m.is_simple() and 0 <= e < m.n and m.n > 3

    def relabel(f):
        return frozenset(x if x < e else x - 1 for x in f if x != e)

    lines = [relabel(f) for f in m.flats(2) if len(f - {e}) >= 3]
    return mt.from_lines(m.n - 1, lines)


@st.composite
def matroids(draw):
    n = draw(st.integers(min_value=3, max_value=7))
    target = draw(st.integers(min_value=0, max_value=4))
    pool = [c for k in range(3, n) for c in combinations(range(n), k)]
    chosen = []
    for line in draw(st.permutations(pool)):
        if len(chosen) == target:
            break
        if all(len(set(line) & set(c)) <= 1 for c in chosen):
            chosen.append(line)
    return mt.from_lines(n, chosen)


matroids = matroids()


class TestConstruction:
    def test_uniform_flat_counts(self):
        u = mt.uniform(3, 5)
        assert len(u.flats(1)) == 5
        assert len(u.flats(2)) == 10
        assert u.is_simple()

    def test_from_lines_braid(self, braid):
        assert braid.rank == 3
        assert sorted(len(f) for f in braid.flats(2)) == [2, 2, 2, 3, 3, 3, 3]

    def test_from_lines_rejects_overlapping_lines(self):
        with pytest.raises(MatroidError):
            mt.from_lines(5, [[0, 1, 2], [0, 1, 3]])

    def test_from_lines_rejects_full_ground_set(self):
        with pytest.raises(MatroidError):
            mt.from_lines(3, [[0, 1, 2]])

    def test_validation_rejects_broken_cover(self):
        with pytest.raises(MatroidError, match=r"^covers of \[0\] do not partition the rest$"):
            mt.Matroid(
                3,
                (
                    (frozenset(),),
                    (frozenset([0]), frozenset([1]), frozenset([2])),
                    (frozenset([0, 1]),),  # {2} not covered at rank 2
                    (frozenset([0, 1, 2]),),
                ),
            )

    @pytest.mark.parametrize(
        "n, levels, message",
        [
            (0, [[[]]], "ground set must be nonempty"),
            (1, [[[0]]], "unique rank-0 flat must be the empty set (loopless)"),
            (2, [[[]], [[0]]], "unique top flat must be the whole ground set"),
            (2, [[[]], [], [[0, 1]]], "no flats of rank 1"),
            (2, [[[]], [[0], [5]], [[0, 1]]], "flat [5] outside ground set"),
            (2, [[[]], [[0], [0], [1]], [[0, 1]]], "flat [0] listed twice"),
            # {0,1,2} and {1,2,3} meet in {1,2}; every other pair meets in a flat
            (4, [[[]], [[0], [1], [2], [3]], [[0, 1, 2], [1, 2, 3]], [[0, 1, 2, 3]]],
             "flats not closed under intersection: [0, 1, 2], [1, 2, 3]"),
            (3, [[[]], [[0], [0, 1]], [[0, 1, 2]]], "covers of [] overlap outside the flat"),
            (2, [[[]], [[0]], [[0, 1]]], "covers of [] do not partition the rest"),
            # covers partition at every level, but {0} sits above no rank-1 flat
            (4, [[[]], [[0, 1], [2], [3]], [[0], [0, 1, 2], [0, 1, 3], [2, 3]], [[0, 1, 2, 3]]],
             "flat [0] has no subflat of rank 1"),
        ],
        ids=["empty-ground", "loop", "top", "empty-level", "outside", "twice",
             "intersection", "overlap", "partition", "subflat"],
    )
    def test_validation_names_each_violation(self, n, levels, message):
        with pytest.raises(MatroidError) as exc:
            mt.Matroid(n, tuple(tuple(frozenset(f) for f in level) for level in levels))
        assert str(exc.value) == message

    def test_rank1_level_of_non_singletons_takes_the_pairwise_closure_test(self):
        # one rank-2 flat, so no two share two elements; but {0, 1} meets it in {1}
        levels = [[[]], [[0, 1], [2], [3]], [[1, 2, 3]], [[0, 1, 2, 3]]]
        with pytest.raises(MatroidError) as exc:
            mt.Matroid(4, tuple(tuple(frozenset(f) for f in level) for level in levels))
        assert str(exc.value) == "flats not closed under intersection: [0, 1], [1, 2, 3]"

    def test_closure_scan_stops_at_the_first_violation(self):
        # every triple of n points at rank 2 (9,880 flats at n = 40, 54,740 at
        # n = 70), of which the first two already meet in two points; no pair
        # with a rank-1 singleton is scanned before them
        for n in (40, 70):
            levels = (
                (frozenset(),),
                tuple(frozenset([i]) for i in range(n)),
                tuple(frozenset(c) for c in combinations(range(n), 3)),
                (frozenset(range(n)),),
            )
            start = time.monotonic()
            with pytest.raises(MatroidError) as exc:
                mt.Matroid(n, levels)
            assert time.monotonic() - start < 1.0
            assert str(exc.value) == "flats not closed under intersection: [0, 1, 2], [0, 1, 3]"

    def test_a_dropped_pair_is_named_without_a_closure_scan(self):
        # U_{3,100} without the pair {0, 1}: the rank-2 flats' pair covers are
        # disjoint, so no two of the 4,949 flats are intersected
        levels = mt.uniform(3, 100).flats_by_rank
        dropped = levels[:2] + (levels[2][1:],) + levels[3:]
        start = time.monotonic()
        with pytest.raises(MatroidError) as exc:
            mt.Matroid(100, dropped)
        assert time.monotonic() - start < 0.2
        assert str(exc.value) == "covers of [0] do not partition the rest"

    def test_from_lines_names_the_lines_the_pairwise_rule_names(self):
        # overlapping lines, two-element lines and repeated lines, in the order
        # drawn and shuffled: the error names the pair the pairwise rule names
        rng = random.Random(31)
        seen = Counter()
        for _ in range(3000):
            n = rng.randint(3, 8)
            lines = [rng.sample(range(n), rng.randint(2, n - 1)) for _ in range(rng.randint(1, 5))]
            if rng.random() < 0.3:
                lines.append(list(reversed(rng.choice(lines))))
            for order in (lines, rng.sample(lines, len(lines))):
                named = pairwise_rule(order)
                try:
                    m = mt.from_lines(n, order)
                except MatroidError as exc:
                    a, b = named
                    assert str(exc) == f"lines {sorted(a)} and {sorted(b)} share two elements"
                    kind = "repeat" if a == b else "overlap" if min(len(a), len(b)) > 2 else "two"
                    seen[kind] += 1
                    continue
                assert named is None, (n, order)
                assert set(map(frozenset, order)) <= set(m.flats(2))
                seen["built"] += 1
        assert set(seen) == {"repeat", "two", "overlap", "built"}, seen

    def test_from_lines_on_200_points_in_general_position(self):
        # the closure test is linear in the flats' sizes, not quadratic in their number
        start = time.monotonic()
        m = mt.from_lines(200, [])
        assert time.monotonic() - start < 5.0
        assert len(m.flats(2)) == 200 * 199 // 2

    def test_validation_agrees_with_the_axioms_on_corrupted_lattices(
        self, all_small_matroids
    ):
        rng = random.Random(13)
        outcomes = Counter()
        for _ in range(6000):
            m = rng.choice(all_small_matroids)
            levels = corrupt(m, rng)
            expected = reference_validate(m.n, levels)
            try:
                mt.Matroid(m.n, levels)
                got = None
            except MatroidError as exc:
                got = str(exc)
            assert got == expected, levels
            outcomes[expected and expected.split(" ", 1)[0]] += 1
        # accepted, and rejected by closure, by covers and as listed twice
        assert set(outcomes) == {None, "flats", "covers", "flat"}, outcomes

    def test_shared_fixed_levels_agree_with_the_axioms_on_corrupted_lattices(
        self, all_small_matroids
    ):
        # half the cases keep the matroid's own rank-0, rank-1 and top tuples, which
        # are accepted with their stored bitmasks; the rank-2 level is given in
        # canonical order or shuffled
        rng = random.Random(29)
        outcomes = Counter()
        for k in range(6000):
            m = rng.choice(all_small_matroids)
            levels = corrupt(m, rng)
            expected = reference_validate(m.n, levels)
            if k % 2:
                levels = m.flats_by_rank[:2] + levels[2:3] + m.flats_by_rank[3:]
            if rng.random() < 0.5:
                levels = levels[:2] + (tuple(rng.sample(levels[2], len(levels[2]))),) + levels[3:]
            try:
                assert mt.Matroid(m.n, levels).flats_by_rank == canonical(levels)
                got = None
            except MatroidError as exc:
                got = str(exc)
            assert got == expected, levels
            outcomes[k % 2, expected and expected.split(" ", 1)[0]] += 1
        assert set(outcomes) == {
            (shared, kind) for shared in (0, 1) for kind in (None, "flats", "covers", "flat")
        }, outcomes

    def test_fresh_levels_build_the_enumerated_matroids(self, all_small_matroids):
        for m in all_small_matroids:
            fresh = tuple(tuple(frozenset(sorted(f)) for f in level) for level in m.flats_by_rank)
            assert fresh[1][0] is not m.flats(1)[0]
            got = mt.Matroid(m.n, fresh)
            assert got == m and got.flats_by_rank == m.flats_by_rank

    def test_from_lines_on_400_points_in_general_position(self):
        # validation is one pass over the rank-2 flats: no covers scan per point
        start = time.monotonic()
        m = mt.from_lines(400, [])
        assert time.monotonic() - start < 5.0
        assert len(m.flats(2)) == 400 * 399 // 2

    def test_simple_rank3_lattices_skip_the_covers_scan(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return covers_and_ranks(*args)

        covers_and_ranks = mt._covers_and_ranks
        monkeypatch.setattr(mt, "_covers_and_ranks", counted)
        for n in range(3, 8):
            mt.enumerate_simple_rank3(n)
        mt.from_lines(400, [])
        assert calls == []
        u34 = mt.uniform(3, 4).flats_by_rank
        dropped = u34[:2] + (u34[2][1:],) + u34[3:]  # {0, 1} is not a flat
        with pytest.raises(MatroidError, match=r"^covers of \[0\] do not partition the rest$"):
            mt.Matroid(4, dropped)
        assert len(calls) == 1

    def test_levels_in_canonical_order_are_not_sorted(self, monkeypatch, braid):
        # the simple rank-3 builder emits its levels in canonical order; it sorts
        # a level only to place two-element lines among the pairs
        calls = []

        def counted(flats):
            calls.append(flats)
            return canon(flats)

        canon = mt._canon
        monkeypatch.setattr(mt, "_canon", counted)
        for n in range(3, 8):
            mt.enumerate_simple_rank3(n)
        mt.from_lines(400, [])
        levels = braid.flats_by_rank
        reversed2 = levels[:2] + (levels[2][::-1],) + levels[3:]
        assert mt.Matroid(6, reversed2).flats_by_rank == levels
        assert calls == []
        assert mt.from_lines(4, [[1, 0]]).flats_by_rank == mt.uniform(3, 4).flats_by_rank
        assert len(calls) == 1
        assert mt.enumerate_simple_rank3(5)[0].flats(1) is mt.from_lines(5, []).flats(1)

    def test_canonical_levels_are_kept_as_given(self, braid):
        # a simple rank-3 lattice keeps its flats in canonical order, whatever
        # order they come in, and shares the fixed levels of every such lattice
        levels = braid.flats_by_rank
        fresh = tuple(tuple(frozenset(f) for f in level) for level in levels)
        assert fresh[1] is not levels[1]
        m = mt.Matroid(6, fresh)
        assert m.flats_by_rank == levels
        assert all(m.flats(r) is levels[r] for r in (0, 1, 3))
        m = mt.Matroid(6, tuple(tuple(reversed(level)) for level in levels))
        assert m == braid and m.flats_by_rank == levels

    def test_closure_and_rank(self, braid):
        assert braid.rank_of([0, 1]) == 2
        assert braid.rank_of([0, 4]) == 2
        assert braid.rank_of([0, 1, 2]) == 3

    def test_direct_sum(self):
        m = mt.direct_sum(mt.uniform(2, 3), mt.uniform(1, 1))
        assert m.rank == 3
        assert frozenset([0, 1, 2]) in m.flats(2)
        assert m.point_count(3) == 3

    def test_parallel_connection(self):
        m = mt.parallel_connection(2, 2)
        assert m.n == 5
        assert frozenset([0, 1, 2]) in m.flats(2)
        assert frozenset([0, 3, 4]) in m.flats(2)
        assert m.point_count(0) == 2
        assert mt.is_isomorphic(mt.parallel_connection(1, 1), mt.uniform(3, 3))


class TestCharPoly:
    def test_u34(self, u34):
        # chi = (t-1)(t^2 - 3t + 3)
        assert mt.characteristic_polynomial(u34) == (1, -4, 6, -3)
        assert mt.divide_by_t_minus_one(mt.characteristic_polynomial(u34)) == (1, -3, 3)
        assert mt.chi_bar_at_one(u34) == 1

    def test_braid(self, braid):
        # chi of the K4 graphic matroid: (t-1)(t-2)(t-3)
        assert mt.characteristic_polynomial(braid) == (1, -6, 11, -6)
        assert mt.chi_bar_at_one(braid) == 2

    def test_u33(self, u33):
        assert mt.characteristic_polynomial(u33) == (1, -3, 3, -1)
        assert mt.chi_bar_at_one(u33) == 0

    @settings(max_examples=40, deadline=None)
    @given(matroids)
    def test_whitney_oracle(self, m):
        assert mt.characteristic_polynomial(m) == whitney_char_poly(m)

    @settings(max_examples=40, deadline=None)
    @given(matroids)
    def test_line_count_formula(self, m):
        assert mt.chi_bar_at_one(m) == mt.chi_bar_at_one_from_lines(m)

    @settings(max_examples=40, deadline=None)
    @given(matroids)
    def test_covering_identity(self, m):
        # every pair of elements lies on exactly one rank-2 flat
        nn = m.n - 1
        assert nn * (nn + 1) == sum(len(f) * (len(f) - 1) for f in m.flats(2))


class TestExtension:
    def test_free_extension_of_u33(self, u33, u34):
        assert mt.is_isomorphic(mt.extend_by_line(u33), u34)

    def test_extension_through_point(self, u33):
        m = mt.extend_by_line(u33, [[0, 1]])
        assert frozenset([0, 1, 3]) in m.flats(2)
        assert frozenset([2, 3]) in m.flats(2)

    def test_extension_rejects_meeting_flats(self, braid):
        with pytest.raises(MatroidError):
            mt.extend_by_line(braid, [[0, 1, 3], [1, 2, 4]])

    @settings(max_examples=30, deadline=None)
    @given(matroids, st.randoms())
    def test_extend_then_delete(self, m, rng):
        flats = [f for f in m.flats(2)]
        rng.shuffle(flats)
        chosen = []
        for f in flats:
            if all(not (f & g) for g in chosen):
                chosen.append(f)
        chosen = chosen[: rng.randint(0, 2)]
        extended = mt.extend_by_line(m, chosen)
        assert mt.is_isomorphic(delete(extended, m.n), m)

    def test_delete_braid(self, braid):
        m = delete(braid, 5)
        assert m.n == 5
        assert sorted(len(f) for f in m.flats(2)) == [2, 2, 2, 2, 3, 3]


class TestIsomorphism:
    def test_relabeled_braid(self, braid):
        perm = [3, 0, 4, 1, 5, 2]
        lines = [[perm[x] for x in f] for f in braid.flats(2) if len(f) >= 3]
        other = mt.from_lines(6, lines)
        assert mt.is_isomorphic(braid, other)

    def test_distinguishes_configurations(self):
        a = mt.from_lines(6, [[0, 1, 2], [0, 3, 4]])
        b = mt.from_lines(6, [[0, 1, 2], [3, 4, 5]])
        assert not mt.is_isomorphic(a, b)

    def test_different_sizes(self, u33, u34):
        assert not mt.is_isomorphic(u33, u34)


class TestEnumeration:
    def test_counts(self):
        assert len(mt.enumerate_simple_rank3(3)) == 1
        assert len(mt.enumerate_simple_rank3(4)) == 5
        assert len(mt.enumerate_simple_rank3(5)) == 31

    def test_counts_up_to_seven(self, all_small_matroids):
        counts = Counter(m.n for m in all_small_matroids)
        assert counts == {3: 1, 4: 5, 5: 31, 6: 352, 7: 8389}

    def test_flats_keep_their_canonical_order(self, all_small_matroids):
        # CLI JSON and golden outputs list flats in this order: rank by rank,
        # each level by size and then by its sorted elements
        levels = [
            [[sorted(f) for f in level] for level in m.flats_by_rank]
            for m in all_small_matroids if m.n <= 6
        ]
        assert len(levels) == 389
        assert hashlib.sha256(json.dumps(levels).encode()).hexdigest() == (
            "f1fd3fcf14837f0f4e9d5b43c8f77ecea15c90cb10a8c7bd0771eb7021eb3cb2"
        )
        levels = [
            [[sorted(f) for f in level] for level in m.flats_by_rank]
            for m in all_small_matroids if m.n == 7
        ]
        assert len(levels) == 8389
        assert hashlib.sha256(json.dumps(levels).encode()).hexdigest() == (
            "1629bcd850085fff55cf64232b770edaeb4dd5a565ad025d4abf17830387dd1f"
        )
        for m in all_small_matroids:
            assert set(vars(m)) == {"n", "flats_by_rank"}
            assert all(type(f) is frozenset for f in m.all_flats())

    def test_matroids_share_their_fixed_levels(self, all_small_matroids):
        for n in range(3, 8):
            ms = [m for m in all_small_matroids if m.n == n]
            first = ms[0].flats_by_rank
            for m in ms:
                assert all(m.flats(r) is first[r] for r in (0, 1, 3))
            assert len({id(m.flats(2)) for m in ms}) == len(ms)

    def test_matroids_share_their_two_element_flats(self, all_small_matroids):
        # within one enumeration each pair of elements is one frozenset, held by
        # every matroid in which it is a flat
        for n in range(3, 8):
            shared = {}
            for m in (m for m in all_small_matroids if m.n == n):
                for f in m.flats(2):
                    if len(f) == 2:
                        assert shared.setdefault(f, f) is f
            assert len(shared) == n * (n - 1) // 2

    def test_all_simple_rank3(self):
        for m in mt.enumerate_simple_rank3(5):
            assert m.rank == 3
            assert m.is_simple()

    def test_enumeration_runs_no_full_validation(self, monkeypatch):
        calls = []

        def counted(self):
            calls.append(self.n)
            return post_init(self)

        post_init = mt.Matroid.__post_init__
        monkeypatch.setattr(mt.Matroid, "__post_init__", counted)
        counts = [len(mt.enumerate_simple_rank3(n)) for n in range(3, 8)]
        assert counts == [1, 5, 31, 352, 8389]
        assert calls == []
        # from_lines builds through the same checked builder; Matroid(...) validates
        m = mt.from_lines(7, [])
        assert calls == []
        assert mt.Matroid(7, m.flats_by_rank) == m
        assert calls == [7]

    @pytest.mark.parametrize(
        "n, lines",
        [
            (5, [[0, 1, 2], [0, 1, 3]]),  # two lines share two elements
            (5, [[0, 1, 2], [0, 1, 2]]),  # a line listed twice
            (6, [[0, 1, 2, 3], [2, 3, 4]]),
            (3, [[0, 1], [0, 1]]),  # a rank-2 level with the pair {0, 1} twice
        ],
    )
    def test_enumerated_lattices_must_partition_the_pairs(self, n, lines):
        lines = [frozenset(f) for f in lines]
        cover, count = mt._union(mt._cover(n, f) for f in lines)
        with pytest.raises(
            MatroidError, match=r"^the rank-2 flats do not partition the pairs$"
        ):
            mt._rank3(n, lines, cover, count, mt._pairs(n))

    def test_pair_cover_bits_follow_the_pair_order(self):
        # bit k of a pair cover is the k-th pair of combinations(range(n), 2)
        rng = random.Random(5)
        for n in range(2, 13):
            order = list(combinations(range(n), 2))
            for k, p in enumerate(order):
                assert mt._cover(n, p) == 1 << k
            for _ in range(20):
                f = set(rng.sample(range(n), rng.randint(0, n)))
                assert mt._cover(n, f) == sum(1 << k for k, p in enumerate(order) if set(p) <= f)
            assert mt._cover(n, range(n)) == (1 << len(order)) - 1
            assert list(mt._pairs(n)) == list(map(frozenset, order))
