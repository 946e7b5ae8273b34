"""End-to-end command line tests with byte-exact golden outputs."""

import contextlib
import copy
import errno
import io
import json
import os
import random
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tropsurf
from tropsurf import cli
from tropsurf.cosheaf_homology import MAX_F1_RANK, parse_complex

from conftest import data_path, load_data


@pytest.fixture(autouse=True)
def no_color(monkeypatch):
    monkeypatch.setenv("TROPSURF_COLOR", "0")


@pytest.fixture
def files(tmp_path):
    def write(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        return str(p)

    return write


@pytest.fixture
def u34_file(files):
    return files("u34.json", {"n": 4, "lines": []})


@pytest.fixture
def braid_file(files):
    return files(
        "braid.json",
        {"n": 6, "lines": [[0, 1, 3], [1, 2, 4], [0, 2, 5], [3, 4, 5]]},
    )


@pytest.fixture
def conic_file(files):
    return files(
        "conic.json",
        {
            "dim": 3,
            "rays": [
                {"dir": [-2, -1, 0], "weight": 1},
                {"dir": [1, 0, 1], "weight": 1},
                {"dir": [1, 1, -1], "weight": 1},
            ],
        },
    )


def run(capsys, argv):
    rc = cli.main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


class TestMatroidInfo:
    def test_golden(self, capsys, u34_file):
        rc, out, _ = run(capsys, ["matroid", "info", "--matroid", u34_file])
        assert rc == 0
        assert out == (
            "matroid on 4 elements, rank 3\n"
            "simple: yes\n"
            "rank-2 flats: {0,1} {0,2} {0,3} {1,2} {1,3} {2,3}\n"
            "characteristic polynomial: [1, -4, 6, -3]\n"
            "reduced: [1, -3, 3]\n"
            "chi-bar(1): 1\n"
            "saturated triangle: no\n"
            "missing-ray class: none\n"
        )

    def test_json(self, capsys, u34_file):
        rc, out, _ = run(
            capsys, ["matroid", "info", "--json", "--matroid", u34_file]
        )
        assert rc == 0
        payload = json.loads(out)
        assert payload["char_poly"] == [1, -4, 6, -3]
        assert payload["chi_bar_at_1"] == 1
        assert payload["missing_ray_class"] == "none"

    def test_characteristic_polynomial_is_computed_once(self, capsys, monkeypatch, braid_file):
        from tropsurf import matroid as mt

        calls, real = [], mt.characteristic_polynomial

        def counting(m):
            calls.append(m)
            return real(m)

        monkeypatch.setattr(mt, "characteristic_polynomial", counting)
        rc, out, _ = run(capsys, ["matroid", "info", "--matroid", braid_file])
        assert rc == 0
        assert "reduced: [1, -5, 6]\nchi-bar(1): 2\n" in out
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "obj, simple",
        [({"n": 1, "flats": [[[]], [[0]]]}, "yes"),
         ({"n": 3, "flats": [[[]], [[0, 1, 2]]]}, "no")],
        ids=["point", "three-parallel"],
    )
    def test_rank_one_lists_no_rank_2_flats(self, capsys, files, obj, simple):
        path = files("rank1.json", obj)
        rc, out, _ = run(capsys, ["matroid", "info", "--matroid", path])
        assert rc == 0
        assert out == (
            f"matroid on {obj['n']} elements, rank 1\n"
            f"simple: {simple}\n"
            "characteristic polynomial: [1, -1]\n"
            "reduced: [1]\n"
            "chi-bar(1): 1\n"
        )
        rc, out, _ = run(capsys, ["matroid", "info", "--json", "--matroid", path])
        assert rc == 0
        payload = json.loads(out)
        assert (payload["rank"], payload["flats"]) == (1, obj["flats"])
        assert payload["char_poly"] == [1, -1]

    def test_forty_points_in_general_position(self, capsys, files):
        # the saturated-triangle search is cubic in n, not sextic
        path = files("u3_40.json", {"n": 40, "lines": []})
        start = time.monotonic()
        rc, out, _ = run(capsys, ["matroid", "info", "--matroid", path])
        assert time.monotonic() - start < 5.0
        assert rc == 0
        assert "saturated triangle: no\n" in out


class TestFanBuild:
    def test_golden(self, capsys, braid_file):
        rc, out, _ = run(capsys, ["fan", "build", "--matroid", braid_file])
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "fan tropical plane in R^5"
        assert lines[1] == "rays: 10  cones: 15"
        assert "  ray {0,1,3} -> [0, 1, 0, 1, 1]" in lines
        assert lines[-2] == "K^2 = 5"
        assert lines[-1] == "c2 vertex multiplicity = 2"

    def test_roundtrip_through_files(self, capsys, braid_file, tmp_path):
        fan_file = str(tmp_path / "fan.json")
        rc, _, _ = run(
            capsys,
            ["fan", "build", "--json", "--out", fan_file, "--matroid", braid_file],
        )
        assert rc == 0
        rc, out, _ = run(capsys, ["fan", "reconstruct", "--fan", fan_file])
        assert rc == 0
        assert out.splitlines()[0] == "reconstructed matroid on 6 elements"
        assert "{0,1,3}" in out


class TestCycleDegree:
    def test_golden(self, capsys, conic_file, u34_file):
        rc, out, _ = run(
            capsys,
            ["cycle", "degree", "--cycle", conic_file, "--matroid", u34_file],
        )
        assert rc == 0
        assert out == (
            "cycle with 3 rays in R^3\n"
            "balanced: yes\n"
            "degree: 2\n"
            "lies in plane: yes\n"
            "  ray [-2, -1, 0] x1 ends on point [1, 2]\n"
            "  ray [1, 0, 1] x1 ends on point [0, 2]\n"
            "  ray [1, 1, -1] x1 ends on point [0, 3]\n"
        )

    def test_cycle_outside_the_plane(self, capsys, files, u34_file):
        # balanced, but (1,1,1) = -u_0 sits over {1,2,3}, not a flat of U_{3,4}
        c = files("diag.json", {"dim": 3, "rays": [{"dir": [1, 1, 1], "weight": 1},
                                                   {"dir": [-1, -1, -1], "weight": 1}]})
        argv = ["cycle", "degree", "--cycle", c, "--matroid", u34_file]
        rc, out, _ = run(capsys, argv)
        assert rc == 0
        assert out == (
            "cycle with 2 rays in R^3\n"
            "balanced: yes\n"
            "degree: 1\n"
            "lies in plane: no\n"
        )
        rc, out, _ = run(capsys, argv + ["--json"])
        assert rc == 0
        assert json.loads(out) == {"balanced": True, "degree": 1, "dim": 3, "in_plane": False}

    def test_negative_dim_rejected(self, capsys, files):
        c = files("neg.json", {"dim": -3, "rays": []})
        rc, out, err = run(capsys, ["cycle", "degree", "--cycle", c])
        assert rc == 1 and out == ""
        assert err == f"error: {c}: dim must be an integer >= 0, got -3\n"

    def test_unbalanced_reported_without_degree(self, capsys, files):
        c = files(
            "bad.json",
            {"dim": 2, "rays": [{"dir": [1, 0], "weight": 1}]},
        )
        rc, out, _ = run(capsys, ["cycle", "degree", "--cycle", c])
        assert rc == 0
        assert "balanced: no" in out
        assert "degree" not in out


class TestBezout:
    def test_golden(self, capsys, u34_file, conic_file):
        rc, out, _ = run(
            capsys,
            [
                "intersect",
                "bezout",
                "--matroid",
                u34_file,
                "--cycle",
                conic_file,
                "--cycle2",
                conic_file,
            ],
        )
        assert rc == 0
        assert out == (
            "deg C1 = 2, deg C2 = 2\n"
            "vertex multiplicity: -1\n"
            "  corner p_{0,2}: 1\n"
            "  corner p_{0,3}: 2\n"
            "  corner p_{1,2}: 2\n"
            "total = 4 (pass)\n"
        )


class TestSurfaceCheck:
    def test_golden(self, capsys, files):
        expr = files(
            "surf.json",
            {
                "selfsum": {
                    "base": {
                        "toric": {"rays": [[1, 0], [0, 1], [-1, 0], [0, -1]]}
                    },
                    "curve1": "D0",
                    "curve2": "D2",
                }
            },
        )
        rc, out, _ = run(capsys, ["surface", "check", "--expr", expr])
        assert rc == 0
        assert out == (
            "chi = 0  K^2 = 0  c2 = 0\n"
            "noether 12*chi == K^2 + c2: pass\n"
            "signature hypothesis (K^2 - 2 c2)/3 = 0\n"
            "  boundary D1: b1=0 self=0 adjunction pass\n"
            "  boundary D3: b1=0 self=0 adjunction pass\n"
        )


class TestHomology:
    def test_diamond_golden(self, capsys):
        rc, out, _ = run(
            capsys,
            ["homology", "diamond", "--complex", str(data_path("klein_bottle.json"))],
        )
        assert rc == 0
        assert out == (
            "H(2,0) = Z/2  H(2,1) = Z  H(2,2) = Z\n"
            "H(1,0) = Z + Z/2  H(1,1) = Z + Z + Z/2  H(1,2) = Z\n"
            "H(0,0) = Z  H(0,1) = Z + Z/2  H(0,2) = 0\n"
        )

    def test_pairing_golden(self, capsys):
        rc, out, _ = run(
            capsys,
            [
                "homology",
                "pairing",
                "--complex",
                str(data_path("klein_bottle.json")),
                "--cycles",
                str(data_path("klein_cycles.json")),
            ],
        )
        assert rc == 0
        assert out == (
            "         gamma  gamma1  gamma2\n"
            " gamma       0       0       1\n"
            "gamma1       0       0       0\n"
            "gamma2       1       0       0\n"
            "signature: 0\n"
        )

    @pytest.mark.parametrize("space, entries", [("torus", 4), ("klein", 9)])
    def test_pairing_pairs_each_entry_once(self, capsys, monkeypatch, space, entries):
        from tropsurf import cosheaf_homology as ch

        complex_file = data_path("klein_bottle.json" if space == "klein" else "torus.json")
        cycles_file = data_path(f"{space}_cycles.json")
        x = ch.parse_complex(load_data(complex_file.name), str(complex_file))
        named = load_data(cycles_file.name)["cycles"]
        cycles = [ch.parse_cycle(named[k], x, k) for k in sorted(named)]
        calls, real = [], ch.intersection_pairing

        def counting(c1, c2):
            calls.append((c1, c2))
            return real(c1, c2)

        monkeypatch.setattr(ch, "intersection_pairing", counting)
        rc, out, _ = run(capsys, ["homology", "pairing", "--json", "--complex",
                                  str(complex_file), "--cycles", str(cycles_file)])
        monkeypatch.undo()
        assert rc == 0
        assert len(calls) == len(cycles) ** 2 == entries
        # the table's signature is the one signature_1_1 gets by pairing again
        assert json.loads(out)["signature"] == ch.signature_1_1(cycles)

    def test_diamond_json(self, capsys):
        rc, out, _ = run(
            capsys,
            [
                "homology",
                "diamond",
                "--json",
                "--complex",
                str(data_path("torus.json")),
            ],
        )
        assert rc == 0
        payload = json.loads(out)
        assert payload["1,1"] == {"free_rank": 4, "torsion": []}


# pairs the bundled torus complex with the cycles file given last
PAIR_WITH_TORUS = [
    "homology", "pairing", "--complex", str(data_path("torus.json")), "--cycles"
]
DIAMOND = ["homology", "diamond", "--complex"]
RECONSTRUCT = ["fan", "reconstruct", "--fan"]
TWO_RAYS = [{"dir": [1, 0]}, {"dir": [0, 1]}]
TP2 = {"toric": {"rays": [[1, 0], [0, 1], [-1, -1]]}}


def _torus_cycles(edit):
    """The bundled torus cycles with ``edit`` applied to the first segment
    of cycle alpha."""
    with open(data_path("torus_cycles.json")) as fh:
        obj = json.load(fh)
    edit(obj["cycles"]["alpha"]["segments"][0])
    return obj


def _torus(edit):
    """The bundled torus complex with ``edit`` applied."""
    obj = load_data("torus.json")
    edit(obj)
    return obj


# each check of CellComplex, failed by an edited torus complex file
TORUS_COMPLEX_ERRORS = [
    (_torus(lambda x: x["incidences"][2].update(small="nope")),
     "incidences[2].small must name a cell, got 'nope'"),
    (_torus(lambda x: x["cells"].append({"id": "E2", "dim": 1})),
     "cells[6].id must be unique, got 'E2'"),
    (_torus(lambda x: x.update(f1_rank={c["id"]: 2 for c in x["cells"] if c["id"] != "F1"})),
     "f1_rank: missing key 'F1'"),
    (_torus(lambda x: x["incidences"][3].update(iota1=[[1, 0]])),
     "incidences[3].iota1 must have 2 rows of 2 entries for E2 -> x, got [[1, 0]]"),
]
TORUS_COMPLEX_IDS = ["complex-unknown-cell", "complex-repeated-cell", "complex-f1-rank-missing",
                     "complex-iota1-shape"]


class TestErrors:
    def test_domain_error_exits_1(self, capsys, files):
        bad = files("bad.json", {"n": 3, "lines": [[0, 1, 2]]})  # full set
        rc, out, err = run(capsys, ["matroid", "info", "--matroid", bad])
        assert rc == 1
        assert out == ""
        assert err.startswith("error: ")

    def test_missing_file_exits_1(self, capsys, tmp_path):
        rc, _, err = run(
            capsys, ["matroid", "info", "--matroid", str(tmp_path / "no.json")]
        )
        assert rc == 1
        assert "cannot read" in err

    @pytest.mark.parametrize(
        "argv, obj, message",
        [
            (["cycle", "degree", "--cycle"], {"dim": 3}, "missing key 'rays'"),
            (
                ["cycle", "degree", "--cycle"],
                {"dim": 3, "rays": [{"dir": [1, 0, 0]}]},
                "rays[0]: missing key 'weight'",
            ),
            (["fan", "reconstruct", "--fan"], {"dim": 3, "rays": []}, "missing key 'cones'"),
            (
                PAIR_WITH_TORUS,
                {"cycles": {}},
                "'cycles' is empty",
            ),
            (
                ["matroid", "info", "--matroid"],
                {"n": 4, "lines": [[0, 1], [1, "2", 3]]},
                "lines[1] must be a list of integer elements",
            ),
            (
                ["cycle", "degree", "--cycle"],
                {"dim": 3, "rays": [{"dir": [1, 0, 0], "weight": "x"}]},
                "rays[0].weight must be an integer, got 'x'",
            ),
            (
                ["fan", "reconstruct", "--fan"],
                {"dim": "3", "rays": [], "cones": []},
                "dim must be an integer, got '3'",
            ),
            (
                ["matroid", "info", "--matroid"],
                {"n": "x", "lines": []},
                "n must be an integer, got 'x'",
            ),
            (
                ["matroid", "info", "--matroid"],
                {"n": "x", "flats": [[[]], [[0], [1], [2]], [[0, 1, 2]]]},
                "n must be an integer, got 'x'",
            ),
            (
                ["matroid", "info", "--matroid"],
                {"n": 3, "flats": [[[]], [[0], [[1]], [2]], [[0, 1, 2]]]},
                "flats[1][1] must be a list of integer elements",
            ),
            (
                ["surface", "check", "--expr"],
                {"toric": {}},
                "toric: missing key 'rays'",
            ),
            (
                ["surface", "check", "--expr"],
                {"selfsum": {"base": {"toric": {}}, "curve1": "D0", "curve2": "D2"}},
                "selfsum.base.toric: missing key 'rays'",
            ),
            (
                PAIR_WITH_TORUS,
                _torus_cycles(lambda seg: seg.update(face="F9")),
                "cycles.alpha.segments[0]: face 'F9' is not a 2-cell",
            ),
            (
                PAIR_WITH_TORUS,
                _torus_cycles(lambda seg: seg.update(face="E1")),
                "cycles.alpha.segments[0]: face 'E1' is not a 2-cell",
            ),
            (
                PAIR_WITH_TORUS,
                _torus_cycles(lambda seg: seg.update(coeff=[0, 1, 0])),
                "cycles.alpha.segments[0]: coeff must have 2 entries, the F_1 rank of F2",
            ),
            (
                PAIR_WITH_TORUS,
                _torus_cycles(lambda seg: seg.pop("end")),
                "cycles.alpha.segments[0]: missing key 'end'",
            ),
            (
                PAIR_WITH_TORUS,
                _torus_cycles(lambda seg: seg.update(start=["x", "0"])),
                "cycles.alpha.segments[0].start must be a list of numbers",
            ),
            (DIAMOND, {"incidences": []}, "missing key 'cells'"),
            (DIAMOND, {"cells": [], "incidences": []}, "'cells' is empty"),
            (
                DIAMOND,
                {"cells": [{"id": "x", "dim": "a"}], "incidences": []},
                "cells[0].dim must be an integer, got 'a'",
            ),
            (
                DIAMOND,
                {"cells": [{"id": "x", "dim": 0}], "f1_rank": {"x": -1}, "incidences": []},
                "f1_rank.x must be an integer >= 0, got -1",
            ),
            (
                DIAMOND,
                {"cells": [{"id": "x", "dim": 0}, {"id": "E", "dim": 1}], "f1_rank": 1,
                 "incidences": [{"big": "E", "small": "x", "sign": "+", "iota1": [[1]]}]},
                "incidences[0].sign must be 1 or -1, got '+'",
            ),
            (
                DIAMOND,
                {"cells": [{"id": "x", "dim": 0}, {"id": "E", "dim": 1}], "f1_rank": 1,
                 "incidences": [{"big": "E", "small": "x", "sign": 1, "iota1": [1]}]},
                "incidences[0].iota1 must be a list of integer rows, got [1]",
            ),
            (
                ["cycle", "degree", "--cycle"],
                {"dim": 2, "rays": [{"dir": 5, "weight": 1}]},
                "rays[0].dir must be a list of integers, got 5",
            ),
            (
                ["cycle", "degree", "--cycle"],
                {"dim": 2, "rays": [{"dir": [1, 0], "weight": 1}, {"dir": [1, "x"], "weight": 1}]},
                "rays[1].dir must be a list of integers, got [1, 'x']",
            ),
            (
                ["cycle", "degree", "--cycle"],
                {"dim": 2, "rays": [{"dir": [1, 0], "weight": 1}, {"dir": [1, 0, 0], "weight": 1}]},
                "rays[1].dir has 3 entries, expected dim = 2",
            ),
            (
                ["cycle", "degree", "--cycle"],
                {"dim": 2, "rays": [{"dir": [1, 0], "weight": 1}, {"dir": [0, 0], "weight": 1}]},
                "rays[1].dir is the zero vector",
            ),
            (
                RECONSTRUCT,
                {"dim": 2, "rays": [{"dir": [1, "x"]}], "cones": []},
                "rays[0].dir must be a list of integers, got [1, 'x']",
            ),
            (
                RECONSTRUCT,
                {"dim": 2, "rays": TWO_RAYS, "cones": [1]},
                "cones[0] must be a pair of indices into rays, got 1",
            ),
            (
                RECONSTRUCT,
                {"dim": 2, "rays": TWO_RAYS, "cones": [[0]]},
                "cones[0] must be a pair of indices into rays, got [0]",
            ),
            (
                RECONSTRUCT,
                {"dim": 2, "rays": TWO_RAYS, "cones": [["a", "b"]]},
                "cones[0] must be a pair of indices into rays, got ['a', 'b']",
            ),
            (
                RECONSTRUCT,
                {"dim": 2, "rays": TWO_RAYS, "cones": [[0, 1], [0, 5]]},
                "cones[1] must be a pair of indices into rays, got [0, 5]",
            ),
            (["matroid", "info", "--matroid"], {"n": True, "lines": []},
             "n must be an integer, got True"),
            (["cycle", "degree", "--json", "--cycle"], {"dim": True, "rays": []},
             "dim must be an integer >= 0, got True"),
            (DIAMOND, json.loads(json.dumps(load_data("torus.json")).replace(
                '"sign": 1', '"sign": true')),
             "incidences[0].sign must be 1 or -1, got True"),
            (["surface", "check", "--expr"],
             {"modify": {"base": {"toric": {"rays": [[1, 0], [0, 1], [-1, -1]]}},
                         "curve": {"b1": False}, "self_intersection": 0, "id": "E"}},
             "modify.curve.b1 must be an integer, got False"),
            (["surface", "check", "--expr"],
             {"modify": {"base": {"toric": {"rays": [[1, 0], [0, 1], [-1, -1]]}},
                         "curve": {"b1": 0, "valencies": [1, 1]}, "self_intersection": -1,
                         "id": "E", "locally_degree_1": "false"}},
             "modify.locally_degree_1 must be true or false, got 'false'"),
            (["surface", "check", "--expr"],
             {"modify": {"base": {"toric": {"rays": [[1, 0], [0, 1], [-1, -1]]}},
                         "curve": {"b1": 0, "valencies": [1, 1]}, "self_intersection": -1,
                         "id": "E", "locally_degree_1": False}},
             "only locally degree-1 modifications are supported"),
            *[(DIAMOND, obj, message) for obj, message in TORUS_COMPLEX_ERRORS],
        ],
        ids=[
            "no-rays",
            "no-weight",
            "no-cones",
            "empty-cycles",
            "string-element",
            "string-weight",
            "string-dim",
            "string-n-lines",
            "string-n-flats",
            "list-in-flat",
            "toric-no-rays",
            "nested-toric-no-rays",
            "pairing-unknown-face",
            "pairing-edge-face",
            "pairing-coeff-rank",
            "pairing-no-end",
            "pairing-string-start",
            "complex-no-cells",
            "complex-empty-cells",
            "complex-string-dim",
            "complex-negative-rank",
            "complex-string-sign",
            "complex-flat-iota1",
            "cycle-int-dir",
            "cycle-string-in-dir",
            "cycle-dir-length",
            "cycle-zero-dir",
            "fan-string-in-dir",
            "fan-int-cone",
            "fan-short-cone",
            "fan-string-cone",
            "fan-cone-out-of-range",
            "bool-matroid-n",
            "bool-cycle-dim",
            "bool-complex-sign",
            "bool-surface-b1",
            "string-locally-degree-1",
            "false-locally-degree-1",
            *TORUS_COMPLEX_IDS,
        ],
    )
    def test_malformed_input_names_the_item(self, capsys, files, argv, obj, message):
        bad = files("bad.json", obj)
        rc, out, err = run(capsys, argv + [bad])
        assert rc == 1
        assert out == ""
        assert err.startswith(f"error: {bad}: ") and message in err

    @pytest.mark.parametrize("obj, message", TORUS_COMPLEX_ERRORS, ids=TORUS_COMPLEX_IDS)
    def test_complex_checks_name_the_file(self, capsys, files, obj, message):
        bad = files("bad.json", obj)
        rc, out, err = run(capsys, DIAMOND + [bad])
        assert rc == 1 and out == ""
        assert err == f"error: {bad}: {message}\n"

    @pytest.mark.parametrize(
        "obj, message",
        [
            ({"sum": {"left": TP2, "left_curve": "NOPE", "right": TP2, "right_curve": "D0"}},
             "sum: no boundary curve 'NOPE'"),
            ({"contract": {"base": TP2, "curve": "D0"}},
             "contract: contraction needs self-intersection -1"),
            ({"toric": {"rays": [[1, 0], [2, 0], [-1, -1]]}},
             "toric: ray (2, 0) is not primitive"),
            ({"modify": {"base": TP2, "curve": {"b1": 0, "valencies": [1, 1]},
                         "self_intersection": -1, "id": "E", "locally_degree_1": False}},
             "modify: only locally degree-1 modifications are supported"),
            ({"modify": {"base": TP2, "curve": {"b1": 0, "valencies": [1, 2]},
                         "self_intersection": 0, "id": "E"}},
             "modify.curve: valencies and b1 disagree: sum(val - 2) must be 2 b1 - 2"),
            ({"sum": {"left": {"contract": {"base": TP2, "curve": "D0"}}, "left_curve": "D0",
                      "right": TP2, "right_curve": "D0"}},
             "sum.left.contract: contraction needs self-intersection -1"),
        ],
        ids=["sum-unknown-curve", "contract-not-minus-one", "toric-not-primitive",
             "modify-not-degree-1", "modify-bad-curve", "nested-contract"],
    )
    def test_surface_operation_errors_name_the_node(self, capsys, files, obj, message):
        bad = files("bad.json", obj)
        rc, out, err = run(capsys, ["surface", "check", "--expr", bad])
        assert rc == 1 and out == ""
        assert err == f"error: {bad}: {message}\n"

    def test_pairing_errors_name_the_pair(self, capsys, files):
        # the diagonal pairs each cycle with itself, so a cycle bent inside
        # one 2-cell meets itself at the bend; the pairs before it are fine
        cycles = _torus_cycles(lambda seg: None)
        cycles["cycles"]["bent"] = {"segments": [
            {"face": "F1", "start": ["1/2", "1/2"], "end": ["3/4", "1/2"], "coeff": [1, 0]},
            {"face": "F1", "start": ["3/4", "1/2"], "end": ["3/4", "3/4"], "coeff": [0, 1]},
        ]}
        bad = files("cycles.json", cycles)
        rc, out, err = run(capsys, PAIR_WITH_TORUS + [bad])
        assert rc == 1 and out == ""
        assert err == (
            f"error: {bad}: cycles.bent . cycles.bent: "
            "cycles meet at a segment endpoint: perturb the representative\n"
        )

    @pytest.mark.parametrize(
        "argv, obj, location, got",
        [
            (["matroid", "info", "--matroid"], {"n": 4.5, "lines": []}, "n", "4.5"),
            (RECONSTRUCT, {"dim": 2.5, "rays": TWO_RAYS, "cones": []}, "dim", "2.5"),
            (["cycle", "degree", "--cycle"],
             {"dim": 2, "rays": [{"dir": [1, 0], "weight": 1}, {"dir": [-1, 0], "weight": 0.5}]},
             "rays[1].weight", "0.5"),
            (["surface", "check", "--expr"],
             {"sum": {"left": {"toric": {"rays": [[1, 0], [0, 1], [-1, -1]]}},
                      "left_curve": "D0", "right_curve": "E",
                      "right": {"modify": {"base": {"toric": {"rays": [[1, 0], [0, 1], [-1, -1]]}},
                                           "curve": {"b1": 0, "valencies": [1, 1]},
                                           "self_intersection": [-1], "id": "E"}}}},
             "sum.right.modify.self_intersection", "[-1]"),
            (DIAMOND, {"cells": [{"id": "v", "dim": 0}, {"id": "e", "dim": "1"}],
                       "incidences": []},
             "cells[1].dim", "'1'"),
        ],
        ids=["matroid", "fan", "cycle", "surface", "complex"],
    )
    def test_one_message_form(self, capsys, files, argv, obj, location, got):
        bad = files("bad.json", obj)
        rc, out, err = run(capsys, argv + [bad])
        assert rc == 1 and out == ""
        assert err == f"error: {bad}: {location} must be an integer, got {got}\n"

    def test_expression_past_the_recursion_limit_exits_1(self, capsys, tmp_path):
        # built as a string: json.dump itself recurses on input this deep
        leaf = '{"toric": {"rays": [[1, 0], [0, 1], [-1, -1]]}}'
        deep = tmp_path / "deep.json"
        deep.write_text('{"contract": {"curve": "D0", "base": ' * 5000 + leaf + "}}" * 5000)
        rc, out, err = run(capsys, ["surface", "check", "--expr", str(deep)])
        assert rc == 1
        assert out == ""
        assert err == f"error: {deep} is nested too deeply to read\n"

    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["matroid", "info"])  # missing --matroid
        assert exc.value.code == 2

    def test_out_writes_file(self, capsys, u34_file, tmp_path):
        out_file = tmp_path / "report.json"
        rc, out, _ = run(
            capsys,
            [
                "matroid",
                "info",
                "--json",
                "--out",
                str(out_file),
                "--matroid",
                u34_file,
            ],
        )
        assert rc == 0
        assert out == ""
        assert json.loads(out_file.read_text())["rank"] == 3

    @pytest.mark.parametrize("target, code", [("directory", errno.EISDIR),
                                              ("missing-parent", errno.ENOENT)],
                             ids=["directory", "missing-parent"])
    def test_unwritable_out_exits_1(self, capsys, u34_file, tmp_path, target, code):
        out_file = tmp_path if target == "directory" else tmp_path / "no" / "x.json"
        rc, out, err = run(capsys, ["matroid", "info", "--out", str(out_file),
                                    "--matroid", u34_file])
        assert rc == 1 and out == ""
        assert err == f"error: cannot write {out_file}: {os.strerror(code)}\n"

    def test_closed_stdout_exits_1_without_a_traceback(self, u34_file):
        src = str(Path(tropsurf.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "tropsurf.cli", "matroid", "info", "--json",
                 "--matroid", u34_file],
                stdout=write, stderr=subprocess.PIPE, env=env, text=True, timeout=60,
            )
        finally:
            os.close(write)
        assert done.returncode == 1
        assert done.stderr == ""


# the tropical line in R^4: balanced, one dimension more than U_{3,4}'s plane
LINE4 = {
    "dim": 4,
    "rays": [{"dir": d, "weight": 1} for d in
             ([1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [-1, -1, -1, -1])],
}


class TestCycleAndPlaneDimensions:
    """A cycle whose dim differs from the plane's ambient dimension exits 1
    naming both dimensions, whether it is shorter or longer."""

    @pytest.fixture(params=["shorter", "longer"])
    def mismatch(self, request, files, conic_file, braid_file, u34_file):
        if request.param == "shorter":
            return conic_file, braid_file, "cycle has dim 3, but the plane lies in R^5"
        return files("line4.json", LINE4), u34_file, "cycle has dim 4, but the plane lies in R^3"

    def test_cycle_degree(self, capsys, mismatch):
        cycle, matroid, message = mismatch
        rc, out, err = run(capsys, ["cycle", "degree", "--cycle", cycle, "--matroid", matroid])
        assert rc == 1 and out == ""
        assert err == f"error: {message}\n"

    def test_intersect_bezout(self, capsys, mismatch):
        cycle, matroid, message = mismatch
        rc, out, err = run(capsys, ["intersect", "bezout", "--matroid", matroid,
                                    "--cycle", cycle, "--cycle2", cycle])
        assert rc == 1 and out == ""
        assert err == f"error: {message}\n"


class TestWorkBoundedByInput:
    """A large dim with no rays is answered without building a basis, a
    matroid past MAX_ELEMENTS elements is refused before it is built, a
    complex past MAX_F1_RANK before any boundary matrix is built, and the
    worst complex at MAX_F1_RANK is answered promptly."""

    @pytest.fixture
    def bases(self, monkeypatch):
        from tropsurf import bergman

        built, real = [], bergman.Basis

        def counting(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(bergman, "Basis", counting)
        monkeypatch.setattr(bergman, "_STANDARD_BASES", {})
        return built

    @pytest.mark.parametrize(
        "rays, message",
        [
            ([], "an empty fan is a plane only in dimension 2"),
            ([{"dir": [1, 0]}], "rays[0] has 2 entries, expected dim = 80"),
        ],
        ids=["empty-fan", "short-ray"],
    )
    def test_fan_reconstruct(self, capsys, files, bases, rays, message):
        fan = files("fan.json", {"dim": 80, "rays": rays, "cones": []})
        rc, out, err = run(capsys, RECONSTRUCT + [fan])
        assert rc == 1 and out == ""
        assert message in err
        assert bases == []

    @pytest.mark.parametrize(
        "argv",
        [["matroid", "info", "--matroid"], ["fan", "build", "--matroid"],
         ["intersect", "bezout", "--cycle", "c.json", "--cycle2", "c.json", "--matroid"]],
        ids=["matroid-info", "fan-build", "bezout"],
    )
    @pytest.mark.parametrize("n", [101, 4000])
    def test_matroid_past_the_element_bound(self, capsys, monkeypatch, files, argv, n):
        from tropsurf import matroid

        def refuse(*args, **kwargs):  # fail fast rather than build U_{3,4000}
            raise AssertionError("a matroid past the bound was built")

        monkeypatch.setattr(matroid, "from_lines", refuse)
        m = files("big.json", {"n": n, "lines": []})
        start = time.monotonic()
        rc, out, err = run(capsys, argv + [m])
        assert time.monotonic() - start < 1.0
        assert rc == 1 and out == ""
        assert err == f"error: {m}: n must be at most {cli.MAX_ELEMENTS}, got {n}\n"

    @pytest.mark.parametrize(
        "argv, form",
        [(["matroid", "info", "--matroid"], "lines"), (["fan", "build", "--matroid"], "lines"),
         (["matroid", "info", "--matroid"], "flats")],
        ids=["matroid-info", "fan-build", "matroid-info-flats"],
    )
    def test_matroid_at_the_element_bound(self, capsys, files, argv, form):
        n = cli.MAX_ELEMENTS
        obj = {"n": n, "lines": []} if form == "lines" else {"n": n, "flats": [
            [[]], [[i] for i in range(n)], [list(p) for p in combinations(range(n), 2)],
            [list(range(n))],
        ]}
        m = files("u3_100.json", obj)
        start = time.monotonic()
        rc, out, err = run(capsys, argv + [m])
        assert time.monotonic() - start < 5.0
        assert rc == 0 and err == "" and out

    def test_fan_reconstruct_past_the_element_bound(self, capsys, files, bases):
        fan = files("fan.json", {"dim": 3999, "rays": [], "cones": []})
        start = time.monotonic()
        rc, out, err = run(capsys, RECONSTRUCT + [fan])
        assert time.monotonic() - start < 1.0
        assert rc == 1 and out == ""
        bound = cli.MAX_ELEMENTS
        assert err == (f"error: {fan}: dim must be at most {bound - 1} "
                       f"(a matroid on at most {bound} elements), got 3999\n")
        assert bases == []

    def test_cycle_past_the_element_bound(self, capsys, files, bases):
        # two rays in R^4000: a balanced cycle whose degree would need a
        # 4000 x 4000 integer inverse
        cycle = files("cycle.json", {"dim": 4000, "rays": [
            {"dir": [1] + [0] * 3999, "weight": 1}, {"dir": [-1] + [0] * 3999, "weight": 1}]})
        start = time.monotonic()
        rc, out, err = run(capsys, ["cycle", "degree", "--cycle", cycle])
        assert time.monotonic() - start < 1.0
        assert rc == 1 and out == ""
        bound = cli.MAX_ELEMENTS
        assert err == (f"error: {cycle}: dim must be at most {bound - 1} "
                       f"(a matroid on at most {bound} elements), got 4000\n")
        assert bases == []

    def test_complex_past_the_f1_rank_bound(self, capsys, files):
        # comb(26, 13) boundary rows for one vertex, were it built
        k = files("k.json", {"cells": [{"id": "a", "dim": 0}], "f1_rank": 26,
                             "incidences": []})
        start = time.monotonic()
        rc, out, err = run(capsys, ["homology", "diamond", "--complex", k])
        assert time.monotonic() - start < 5.0
        assert rc == 1 and out == ""
        assert err == f"error: {k}: f1_rank.a must be at most {MAX_F1_RANK}, got 26\n"

    def test_complex_at_the_f1_rank_bound(self, capsys, files):
        # the worst accepted file: one edge on one vertex whose transport is
        # dense with 31-digit entries, so every exterior power is dense too
        rng = random.Random(0)
        r = MAX_F1_RANK
        assert r >= 6  # admits the vertices of fan planes of 7-element matroids
        iota1 = [[rng.randint(-10**30, 10**30) for _ in range(r)] for _ in range(r)]
        k = files("k.json", {"cells": [{"id": "v", "dim": 0}, {"id": "e", "dim": 1}],
                             "f1_rank": r,
                             "incidences": [{"big": "e", "small": "v", "sign": 1,
                                             "iota1": iota1}]})
        start = time.monotonic()
        rc, out, err = run(capsys, ["homology", "diamond", "--complex", k])
        assert time.monotonic() - start < 5.0
        assert rc == 0 and err == ""

    def test_cycle_degree_without_rays(self, capsys, files, bases):
        cycle = files("cycle.json", {"dim": 80, "rays": []})
        rc, out, _ = run(capsys, ["cycle", "degree", "--json", "--cycle", cycle])
        assert rc == 0
        assert json.loads(out) == {"balanced": True, "degree": 0, "dim": 80}
        assert bases == []


class TestImportFootprint:
    """Each subcommand imports only the library layers it uses; checked in a
    fresh interpreter, since this one has imported every layer already."""

    @staticmethod
    def modules_after(code, prefix="tropsurf"):
        """The modules named ``prefix...`` loaded after running ``code`` in a
        new interpreter that imports the package under test."""
        src = str(Path(tropsurf.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src, TROPSURF_COLOR="0")
        probe = (
            code
            + "\nimport sys, json"
            + f"\nloaded = [m for m in sys.modules if m.startswith({prefix!r})]"
            + "\nprint(json.dumps(loaded))"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
        return set(json.loads(done.stdout.splitlines()[-1]))

    def test_importing_the_cli_loads_no_layer(self):
        assert self.modules_after("import tropsurf.cli") == {
            "tropsurf", "tropsurf.errors", "tropsurf.cli"
        }

    def test_surface_check_loads_only_the_surface_calculus(self, files):
        expr = files("tp2.json", {"toric": {"rays": [[1, 0], [0, 1], [-1, -1]]}})
        argv = ["surface", "check", "--expr", expr]
        code = f"import tropsurf.cli\ntropsurf.cli.main({argv!r})"
        assert self.modules_after(code) == {
            "tropsurf", "tropsurf.errors", "tropsurf.cli", "tropsurf.surface_calculus",
            "tropsurf._frozen",
        }

    @pytest.mark.parametrize("sub", [
        "matroid info", "fan build", "fan reconstruct", "cycle degree",
        "intersect bezout", "surface check", "homology diamond", "homology pairing",
    ])
    def test_no_subcommand_imports_dataclasses_or_inspect(
        self, files, u34_file, conic_file, sub
    ):
        fan_file = files("fan.json", cli.fan_to_json(
            tropsurf.bergman.build_fan(tropsurf.matroid.uniform(3, 4))
        ))
        expr = files("tp2.json", {"toric": {"rays": [[1, 0], [0, 1], [-1, -1]]}})
        inputs = {
            "matroid info": ["--matroid", u34_file],
            "fan build": ["--matroid", u34_file],
            "fan reconstruct": ["--fan", fan_file],
            "cycle degree": ["--cycle", conic_file, "--matroid", u34_file],
            "intersect bezout": [
                "--matroid", u34_file, "--cycle", conic_file, "--cycle2", conic_file
            ],
            "surface check": ["--expr", expr],
            "homology diamond": ["--complex", str(data_path("torus.json"))],
            "homology pairing": [
                "--complex", str(data_path("torus.json")),
                "--cycles", str(data_path("torus_cycles.json")),
            ],
        }
        argv = sub.split() + inputs[sub]
        code = f"import tropsurf.cli\nassert tropsurf.cli.main({argv!r}) == 0"
        loaded = self.modules_after(code, prefix="")
        assert not loaded & {"dataclasses", "inspect"}
        # and it did build the library's value classes
        assert "tropsurf._frozen" in loaded

    def test_homology_diamond_loads_no_matroid_layer(self):
        argv = ["homology", "diamond", "--complex", str(data_path("torus.json"))]
        code = f"import tropsurf.cli\ntropsurf.cli.main({argv!r})"
        loaded = self.modules_after(code)
        assert "tropsurf.cosheaf_homology" in loaded
        assert not loaded & {"tropsurf.bergman", "tropsurf.matroid"}

    def test_package_attributes_import_submodules(self):
        code = (
            "import types, tropsurf\n"
            "assert isinstance(tropsurf.bergman, types.ModuleType)\n"
            "assert tropsurf.bergman.__name__ == 'tropsurf.bergman'\n"
            "try:\n"
            "    tropsurf.nope\n"
            "except AttributeError:\n"
            "    pass\n"
            "else:\n"
            "    raise SystemExit('tropsurf.nope did not raise AttributeError')"
        )
        assert "tropsurf.bergman" in self.modules_after(code)


def test_complex_data_files_are_valid():
    # the bundled examples parse and validate on import paths used by the CLI
    for name in ("klein_bottle.json", "torus.json"):
        parse_complex(json.load(open(data_path(name))))


# -- fuzzing the input boundary ----------------------------------------------

U34 = {"n": 4, "lines": []}
CONIC = {
    "dim": 3,
    "rays": [
        {"dir": [-2, -1, 0], "weight": 1},
        {"dir": [1, 0, 1], "weight": 1},
        {"dir": [1, 1, -1], "weight": 1},
    ],
}
FIXED = {"u34.json": U34, "conic.json": CONIC}
TORUS, KLEIN = str(data_path("torus.json")), str(data_path("klein_bottle.json"))

# argv with None where the mutated file goes, and that file's unmutated
# content: a small file of each kind, and each bundled data file
FUZZ_CASES = [
    (["matroid", "info", "--matroid", None],
     {"n": 6, "lines": [[0, 1, 3], [1, 2, 4], [0, 2, 5]]}),
    (["matroid", "info", "--matroid", None], {"n": 1, "flats": [[[]], [[0]]]}),
    (["matroid", "info", "--json", "--matroid", None], {"n": 3, "flats": [[[]], [[0, 1, 2]]]}),
    (["fan", "build", "--matroid", None],
     {"n": 4, "flats": [[[]], [[0], [1], [2], [3]], [[0, 1, 2], [0, 3], [1, 3], [2, 3]],
                        [[0, 1, 2, 3]]]}),
    (["fan", "reconstruct", "--fan", None],
     {"dim": 3, "rays": [{"dir": [1, 1, 1]}, {"dir": [-1, 0, 0]}, {"dir": [0, -1, 0]},
                         {"dir": [0, 0, -1]}],
      "cones": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]}),
    (["cycle", "degree", "--matroid", "u34.json", "--cycle", None], CONIC),
    (["cycle", "degree", "--cycle", "conic.json", "--matroid", None], U34),
    (["cycle", "degree", "--matroid", "u34.json", "--cycle", None], LINE4),
    (["intersect", "bezout", "--matroid", "u34.json", "--cycle", "conic.json",
      "--cycle2", None], CONIC),
    (["surface", "check", "--expr", None],
     {"sum": {"left": {"toric": {"rays": [[1, 0], [0, 1], [-1, -1]]}}, "left_curve": "D0",
              "right": {"modify": {"base": {"toric": {"rays": [[1, 0], [0, 1], [-1, 0], [0, -1]]}},
                                   "curve": {"b1": 0, "valencies": [1, 1]},
                                   "self_intersection": -1, "id": "E"}},
              "right_curve": "E"}}),
    (["homology", "diamond", "--complex", None], load_data("torus.json")),
    (["homology", "pairing", "--complex", None, "--cycles", str(data_path("klein_cycles.json"))],
     load_data("klein_bottle.json")),
    (["homology", "pairing", "--complex", TORUS, "--cycles", None],
     load_data("torus_cycles.json")),
    (["homology", "pairing", "--complex", KLEIN, "--cycles", None],
     load_data("klein_cycles.json")),
]
SWAPS = (None, True, 3, -1, 2.5, "x", [], {}, [0, 1])


def _places(obj, path=()):
    """The path of every item in a JSON value, the value itself first."""
    yield path
    if isinstance(obj, (dict, list)):
        keys = obj if isinstance(obj, dict) else range(len(obj))
        for k in list(keys):
            yield from _places(obj[k], path + (k,))


@st.composite
def mutated(draw):
    """One of FUZZ_CASES with one to three of its items dropped, swapped for
    a value of another type, emptied or truncated."""
    argv, obj = draw(st.sampled_from(FUZZ_CASES))
    obj = copy.deepcopy(obj)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_places(obj))))
        parent = obj
        for k in path[:-1]:
            parent = parent[k]
        item = parent[path[-1]] if path else obj
        kind = draw(st.sampled_from(["drop", "swap", "empty", "truncate"]))
        if kind == "drop" and path:
            del parent[path[-1]]
            continue
        if kind in ("empty", "truncate") and isinstance(item, (dict, list)):
            keep = 0 if kind == "empty" else draw(st.integers(0, max(len(item) - 1, 0)))
            new = type(item)(list(item.items())[:keep] if isinstance(item, dict) else item[:keep])
        else:
            new = copy.deepcopy(
                draw(st.sampled_from([v for v in SWAPS if type(v) is not type(item)]))
            )
        if path:
            parent[path[-1]] = new
        else:
            obj = new
    return argv, obj


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    where = tmp_path_factory.mktemp("fuzz")
    for name, obj in FIXED.items():
        (where / name).write_text(json.dumps(obj))
    return where


@settings(max_examples=200, deadline=None)
@given(case=mutated())
def test_mutated_inputs_end_in_an_exit_code(fuzz_dir, case):
    """Any malformed input file ends with exit code 0, 1 or 2, never with
    another exception."""
    argv, obj = case
    bad = fuzz_dir / "bad.json"
    bad.write_text(json.dumps(obj))
    argv = [str(bad) if a is None else str(fuzz_dir / a) if a in FIXED else a for a in argv]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # a usage error
            assert exc.code == 2
            return
    assert rc in (0, 1)
