"""End-to-end command line tests with byte-exact golden outputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tropsurf
from tropsurf import cli
from tropsurf.cosheaf_homology import parse_complex

from conftest import data_path


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


def _torus_cycles(edit):
    """The bundled torus cycles with ``edit`` applied to the first segment
    of cycle alpha."""
    with open(data_path("torus_cycles.json")) as fh:
        obj = json.load(fh)
    edit(obj["cycles"]["alpha"]["segments"][0])
    return obj


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
                "rays[0]: weight must be an integer, got 'x'",
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
                "cycles.alpha.segments[0]: start must be a list of numbers",
            ),
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
        ],
    )
    def test_malformed_input_names_the_item(self, capsys, files, argv, obj, message):
        bad = files("bad.json", obj)
        rc, out, err = run(capsys, argv + [bad])
        assert rc == 1
        assert out == ""
        assert err.startswith("error: ") and message in err

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


class TestImportFootprint:
    """Each subcommand imports only the library layers it uses; checked in a
    fresh interpreter, since this one has imported every layer already."""

    @staticmethod
    def modules_after(code):
        """The ``tropsurf`` modules loaded after running ``code`` in a new
        interpreter that imports the package under test."""
        src = str(Path(tropsurf.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src, TROPSURF_COLOR="0")
        probe = (
            code
            + "\nimport sys, json"
            + "\nloaded = [m for m in sys.modules if m.startswith('tropsurf')]"
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
            "tropsurf", "tropsurf.errors", "tropsurf.cli", "tropsurf.surface_calculus"
        }

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
