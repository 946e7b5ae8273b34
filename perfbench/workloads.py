"""The three closed-loop workloads.

Each workload is driven by one caller in one process: the next operation
starts only when the previous one has returned and been checked.  The
library is a batch tool, so no request ever arrives unasked and an open
loop would model nothing real.  A workload has

  setup(lib, rng, work_dir) -> state   inputs, enumeration and warm-up
  items(state)                          endless stream of operation inputs
  op(state, item) -> result             one unit a user would ask for
  check(state, item, result) -> bool    independent check of the result

Items are drawn outside the timed window; op and check run inside it.
``tail_percentile`` is the percentile reported as ``latency_tail_ms``
(lowered at run time if fewer than 10 samples lie beyond it),
``round_ops`` the number of operations in a round (see
``run.fastest_rounds``), and ``trace_ops`` the fixed number of operations
a traced run covers.
"""

from __future__ import annotations

import gzip
import itertools
import json
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import inputs

ONESHOT = Path(__file__).resolve().parent / "oneshot.py"
WARMUP_OPS = 3


class ExhaustiveRoundtrip:
    name = "exhaustive_roundtrip"
    why = (
        "The reconstruction theorem run exhaustively over rank-3 matroids on "
        "n <= 7 elements: bergman, matroid and the solve/det kernel, with "
        "only five ambient dimensions shared by every input."
    )
    sizes = {"n": "3..7", "rank": 3, "order": "seeded permutation of the enumeration"}
    tail_percentile = 99.0
    trace_ops = 500
    round_ops = 100

    def setup(self, lib, rng, work_dir):
        sample = inputs.matroid_sample(lib.mt, rng)
        state = SimpleNamespace(lib=lib, sample=sample)
        for m in sample[-WARMUP_OPS:]:
            self.op(state, m)
        return state

    def items(self, state):
        return itertools.cycle(state.sample)

    def op(self, state, m):
        bg, mt, fi = state.lib.bg, state.lib.mt, state.lib.fi
        plane = bg.build_fan(m)
        rec = bg.reconstruct_matroid(
            [r.direction for r in plane.rays], [(c.i, c.j) for c in plane.cones], m.n - 1
        )
        return (
            mt.is_isomorphic(rec, m),
            (fi.k_squared(m), fi.k_squared_local(m)),
            (fi.c2_point_multiplicity(m), fi.c2_point_multiplicity_local(m)),
        )

    def check(self, state, m, result):
        iso, (k2, k2_local), (c2, c2_local) = result
        return iso is True and k2 == k2_local and c2 == c2_local


class BezoutPairs:
    name = "bezout_pairs"
    why = (
        "Bezout on random balanced 1-cycle pairs in seven library planes: "
        "lies_in -> contains_direction -> solve and positive_decomposition, "
        "with very few planes serving every query."
    )
    sizes = {
        "planes": "u34 u35 braid pc22 pc23 line_times_r star7",
        "generators_per_cycle": "1..3",
        "generator_weights": "-2 -1 1 1 2",
        "pairs_generated_in_setup": 504,
    }
    tail_percentile = 98.0
    trace_ops = 200
    round_ops = 42  # six turns of the seven planes

    def setup(self, lib, rng, work_dir):
        planes = {
            name: lib.bg.build_fan(m)
            for name, m in inputs.library_matroids(lib.mt).items()
        }
        state = SimpleNamespace(lib=lib, planes=planes, rng=rng)
        state.gens = {n: inputs.cycle_generators(lib.fc, p) for n, p in planes.items()}
        for item in self._pairs(state, WARMUP_OPS):
            self.op(state, item)
        state.first = self._pairs(state, self.sizes["pairs_generated_in_setup"])
        return state


    def _pairs(self, state, count):
        """count seeded pairs; the planes take turns, so every round of
        operations has the same mix of planes."""
        names = sorted(state.planes)
        out = []
        for k in range(count):
            name = names[k % len(names)]
            plane, gens = state.planes[name], state.gens[name]
            c1 = inputs.random_cycle(state.lib.fc, plane, state.rng, gens)
            c2 = inputs.random_cycle(state.lib.fc, plane, state.rng, gens)
            out.append((name, c1, c2))
        return out

    def items(self, state):
        yield from state.first
        while True:
            yield from self._pairs(state, 7 * 12)

    def op(self, state, item):
        name, c1, c2 = item
        return state.lib.fi.bezout(state.planes[name], c1, c2)

    def check(self, state, item, rep):
        # the total is deg1 * deg2 by construction, so also require the
        # corner multiplicities to be symmetric in the two cycles
        name, c1, c2 = item
        swapped = state.lib.fi.corner_multiplicities(state.planes[name], c2, c1)
        return rep["total"] == rep["deg1"] * rep["deg2"] and rep["corners"] == {
            tuple(sorted(f)): v for f, v in swapped.items()
        }


class CliOneshot:
    name = "cli_oneshot"
    why = (
        "One fresh tropsurf process per operation, all 8 subcommands in turn "
        "on bundled and seeded inputs: cli and surface_calculus, dominated by "
        "start-up, import, JSON parsing and output."
    )
    CASES_PER_COMMAND = 6
    sizes = {
        "cases_per_subcommand": CASES_PER_COMMAND,
        "matroids": "random simple rank 3, n 5..7",
        "surface_ops": 4,
        "homology": "bundled torus and Klein bottle, seeded 2x2 grids",
    }
    tail_percentile = 85.0
    trace_ops = 16
    round_ops = 8
    rss_of_children = True  # peak_rss_mb is that of the largest one-shot process

    def setup(self, lib, rng, work_dir):
        work_dir.mkdir(parents=True, exist_ok=True)
        state = SimpleNamespace(lib=lib, dir=work_dir, tracer=None, op_id=0)
        files = itertools.count()

        def write(obj):
            path = work_dir / f"in{next(files)}.json"
            path.write_text(json.dumps(obj))
            return str(path)

        builders = [
            _case_matroid_info, _case_fan_build, _case_fan_reconstruct,
            _case_cycle_degree, _case_intersect_bezout, _case_surface_check,
            _case_homology_diamond, _case_homology_pairing,
        ]
        planes = {
            name: lib.bg.build_fan(m)
            for name, m in inputs.library_matroids(lib.mt).items()
        }
        per_command = [
            [build(lib, rng, write, planes, i) for i in range(self.CASES_PER_COMMAND)]
            for build in builders
        ]
        # all subcommands take turns
        state.cases = [case for row in zip(*per_command) for case in row]
        self.op(state, state.cases[-1])
        return state

    def items(self, state):
        return itertools.cycle(state.cases)

    def op(self, state, case):
        argv, _, _ = case
        cmd = [sys.executable, str(ONESHOT)]
        trace_file = None
        if state.tracer is not None:
            trace_file = state.dir / f"trace-{state.op_id}.json.gz"
            cmd += ["--trace", str(trace_file), "--op", str(state.op_id)]
        cmd += ["--"] + argv + ["--json"]
        t0 = perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        wall = perf_counter() - t0
        if trace_file is not None:
            state.tracer.counters["cli_process_wall_s"] += wall
            with gzip.open(trace_file, "rt") as fh:
                state.tracer.merge(json.load(fh))
            trace_file.unlink()
        return proc.returncode, proc.stdout

    def check(self, state, case, result):
        _, project, expected = case
        code, out = result
        if code != 0:
            return False
        try:
            return project(json.loads(out)) == expected
        except (ValueError, KeyError, TypeError):
            return False


# -- CLI cases: (argv, projection of the --json payload, expected value) -------
#
# Expected values come from the library, computed in-process during set-up,
# through a different route than the CLI takes where the library has one.


def _flats(m):
    return [[sorted(f) for f in level] for level in m.flats_by_rank]


def _random_matroid(lib, rng):
    return inputs.random_matroid(lib.mt, rng, rng.randint(5, 7))


def _matroid_file(write, m):
    return write({"n": m.n, "lines": inputs.big_lines(m)})


def _case_matroid_info(lib, rng, write, planes, i):
    m = _random_matroid(lib, rng)
    argv = ["matroid", "info", "--matroid", _matroid_file(write, m)]
    expected = (
        m.n, 3, True, lib.mt.chi_bar_at_one_from_lines(m),
        lib.bg.classify_missing_ray(m).kind, _flats(m),
    )

    def project(p):
        return (p["n"], p["rank"], p["simple"], p["chi_bar_at_1"],
                p["missing_ray_class"], p["flats"])

    return argv, project, expected


def _case_fan_build(lib, rng, write, planes, i):
    m = _random_matroid(lib, rng)
    plane = lib.bg.build_fan(m)
    argv = ["fan", "build", "--matroid", _matroid_file(write, m)]
    expected = (
        sorted(list(r.direction) for r in plane.rays), len(plane.cones),
        lib.fi.k_squared_local(m), lib.fi.c2_point_multiplicity_local(m),
    )

    def project(p):
        return (sorted(r["dir"] for r in p["rays"]), len(p["cones"]), p["K2"], p["c2_vertex"])

    return argv, project, expected


def _case_fan_reconstruct(lib, rng, write, planes, i):
    m = _random_matroid(lib, rng)
    plane = lib.bg.build_fan(m)
    # the fan is given in the standard basis, so the reconstruction must
    # return the very matroid it came from, labels included
    argv = ["fan", "reconstruct", "--fan", write(lib.cli.fan_to_json(plane))]
    return argv, (lambda p: p["flats"]), _flats(m)


def _case_cycle_degree(lib, rng, write, planes, i):
    names = sorted(planes)
    name = names[i % len(names)]
    plane = planes[name]
    gens = inputs.cycle_generators(lib.fc, plane)
    c = inputs.random_cycle(lib.fc, plane, rng, gens)
    argv = [
        "cycle", "degree", "--cycle", write(inputs.cycle_to_json(c)),
        "--matroid", _matroid_file(write, plane.matroid),
    ]
    degree = lib.fc.degree(c, lib.bg.standard_basis(c.dim))
    return argv, (lambda p: (p["balanced"], p["degree"], p["in_plane"])), (True, degree, True)


def _case_intersect_bezout(lib, rng, write, planes, i):
    names = sorted(planes)
    name = names[i % len(names)]
    plane = planes[name]
    gens = inputs.cycle_generators(lib.fc, plane)
    c1 = inputs.random_cycle(lib.fc, plane, rng, gens)
    c2 = inputs.random_cycle(lib.fc, plane, rng, gens)
    argv = [
        "intersect", "bezout", "--matroid", _matroid_file(write, plane.matroid),
        "--cycle", write(inputs.cycle_to_json(c1)), "--cycle2", write(inputs.cycle_to_json(c2)),
    ]
    rep = lib.fi.bezout(plane, c1, c2)
    expected = (
        rep["deg1"], rep["deg2"], rep["deg1"] * rep["deg2"],
        sorted([list(f), v] for f, v in rep["corners"].items()),
    )

    def project(p):
        return (p["deg1"], p["deg2"], p["total"],
                sorted([c["flat"], c["multiplicity"]] for c in p["corners"]))

    return argv, project, expected


def _case_surface_check(lib, rng, write, planes, i):
    expr, (chi, k2, c2) = inputs.random_surface_expr(lib.sc, rng)
    ids = [j for j, _ in lib.sc.parse_surface(expr).ledger]
    expected = (chi, k2, c2, True, (k2 - 2 * c2) // 3, ids, True)

    def project(p):
        return (p["chi"], p["K2"], p["c2"], p["noether"], p["signature_hypothesis"],
                [b["id"] for b in p["boundary"]], all(a["holds"] for a in p["adjunction"]))

    return ["surface", "check", "--expr", write(expr)], project, expected


def _case_homology_diamond(lib, rng, write, planes, i):
    kind = ("torus", "klein_bottle")[i % 2]
    bundled = lib.data_dir / f"{kind}.json"
    if i % 4 < 2:
        path = str(bundled)
    else:
        path = write(inputs.grid_complex(rng, kind, 2, 2))
    x = lib.ch.parse_complex(json.loads(bundled.read_text()))
    expected = {
        f"{p},{q}": {"free_rank": h.free_rank, "torsion": list(h.torsion)}
        for (p, q), h in lib.ch.diamond(x).items()
    }
    return ["homology", "diamond", "--complex", path], (lambda p: p), expected


def _case_homology_pairing(lib, rng, write, planes, i):
    kind, cycles = (("torus", "torus_cycles"), ("klein_bottle", "klein_cycles"))[i % 2]
    cpath = lib.data_dir / f"{cycles}.json"
    parsed = {
        n: lib.ch.parse_cycle(c) for n, c in json.loads(cpath.read_text())["cycles"].items()
    }
    names = sorted(parsed)
    table = {
        a: {b: lib.ch.intersection_pairing(parsed[a], parsed[b]) for b in names}
        for a in names
    }
    sig = lib.ch.signature_1_1([parsed[n] for n in names])
    argv = ["homology", "pairing", "--complex", str(lib.data_dir / f"{kind}.json"),
            "--cycles", str(cpath)]
    return argv, (lambda p: (p["pairing"], p["signature"])), (table, sig)


WORKLOADS = {w.name: w for w in (ExhaustiveRoundtrip(), BezoutPairs(), CliOneshot())}
