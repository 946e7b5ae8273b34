"""Command line interface.

    tropsurf matroid info      --matroid m.json
    tropsurf fan build         --matroid m.json [--out fan.json]
    tropsurf fan reconstruct   --fan fan.json [--out m.json]
    tropsurf cycle degree      --cycle c.json [--matroid m.json]
    tropsurf intersect bezout  --matroid m.json --cycle c1.json --cycle2 c2.json
    tropsurf surface check     --expr x.json
    tropsurf homology diamond  --complex k.json
    tropsurf homology pairing  --complex k.json --cycles cycles.json

Every subcommand accepts --json for machine-readable output and --out to
write the report to a file.  Reports are deterministic.  Exit codes:
0 success, 1 domain error (also an unwritable --out or a closed stdout),
2 usage error.  Set TROPSURF_COLOR=0 to disable ANSI colors (only
pass/fail markers are ever colored).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# Only the error types load with the CLI: each subcommand imports the
# library layers it uses in its own body, so a one-shot process loads (and
# compiles) just those.
from .errors import (
    ComplexError, CycleError, FanError, MatroidError, TropsurfError,
    field, integer, integers, integral, items,
)


def _color_enabled():
    if os.environ.get("TROPSURF_COLOR", "") == "0":
        return False
    return sys.stdout.isatty()


def _mark(ok):
    word = "pass" if ok else "fail"
    if _color_enabled():
        code = "32" if ok else "31"
        return f"\x1b[{code}m{word}\x1b[0m"
    return word


def _load(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise TropsurfError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise TropsurfError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise TropsurfError(f"{path} is nested too deeply to read") from exc


# The largest ground set a matroid file may ask for.  A 25-byte file can
# name any n, and U_{3,n} alone has n(n-1)/2 rank-2 flats (building
# U_{3,800} peaks at 134 MB traced), so a larger n is refused before
# anything is built.  No workload this tool targets goes past n = 100.
# Fan and cycle files live in R^dim for a matroid on dim + 1 elements, so
# their dim is bounded too: a basis of R^dim costs dim^2 memory.
MAX_ELEMENTS = 100


def _bounded_dim(path, dim, error):
    if dim >= MAX_ELEMENTS:
        raise error(
            f"{path}: dim must be at most {MAX_ELEMENTS - 1} "
            f"(a matroid on at most {MAX_ELEMENTS} elements), got {dim}"
        )
    return dim


def load_matroid(path):
    from . import matroid as mt

    obj = _load(path)
    if not isinstance(obj, dict) or not ("lines" in obj or "flats" in obj):
        raise MatroidError(f"{path}: matroid files need a 'lines' or 'flats' key")
    n = integer(field(obj, "n", path, MatroidError), f"{path}: n", MatroidError)
    if n > MAX_ELEMENTS:
        raise MatroidError(f"{path}: n must be at most {MAX_ELEMENTS}, got {n}")
    elements = "integer elements"
    if "lines" in obj:
        lines = items(obj["lines"], f"{path}: lines", "lines", MatroidError)
        return mt.from_lines(n, [
            integers(line, f"{path}: lines[{k}]", MatroidError, elements)
            for k, line in enumerate(lines)
        ])
    levels = tuple(
        tuple(
            frozenset(integers(f, f"{path}: flats[{r}][{k}]", MatroidError, elements))
            for k, f in enumerate(items(level, f"{path}: flats[{r}]", "flats", MatroidError))
        )
        for r, level in enumerate(items(obj["flats"], f"{path}: flats", "levels", MatroidError))
    )
    return mt.Matroid(n, levels)


def load_cycle(path):
    from . import fan_cycles

    obj = _load(path)
    listed = items(field(obj, "rays", path, CycleError), f"{path}: rays", "rays", CycleError)
    dim = integer(field(obj, "dim", path, CycleError), f"{path}: dim", CycleError, low=0)
    _bounded_dim(path, dim, CycleError)
    rays = []
    for k, r in enumerate(listed):
        where = f"{path}: rays[{k}]"
        direction = integers(field(r, "dir", where, CycleError), f"{where}.dir", CycleError)
        if len(direction) != dim:
            raise CycleError(f"{where}.dir has {len(direction)} entries, expected dim = {dim}")
        if not any(direction):
            raise CycleError(f"{where}.dir is the zero vector")
        weight = field(r, "weight", where, CycleError)
        rays.append((direction, integer(weight, f"{where}.weight", CycleError)))
    return fan_cycles.FanCycle(dim, tuple(rays))


def fan_to_json(plane):
    return {
        "dim": plane.ambient_dim,
        "rays": [
            {"flat": sorted(r.flat), "dir": list(r.direction)} for r in plane.rays
        ],
        "cones": [[c.i, c.j] for c in plane.cones],
    }


def matroid_to_json(m):
    return {
        "n": m.n,
        "flats": [[sorted(f) for f in level] for level in m.flats_by_rank],
    }


def _rank2_flats_line(m):
    return "rank-2 flats: " + " ".join(
        "{" + ",".join(map(str, sorted(f))) + "}" for f in m.flats(2)
    )


def _emit(args, payload, text_lines):
    if args.json:
        out = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        out = "\n".join(text_lines) + "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(out)
        except OSError as exc:
            raise TropsurfError(f"cannot write {args.out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(out)


# -- subcommands -------------------------------------------------------------


def cmd_matroid_info(args):
    from . import bergman
    from . import matroid as mt

    m = load_matroid(args.matroid)
    chi = mt.characteristic_polynomial(m)
    reduced = mt.divide_by_t_minus_one(chi)
    payload = matroid_to_json(m)
    payload.update(
        rank=m.rank,
        simple=m.is_simple(),
        char_poly=list(chi),
        reduced_char_poly=list(reduced),
        chi_bar_at_1=mt.poly_eval(reduced, 1),
    )
    lines = [
        f"matroid on {m.n} elements, rank {m.rank}",
        f"simple: {'yes' if payload['simple'] else 'no'}",
    ]
    if m.rank >= 2:
        lines.append(_rank2_flats_line(m))
    lines += [
        f"characteristic polynomial: {payload['char_poly']}",
        f"reduced: {payload['reduced_char_poly']}",
        f"chi-bar(1): {payload['chi_bar_at_1']}",
    ]
    if m.rank == 3 and m.is_simple():
        sat = bergman.has_saturated_triangle(m)
        cls = bergman.classify_missing_ray(m)
        payload["saturated_triangle"] = sat
        payload["missing_ray_class"] = cls.kind
        lines.append(f"saturated triangle: {'yes' if sat else 'no'}")
        lines.append(f"missing-ray class: {cls.kind}")
    _emit(args, payload, lines)


def cmd_fan_build(args):
    from . import bergman, fan_intersect

    m = load_matroid(args.matroid)
    plane = bergman.build_fan(m)
    payload = fan_to_json(plane)
    payload["degenerate_plane"] = plane.degenerate_plane
    payload["K2"] = fan_intersect.k_squared(m)
    payload["c2_vertex"] = fan_intersect.c2_point_multiplicity(m)
    lines = [
        f"fan tropical plane in R^{plane.ambient_dim}",
        f"rays: {len(plane.rays)}  cones: {len(plane.cones)}",
    ]
    for r in plane.rays:
        lines.append(
            "  ray {" + ",".join(map(str, sorted(r.flat))) + "} -> "
            + str(list(r.direction))
        )
    lines.append(f"K^2 = {payload['K2']}")
    lines.append(f"c2 vertex multiplicity = {payload['c2_vertex']}")
    _emit(args, payload, lines)


def cmd_fan_reconstruct(args):
    from . import bergman

    path = args.fan
    obj = _load(path)
    rays = []
    listed = items(field(obj, "rays", path, FanError), f"{path}: rays", "rays", FanError)
    for k, r in enumerate(listed):
        where = f"{path}: rays[{k}]"
        rays.append(integers(field(r, "dir", where, FanError), f"{where}.dir", FanError))
    cones = []
    listed = items(field(obj, "cones", path, FanError), f"{path}: cones", "cones", FanError)
    for k, c in enumerate(listed):
        if not (isinstance(c, list) and len(c) == 2
                and all(integral(i) and 0 <= i < len(rays) for i in c)):
            raise FanError(
                f"{path}: cones[{k}] must be a pair of indices into rays, got {c!r}"
            )
        cones.append((int(c[0]), int(c[1])))
    dim = integer(field(obj, "dim", path, FanError), f"{path}: dim", FanError)
    m = bergman.reconstruct_matroid(rays, cones, _bounded_dim(path, dim, FanError))
    payload = matroid_to_json(m)
    lines = [f"reconstructed matroid on {m.n} elements", _rank2_flats_line(m)]
    _emit(args, payload, lines)


def cmd_cycle_degree(args):
    from . import bergman, fan_cycles

    c = load_cycle(args.cycle)
    # a cycle without rays needs no basis, whatever its dim
    basis = bergman.standard_basis(c.dim) if c.rays else None
    balanced = fan_cycles.is_balanced(c)
    payload = {"dim": c.dim, "balanced": balanced}
    lines = [f"cycle with {len(c.rays)} rays in R^{c.dim}",
             f"balanced: {'yes' if balanced else 'no'}"]
    if balanced:
        payload["degree"] = fan_cycles.degree(c, basis)
        lines.append(f"degree: {payload['degree']}")
    if args.matroid:
        m = load_matroid(args.matroid)
        plane = bergman.build_fan(m)
        payload["in_plane"] = fan_cycles.lies_in(c, plane)
        lines.append(f"lies in plane: {'yes' if payload['in_plane'] else 'no'}")
        if payload["in_plane"]:
            # only a ray inside the plane leaves it through its boundary
            ends = []
            for d, w in c.rays:
                kind, where = fan_cycles.boundary_point(basis, m, d)
                where = where if kind == "line" else sorted(where)
                ends.append({"dir": list(d), "weight": w, "kind": kind, "at": where})
            payload["boundary"] = ends
            for e in ends:
                lines.append(
                    f"  ray {e['dir']} x{e['weight']} ends on {e['kind']} {e['at']}"
                )
    _emit(args, payload, lines)


def cmd_intersect_bezout(args):
    from . import bergman, fan_intersect

    m = load_matroid(args.matroid)
    plane = bergman.build_fan(m)
    c1 = load_cycle(args.cycle)
    c2 = load_cycle(args.cycle2)
    rep = fan_intersect.bezout(plane, c1, c2)
    payload = {
        "deg1": rep["deg1"],
        "deg2": rep["deg2"],
        "vertex": rep["vertex"],
        "corners": [
            {"flat": list(f), "multiplicity": v} for f, v in rep["corners"].items()
        ],
        "total": rep["total"],
    }
    lines = [
        f"deg C1 = {rep['deg1']}, deg C2 = {rep['deg2']}",
        f"vertex multiplicity: {rep['vertex']}",
    ]
    for f, v in rep["corners"].items():
        lines.append(f"  corner p_{{{','.join(map(str, f))}}}: {v}")
    lines.append(f"total = {rep['total']} ({_mark(rep['total'] == rep['deg1'] * rep['deg2'])})")
    _emit(args, payload, lines)


def cmd_surface_check(args):
    from . import surface_calculus as sc

    x = sc.parse_surface(_load(args.expr), args.expr)
    payload = sc.surface_report(x)
    payload["adjunction"] = [
        {"id": i, "holds": sc.adjunction_check(x, i)["holds"]} for i, _ in x.ledger
    ]
    lines = [
        f"chi = {x.chi}  K^2 = {x.k2}  c2 = {x.c2}",
        f"noether 12*chi == K^2 + c2: {_mark(payload['noether'])}",
        f"signature hypothesis (K^2 - 2 c2)/3 = {payload['signature_hypothesis']}",
    ]
    for entry in payload["boundary"]:
        adj = next(a["holds"] for a in payload["adjunction"] if a["id"] == entry["id"])
        lines.append(
            f"  boundary {entry['id']}: b1={entry['b1']} "
            f"self={entry['self_intersection']} adjunction {_mark(adj)}"
        )
    _emit(args, payload, lines)


def cmd_homology_diamond(args):
    from . import cosheaf_homology

    x = cosheaf_homology.parse_complex(_load(args.complex), args.complex)
    d = cosheaf_homology.diamond(x)
    payload = {
        f"{p},{q}": {"free_rank": h.free_rank, "torsion": list(h.torsion)}
        for (p, q), h in d.items()
    }
    lines = []
    for p in range(x.max_rank, -1, -1):
        row = "  ".join(
            f"H({p},{q}) = {d[(p, q)]}" for q in range(x.max_dim + 1)
        )
        lines.append(row)
    _emit(args, payload, lines)


def cmd_homology_pairing(args):
    from . import cosheaf_homology
    from .intlinalg import symmetric_signature

    x = cosheaf_homology.parse_complex(_load(args.complex), args.complex)
    cycles = field(_load(args.cycles), "cycles", args.cycles, ComplexError)
    if not isinstance(cycles, dict):
        raise ComplexError(
            f"{args.cycles}: cycles must be an object of named cycles, got {cycles!r}"
        )
    if not cycles:
        raise ComplexError(f"{args.cycles}: 'cycles' is empty")
    cycles = {
        name: cosheaf_homology.parse_cycle(c, x, f"{args.cycles}: cycles.{name}")
        for name, c in cycles.items()
    }
    names = sorted(cycles)

    def pairing(a, b):
        try:
            return cosheaf_homology.intersection_pairing(cycles[a], cycles[b])
        except ComplexError as exc:
            raise ComplexError(f"{args.cycles}: cycles.{a} . cycles.{b}: {exc}") from None

    table = {a: {b: pairing(a, b) for b in names} for a in names}
    # a pairing of single cycles is symmetric (swapping them flips the signs
    # of both determinants), so the table is the Gram matrix of
    # signature_1_1 and need not be paired again
    sig = symmetric_signature([[table[a][b] for b in names] for a in names])
    payload = {"pairing": table, "signature": sig}
    width = max(len(n) for n in names)
    lines = [" " * (width + 2) + "  ".join(n.rjust(width) for n in names)]
    for a in names:
        lines.append(
            a.rjust(width) + "  "
            + "  ".join(str(table[a][b]).rjust(width) for b in names)
        )
    lines.append(f"signature: {sig}")
    _emit(args, payload, lines)


# -- wiring ------------------------------------------------------------------

# verb -> (help, {subcommand: (required options, optional options)}), in the
# order `--help` lists them.  The handler of `verb sub` is cmd_<verb>_<sub>,
# looked up when the parser is built, so a rebound module attribute (a
# tracing wrapper, say) is the one called.
COMMANDS = {
    "matroid": ("matroid queries", {"info": (("--matroid",), ())}),
    "fan": ("fan tropical planes", {"build": (("--matroid",), ()), "reconstruct": (("--fan",), ())}),
    "cycle": ("fan 1-cycles", {"degree": (("--cycle",), ("--matroid",))}),
    "intersect": ("intersection numbers", {"bezout": (("--matroid", "--cycle", "--cycle2"), ())}),
    "surface": ("surface invariant calculus", {"check": (("--expr",), ())}),
    "homology": ("cosheaf homology", {
        "diamond": (("--complex",), ()), "pairing": (("--complex", "--cycles"), ()),
    }),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tropsurf",
        description="fan tropical planes, tropical surface invariants, "
        "and cellular cosheaf homology",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="JSON output")
    common.add_argument("--out", metavar="PATH", help="write the report to a file")
    verbs = parser.add_subparsers(dest="verb", required=True)
    for verb, (help_text, subs) in COMMANDS.items():
        p = verbs.add_parser(verb, help=help_text).add_subparsers(dest="sub", required=True)
        for sub, (required, optional) in subs.items():
            q = p.add_parser(sub, parents=[common])
            for option in required:
                q.add_argument(option, required=True)
            for option in optional:
                q.add_argument(option)
            q.set_defaults(func=globals()[f"cmd_{verb}_{sub}"])
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout.  Python's SIGPIPE recipe: point stdout at
        # devnull so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except TropsurfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
