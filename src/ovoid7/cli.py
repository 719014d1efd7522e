"""Command-line interface.

Exit codes: 0 the checked property holds, 1 it fails, 2 usage or parse
error, 3 unsupported parameters.  Every JSON report embeds a manifest
(command line, field, modulus, construction choices, version); timing
lives in dedicated *_ms keys, zeroed by --no-timing so reruns are
byte-identical.  Each command takes (args, field) and returns (report,
manifest choices, whether the checked property holds); `main` alone reads
the field and the clock, appends the manifest, emits and picks the exit code.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import time
from typing import List, Optional

from . import __version__
from .errors import OvoidError, ParseError, Unsupported
from .ff import ExtCtx, TowerElem, parse_field_spec
from .quadric import OvoidSpec, kerdock_check, kerdock_set, verify_ovoid
from . import families as fam
from . import hypersurface as hyp
from . import search as srch

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_UNSUPPORTED = 3

SCHEMAS = {
    "construct": {"family": "str", "q": "int", "degree": "int",
                  "spec_lines": "[3 polynomial strings]", "manifest": "manifest"},
    "verify": {
        "is_ovoid": "bool",
        "witness": "[[x1,y1,z1],[x2,y2,z2]] | null",
        "pairs_checked": "int",
        "route": '"difference" | "line" | "pair-scan"',
        "elapsed_ms": "float",
        "q": "int",
        "degree": "int",
        "manifest": "manifest",
    },
    "build": {"degree": "int", "terms": "int", "diagonal_vanishes": "bool",
              "polynomial": "str", "manifest": "manifest"},
    "scan": {"total": "int", "off_diagonal": "int", "witness": "pair | null",
             "route": '"difference" | "line" | "pair-scan"', "elapsed_ms": "float",
             "manifest": "manifest"},
    "plane-check": {"residual_zero": "bool", "residual_terms": "int",
                    "alpha": "[int]", "beta": "[int]", "manifest": "manifest"},
    "quadric-check": {"residual_zero": "bool", "residual_terms": "int",
                      "witness": "{QR, QS, LR, MR, NR: [int], k: int | null, "
                                 "xi: [int] | null}",
                      "solved_entries": "object", "manifest": "manifest"},
    "search": {"candidates_tested": "int", "ovoids_found": "int",
               "specs": "[3-line polynomial strings]",
               "candidate_indices": "[int]", "truncated": "bool",
               "elapsed_ms": "float", "manifest": "manifest"},
    "bounds": {"r": "int", "d": "int", "q": "int", "center": "int",
               "lw_radius": "float", "cm_radius": "float",
               "applicable": "bool", "threshold_ok": "bool",
               "lang_weil_constant": "str", "manifest": "manifest"},
    "kerdock": {"all_differences_nonsingular": "bool", "matrices": "int", "q": "int",
                "manifest": "manifest"},
    "manifest": {"command": "str", "field": "p^h", "modulus": "str",
                 "choices": "object", "package": "str", "version": "str",
                 "wall_time_ms": "float"},
}


def _default_threads() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _thread_count(text: str) -> int:
    """--threads: a whole number of workers, at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _manifest(args, ctx, choices: Optional[dict] = None) -> dict:
    return {
        "command": " ".join(args._argv),
        "field": ctx.name,
        "modulus": ctx.modulus_text(),
        "choices": choices or {},
        "package": "ovoid7",
        "version": __version__,
        "wall_time_ms": 0.0,
    }


def _emit(args, report: dict, seconds: float) -> None:
    if not args.no_timing:
        report["manifest"]["wall_time_ms"] = round(seconds * 1000.0, 3)
    elif "elapsed_ms" in report:
        report["elapsed_ms"] = 0.0
    text = json.dumps(report, indent=2)
    if args.out:
        _write_file(args.out, text + "\n", "report")
    print(text)


def _write_file(path: str, text: str, kind: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(f"cannot write {kind} file: {exc}") from None


def _load_spec(path: str, ctx) -> OvoidSpec:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read spec file: {exc}") from None
    if len(lines) != 3:
        raise ParseError(f"spec file must hold exactly 3 polynomials, got {len(lines)}")
    return OvoidSpec.from_lines(ctx, lines)


def _parse_params(pairs: List[str]) -> dict:
    out = {}
    for item in pairs or []:
        if "=" not in item:
            raise ParseError(f"--param expects name=value, got {item!r}")
        name, val = item.split("=", 1)
        name = name.strip()
        if name in out:
            raise ParseError(f"--param {name} is given twice")
        out[name] = val.strip()
    return out


def _param_int(params, name, limit=None, default=0):
    """Integer parameter `name`; given a `limit`, it must lie in [0, limit)."""
    raw = params.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ParseError(f"parameter {name} must be an integer, got {raw!r}") from None
    if limit is not None and not 0 <= value < limit:
        raise ParseError(f"parameter {name} {value} outside [0, {limit})")
    return value


def _parse_tower_elem(ext: ExtCtx, name: str, text: str) -> TowerElem:
    return TowerElem(ext, ext.parse_element(text, f"parameter {name}"))


# the --param names each family reads; every family also accepts all=0
FAMILY_PARAMS = {"kantor-even": ("alpha", "beta"), "thas-kantor": ("mu",),
                 "famiglia1": ("eps", "C4", "D4", "a010", "b100", "a100"),
                 "famiglia2": ("C4", "D4", "c001", "c010", "b001")}


def _construct(ctx, family: str, params: dict) -> tuple:
    """Returns (spec, choices dict for the manifest)."""
    if params.pop("all", "0") != "0":
        raise ParseError("--param all= only supports 0")
    known = FAMILY_PARAMS.get(family, ())
    unknown = [name for name in params if name not in known]
    if unknown:
        raise ParseError(f"family {family} has no parameter {', '.join(unknown)}; "
                         f"known: {', '.join(known) or 'none'}")
    if family == "kantor-simple":
        return fam.kantor_simple(ctx), {}
    if family == "kantor-even":
        ext = ExtCtx(ctx, 3)
        if "alpha" in params or "beta" in params:
            alpha = _parse_tower_elem(ext, "alpha", params.get("alpha", "[0,1,0]"))
            beta = _parse_tower_elem(ext, "beta", params.get("beta", "[0,0,1]"))
            basis = hyp.HyperplaneWitness(ext, alpha, beta)
        else:
            basis = fam.default_tower_basis(ctx)
        choices = {"alpha": list(basis.alpha.coords), "beta": list(basis.beta.coords),
                   "extension_modulus": list(basis.ext.modulus)}
        return fam.kantor_even(basis), choices
    if family == "thas-kantor":
        mu = _param_int(params, "mu", ctx.q)
        if not mu:
            mu = next(m for m in range(1, ctx.q) if not ctx.is_square(m))
        return fam.thas_kantor(ctx, mu), {"mu": mu}
    if family == "ree-tits":
        return fam.ree_tits(ctx), {}
    if family == "dye":
        return fam.dye(ctx), {}
    if family == "kantor-2mod3":
        return fam.kantor_2mod3(ctx), {}
    if family == "famiglia1":
        p = fam.Famiglia1Params(
            epsilon=_param_int(params, "eps", default=1),
            **{k: _param_int(params, k, ctx.q) for k in FAMILY_PARAMS[family] if k != "eps"})
        return fam.famiglia1(ctx, p), {"params": dataclasses.asdict(p)}
    if family == "famiglia2":
        p = fam.Famiglia2Params(
            **{k: _param_int(params, k, ctx.q) for k in FAMILY_PARAMS[family]})
        return fam.famiglia2(ctx, p), {"params": dataclasses.asdict(p)}
    raise ParseError(f"unknown family {family!r}; known: {', '.join(fam.FAMILY_NAMES)}")


def cmd_construct(args, ctx) -> tuple:
    spec, choices = _construct(ctx, args.family, _parse_params(args.param))
    lines = spec.render_lines()
    if args.spec_out:
        _write_file(args.spec_out, "\n".join(lines) + "\n", "spec")
    return {"family": args.family, "q": ctx.q, "degree": spec.degree,
            "spec_lines": lines}, choices, True


def cmd_verify(args, ctx) -> tuple:
    rep = verify_ovoid(_load_spec(args.spec, ctx), threads=args.threads)
    return rep.to_json_dict(), None, rep.is_ovoid


def _read_json(path: str, kind: str) -> dict:
    """The JSON object held in a witness or mask file; an object at any depth
    that repeats a key is a ParseError, not a silent last-one-wins."""
    def unique_keys(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ParseError(f"{kind} file {path} repeats key {key!r}")
            obj[key] = value
        return obj

    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=unique_keys)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read {kind} file: {exc}") from None
    if not isinstance(data, dict):
        raise ParseError(f"{kind} file {path} does not hold a JSON object")
    return data


def _int_list(data: dict, key: str, length: int, path: str, limit: int) -> tuple:
    """`data[key]` as `length` integers in [0, limit); a missing key, another
    length or any other entry is a ParseError naming the file and the key."""
    val = data.get(key)
    if not (isinstance(val, list) and len(val) == length and all(type(v) is int for v in val)):
        raise ParseError(f"witness file {path}: {key!r} must be a list of {length} integers")
    if not all(0 <= v < limit for v in val):
        raise ParseError(f"witness file {path}: {key!r} has an entry outside [0, {limit})")
    return tuple(val)


def _plane_check(args, ctx, spec) -> tuple:
    ext_degree = hyp.hyperplane_count(spec.degree)   # refuses before any extension is built
    ext = ExtCtx(ctx, ext_degree)
    if args.witness and args.witness != "default-basis":
        data = _read_json(args.witness, "witness")
        alpha, beta = (ext.element(_int_list(data, key, ext_degree, args.witness, ctx.q))
                       for key in ("alpha", "beta"))
    else:
        t = ext.gen()
        alpha, beta = t, t * t
    residual = hyp.hyperplane_product_residual(spec, hyp.HyperplaneWitness(ext, alpha, beta))
    report = {"residual_zero": residual.is_zero(), "residual_terms": len(residual.terms),
              "alpha": list(alpha.coords), "beta": list(beta.coords)}
    return report, {"extension_degree": ext_degree}, residual.is_zero()


def _quadric_check(args, ctx, spec) -> tuple:
    record = {}
    if args.witness and args.witness != "solve":
        path = args.witness
        data = _read_json(path, "witness")
        xi = data.get("xi")
        if xi is not None:
            xi = ExtCtx(ctx, 2).element(_int_list(data, "xi", 2, path, ctx.q))
        k = data.get("k")
        if k is not None and not (type(k) is int and 0 <= k < ctx.q):
            raise ParseError(f"witness file {path}: 'k' must be an integer or null; "
                             f"an integer must lie in [0, {ctx.q})")
        w = hyp.QuadricWitness(ctx=ctx, k=k, xi=xi, **{
            key: _int_list(data, key, length, path, ctx.q)
            for key, length in (("QR", 6), ("QS", 6), ("LR", 4), ("MR", 4), ("NR", 4))})
    else:
        w = hyp.solve_quadric_witness(spec, record)
    residual = hyp.quadric_product_residual(spec, w)
    return {
        "residual_zero": residual.is_zero(),
        "residual_terms": len(residual.terms),
        "witness": {
            "QR": list(w.QR), "QS": list(w.QS), "LR": list(w.LR),
            "MR": list(w.MR), "NR": list(w.NR), "k": w.k,
            "xi": list(w.xi.coords) if w.xi else None,
        },
        "solved_entries": record,
    }, None, residual.is_zero()


# the options each hypersurface action reads; any other one is refused
# rather than silently ignored
HYPERSURFACE_OPTIONS = {"build": ("spec",), "scan": ("spec",), "plane-check": ("spec", "witness"),
                        "quadric-check": ("spec", "witness"), "bounds": ("r", "d")}


def cmd_hypersurface(args, ctx) -> tuple:
    for name in ("spec", "witness", "r", "d"):
        if getattr(args, name) is not None and name not in HYPERSURFACE_OPTIONS[args.action]:
            raise ParseError(f"argument --{name}: not allowed with --action {args.action}")
    if args.action == "bounds":
        if args.r is None or args.d is None:
            raise ParseError("bounds needs --r and --d")
        return hyp.bound_report(args.r, args.d, ctx.q).to_json_dict(), None, True
    if not args.spec:
        raise ParseError(f"action {args.action} needs --spec")
    spec = _load_spec(args.spec, ctx)
    if args.action == "build":
        F = hyp.build_F(spec)
        diag_zero = hyp.diagonal_restriction(F).is_zero()
        return {"degree": F.degree(), "terms": len(F.terms), "diagonal_vanishes": diag_zero,
                "polynomial": F.render()}, None, diag_zero
    if args.action == "scan":
        rep = hyp.affine_point_scan(spec, threads=args.threads)
        return rep.to_json_dict(), None, rep.off_diagonal == 0
    check = _plane_check if args.action == "plane-check" else _quadric_check
    return check(args, ctx, spec)


def cmd_search(args, ctx) -> tuple:
    if args.max_listed < 0:
        raise ParseError(f"--max-listed must be at least 0, got {args.max_listed}")
    if args.budget < 0:
        raise ParseError(f"--budget must be at least 0, got {args.budget}")
    restriction = _read_json(args.mask, "mask") if args.mask else args.restriction or "full"
    cfg = srch.SearchConfig(ctx, max_degree=args.max_degree,
                            restriction=restriction, budget=args.budget)
    res = srch.exhaustive_triple_search(cfg)
    choices = {"max_degree": args.max_degree, "restriction": restriction, "budget": args.budget}
    return res.to_json_dict(max_listed=args.max_listed), choices, bool(res.found_indices)


def cmd_kerdock(args, ctx) -> tuple:
    if args.spec and args.param:
        raise ParseError("argument --param: not allowed with argument --spec")
    if args.spec:
        spec = _load_spec(args.spec, ctx)
    elif args.family:
        spec, _ = _construct(ctx, args.family, _parse_params(args.param))
    else:
        raise ParseError("kerdock needs --spec or --family")
    mats = kerdock_set(spec)
    ok = kerdock_check(mats, threads=args.threads)
    return {"all_differences_nonsingular": ok, "matrices": len(mats), "q": ctx.q}, None, ok


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ovoid7",
        description="Construct, verify and analyze ovoid parameterizations "
                    "of the rank-4 hyperbolic quadric.")
    ap.add_argument("--help-schemas", action="store_true",
                    help="print the JSON report schemas and exit")
    sub = ap.add_subparsers(dest="cmd")

    def common(p, threads_help="workers for pair scans; results are identical for any value"):
        p.add_argument("--q", required=True, help='field, "p^h" or a prime power')
        p.add_argument("--threads", type=_thread_count, default=_default_threads(),
                       help=threads_help)
        p.add_argument("--out", help="also write the JSON report to this file")
        p.add_argument("--no-timing", action="store_true",
                       help="zero timing fields for byte-identical reruns")

    p = sub.add_parser("construct", help="build a family triple")
    common(p, threads_help="accepted for a uniform command line and ignored: "
                           "construct runs no pair scan")
    p.add_argument("--family", required=True, choices=fam.FAMILY_NAMES)
    p.add_argument("--param", action="append", default=[],
                   help="family parameter name=value (repeatable); all=0 zeroes them")
    p.add_argument("--spec-out", help="write the 3-line polynomial file here")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="exhaustively verify a triple")
    common(p)
    p.add_argument("--spec", required=True, help="3-line polynomial file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("hypersurface", help="pair-polynomial analyses")
    common(p)
    p.add_argument("--spec", help="3-line polynomial file")
    p.add_argument("--action", required=True,
                   choices=tuple(HYPERSURFACE_OPTIONS))
    p.add_argument("--witness", help='JSON witness file, "default-basis" or "solve"')
    p.add_argument("--r", type=int, help="variety dimension (bounds)")
    p.add_argument("--d", type=int, help="variety degree (bounds)")
    p.set_defaults(func=cmd_hypersurface)

    p = sub.add_parser("search", help="exhaustive triple search")
    common(p, threads_help="accepted for a uniform command line and ignored: "
                           "search always runs on one thread")
    p.add_argument("--max-degree", type=int, default=2, choices=(2, 3))
    space = p.add_mutually_exclusive_group()
    space.add_argument("--mask", help="JSON file pinning coefficients")
    space.add_argument("--restriction", choices=("full", "homogeneous-top"))
    p.add_argument("--budget", type=int, default=1 << 28)
    p.add_argument("--max-listed", type=int, default=1000,
                   help="cap on rendered specs in the report")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("kerdock", help="skew-matrix set check")
    common(p)
    triple = p.add_mutually_exclusive_group()
    triple.add_argument("--family", choices=fam.FAMILY_NAMES)
    triple.add_argument("--spec")
    p.add_argument("--param", action="append", default=[])
    p.set_defaults(func=cmd_kerdock)
    return ap


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """This process's parser, built on the first `main` call; parsing keeps
    no state in it, so every later call reuses it."""
    return build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = _parser()
    args = ap.parse_args(argv)
    if args.help_schemas:
        print(json.dumps(SCHEMAS, indent=2))
        return EXIT_OK
    if not getattr(args, "cmd", None):
        ap.print_usage(sys.stderr)
        return EXIT_USAGE
    args._argv = ["ovoid7"] + argv
    try:
        t0 = time.perf_counter()
        ctx = parse_field_spec(args.q)
        report, choices, holds = args.func(args, ctx)
        report["manifest"] = _manifest(args, ctx, choices)
        _emit(args, report, time.perf_counter() - t0)
    except BrokenPipeError:
        # the reader closed stdout early (say `| head`); the verdict stands, and
        # pointing stdout at devnull keeps the interpreter's final flush quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Unsupported as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except OvoidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK if holds else EXIT_FAIL

if __name__ == "__main__":
    sys.exit(main())
