"""Command-line interface.

Exit codes: 0 the checked property holds, 1 it fails, 2 usage or parse
error, 3 unsupported parameters.  Every JSON report embeds a manifest
(command line, field, modulus, construction choices, version); timing
lives in dedicated *_ms keys, zeroed by --no-timing so reruns are
byte-identical.
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
        "route": '"difference" | "pair-scan"',
        "elapsed_ms": "float",
        "q": "int",
        "degree": "int",
        "manifest": "manifest",
    },
    "build": {"degree": "int", "terms": "int", "diagonal_vanishes": "bool",
              "polynomial": "str", "manifest": "manifest"},
    "scan": {"total": "int", "off_diagonal": "int", "witness": "pair | null",
             "route": '"difference" | "pair-scan"', "elapsed_ms": "float",
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


def _manifest(args, ctx, choices: Optional[dict] = None) -> dict:
    return {
        "command": " ".join(args._argv),
        "field": ctx.name if ctx else None,
        "modulus": ctx.modulus_text() if ctx else None,
        "choices": choices or {},
        "package": "ovoid7",
        "version": __version__,
        "wall_time_ms": 0.0,
    }


def _emit(args, report: dict, t0: float) -> None:
    if not args.no_timing:
        report.setdefault("manifest", {})["wall_time_ms"] = round(
            (time.perf_counter() - t0) * 1000.0, 3)
    else:
        for key in ("elapsed_ms",):
            if key in report:
                report[key] = 0.0
    text = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)


def _load_spec(path: str, ctx) -> OvoidSpec:
    try:
        with open(path) as fh:
            lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    except OSError as exc:
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
        out[name.strip()] = val.strip()
    return out


def _param_int(params, name, default=0):
    raw = params.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ParseError(f"parameter {name} must be an integer, got {raw!r}") from None


def _parse_tower_elem(ext: ExtCtx, text: str) -> TowerElem:
    text = text.strip()
    if text.startswith("["):
        if not text.endswith("]"):
            raise ParseError(f"bad element {text!r}")
        try:
            coords = [int(v) for v in text[1:-1].split(",")]
        except ValueError:
            raise ParseError(f"bad element {text!r}") from None
        return ext.element(coords)
    try:
        return ext.from_packed(int(text) % ext.order)
    except ValueError:
        raise ParseError(f"bad element {text!r}") from None


def _construct(ctx, family: str, params: dict) -> tuple:
    """Returns (spec, choices dict for the manifest)."""
    if "all" in params:
        if params.pop("all") != "0":
            raise ParseError("--param all= only supports 0")
    if family == "kantor-simple":
        return fam.kantor_simple(ctx), {}
    if family == "kantor-even":
        ext = ExtCtx(ctx, 3)
        if "alpha" in params or "beta" in params:
            alpha = _parse_tower_elem(ext, params.get("alpha", "[0,1,0]"))
            beta = _parse_tower_elem(ext, params.get("beta", "[0,0,1]"))
            basis = hyp.HyperplaneWitness(ext, alpha, beta)
        else:
            basis = fam.default_tower_basis(ctx)
        choices = {"alpha": list(basis.alpha.coords), "beta": list(basis.beta.coords),
                   "extension_modulus": [list(c) if isinstance(c, tuple) else c
                                         for c in basis.ext.modulus]}
        return fam.kantor_even(basis), choices
    if family == "thas-kantor":
        mu = _param_int(params, "mu", 0)
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
            epsilon=_param_int(params, "eps", 1),
            C4=_param_int(params, "C4"), D4=_param_int(params, "D4"),
            a010=_param_int(params, "a010"), b100=_param_int(params, "b100"),
            a100=_param_int(params, "a100"))
        return fam.famiglia1(ctx, p), {"params": dataclasses.asdict(p)}
    if family == "famiglia2":
        p = fam.Famiglia2Params(
            C4=_param_int(params, "C4"), D4=_param_int(params, "D4"),
            c001=_param_int(params, "c001"), c010=_param_int(params, "c010"),
            b001=_param_int(params, "b001"))
        return fam.famiglia2(ctx, p), {"params": dataclasses.asdict(p)}
    raise ParseError(f"unknown family {family!r}; known: {', '.join(fam.FAMILY_NAMES)}")


def cmd_construct(args) -> int:
    t0 = time.perf_counter()
    ctx = parse_field_spec(args.q)
    spec, choices = _construct(ctx, args.family, _parse_params(args.param))
    lines = spec.render_lines()
    if args.spec_out:
        with open(args.spec_out, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    report = {
        "family": args.family,
        "q": ctx.q,
        "degree": spec.degree,
        "spec_lines": lines,
        "manifest": _manifest(args, ctx, choices),
    }
    _emit(args, report, t0)
    return EXIT_OK


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    ctx = parse_field_spec(args.q)
    spec = _load_spec(args.spec, ctx)
    rep = verify_ovoid(spec, threads=args.threads)
    report = rep.to_json_dict()
    report["manifest"] = _manifest(args, ctx)
    _emit(args, report, t0)
    return EXIT_OK if rep.is_ovoid else EXIT_FAIL


def _load_witness_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read witness file: {exc}") from None


def cmd_hypersurface(args) -> int:
    t0 = time.perf_counter()
    ctx = parse_field_spec(args.q)
    if args.action == "bounds":
        if args.r is None or args.d is None:
            raise ParseError("bounds needs --r and --d")
        rep = hyp.bound_report(args.r, args.d, ctx.q)
        report = rep.to_json_dict()
        report["manifest"] = _manifest(args, ctx)
        _emit(args, report, t0)
        return EXIT_OK
    if not args.spec:
        raise ParseError(f"action {args.action} needs --spec")
    spec = _load_spec(args.spec, ctx)
    if args.action == "build":
        F = hyp.build_F(spec)
        diag_zero = hyp.diagonal_restriction(F).is_zero()
        report = {
            "degree": F.degree(),
            "terms": len(F.terms),
            "diagonal_vanishes": diag_zero,
            "polynomial": F.render(),
            "manifest": _manifest(args, ctx),
        }
        _emit(args, report, t0)
        return EXIT_OK if diag_zero else EXIT_FAIL
    if args.action == "scan":
        rep = hyp.affine_point_scan(spec, threads=args.threads)
        report = rep.to_json_dict()
        report["manifest"] = _manifest(args, ctx)
        _emit(args, report, t0)
        return EXIT_OK if rep.off_diagonal == 0 else EXIT_FAIL
    if args.action == "plane-check":
        ext_degree = 3 if spec.degree == 2 else 4
        ext = ExtCtx(ctx, ext_degree)
        if args.witness and args.witness != "default-basis":
            data = _load_witness_json(args.witness)
            alpha = ext.element(data["alpha"])
            beta = ext.element(data["beta"])
        else:
            t = ext.gen()
            alpha, beta = t, t * t
        w = hyp.HyperplaneWitness(ext, alpha, beta)
        residual = hyp.hyperplane_product_residual(spec, w)
        report = {
            "residual_zero": residual.is_zero(),
            "residual_terms": len(residual.terms),
            "alpha": list(alpha.coords),
            "beta": list(beta.coords),
            "manifest": _manifest(args, ctx, {"extension_degree": ext_degree}),
        }
        _emit(args, report, t0)
        return EXIT_OK if residual.is_zero() else EXIT_FAIL
    if args.action == "quadric-check":
        record = {}
        if args.witness and args.witness != "solve":
            data = _load_witness_json(args.witness)
            xi = None
            if "xi" in data and data["xi"] is not None:
                ext = ExtCtx(ctx, 2)
                xi = ext.element(data["xi"])
            w = hyp.QuadricWitness(
                ctx=ctx, QR=tuple(data["QR"]), QS=tuple(data["QS"]),
                LR=tuple(data["LR"]), MR=tuple(data["MR"]), NR=tuple(data["NR"]),
                k=data.get("k"), xi=xi)
        else:
            w = hyp.solve_quadric_witness(spec, record)
        residual = hyp.quadric_product_residual(spec, w)
        report = {
            "residual_zero": residual.is_zero(),
            "residual_terms": len(residual.terms),
            "witness": {
                "QR": list(w.QR), "QS": list(w.QS), "LR": list(w.LR),
                "MR": list(w.MR), "NR": list(w.NR), "k": w.k,
                "xi": list(w.xi.coords) if w.xi else None,
            },
            "solved_entries": record,
            "manifest": _manifest(args, ctx),
        }
        _emit(args, report, t0)
        return EXIT_OK if residual.is_zero() else EXIT_FAIL
    raise ParseError(f"unknown action {args.action!r}")


def cmd_search(args) -> int:
    t0 = time.perf_counter()
    ctx = parse_field_spec(args.q)
    restriction = "full"
    if args.mask:
        restriction = _load_witness_json(args.mask)
    elif args.restriction:
        restriction = args.restriction
    cfg = srch.SearchConfig(ctx, max_degree=args.max_degree,
                            restriction=restriction, budget=args.budget)
    res = srch.exhaustive_triple_search(cfg)
    report = res.to_json_dict(max_listed=args.max_listed)
    report["manifest"] = _manifest(args, ctx, {"max_degree": args.max_degree,
                                               "restriction": restriction,
                                               "budget": args.budget})
    _emit(args, report, t0)
    return EXIT_OK if res.found_indices else EXIT_FAIL


def cmd_kerdock(args) -> int:
    t0 = time.perf_counter()
    ctx = parse_field_spec(args.q)
    if args.spec:
        spec = _load_spec(args.spec, ctx)
    elif args.family:
        spec, _ = _construct(ctx, args.family, _parse_params(args.param))
    else:
        raise ParseError("kerdock needs --spec or --family")
    mats = kerdock_set(spec)
    ok = kerdock_check(mats, threads=args.threads)
    report = {
        "all_differences_nonsingular": ok,
        "matrices": len(mats),
        "q": ctx.q,
        "manifest": _manifest(args, ctx),
    }
    _emit(args, report, t0)
    return EXIT_OK if ok else EXIT_FAIL


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
        p.add_argument("--threads", type=int, default=_default_threads(), help=threads_help)
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
                   choices=("build", "scan", "plane-check", "quadric-check", "bounds"))
    p.add_argument("--witness", help='JSON witness file, "default-basis" or "solve"')
    p.add_argument("--r", type=int, help="variety dimension (bounds)")
    p.add_argument("--d", type=int, help="variety degree (bounds)")
    p.set_defaults(func=cmd_hypersurface)

    p = sub.add_parser("search", help="exhaustive triple search")
    common(p, threads_help="accepted for a uniform command line and ignored: "
                           "search always runs on one thread")
    p.add_argument("--max-degree", type=int, default=2, choices=(2, 3))
    p.add_argument("--mask", help="JSON file pinning coefficients")
    p.add_argument("--restriction", choices=("full", "homogeneous-top"))
    p.add_argument("--budget", type=int, default=1 << 28)
    p.add_argument("--max-listed", type=int, default=1000,
                   help="cap on rendered specs in the report")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("kerdock", help="skew-matrix set check")
    common(p)
    p.add_argument("--family", choices=fam.FAMILY_NAMES)
    p.add_argument("--spec")
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
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Unsupported as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except OvoidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
