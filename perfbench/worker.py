"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --inputs DIR --out FILE [--trace] [--setup-only]

Set-up is timed from `import ovoid7` up to the first operation.  Each
operation is timed on its own; the gate checks every result afterwards,
outside the timers.  The result (times, report digests, failures, peak
RSS and, with --trace, the per-layer metrics) is written to FILE as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gate  # noqa: E402
import workloads  # noqa: E402


def setup(wl: workloads.Workload, workdir: Path) -> dict:
    """Fields and their numpy tables, extension contexts for the direct
    calls, and the workload's fixed family triples rendered to spec files."""
    from ovoid7 import families as fam
    from ovoid7.ff import ExtCtx, parse_field_spec

    for q in wl.fields:
        ctx = parse_field_spec(q)
        if ctx.h > 1:
            ctx.np_tables()
    ext = {}
    for q, degree in wl.ext:
        e = ExtCtx(parse_field_spec(q), degree)
        if degree == 4:
            e.packed_tables()      # the witness search runs on packed tables
        ext[(q, degree)] = e
    make = {"kantor-simple": fam.kantor_simple, "ree-tits": fam.ree_tits, "dye": fam.dye,
            "kantor-2mod3": fam.kantor_2mod3,
            "kantor-even": lambda c: fam.kantor_even(fam.default_tower_basis(c))}
    for path, (family, q) in wl.families.items():
        spec = make[family](parse_field_spec(q))
        (workdir / path).write_text("\n".join(spec.render_lines()) + "\n")
    return {"ext": ext, "gsets": {}}


def _call(op: workloads.Op, state: dict, workdir: Path):
    """Direct library calls for entry points without a CLI verb."""
    from ovoid7 import families, hypersurface, quadric, search
    from ovoid7.ff import parse_field_spec

    a = op.args
    if op.call == "generator_point_sets":
        state["gsets"][a["q"]] = quadric.generator_point_sets(parse_field_spec(a["q"]))
        return len(state["gsets"][a["q"]])
    if op.call == "meets_every_generator_once":
        spec = gate.load_spec(workdir, a["q"], a["spec"])
        return quadric.meets_every_generator_once(spec, state["gsets"][a["q"]])
    if op.call == "solve_deg2_system":
        ext = state["ext"][(a["q"], 3)]
        w = hypersurface.HyperplaneWitness(ext, ext.element(a["alpha"]), ext.element(a["beta"]))
        return hypersurface.solve_deg2_system(w, literal_check=True)
    if op.call == "recognize_kantor_even":
        return search.recognize_kantor_even(gate.load_spec(workdir, a["q"], a["spec"]))
    if op.call == "factorized_identity_check":
        return families.factorized_identity_check(a["family"], parse_field_spec(a["q"]))
    if op.call == "hyperplane_witness_search":
        return search.hyperplane_witness_search(state["ext"][(a["q"], 4)])
    raise ValueError(f"unknown call {op.call!r}")


def canonical(value) -> str:
    """Timing-free text of a library-call result, for rerun comparisons."""
    if hasattr(value, "render_lines"):
        return json.dumps(value.render_lines())
    if hasattr(value, "alpha") and hasattr(value, "beta"):
        return json.dumps([list(value.alpha.coords), list(value.beta.coords)])
    if hasattr(value, "to_json_dict"):
        d = value.to_json_dict()
        d.pop("elapsed_ms", None)
        return json.dumps(d, sort_keys=True)
    return repr(value)


def run_op(op: workloads.Op, state: dict, workdir: Path, tracer=None):
    """Run one operation; returns (seconds, Outcome).  Only the call is timed."""
    from ovoid7 import cli

    out = gate.Outcome()
    stdout, stderr = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.op = op.name
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            if op.argv:
                out.exit = cli.main(op.argv + ["--no-timing"])
            else:
                out.value = _call(op, state, workdir)
    except Exception as exc:       # any escape is a failed operation, reported by the gate
        out.error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    out.stdout, out.stderr = stdout.getvalue(), stderr.getvalue()
    return seconds, out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--inputs", required=True, type=Path)
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    workdir = args.inputs.resolve()
    os.chdir(workdir)
    wl = workloads.WORKLOADS[args.workload]
    ops = workloads.build_ops(args.workload, json.loads((workdir / "inputs.json").read_text()))

    t0 = time.perf_counter()
    import ovoid7  # noqa: F401  (timed: part of set-up)
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.recording = True
    state = setup(wl, workdir)
    setup_s = time.perf_counter() - t0
    result = {"workload": args.workload, "setup_s": setup_s}
    if not args.setup_only:
        outcomes, rows = {}, []
        for op in ops:
            seconds, out = run_op(op, state, workdir, tracer)
            outcomes[op.name] = out
            text = (out.stdout + out.stderr) if op.argv else canonical(out.value)
            rows.append({"name": op.name, "phase": op.phase, "seconds": seconds,
                         "digest": hashlib.sha256(text.encode()).hexdigest()})
        if tracer is not None:
            tracer.recording = False
        failures = gate.check(ops, outcomes, workdir)
        for row in rows:
            row["failures"] = failures[row["name"]]
        result["ops"] = rows
        if tracer is not None:
            from spans import layer_metrics
            result["layers"] = layer_metrics(tracer.spans)
            tracer.uninstall()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    args.out.write_text(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
