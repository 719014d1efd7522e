"""ovoid7 benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (defined, with the reasons for them, in workloads.py):
verify-large, search-classify, crosscheck-small.  Inputs are generated
from --seed.  Every repetition runs in a fresh interpreter
(perfbench/worker.py), so per-process caches in ovoid7 start cold.

--trace 0: whole repetitions, each after two set-up-only processes, until
the time is used; prints the end-to-end metrics (times are sums of
per-operation medians, set-up is the median of all set-up samples).
--trace 1: pairs of one untraced and one traced repetition; prints the
per-layer metrics and the tracing overhead, and requires the traced
reports to equal the untraced ones byte for byte.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 1 if any operation
failed its check, 2 if the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
WORK = HERE / "_work"
RESULTS = HERE / "_results"

SETUP_ONLY_PER_REP = 2    # set-up-only processes before each repetition
RUN_LIMIT_S = 170.0       # hard stop for one benchmark run

PHASE_METRICS = {
    "verify-large": ("verify", "scan"),
    "search-classify": ("search",),
    "crosscheck-small": ("verify", "scan", "oracle", "certify"),
}
UNITS = {"setup_s": "s", "wall_s": "s", "verify_s": "s", "scan_s": "s", "search_s": "s",
         "oracle_s": "s", "certify_s": "s", "peak_rss_mb": "MiB", "error_rate": "ratio"}


class WorkerFailed(RuntimeError):
    pass


def environment() -> dict:
    """What a result set depends on besides the code."""
    import numpy

    src = sorted((ROOT / "src" / "ovoid7").glob("*.py"))
    digest = hashlib.sha256()
    for path in src:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"commit": commit, "source_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "cpus": len(os.sched_getaffinity(0)), "cpu_model": cpu}


def run_worker(workload: str, workdir: Path, deadline: float, trace=False, setup_only=False) -> dict:
    out = workdir / "result.json"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--inputs", str(workdir), "--out", str(out)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerFailed("worker timed out") from None
    if proc.returncode != 0 or not out.exists():
        raise WorkerFailed(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(out.read_text())


def failures(reps: list, reference: dict) -> tuple:
    """(operations attempted, one line per failed operation).  An operation
    fails on a gate failure or when its report differs from the reference
    repetition's."""
    ref = {row["name"]: row["digest"] for row in reference["ops"]}
    attempted, lines = 0, []
    for rep in reps:
        for row in rep["ops"]:
            attempted += 1
            msgs = list(row["failures"])
            if row["digest"] != ref.get(row["name"]):
                msgs.append("report differs from the reference repetition")
            if msgs:
                lines.append(f"FAIL {row['name']}: {'; '.join(msgs)}")
    return attempted, lines


def wall(rep: dict) -> float:
    return sum(r["seconds"] for r in rep["ops"])


def op_medians(reps: list) -> dict:
    """Operation name -> (phase, median seconds over the repetitions)."""
    return {row["name"]: (row["phase"],
                          statistics.median(rep["ops"][i]["seconds"] for rep in reps))
            for i, row in enumerate(reps[0]["ops"])}


def end_to_end(workload: str, reps: list, setups: list) -> dict:
    """Times are sums of per-operation medians, so a burst of load that
    hits one operation in one repetition does not move the result."""
    med = op_medians(reps)
    m = {"setup_s": statistics.median(setups),
         "wall_s": sum(s for _, s in med.values())}
    for phase in PHASE_METRICS[workload]:
        m[f"{phase}_s"] = sum(s for p, s in med.values() if p == phase)
    m["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in reps)
    return m


def per_layer(untraced: list, traced: list) -> dict:
    names = traced[0]["layers"].keys()
    m = {}
    for name in names:
        vals = [r["layers"][name] for r in traced if r["layers"][name] is not None]
        m[name] = statistics.median(vals) if vals else None
    m["trace.overhead_frac"] = (sum(s for _, s in op_medians(traced).values())
                                / sum(s for _, s in op_medians(untraced).values()) - 1.0)
    return m


def measure(workload: str, workdir: Path, seconds: float, trace: bool, deadline: float):
    """Returns (metrics, all repetitions, the repetition reports are compared
    with, raw samples)."""
    start = time.monotonic()
    durations, reps = [], []

    def more() -> bool:
        """Start another repetition only if one as slow as the slowest so
        far still ends within the measuring time."""
        if not durations:
            return True
        return time.monotonic() - start + max(durations) <= seconds

    if not trace:
        setups = []
        while more():
            t = time.monotonic()
            setups += [run_worker(workload, workdir, deadline, setup_only=True)["setup_s"]
                       for _ in range(SETUP_ONLY_PER_REP)]
            reps.append(run_worker(workload, workdir, deadline))
            durations.append(time.monotonic() - t)
        setups += [r["setup_s"] for r in reps]
        samples = {"setup_s": setups, "wall_s": [wall(r) for r in reps],
                   "peak_rss_mb": [r["peak_rss_mb"] for r in reps]}
        return end_to_end(workload, reps, setups), reps, reps[0], samples
    untraced, traced = [], []
    while more():
        t = time.monotonic()
        untraced.append(run_worker(workload, workdir, deadline))
        traced.append(run_worker(workload, workdir, deadline, trace=True))
        durations.append(time.monotonic() - t)
    samples = {"untraced_wall_s": [wall(r) for r in untraced],
               "traced_wall_s": [wall(r) for r in traced]}
    return per_layer(untraced, traced), untraced + traced, untraced[0], samples


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    # a SIGTERM unwinds through subprocess.run, which kills the running worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "ovoid7" / "__init__.py").is_file():
        print(f"perfbench: no ovoid7 sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import inputs
    import workloads
    from spans import unit_of

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        manifest = inputs.generate(args.workload, args.seed, workdir)
        n_ops = len(workloads.build_ops(args.workload, manifest))
        try:
            metrics, reps, reference, samples = measure(args.workload, workdir, args.seconds,
                                                        bool(args.trace), deadline)
        except WorkerFailed as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": n_ops, "failed": n_ops,
                              "metrics": {}}))
            return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, fail_lines = failures(reps, reference)
    failed = len(fail_lines)
    env = environment()
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"repetitions={len(reps)} operations={attempted}")
    print("environment " + json.dumps(env, sort_keys=True))
    for line in fail_lines:
        print(line)
    if args.trace:
        wanted = bench["per_layer"]
    else:
        metrics["error_rate"] = failed / attempted
        wanted = bench["end_to_end"]
    for name, value in metrics.items():
        shown = "n/a (not exercised)" if value is None else f"{value:.6g}"
        print(f"  {name:38s} {shown} {UNITS.get(name) or unit_of(name)}")

    RESULTS.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": env, "attempted": attempted,
              "failed": failed, "metrics": metrics, "samples": samples,
              "op_seconds": {name: s for name, (_, s) in op_medians(reps).items()}}
    (RESULTS / f"{args.workload}-s{args.seed}-t{args.trace}-{time.time_ns()}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")

    missing = [m["name"] for m in wanted if metrics.get(m["name"]) is None]
    if missing:
        print(f"perfbench: no value for {', '.join(missing)}", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
