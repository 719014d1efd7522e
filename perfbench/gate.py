"""Correctness gate.  Every check runs after the timed operations.

It checks only what every future route must keep: verdicts, exact counts,
exit codes, the canonical witness (all workloads stay at q <= 64), and
identical reports across thread counts.  It never looks at
`pairs_checked` or `elapsed_ms`, which a faster route may change.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from workloads import Op


@dataclass
class Outcome:
    exit: Optional[int] = None        # CLI exit code
    stdout: str = ""                  # CLI report text
    stderr: str = ""
    value: object = None              # library-call result
    error: Optional[str] = None       # exception that escaped the operation

    @property
    def report(self) -> Optional[dict]:
        try:
            return json.loads(self.stdout) if self.stdout else None
        except json.JSONDecodeError:
            return None


def load_spec(workdir: Path, q: str, name: str):
    from ovoid7.ff import parse_field_spec
    from ovoid7.quadric import OvoidSpec

    ctx = parse_field_spec(q)
    lines = [ln.strip() for ln in (workdir / name).read_text().splitlines() if ln.strip()]
    return OvoidSpec.from_lines(ctx, lines)


def _arg(op: Op, flag: str) -> Optional[str]:
    if op.argv and flag in op.argv:
        return op.argv[op.argv.index(flag) + 1]
    return op.args.get(flag.lstrip("-"))


def _kind(op: Op) -> str:
    if op.call:
        return op.call
    if op.argv[0] == "hypersurface":
        return _arg(op, "--action")
    return op.argv[0]


def verdict(op: Op, out: Outcome) -> Optional[bool]:
    """The yes/no answer of an operation, or None if it has none."""
    rep = out.report
    kind = _kind(op)
    if kind == "verify":
        return rep["is_ovoid"]
    if kind == "scan":
        return rep["off_diagonal"] == 0
    if kind == "kerdock":
        return rep["all_differences_nonsingular"]
    if kind == "meets_every_generator_once":
        return out.value
    if kind == "search":
        return rep["ovoids_found"] > 0
    if kind in ("plane-check", "quadric-check"):
        return rep["residual_zero"]
    if kind == "construct":
        return True
    return None


def _search_config(op: Op, workdir: Path):
    from ovoid7.ff import parse_field_spec
    from ovoid7.search import SearchConfig

    mask = _arg(op, "--mask")
    if mask:
        restriction = json.loads((workdir / mask).read_text())
    else:
        restriction = _arg(op, "--restriction") or "full"
    return SearchConfig(parse_field_spec(_arg(op, "--q")), max_degree=int(_arg(op, "--max-degree")),
                        restriction=restriction)


def _strip_command(rep: dict) -> dict:
    rep = json.loads(json.dumps(rep))
    rep.get("manifest", {}).pop("command", None)
    return rep


def _check_op(op: Op, out: Outcome, outcomes: Dict[str, Outcome], ops: Dict[str, Op],
              workdir: Path) -> List[str]:
    from ovoid7.hypersurface import hyperplane_product_residual
    from ovoid7.quadric import collinearity_value
    from ovoid7.search import index_of_spec, spec_from_index

    if out.error:
        return [f"raised {out.error}"]
    exp = op.expect
    fails = []
    if op.argv:
        rep = out.report
        if rep is None:
            return [f"exit {out.exit} without a JSON report"]
        v = verdict(op, out)
        want_exit = exp.get("exit", 0 if v else 1)
        if out.exit != want_exit:
            fails.append(f"exit {out.exit}, expected {want_exit}")
    else:
        rep, v = None, verdict(op, out)
    if "is_ovoid" in exp and v is not exp["is_ovoid"]:
        fails.append(f"verdict {v}, expected {exp['is_ovoid']}")
    if _kind(op) == "scan":
        q = int(_arg(op, "--q"))
        if rep["total"] != q ** 3 + rep["off_diagonal"]:
            fails.append("scan total is not q^3 + off_diagonal")
    if "off_diagonal" in exp and rep["off_diagonal"] != exp["off_diagonal"]:
        fails.append(f"off_diagonal {rep['off_diagonal']}, expected {exp['off_diagonal']}")
    if exp.get("witness_zero"):
        w = rep["witness"]
        if v and w is not None:
            fails.append("ovoid reported with a witness")
        if not v:
            spec = load_spec(workdir, _arg(op, "--q"), _arg(op, "--spec"))
            if w is None or w[0] == w[1]:
                fails.append(f"bad witness {w}")
            elif int(collinearity_value(spec, tuple(w[0]), tuple(w[1]))) != 0:
                fails.append(f"witness {w} is not collinear")
    if "witness_as" in exp:
        other = outcomes[exp["witness_as"]].report
        if other is None or other["witness"] != rep["witness"]:
            fails.append(f"witness differs from {exp['witness_as']}")
    if "same_report_as" in exp:
        other = outcomes[exp["same_report_as"]].report
        if other is None or _strip_command(other) != _strip_command(rep):
            fails.append(f"report differs from {exp['same_report_as']}")
    for name in exp.get("agree_with", ()):
        other = outcomes[name]
        if other.error or verdict(ops[name], other) != v:
            fails.append(f"verdict disagrees with {name}")
    if "hits" in exp and rep["ovoids_found"] != exp["hits"]:
        fails.append(f"{rep['ovoids_found']} hits, expected {exp['hits']}")
    if "contains" in exp:
        cfg = _search_config(op, workdir)
        idx = index_of_spec(cfg, load_spec(workdir, _arg(op, "--q"), exp["contains"]))
        if idx is None or idx not in set(rep["candidate_indices"]):
            fails.append(f"{exp['contains']} not among the hits")
    if "matches_full" in exp:
        # two search paths: the homogeneous-top hits, mapped into the full
        # index space, must be exactly the full hits inside that subspace
        full_op = ops[exp["matches_full"]]
        full_rep = outcomes[full_op.name].report
        cfg, full_cfg = _search_config(op, workdir), _search_config(full_op, workdir)
        mapped = {index_of_spec(full_cfg, spec_from_index(cfg, i)) for i in rep["candidate_indices"]}
        inside = {i for i in full_rep["candidate_indices"]
                  if index_of_spec(cfg, spec_from_index(full_cfg, i)) is not None}
        if mapped != inside:
            fails.append(f"homogeneous-top hits {len(mapped)} != full hits in subspace {len(inside)}")
    if exp.get("residual_zero") and not rep["residual_zero"]:
        fails.append("residual is not zero")
    if "rebuilds" in exp:
        spec = load_spec(workdir, op.args["q"], exp["rebuilds"])
        if out.value is None or out.value.polys() != spec.polys():
            fails.append(f"solved system does not rebuild {exp['rebuilds']}")
    if exp.get("recognized"):
        spec = load_spec(workdir, op.args["q"], op.args["spec"])
        if out.value is None or not hyperplane_product_residual(spec, out.value).is_zero():
            fails.append("no recognized basis with a zero residual")
    if exp.get("true") and out.value is not True:
        fails.append(f"returned {out.value!r}, expected True")
    if exp.get("no_independent") and out.value.independent_pairs:
        fails.append(f"{len(out.value.independent_pairs)} independent witness pairs")
    return fails


def check(ops: List[Op], outcomes: Dict[str, Outcome], workdir: Path) -> Dict[str, List[str]]:
    """Failures per operation name (an empty list when the operation passed)."""
    by_name = {op.name: op for op in ops}
    result = {}
    for op in ops:
        out = outcomes.get(op.name)
        if out is None:
            result[op.name] = ["not run"]
            continue
        try:
            result[op.name] = _check_op(op, out, outcomes, by_name, workdir)
        except (KeyError, TypeError, ValueError) as exc:
            result[op.name] = [f"check could not read the result: {exc!r}"]
    return result
