"""Workload definitions: the fixed set-up of each workload and its list of
timed operations, with the checks the gate applies to each.

An operation is either a CLI call (`argv`, run through `ovoid7.cli.main`
in-process with `--no-timing` appended) or a direct library call (`call`
with JSON-able `args`) for entry points that have no CLI verb.  Thread
counts are always pinned: the CLI default is the machine's CPU count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

@dataclass
class Op:
    name: str
    phase: str
    argv: Optional[List[str]] = None
    call: Optional[str] = None
    args: dict = field(default_factory=dict)
    expect: dict = field(default_factory=dict)


@dataclass
class Workload:
    fields: List[str]                       # --q values whose tables set-up builds
    families: Dict[str, tuple]              # spec file -> (family, q)
    ext: List[tuple] = field(default_factory=list)   # (q, degree) for direct calls


WORKLOADS = {
    # Pair-kernel throughput: few, large calls across all three field
    # strategies (prime q=17, char-2 q=8/16, table q=9/27), at 1 and 2
    # threads, with full scans and early-exit verifies.  Kantor-type
    # triples are the ones a difference route would take over; ree-tits
    # stays on the pair scan, so the per-layer numbers show where a
    # saving lands.  Ree-tits runs on one thread: at two threads its time
    # ranged over 7.3-10.6 s across runs on a shared 2-CPU machine, while
    # the one-thread calls stayed within about 10%, and as the largest
    # call it set the spread of the whole workload.
    "verify-large": Workload(
        fields=["8", "9", "13", "16", "17", "27"],
        families={"ks16.spec": ("kantor-simple", "16"), "ks8.spec": ("kantor-simple", "8"),
                  "ke16.spec": ("kantor-even", "16"), "dye8.spec": ("dye", "8"),
                  "k2m17.spec": ("kantor-2mod3", "17"), "rt27.spec": ("ree-tits", "27")},
    ),
    # The only workload for the search layer.  The pair kernel runs as
    # thousands of tiny calls instead of one large one, so a kernel change
    # that trades per-call overhead for throughput shows here.  Memory
    # peaks here (the full 2^27 classification).
    "search-classify": Workload(
        fields=["2", "3", "4"],
        families={"ks2.spec": ("kantor-simple", "2"), "ks4.spec": ("kantor-simple", "4")},
    ),
    # Many small calls: per-call overhead in cli, mpoly, value tables and
    # the pair kernel, the two independent oracles (skew matrices and
    # generators), and the scalar extension-field arithmetic behind the
    # symbolic certifications that the big-q workloads barely touch.
    "crosscheck-small": Workload(
        fields=["2", "3", "4", "5", "7", "8", "9", "11", "16", "17", "32"],
        families={},
        ext=[("2", 3), ("4", 3), ("8", 3), ("16", 3), ("3", 4), ("9", 4)],
    ),
}


def _verify(name, q, spec, threads=1, **expect):
    return Op(name, "verify", ["verify", "--q", q, "--spec", spec, "--threads", str(threads)],
              expect=expect)


def _scan(name, q, spec, **expect):
    return Op(name, "scan", ["hypersurface", "--action", "scan", "--q", q, "--spec", spec,
                             "--threads", "1"], expect=expect)


def _verify_large(inputs: dict) -> List[Op]:
    ops = [
        _verify("verify ks16 t1", "16", "ks16.spec", is_ovoid=True),
        _verify("verify ks16 t2", "16", "ks16.spec", threads=2, is_ovoid=True,
                same_report_as="verify ks16 t1"),
        _verify("verify ks8 t1", "8", "ks8.spec", is_ovoid=False, witness_zero=True,
                witness_as="scan ks8"),
        _verify("verify ke16 t1", "16", "ke16.spec", is_ovoid=True),
        _verify("verify dye8 t1", "8", "dye8.spec", is_ovoid=True),
        _verify("verify k2m17 t1", "17", "k2m17.spec", is_ovoid=True),
        _verify("verify rt27 t1", "27", "rt27.spec", is_ovoid=True),
        _scan("scan ks8", "8", "ks8.spec", off_diagonal=86016),
    ]
    for q, spec in sorted(inputs["random"].items(), key=lambda kv: int(kv[0])):
        ops.append(_scan(f"scan rand{q}", q, spec))
        ops.append(_verify(f"verify rand{q}", q, spec, agree_with=[f"scan rand{q}"],
                           witness_zero=True, witness_as=f"scan rand{q}"))
    return ops


def _search(name, q, extra, **expect):
    return Op(name, "search", ["search", "--q", q, "--max-degree", "2", "--threads", "1"] + extra,
              expect=expect)


def _search_classify(inputs: dict) -> List[Op]:
    return [
        _search("search q2 full", "2", [], exit=0, hits=4096, contains="ks2.spec"),
        _search("search q2 homogeneous-top", "2", ["--restriction", "homogeneous-top"],
                exit=0, matches_full="search q2 full"),
        _search("search q4 mask", "4", ["--mask", inputs["masks"]["4"]],
                exit=0, contains="ks4.spec"),
        # no degree-<=2 triple is an ovoid for odd q, so search exits 1
        _search("search q3 mask", "3", ["--mask", inputs["masks"]["3"]], exit=1, hits=0),
    ]


def _crosscheck_small(inputs: dict) -> List[Op]:
    ops = [Op("generators q2", "oracle", call="generator_point_sets", args={"q": "2"})]
    for q, specs in sorted(inputs["random"].items(), key=lambda kv: int(kv[0])):
        for k, spec in enumerate(specs):
            tag = f"rand{q}_{k}"
            ops.append(_verify(f"verify {tag}", q, spec, witness_zero=True,
                               witness_as=f"scan {tag}"))
            ops.append(_scan(f"scan {tag}", q, spec, agree_with=[f"verify {tag}"]))
            ops.append(Op(f"kerdock {tag}", "oracle",
                          ["kerdock", "--q", q, "--spec", spec, "--threads", "1"],
                          expect={"agree_with": [f"verify {tag}"]}))
            if q == "2":
                ops.append(Op(f"generators {tag}", "oracle", call="meets_every_generator_once",
                              args={"q": q, "spec": spec},
                              expect={"agree_with": [f"verify {tag}"]}))
    ops.append(Op("kerdock ke8", "oracle",
                  ["kerdock", "--family", "kantor-even", "--q", "8", "--threads", "1"],
                  expect={"is_ovoid": True}))
    for q, basis in sorted(inputs["kantor_even"].items(), key=lambda kv: int(kv[0])):
        spec = f"ke_q{q}.spec"
        alpha = "[" + ",".join(map(str, basis["alpha"])) + "]"
        beta = "[" + ",".join(map(str, basis["beta"])) + "]"
        ops += [
            Op(f"construct ke{q}", "certify",
               ["construct", "--family", "kantor-even", "--q", q, "--param", f"alpha={alpha}",
                "--param", f"beta={beta}", "--spec-out", spec, "--threads", "1"],
               expect={"exit": 0}),
            Op(f"plane-check ke{q}", "certify",
               ["hypersurface", "--action", "plane-check", "--q", q, "--spec", spec,
                "--witness", basis["witness"], "--threads", "1"],
               expect={"exit": 0, "residual_zero": True}),
            Op(f"solve-deg2 ke{q}", "certify", call="solve_deg2_system",
               args={"q": q, "alpha": basis["alpha"], "beta": basis["beta"]},
               expect={"rebuilds": spec}),
            Op(f"recognize ke{q}", "certify", call="recognize_kantor_even",
               args={"q": q, "spec": spec}, expect={"recognized": True}),
        ]
    for family, draws in (("famiglia1", inputs["famiglia1"]), ("famiglia2", inputs["famiglia2"])):
        for q, params in sorted(draws.items(), key=lambda kv: int(kv[0])):
            spec = f"{family}_q{q}.spec"
            argv = ["construct", "--family", family, "--q", q, "--spec-out", spec,
                    "--threads", "1"]
            for key, value in sorted(params.items()):
                argv += ["--param", f"{key}={value}"]
            ops += [
                Op(f"construct {family} q{q}", "certify", argv, expect={"exit": 0}),
                Op(f"quadric-check {family} q{q}", "certify",
                   ["hypersurface", "--action", "quadric-check", "--q", q, "--spec", spec,
                    "--threads", "1"],
                   expect={"exit": 0, "residual_zero": True}),
            ]
    ops += [
        Op("identity 2mod3_odd q11", "certify", call="factorized_identity_check",
           args={"family": "2mod3_odd", "q": "11"}, expect={"true": True}),
        Op("identity 2mod3_even q8", "certify", call="factorized_identity_check",
           args={"family": "2mod3_even", "q": "8"}, expect={"true": True}),
        Op("witness-search q3", "certify", call="hyperplane_witness_search",
           args={"q": "3"}, expect={"no_independent": True}),
        Op("witness-search q9", "certify", call="hyperplane_witness_search",
           args={"q": "9"}, expect={"no_independent": True}),
    ]
    return ops


_OPS_OF = {"verify-large": _verify_large, "search-classify": _search_classify,
           "crosscheck-small": _crosscheck_small}


def build_ops(workload: str, inputs: dict) -> List[Op]:
    """The timed operations of `workload` for the generated `inputs`."""
    ops = _OPS_OF[workload](inputs)
    names = [op.name for op in ops]
    if len(names) != len(set(names)):
        raise ValueError(f"duplicate operation names in {workload}")
    return ops
