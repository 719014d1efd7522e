"""Span tracing from outside the program.

A `Tracer` replaces the functions listed in `TARGETS` with wrappers that
record one span per call: name, start, end, parent span and operation id,
plus counts read from the call's arguments and result.  A function is
replaced at every binding site, that is every ovoid7 module attribute that
is the same object (`cli` imports `verify_ovoid` by name, while `quadric`
calls `_pairscan.pair_scan` through the module), and methods are replaced
on their class.  Spans stay in memory until the run ends.

`layer_metrics` turns spans into the per-layer metrics; a layer's self
time is its span duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

LAYERS = ("ff", "mpoly", "families", "quadric", "_pairscan", "hypersurface", "search", "cli")

SMALL_CALL_ELEMS = 729          # q^3 <= 729: the calls a search or a small crosscheck makes


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    op: Optional[str] = None
    counts: dict = field(default_factory=dict)
    error: Optional[str] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _pair_scan_counts(args, kwargs, result) -> dict:
    ctx, tables = args[0], args[1]
    early_exit = kwargs.get("early_exit", args[2] if len(args) > 2 else None)
    threads = kwargs.get("threads", args[3] if len(args) > 3 else 1)
    n = len(tables[0])
    kind = "prime" if ctx.h == 1 else "char2" if ctx.p == 2 else "table"
    counts = {"n": n, "kind": kind, "threads": int(threads or 1), "early_exit": bool(early_exit),
              "pairs": int(result.pairs_checked)}
    if early_exit and result.first_zero is not None:
        i, j = result.first_zero
        # pairs before row i, plus row i up to and including column j
        counts["useful"] = i * (n - 1) - i * (i - 1) // 2 + (j - i)
    return counts


def _search_counts(args, kwargs, result) -> dict:
    cfg = args[0]
    return {"q": cfg.ctx.q, "full": cfg.restriction == "full",
            "candidates": int(result.candidates_tested), "hits": len(result.found_indices)}


def _witness_search_counts(args, kwargs, result) -> dict:
    return {"pairs": int(result.pairs_scanned)}


# (module, attribute, span name, counter).  "Class.method" attributes are
# replaced on the class; plain functions at every binding site.
TARGETS = [
    ("ff", "make_field", "ff.field_setup", None),
    ("ff", "FieldCtx.np_tables", "ff.field_setup", None),
    ("ff", "ExtCtx.__init__", "ff.ext_setup", None),
    ("ff", "ExtCtx.packed_tables", "ff.packed_tables", None),
    ("mpoly", "MPoly.parse", "mpoly.parse", None),
    ("mpoly", "MPoly.__mul__", "mpoly.mul", None),
] + [
    ("families", name, "families.construct", None)
    for name in ("kantor_simple", "kantor_even", "default_tower_basis", "thas_kantor", "ree_tits",
                 "dye", "kantor_2mod3", "kantor_2mod3_odd", "kantor_2mod3_even", "famiglia1",
                 "famiglia2")
] + [
    ("families", "factorized_identity_check", "families.identity_check", None),
    ("quadric", "OvoidSpec.value_tables", "quadric.value_tables", None),
    ("quadric", "verify_ovoid", "quadric.verify", None),
    ("quadric", "kerdock_set", "quadric.kerdock_set", None),
    ("quadric", "kerdock_check", "quadric.kerdock_check", None),
    ("quadric", "enumerate_generators", "quadric.generators", None),
    ("quadric", "generator_point_sets", "quadric.generators", None),
    ("quadric", "meets_every_generator_once", "quadric.meets_once", None),
    ("_pairscan", "pair_scan", "_pairscan.pair_scan", _pair_scan_counts),
    ("hypersurface", "build_F", "hypersurface.build_F", None),
    ("hypersurface", "affine_point_scan", "hypersurface.scan", None),
    ("hypersurface", "hyperplane_product_residual", "hypersurface.residual", None),
    ("hypersurface", "quadric_product_residual", "hypersurface.residual", None),
    ("hypersurface", "solve_quadric_witness", "hypersurface.solve", None),
    ("hypersurface", "solve_deg2_system", "hypersurface.solve", None),
    ("search", "exhaustive_triple_search", "search.search", _search_counts),
    ("search", "hyperplane_witness_search", "search.witness_search", _witness_search_counts),
    ("search", "recognize_kantor_even", "search.recognize", None),
    ("cli", "main", "cli.main", None),
]


class Tracer:
    """Records spans while `recording` is set; `install` puts the wrappers in."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.recording = False
        self.op: Optional[str] = None
        self._stack: List[Span] = []
        self._undo: list = []

    def begin(self, name: str) -> Optional[Span]:
        if not self.recording:
            return None
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, self.clock(), parent=parent, op=self.op)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Optional[Span]) -> None:
        if span is None:
            return
        span.end = self.clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def wrap(self, fn, name: str, counter=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if span is not None:
                    span.error = type(exc).__name__
                raise
            finally:
                tracer.end(span)
            if span is not None and counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = [importlib.import_module("ovoid7")] + [
            importlib.import_module(f"ovoid7.{name}") for name in LAYERS]
        for mod_name, attr, span_name, counter in TARGETS:
            mod = importlib.import_module(f"ovoid7.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(raw.__func__, span_name, counter))
                else:
                    new = self.wrap(raw, span_name, counter)
                self._patch(cls, meth, new)
                continue
            original = getattr(mod, attr)
            wrapped = self.wrap(original, span_name, counter)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


# ---------------------------------------------------------------------------
# span arithmetic


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: Dict[int, List[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cur_start = cur_end = None
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            a, b = max(c.start, s.start), min(c.end, s.end)
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[s.id] = s.duration - covered
    return out


def _outermost(spans: List[Span], names, by_id) -> List[Span]:
    """Spans named in `names` that have no ancestor also named in `names`."""
    out = []
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p is not None and by_id[p].name not in names:
            p = by_id[p].parent
        if p is None:
            out.append(s)
    return out


def metric_prefix(layer: str) -> str:
    """Metric names start with a letter, so `_pairscan` reports as `pairscan`."""
    return layer.lstrip("_")


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if "mpairs_per_s" in name:
        return "Mpairs/s"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("ms_per_call") or ".ms_per_call." in name:
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "survival", "speedup_2t")):
        return "ratio"
    return "count"


def layer_metrics(spans: List[Span]) -> Dict[str, Optional[float]]:
    """Per-layer metrics; None where the workload never entered the code."""
    by_id = {s.id: s for s in spans}
    selft = self_times(spans)
    named: Dict[str, List[Span]] = {}
    for s in spans:
        named.setdefault(s.name, []).append(s)

    def incl(*names) -> Optional[float]:
        top = _outermost(spans, set(names), by_id)
        return sum(s.duration for s in top) if top else None

    def self_sum(name) -> Optional[float]:
        group = named.get(name)
        return sum(selft[s.id] for s in group) if group else None

    def calls(name) -> Optional[int]:
        return len(named[name]) if name in named else None

    def rate(num, den, scale=1.0):
        return num / den * scale if num is not None and den else None

    m: Dict[str, Optional[float]] = {
        "ff.field_setup_s": incl("ff.field_setup"),
        "ff.ext_setup_s": incl("ff.ext_setup"),
        "ff.ext_setup_calls": calls("ff.ext_setup"),
        "ff.packed_tables_s": incl("ff.packed_tables"),
        "mpoly.parse_s": incl("mpoly.parse"),
        "mpoly.parse_calls": calls("mpoly.parse"),
        "mpoly.mul_s": incl("mpoly.mul"),
        "mpoly.mul_calls": calls("mpoly.mul"),
        "families.construct_s": incl("families.construct"),
        "families.construct_calls": len(_outermost(spans, {"families.construct"}, by_id)) or None,
        "families.identity_check_s": incl("families.identity_check"),
        "quadric.value_tables_s": incl("quadric.value_tables"),
        "quadric.verify_self_s": self_sum("quadric.verify"),
        "quadric.kerdock_s": incl("quadric.kerdock_set", "quadric.kerdock_check"),
        "quadric.kerdock_calls": calls("quadric.kerdock_check"),
        "quadric.generators_s": incl("quadric.generators"),
        "quadric.meets_once_s": incl("quadric.meets_once"),
        "quadric.meets_once_calls": calls("quadric.meets_once"),
        "hypersurface.build_F_s": incl("hypersurface.build_F"),
        "hypersurface.scan_self_s": self_sum("hypersurface.scan"),
        "hypersurface.residual_s": incl("hypersurface.residual"),
        "hypersurface.solve_s": incl("hypersurface.solve"),
        "cli.self_s": self_sum("cli.main"),
        "cli.calls": calls("cli.main"),
    }
    m["cli.ms_per_call"] = rate(m["cli.self_s"], m["cli.calls"], 1000.0)

    scans = named.get("_pairscan.pair_scan", [])
    m["pairscan.kernel_s"] = incl("_pairscan.pair_scan")
    m["pairscan.calls"] = len(scans) or None
    m["pairscan.pairs"] = sum(s.counts["pairs"] for s in scans) or None
    for kind in ("prime", "char2", "table"):
        sel = [s for s in scans if s.counts["kind"] == kind and s.counts["threads"] == 1]
        m[f"pairscan.mpairs_per_s.{kind}"] = rate(
            sum(s.counts["pairs"] for s in sel), sum(s.duration for s in sel), 1e-6)
    sel = [s for s in scans if s.counts["threads"] >= 2]
    m["pairscan.mpairs_per_s.2t"] = rate(
        sum(s.counts["pairs"] for s in sel), sum(s.duration for s in sel), 1e-6)
    one = [s.duration for s in scans if s.op == "verify ks16 t1"]
    two = [s.duration for s in scans if s.op == "verify ks16 t2"]
    m["pairscan.speedup_2t"] = rate(sum(one), sum(two)) if one and two else None
    small = [s.duration for s in scans if s.counts["n"] <= SMALL_CALL_ELEMS]
    m["pairscan.ms_per_call.small"] = statistics.fmean(small) * 1000.0 if small else None
    found = [s for s in scans if "useful" in s.counts]
    m["pairscan.early_exit_useful_frac"] = rate(
        sum(s.counts["useful"] for s in found), sum(s.counts["pairs"] for s in found))

    searches = named.get("search.search", [])
    full = [s for s in searches if s.counts.get("q") == 2 and s.counts.get("full")]
    generic = [s for s in searches if s not in full]
    m["search.full_q2_s"] = sum(s.duration for s in full) if full else None
    m["search.masked_self_s"] = sum(selft[s.id] for s in generic) if generic else None
    m["search.candidates"] = sum(s.counts["candidates"] for s in searches) if searches else None
    m["search.candidates_per_s"] = rate(m["search.candidates"],
                                        sum(s.duration for s in searches))
    m["search.hits"] = sum(s.counts["hits"] for s in searches) if searches else None
    generic_ids = {s.id for s in generic}
    inner = sum(1 for s in scans if s.parent in generic_ids)
    m["search.prefilter_survival"] = rate(inner, sum(s.counts["candidates"] for s in generic))
    m["search.witness_search_s"] = incl("search.witness_search")
    ws = named.get("search.witness_search", [])
    m["search.witness_pairs"] = sum(s.counts.get("pairs", 0) for s in ws) if ws else None
    m["search.recognize_s"] = incl("search.recognize")

    for layer in LAYERS:
        errors = sum(1 for s in spans if s.error and s.name.split(".")[0] == layer)
        m[f"{metric_prefix(layer)}.errors"] = errors
    return m
