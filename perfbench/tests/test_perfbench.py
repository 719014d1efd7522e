"""Tests of the benchmark itself (not of ovoid7).

    python3 -m pytest perfbench/tests -q
"""

import itertools
import json
from pathlib import Path

import compare
import gate
import inputs
import spans
import worker
import workloads


def _spans(*rows):
    """rows: (name, start, end, parent index or None)."""
    return [spans.Span(i, name, start, end, parent=parent)
            for i, (name, start, end, parent) in enumerate(rows)]


def test_self_time_subtracts_the_union_of_children():
    s = _spans(("a", 0.0, 10.0, None),
               ("b", 1.0, 4.0, 0),
               ("c", 2.0, 3.0, 1),
               ("d", 3.0, 6.0, 0))     # overlaps b: a's children cover [1, 6]
    st = spans.self_times(s)
    assert st == {0: 5.0, 1: 2.0, 2: 1.0, 3: 3.0}


def test_tracer_records_nested_spans_with_parents_and_operation():
    ticks = itertools.count()
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap(lambda: None, "inner")
    outer = tracer.wrap(lambda: (inner(), inner()), "outer")
    tracer.recording = True
    tracer.op = "op1"
    outer()
    names = [(sp.name, sp.parent, sp.op) for sp in tracer.spans]
    assert names == [("outer", None, "op1"), ("inner", 0, "op1"), ("inner", 0, "op1")]
    st = spans.self_times(tracer.spans)
    assert st[0] == tracer.spans[0].duration - 2.0
    assert st[1] == st[2] == 1.0


def test_tracer_wraps_every_binding_site_and_restores_them():
    from ovoid7 import cli, quadric
    original = quadric.verify_ovoid
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.verify_ovoid is quadric.verify_ovoid is not original
        assert cli.verify_ovoid.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert cli.verify_ovoid is quadric.verify_ovoid is original


def test_layer_metrics_count_pair_scans_and_self_time():
    tracer = spans.Tracer()
    tracer.install()
    tracer.recording = True
    try:
        from ovoid7 import cli
        from ovoid7.families import kantor_simple
        from ovoid7.ff import make_field
        from ovoid7.quadric import verify_ovoid
        verify_ovoid(kantor_simple(make_field(2, 3)), threads=1)
        cli.main(["--help-schemas"])
    finally:
        tracer.uninstall()
    m = spans.layer_metrics(tracer.spans)
    assert m["pairscan.calls"] == 1
    assert 0 < m["pairscan.early_exit_useful_frac"] <= 1
    assert m["cli.calls"] == 1
    assert m["quadric.verify_self_s"] >= 0
    assert m["search.full_q2_s"] is None
    assert all(m[f"{spans.metric_prefix(layer)}.errors"] == 0 for layer in spans.LAYERS)


def _run(ops, workdir):
    outcomes = {op.name: worker.run_op(op, {}, workdir)[1] for op in ops}
    return gate.check(ops, outcomes, workdir)


def test_gate_fails_when_an_expected_value_is_wrong(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    wl = workloads.Workload(fields=["8"], families={"ks8.spec": ("kantor-simple", "8"),
                                                    "ks2.spec": ("kantor-simple", "2")})
    worker.setup(wl, tmp_path)
    right = [
        workloads.Op("v2", "verify", ["verify", "--q", "2", "--spec", "ks2.spec", "--threads", "1"],
                     expect={"is_ovoid": True}),
        workloads.Op("s8", "scan", ["hypersurface", "--action", "scan", "--q", "8", "--spec",
                                    "ks8.spec", "--threads", "1"], expect={"off_diagonal": 86016}),
        workloads.Op("v8", "verify", ["verify", "--q", "8", "--spec", "ks8.spec", "--threads", "1"],
                     expect={"is_ovoid": False, "witness_zero": True, "witness_as": "s8"}),
    ]
    assert _run(right, tmp_path) == {"v2": [], "s8": [], "v8": []}
    wrong = [
        workloads.Op("v2", "verify", right[0].argv, expect={"is_ovoid": False}),
        workloads.Op("s8", "scan", right[1].argv, expect={"off_diagonal": 86015}),
        workloads.Op("v8", "verify", right[2].argv, expect={"exit": 0}),
    ]
    failures = _run(wrong, tmp_path)
    assert any("verdict" in f for f in failures["v2"])
    assert any("off_diagonal" in f for f in failures["s8"])
    assert any("exit 1" in f for f in failures["v8"])


def _tree(path: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def test_one_seed_always_gives_the_same_inputs(tmp_path):
    for name in workloads.WORKLOADS:
        a = inputs.generate(name, 7, tmp_path / f"{name}-a")
        b = inputs.generate(name, 7, tmp_path / f"{name}-b")
        c = inputs.generate(name, 8, tmp_path / f"{name}-c")
        assert a == b
        assert _tree(tmp_path / f"{name}-a") == _tree(tmp_path / f"{name}-b")
        assert _tree(tmp_path / f"{name}-a") != _tree(tmp_path / f"{name}-c")
        assert workloads.build_ops(name, a)


def test_generated_inputs_keep_their_invariants(tmp_path):
    m = inputs.generate("crosscheck-small", 3, tmp_path)
    assert all(p["a100"] == 0 for p in m["famiglia1"].values())
    s = inputs.generate("search-classify", 3, tmp_path / "s")
    for q, free in (("4", inputs.MASK4_FREE), ("3", inputs.MASK3_FREE)):
        mask = json.loads((tmp_path / "s" / s["masks"][q]).read_text())
        values = [v for comp in mask.values() for v in comp.values()]
        assert len(values) == 27 and values.count("free") == free


def _records(workload, metric, values):
    return [{"workload": workload, "metrics": {metric: v}} for v in values]


BENCH = {"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}],
         "per_layer": [{"name": "rate", "unit": "1/s", "better": "higher"}]}


def test_compare_reports_per_workload_and_metric():
    base = _records("w1", "wall_s", [10.0, 10.1, 9.9, 10.0, 10.05]) + \
        _records("w2", "wall_s", [5.0, 5.05, 4.95, 5.0, 5.02])
    new = _records("w1", "wall_s", [12.0, 12.1, 11.9, 12.0, 12.05]) + \
        _records("w2", "wall_s", [5.01, 5.0, 4.97, 5.03, 5.0])
    rows = {r["workload"]: r for r in compare.compare(base, new, BENCH)}
    assert rows["w1"]["status"] == "regressed"
    assert rows["w2"]["status"] == "unchanged"
    assert rows["w1"]["metric"] == rows["w2"]["metric"] == "wall_s"


def test_compare_marks_a_wide_spread_unresolved():
    base = _records("w", "wall_s", [10.0, 10.1, 9.9, 10.0, 10.05])
    noisy = _records("w", "wall_s", [8.0, 12.0, 10.0, 13.0, 9.0])
    row, = compare.compare(base, noisy, BENCH)
    assert row["new_spread"] > 0.1
    assert row["status"] == "unresolved"
    faster = _records("w", "wall_s", [7.0, 8.0, 9.0, 7.5, 9.5])
    row, = compare.compare(base, faster, BENCH)
    assert row["status"] == "improved"      # every new run beats every base run


def test_compare_respects_higher_is_better():
    base = [{"workload": "w", "metrics": {"rate": v}} for v in (100, 101, 99, 100)]
    new = [{"workload": "w", "metrics": {"rate": v}} for v in (60, 61, 59, 60)]
    row, = compare.compare(base, new, BENCH)
    assert row["status"] == "regressed" and row["change"] < 0


def test_compare_needs_nine_tenths_of_pairs_to_call_a_gain():
    base = _records("w", "wall_s", [10.0, 10.1, 9.9, 10.0, 10.05])
    mixed = _records("w", "wall_s", [9.5, 10.2, 9.4, 9.6, 10.1])    # median 4% lower, 60% of pairs
    row, = compare.compare(base, mixed, BENCH)
    assert row["change"] < -0.03 and row["status"] == "unchanged"
