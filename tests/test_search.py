"""Exhaustive searches and witness recognition."""

import hashlib
import itertools
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ovoid7 import search
from ovoid7.errors import BudgetExceeded, ParseError, Unsupported
from ovoid7.ff import ExtCtx, make_field
from ovoid7.mpoly import MPoly
from ovoid7.families import default_tower_basis, kantor_even, kantor_simple
from ovoid7.quadric import OvoidSpec, rank, verify_ovoid
from ovoid7.search import (SearchConfig, exhaustive_triple_search,
                           hyperplane_witness_search, index_of_spec,
                           recognize_kantor_even, spec_from_index,
                           triple_monomials)


def test_monomial_layout():
    monos = triple_monomials(2)
    assert len(monos) == 9
    assert monos[0] == (2, 0, 0)       # descending graded-lex
    assert monos[-1] == (0, 0, 1)
    assert len(triple_monomials(3)) == 19


def test_candidate_count_and_budget():
    cfg = SearchConfig(make_field(3, 1), max_degree=2, budget=10 ** 6)
    assert cfg.candidate_count() == 3 ** 27
    with pytest.raises(BudgetExceeded) as exc:
        exhaustive_triple_search(cfg)
    assert exc.value.count == 3 ** 27


def test_spec_index_round_trip():
    ctx = make_field(2, 1)
    cfg = SearchConfig(ctx, max_degree=2)
    spec = kantor_simple(ctx)
    idx = index_of_spec(cfg, spec)
    assert idx is not None
    assert spec_from_index(cfg, idx).polys() == spec.polys()
    rng = random.Random(0)
    for _ in range(20):
        k = rng.randrange(cfg.candidate_count())
        assert index_of_spec(cfg, spec_from_index(cfg, k)) == k


def test_homogeneous_top_search_q2():
    cfg = SearchConfig(make_field(2, 1), max_degree=2,
                       restriction="homogeneous-top", budget=1 << 20)
    assert cfg.candidate_count() == 2 ** 18
    res = exhaustive_triple_search(cfg)
    assert res.candidates_tested == 2 ** 18
    assert len(res.found_indices) == 8
    for i in res.found_indices:
        spec = spec_from_index(cfg, i)
        assert verify_ovoid(spec).is_ovoid
        assert all(sum(m) == 2 for f in spec.polys()
                   for m in (tuple((k >> (6 * i)) & 63 for i in range(3)) for k in f.terms))


def test_custom_mask_search():
    ctx = make_field(2, 1)
    mask = {"f1": {"x*y": 1, "z^2": 1, "x^2": 0, "y^2": 0,
                   "x*z": 0, "y*z": 0, "x": 0, "y": 0, "z": 0}}
    cfg = SearchConfig(ctx, max_degree=2, restriction=mask, budget=1 << 20)
    assert cfg.candidate_count() == 2 ** 18
    res = exhaustive_triple_search(cfg)
    assert index_of_spec(cfg, kantor_simple(ctx)) in res.found_indices
    for i in res.found_indices[:5]:
        assert spec_from_index(cfg, i).f1.render() == "x*y+z^2"


def test_mask_free_marker_and_errors():
    ctx = make_field(2, 1)
    cfg = SearchConfig(ctx, max_degree=2, restriction={"f1": {"x^2": "free"}})
    assert cfg.candidate_count() == 2 ** 27
    with pytest.raises(Unsupported):
        SearchConfig(ctx, max_degree=2, restriction={"f1": {"x^3": 0}})
    with pytest.raises(Unsupported):
        SearchConfig(ctx, max_degree=2, restriction={"f1": {"x+y": 0}})
    # a pinned value is a field element: 3 at q = 2 is refused, not reduced
    with pytest.raises(ParseError, match=r"'f1' key 'x': value 3 outside \[0, 2\)"):
        SearchConfig(ctx, max_degree=2, restriction={"f1": {"x": 3}})
    # two keys naming one monomial are refused, whatever their values
    for pins in ({"x*y": 1, "y*x": 0}, {"x*y": "free", "y*x": 1}, {"z^2": 0, "z*z": 0}):
        with pytest.raises(ParseError, match="'f2' names one monomial twice"):
            SearchConfig(ctx, max_degree=2, restriction={"f2": pins})


def test_search_matches_brute_force_on_subspace():
    # pin f2, f3 to the short Kantor values; enumerate f1 freely (2^9)
    ctx = make_field(2, 1)
    pin2 = {"x*z": 1, "y^2": 1, "z^2": 1, "x*y": 0, "y*z": 0, "x^2": 0,
            "x": 0, "y": 0, "z": 0}
    pin3 = {"y*z": 1, "x^2": 1, "y^2": 1, "z^2": 1, "x*y": 0, "x*z": 0,
            "x": 0, "y": 0, "z": 0}
    cfg = SearchConfig(ctx, max_degree=2, restriction={"f2": pin2, "f3": pin3})
    assert cfg.candidate_count() == 2 ** 9
    res = exhaustive_triple_search(cfg)
    assert res.found_indices == _brute_force(cfg)
    assert index_of_spec(cfg, kantor_simple(ctx)) in res.found_indices


def _digest(indices):
    return hashlib.sha256(",".join(map(str, indices)).encode()).hexdigest()


@pytest.mark.parametrize("restriction, hits, digest", [
    ("full", 4096, "fddf9204a01709354a84be252ab64691d3b645bb8bb378ed3a2d2ea025aea36e"),
    ("homogeneous-top", 8, "5fc19c384040e9b90bad312ea4814f579740874d5dfce9c7dea0b88124927bdd"),
])
def test_q2_hits_are_pinned(restriction, hits, digest):
    cfg = SearchConfig(make_field(2, 1), max_degree=2, restriction=restriction)
    res = exhaustive_triple_search(cfg)
    assert res.candidates_tested == cfg.candidate_count()
    assert len(res.found_indices) == hits
    assert _digest(res.found_indices) == digest
    # the report joins monomial texts; the rendered polynomials are the reference
    assert res.to_json_dict()["specs"] == [spec_from_index(cfg, i).render_lines()
                                           for i in res.found_indices[:1000]]


@pytest.mark.parametrize("restriction", ["full", "homogeneous-top"])
def test_two_row_prefilter_leaves_64_pair_scans_at_q2(restriction):
    # 2,048 triples of distinct tables pass the origin row; the row of
    # (1, 0, 0) leaves 64, and 8 of those are ovoids
    cfg = SearchConfig(make_field(2, 1), max_degree=2, restriction=restriction)
    with mock.patch.object(search._pairscan, "pair_scan",
                           wraps=search._pairscan.pair_scan) as spy:
        exhaustive_triple_search(cfg)
    assert spy.call_count == 64
    passing = [c for c in spy.call_args_list
               if search._pairscan.pair_scan(*c.args, **c.kwargs).first_zero is None]
    assert len(passing) == 8


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_row_codes_match_the_pair_value(q):
    """The lane sum of the three components' row codes is a zero sum
    exactly where L(i, j) = 0, for the rows i = 0, 1 that the prefilter
    reads, on random tables (nonzero at the origin too)."""
    ctx = make_field(*{4: (2, 2)}.get(q, (q, 1)))
    consts = search._pairscan._constants(ctx)
    rng = np.random.default_rng(q)
    coords = search._pairscan.coordinate_arrays(q)
    gs = rng.integers(0, q, size=(3, 4, q ** 3))          # f1, f2, f3: four tables each
    for i in (0, 1):
        codes = [search._row_codes(consts, u, g, i) for u, g in zip(coords[::-1], gs)]
        sums = codes[0][:, None, None] + codes[1][None, :, None] + codes[2][None, None]
        hit = consts[1](sums)
        want = np.zeros_like(hit)
        for t in itertools.product(range(4), repeat=3):
            f1, f2, f3 = (g[k] for g, k in zip(gs, t))
            for j in range(i + 1, q ** 3):
                total = 0
                for u, g in zip(coords, (f3, f2, f1)):
                    total = ctx.add(total, ctx.mul(ctx.sub(int(u[i]), int(u[j])),
                                                   ctx.sub(int(g[j]), int(g[i]))))
                want[t + (j - i - 1,)] = total == 0
        assert (hit == want).all()


@pytest.mark.parametrize("p,h,max_degree,restriction", [
    (2, 1, 2, "full"), (2, 2, 3, "full"), (3, 1, 3, "homogeneous-top"),
    (5, 1, 2, {"f2": {"x": 4, "y*z": "free"}, "f3": {"x^2": 3}}),
])
def test_spec_lines_match_rendered_specs(p, h, max_degree, restriction):
    cfg = SearchConfig(make_field(p, h), max_degree=max_degree, restriction=restriction)
    rng = random.Random(p * 10 + h)
    count = cfg.candidate_count()
    for i in [0, count - 1] + [rng.randrange(count) for _ in range(200)]:
        assert cfg.spec_lines(i) == spec_from_index(cfg, i).render_lines()


# -- the factored search against a per-candidate oracle ---------------------------


def _brute_force(cfg):
    """Indices of every candidate that verify_ovoid accepts, one by one."""
    return [k for k in range(cfg.candidate_count())
            if verify_ovoid(spec_from_index(cfg, k)).is_ovoid]


def _mono_text(m):
    return "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip("xyz", m) if e)


def _mask(monos, free, pinned):
    """Restriction dict over every position: free ones marked, the rest pinned."""
    n = len(monos)
    return {f"f{c + 1}": {_mono_text(m): "free" if c * n + j in free else pinned[c * n + j]
                          for j, m in enumerate(monos)}
            for c in range(3)}


def _kantor_coeffs(ctx, monos):
    return [f.coeff_raw(m) for f in kantor_simple(ctx).polys() for m in monos]


@pytest.mark.parametrize("spread", [1, 2, 3])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_search_matches_brute_force(spread, data):
    """Random masks with free positions in `spread` of the three components
    (the others fully pinned), at most about 2^10 candidates, under the
    default chunking and under chunks of one or a few blocks."""
    p, h = data.draw(st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1)]), label="field")
    ctx = make_field(p, h)
    q = ctx.q
    degree = data.draw(st.sampled_from([2, 3]), label="max_degree") if q == 2 else 2
    monos = triple_monomials(degree)
    n = len(monos)
    max_free = {2: 10, 3: 6, 4: 5, 5: 4}[q]
    comps = data.draw(st.sampled_from(list(itertools.combinations(range(3), spread))),
                      label="components")
    free = set()
    for i, c in enumerate(comps):
        room = max_free - len(free) - (len(comps) - 1 - i)
        js = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=room, unique=True))
        free |= {c * n + j for j in js}
    if p == 2 and data.draw(st.booleans(), label="near kantor-simple"):
        pinned = _kantor_coeffs(ctx, monos)
    else:
        pinned = data.draw(st.lists(st.integers(0, q - 1), min_size=3 * n, max_size=3 * n))
    cfg = SearchConfig(ctx, max_degree=degree, restriction=_mask(monos, free, pinned))
    assert cfg.candidate_count() == q ** len(free) <= 1 << 10
    chunk = data.draw(st.sampled_from([q ** 3, q ** 4, search.CHUNK_ELEMS]), label="chunk")
    step = data.draw(st.sampled_from([1, 100, search.STEP_ELEMS]), label="step")
    with mock.patch.object(search, "CHUNK_ELEMS", chunk), \
            mock.patch.object(search, "STEP_ELEMS", step):
        res = exhaustive_triple_search(cfg)
    assert res.candidates_tested == cfg.candidate_count()
    assert res.found_indices == _brute_force(cfg)


def test_mask_is_parsed_once_per_key():
    """The restriction is resolved when the config is built: one MPoly.parse
    per mask key, and none while decoding, encoding, counting, searching or
    reporting."""
    ctx = make_field(2, 2)
    monos = triple_monomials(2)
    mask = _mask(monos, {0, 1, len(monos) + 2}, _kantor_coeffs(ctx, monos))
    ks = kantor_simple(ctx)
    with mock.patch.object(MPoly, "parse", wraps=MPoly.parse) as parse:
        cfg = SearchConfig(ctx, max_degree=2, restriction=mask)
        assert parse.call_count == sum(len(pins) for pins in mask.values()) == 27
        parse.reset_mock()
        res = exhaustive_triple_search(cfg)
        idx = index_of_spec(cfg, ks)
        assert spec_from_index(cfg, idx).polys() == ks.polys()
        assert idx in res.found_indices and cfg.candidate_count() == 4 ** 3
        assert len(res.to_json_dict()["specs"]) == len(res.found_indices)
        assert parse.call_count == 0


def test_lopsided_mask_matches_brute_force():
    # all ten free positions in f1 at degree 3; f2, f3 and the rest of f1 as
    # in the short Kantor triple.  Chunks of 8 blocks split f1 into 128 chunks.
    ctx = make_field(2, 1)
    monos = triple_monomials(3)
    free = set(range(len(monos) - 10, len(monos)))
    cfg = SearchConfig(ctx, max_degree=3,
                       restriction=_mask(monos, free, _kantor_coeffs(ctx, monos)))
    assert cfg.candidate_count() == 2 ** 10
    with mock.patch.object(search, "CHUNK_ELEMS", 8 * 2 ** 3), \
            mock.patch.object(search, "STEP_ELEMS", 64):
        res = exhaustive_triple_search(cfg)
    assert res.found_indices == _brute_force(cfg)
    assert index_of_spec(cfg, kantor_simple(ctx)) in res.found_indices


def test_found_specs_reverify_and_zero_never_found():
    ctx = make_field(2, 1)
    cfg = SearchConfig(ctx, max_degree=2, restriction="homogeneous-top")
    res = exhaustive_triple_search(cfg)
    z = OvoidSpec(ctx, MPoly.zero(ctx, 3), MPoly.zero(ctx, 3), MPoly.zero(ctx, 3))
    assert index_of_spec(cfg, z) not in res.found_indices
    for i in res.found_indices:
        assert verify_ovoid(spec_from_index(cfg, i)).is_ovoid


# -- quartic witness search ------------------------------------------------------


def test_hyperplane_witness_search_q3_empty():
    ext = ExtCtx(make_field(3, 1), 4)
    rep = hyperplane_witness_search(ext)
    assert rep.independent_pairs == []
    assert rep.dependent_pairs == 73
    assert rep.pairs_scanned == 81 * 81


def test_hyperplane_witness_search_q9_pinned():
    rep = hyperplane_witness_search(ExtCtx(make_field(3, 2), 4))
    assert rep.independent_pairs == []
    assert rep.dependent_pairs == 1745
    assert rep.pairs_scanned == 6561 * 6561


@pytest.mark.parametrize("p,h,n", [(3, 2, 4), (3, 1, 4), (2, 2, 3)])
def test_independence_mask_matches_rank(p, h, n):
    """The 2x2-minor test against Gaussian elimination; the real search has
    no independent pair, so random and deliberately dependent pairs are used."""
    ext = ExtCtx(make_field(p, h), n)
    base = ext.base
    rng = random.Random(9)
    pairs = [(rng.randrange(ext.order), rng.randrange(ext.order)) for _ in range(300)]
    for _ in range(100):
        al = rng.randrange(ext.order)
        c, d = rng.randrange(base.q), rng.randrange(base.q)
        beta = ext.add(c, ext.pack([base.mul(d, x) for x in ext.unpack(al)]))
        pairs.append((al, beta))                                          # beta = c + d alpha
        pairs.append((rng.randrange(base.q), rng.randrange(ext.order)))  # alpha in F_q
    alphas = np.array([x for x, _ in pairs], dtype=np.int64)
    betas = np.array([y for _, y in pairs], dtype=np.int64)
    mask = search._independent_of_one(ext, alphas, betas)
    expect = [rank(base, [ext.unpack(1), ext.unpack(x), ext.unpack(y)]) == 3 for x, y in pairs]
    assert mask.tolist() == expect
    assert not any(expect[300:])
    assert any(expect)


def test_hyperplane_witness_search_guards():
    with pytest.raises(Unsupported):
        hyperplane_witness_search(ExtCtx(make_field(3, 1), 3))
    with pytest.raises(Unsupported):
        hyperplane_witness_search(ExtCtx(make_field(2, 1), 4))
    # (27^4)^2 pairs exceed the budget; refused before the packed tables
    ext = ExtCtx(make_field(3, 3), 4)
    with pytest.raises(Unsupported, match="exceed budget"):
        hyperplane_witness_search(ext)
    assert not ext._np and ext._log_exp is None


# -- basis recognition -----------------------------------------------------------


def test_recognize_kantor_even_q4():
    ctx = make_field(2, 2)
    spec = kantor_even(default_tower_basis(ctx))
    w = recognize_kantor_even(spec)
    assert w is not None
    from ovoid7.hypersurface import hyperplane_product_residual

    assert hyperplane_product_residual(spec, w).is_zero()


def test_recognize_rejects_non_kantor():
    ctx = make_field(2, 3)
    assert recognize_kantor_even(kantor_simple(ctx)) is None
    other = OvoidSpec(ctx, MPoly.parse("x^2", ctx, 3), MPoly.parse("y^2", ctx, 3),
                      MPoly.parse("z^2", ctx, 3))
    assert recognize_kantor_even(other) is None
    z = OvoidSpec(ctx, MPoly.zero(ctx, 3), MPoly.zero(ctx, 3), MPoly.zero(ctx, 3))
    assert recognize_kantor_even(z) is None


# (input basis, recognized basis) as (alpha, beta) coordinates, three bases
# per q drawn by random.Random(h); the recognized pair is the first match in
# packed order, often a Frobenius conjugate of the input rather than itself
RECOGNIZED = {
    1: [(([0, 0, 1], [0, 1, 1]), ([0, 1, 0], [1, 0, 1])),
        (([1, 1, 0], [1, 0, 1]), ([1, 1, 0], [1, 0, 1])),
        (([0, 0, 1], [1, 1, 0]), ([0, 1, 0], [0, 1, 1]))],
    2: [(([2, 1, 0], [1, 3, 3]), ([2, 1, 0], [1, 3, 3])),
        (([2, 3, 2], [0, 0, 2]), ([0, 2, 1], [2, 2, 2])),
        (([3, 2, 3], [3, 1, 1]), ([0, 3, 1], [2, 1, 0]))],
    3: [(([3, 2, 5], [7, 1, 0]), ([2, 6, 0], [6, 7, 4])),
        (([7, 4, 3], [3, 7, 7]), ([7, 4, 3], [3, 7, 7])),
        (([6, 2, 3], [2, 6, 0]), ([6, 6, 1], [3, 2, 5]))],
    4: [(([2, 2, 0], [12, 9, 1]), ([2, 2, 0], [12, 9, 1])),
        (([7, 11, 8], [5, 3, 8]), ([15, 8, 3], [13, 8, 11])),
        (([6, 0, 8], [8, 6, 5]), ([6, 8, 0], [14, 3, 6]))],
}


@pytest.mark.parametrize("h", [1, 2, 3, 4])
def test_recognize_returns_first_pair_in_packed_order(h):
    from ovoid7.errors import DependentBasis
    from ovoid7.families import TowerBasis

    ext = ExtCtx(make_field(2, h), 3)
    rng = random.Random(h)
    for given_pair, found_pair in RECOGNIZED[h]:
        while True:
            alpha = [rng.randrange(ext.q) for _ in range(3)]
            beta = [rng.randrange(ext.q) for _ in range(3)]
            try:
                basis = TowerBasis(ext, ext.element(alpha), ext.element(beta))
            except DependentBasis:
                continue
            break
        assert (alpha, beta) == given_pair
        w = recognize_kantor_even(kantor_even(basis))
        assert (list(w.alpha.coords), list(w.beta.coords)) == found_pair


def test_recognize_rejects_perturbed_kantor_triples():
    ctx = make_field(2, 2)
    spec = kantor_even(default_tower_basis(ctx))
    extra_xy = OvoidSpec(ctx, spec.f1, spec.f2 + MPoly.parse("x*y", ctx, 3), spec.f3)
    assert extra_xy.degree == 2
    assert recognize_kantor_even(extra_xy) is None
    assert spec.f3.coeff_raw((2, 0, 0)) == 1
    other_x2 = OvoidSpec(ctx, spec.f1, spec.f2, spec.f3 + MPoly.parse("x^2", ctx, 3).scale(3))
    assert other_x2.f3.coeff_raw((2, 0, 0)) == 2 and other_x2.degree == 2
    assert recognize_kantor_even(other_x2) is None


def test_recognize_scale_guard():
    ctx = make_field(2, 5)
    with pytest.raises(Unsupported):
        recognize_kantor_even(kantor_simple(ctx))
