"""Acceptance criteria, one test per criterion, each printing a
PASS/FAIL line with its measured evidence.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as
they complete; plain `pytest` captures them but still enforces every
assertion and time bound.
"""

import itertools
import random
import time

import pytest

from ovoid7.ff import ExtCtx, make_field
from ovoid7.mpoly import MPoly
from ovoid7.families import (Famiglia1Params, Famiglia2Params,
                             default_tower_basis, dye,
                             factorized_identity_check, famiglia1, famiglia2,
                             kantor_2mod3_even, kantor_2mod3_odd, kantor_even,
                             kantor_simple, ree_tits, thas_kantor)
from ovoid7.hypersurface import (affine_point_scan, bound_report,
                                 hyperplane_product_residual,
                                 quadric_product_residual, solve_deg2_system,
                                 solve_quadric_witness, threshold_boundary)
from ovoid7.quadric import (OvoidSpec, generator_point_sets, kerdock_check,
                            kerdock_set, meets_every_generator_once,
                            verify_ovoid)
from ovoid7.search import (SearchConfig, exhaustive_triple_search,
                           hyperplane_witness_search, index_of_spec, spec_from_index)

GOLDEN_Q2_OVOID_COUNT = 4096     # pinned after the first full enumeration


def report(n, ok, detail):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def rand_spec(ctx, rng, max_deg=3):
    polys = []
    for _ in range(3):
        d = {}
        for _ in range(rng.randrange(6)):
            m = tuple(rng.randrange(max_deg + 1) for _ in range(3))
            if 0 < sum(m) <= max_deg:
                d[m] = rng.randrange(ctx.q)
        polys.append(MPoly.from_dict(ctx, 3, d))
    return OvoidSpec(ctx, *polys)


def test_criterion_01_kantor_simple_booleans():
    results = {}
    elapsed16 = None
    for h, expected in ((1, True), (2, True), (3, False), (4, True)):
        ctx = make_field(2, h)
        t0 = time.perf_counter()
        rep = verify_ovoid(kantor_simple(ctx), threads=1)
        el = time.perf_counter() - t0
        results[ctx.q] = rep
        if ctx.q == 16:
            elapsed16 = el
        assert rep.is_ovoid is expected, (ctx.q, rep.is_ovoid)
    w = results[8].witness
    assert w is not None and w[0] != w[1]
    assert results[16].pairs_checked == 4096 * 4095 // 2
    report(1, elapsed16 < 30.0,
           f"q in (2,4,16) ovoids, q=8 witness {w}, q=16 single-thread {elapsed16:.1f}s < 30s")


def test_criterion_02_general_kantor_construction():
    for h in (1, 2, 3, 4):
        ctx = make_field(2, h)
        spec = kantor_even(default_tower_basis(ctx))
        assert verify_ovoid(spec).is_ovoid, ctx.q
    residuals = []
    for h in (1, 2, 3):
        ctx = make_field(2, h)
        w = default_tower_basis(ctx)
        spec = kantor_even(w)
        residuals.append(hyperplane_product_residual(spec, w).is_zero())
        solved = solve_deg2_system(w)
        assert solved.polys() == spec.polys(), ctx.q
    report(2, all(residuals),
           "ovoid at q in (2,4,8,16); residual zero and solved system identical at q in (2,4,8)")


def test_criterion_03_family_verifications():
    timings = {}

    def check(label, spec, threads=1, bound=60.0):
        t0 = time.perf_counter()
        rep = verify_ovoid(spec, threads=threads)
        el = time.perf_counter() - t0
        timings[label] = el
        assert rep.is_ovoid, label
        assert el < bound, (label, el)

    check("thas-kantor q=3", thas_kantor(make_field(3, 1), 2))
    ctx9 = make_field(3, 2)
    mu9 = next(m for m in range(2, 9) if not ctx9.is_square(m))
    check("thas-kantor q=9", thas_kantor(ctx9, mu9))
    ctx27 = make_field(3, 3)
    mu27 = next(m for m in range(2, 27) if not ctx27.is_square(m))
    check("thas-kantor q=27", thas_kantor(ctx27, mu27))
    check("ree-tits q=27", ree_tits(ctx27))
    check("dye q=8", dye(make_field(2, 3)))
    for q in (5, 11, 17):
        check(f"kantor-2mod3 odd q={q}", kantor_2mod3_odd(make_field(q, 1)))
    for h in (1, 3):
        check(f"kantor-2mod3 even q={2 ** h}", kantor_2mod3_even(make_field(2, h)))
    check("kantor-2mod3 even q=32", kantor_2mod3_even(make_field(2, 5)),
          threads=2, bound=300.0)
    slowest = max(timings, key=timings.get)
    report(3, True, f"all families verify; slowest {slowest} at {timings[slowest]:.1f}s")


def test_criterion_04_factorized_identities():
    checks = {
        "odd q=5": factorized_identity_check("2mod3_odd", make_field(5, 1)),
        "odd q=11": factorized_identity_check("2mod3_odd", make_field(11, 1)),
        "even q=2": factorized_identity_check("2mod3_even", make_field(2, 1)),
        "even q=8": factorized_identity_check("2mod3_even", make_field(2, 3)),
    }
    report(4, all(checks.values()), f"symbolic factorizations {sorted(checks)}")


def test_criterion_05_two_quadric_witnesses():
    records = []
    for q in (5, 11):
        ctx = make_field(q, 1)
        for eps in (1, -1):
            for (C4, D4, a010, b100) in ((0, 0, 0, 0), (2, 3, 1, 4)):
                spec = famiglia1(ctx, Famiglia1Params(epsilon=eps, C4=C4, D4=D4,
                                                      a010=a010, b100=b100))
                rec = {}
                w = solve_quadric_witness(spec, rec)
                assert quadric_product_residual(spec, w).is_zero(), (q, eps, C4, D4)
                records.append(rec)
    for h in (1, 3):
        ctx = make_field(2, h)
        for params in (Famiglia2Params(),
                       Famiglia2Params(C4=1, D4=1, c001=1, c010=1, b001=1)):
            spec = famiglia2(ctx, params)
            rec = {}
            w = solve_quadric_witness(spec, rec)
            assert quadric_product_residual(spec, w).is_zero(), (ctx.q, params)
            records.append(rec)
    assert all("B4" in r for r in records)
    report(5, True, f"residual zero for {len(records)} witnessed splits, entries recorded")


def test_criterion_06_four_hyperplane_obstruction():
    rep3 = hyperplane_witness_search(ExtCtx(make_field(3, 1), 4))
    rep9 = hyperplane_witness_search(ExtCtx(make_field(3, 2), 4))
    ok = rep3.independent_pairs == [] and rep9.independent_pairs == []
    report(6, ok,
           f"no independent witnesses; scans of {rep3.pairs_scanned} and {rep9.pairs_scanned} pairs")


def test_criterion_07_cross_oracle_equivalence():
    rng = random.Random(2024)
    gsets2 = generator_point_sets(make_field(2, 1))
    checked = 0
    for q in (2, 3):
        ctx = make_field(q, 1)
        if q == 2:
            family_specs = [kantor_simple(ctx), kantor_even(default_tower_basis(ctx)),
                            kantor_2mod3_even(ctx), famiglia2(ctx, Famiglia2Params()),
                            famiglia2(ctx, Famiglia2Params(C4=1, b001=1))]
        else:
            family_specs = [thas_kantor(ctx, 2)]
        specs = family_specs + [rand_spec(ctx, rng) for _ in range(100)]
        for spec in specs:
            ver = verify_ovoid(spec).is_ovoid
            scan = affine_point_scan(spec).off_diagonal == 0
            kd = kerdock_check(kerdock_set(spec))
            assert ver == scan == kd, spec
            if q == 2:
                assert meets_every_generator_once(spec, gsets2) == ver, spec
            checked += 1
    report(7, True, f"verify == scan == matrix-set check on {checked} specs; "
                    "generator oracle agrees at q=2 (270 generators)")


def test_criterion_08_point_count_invariant():
    totals = {}
    for h in (1, 2):
        ctx = make_field(2, h)
        spec = kantor_even(default_tower_basis(ctx))
        rep = affine_point_scan(spec)
        totals[ctx.q] = rep.total
        assert rep.total == ctx.q ** 3
        assert rep.off_diagonal == 0
    report(8, True, f"scan totals {totals} equal q^3 (all zeros on the diagonal)")


def test_criterion_09_exhaustive_classification_q2():
    ctx = make_field(2, 1)
    cfg = SearchConfig(ctx, max_degree=2, restriction="full", budget=1 << 28)
    t0 = time.perf_counter()
    res = exhaustive_triple_search(cfg)
    elapsed = time.perf_counter() - t0
    assert res.candidates_tested == 2 ** 27
    assert len(res.found_indices) == GOLDEN_Q2_OVOID_COUNT
    ks_idx = index_of_spec(cfg, kantor_simple(ctx))
    assert ks_idx in set(res.found_indices)
    # generator oracle on every found spec, deduplicated by value tables
    gsets = generator_point_sets(ctx)
    seen = set()
    reps = []
    for idx in res.found_indices:
        spec = spec_from_index(cfg, idx)
        key = tuple(int(v) for a in spec.value_tables()[3:] for v in a)
        if key not in seen:
            seen.add(key)
            reps.append(spec)
    assert all(meets_every_generator_once(s, gsets) for s in reps)
    ok = elapsed < 900.0
    report(9, ok, f"2^27 candidates in {elapsed:.1f}s; {len(res.found_indices)} ovoid "
                  f"triples ({len(reps)} point sets), short Kantor triple included")


def test_criterion_10_bound_calculator():
    from decimal import Decimal, localcontext

    with localcontext() as dctx:
        dctx.prec = 80
        worst = 0.0
        for (r, d, q) in itertools.product((3, 5), (2, 3, 4), (8, 64, 739, 1024)):
            rep = bound_report(r, d, q)
            lw = Decimal((d - 1) * (d - 2)) * Decimal(q) ** (r - 1) * Decimal(q).sqrt()
            cm = lw + 5 * Decimal(d) ** (Decimal(13) / Decimal(3)) * Decimal(q) ** (r - 1)
            if lw:
                worst = max(worst, abs(float((Decimal(rep.lw_radius) - lw) / lw)))
            worst = max(worst, abs(float((Decimal(rep.cm_radius) - cm) / cm)))
        assert worst < 1e-12
        boundaries = {}
        from ovoid7.ff import factorize

        for d in (2, 3):
            q = threshold_boundary(d)
            boundaries[d] = q
            prev = max(s for s in range(2, q) if len(factorize(s)) == 1)
            assert bound_report(5, d, q).threshold_ok
            assert not bound_report(5, d, prev).threshold_ok
    report(10, True, f"radii within 1e-12 (worst {worst:.2e}); "
                     f"threshold flips at prime powers {boundaries}")


def test_criterion_11_property_suites():
    rng = random.Random(11)
    contexts = [make_field(2, 1), make_field(2, 3), make_field(3, 2),
                make_field(5, 1), make_field(2, 5), make_field(7, 1)]
    t0 = time.perf_counter()
    for i in range(10_000):
        ctx = contexts[i % len(contexts)]
        a, b, c = (rng.randrange(ctx.q) for _ in range(3))
        assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
        assert ctx.add(a, ctx.neg(a)) == 0
        if a:
            assert ctx.mul(a, ctx.inv(a)) == 1
        assert ctx.pow(a, ctx.q) == a
    t_ff = time.perf_counter() - t0

    def rp(ctx):
        d = {}
        for _ in range(rng.randrange(4)):
            d[tuple(rng.randrange(3) for _ in range(3))] = rng.randrange(ctx.q)
        return MPoly.from_dict(ctx, 3, d)

    t0 = time.perf_counter()
    polyctx = [make_field(2, 1), make_field(5, 1), make_field(2, 3)]
    for i in range(10_000):
        ctx = polyctx[i % 3]
        P, Q = rp(ctx), rp(ctx)
        v = [rng.randrange(ctx.q) for _ in range(3)]
        assert (P + Q).eval_raw(v) == ctx.add(P.eval_raw(v), Q.eval_raw(v))
        if i % 4 == 0:
            assert (P * Q).eval_raw(v) == ctx.mul(P.eval_raw(v), Q.eval_raw(v))
            assert MPoly.parse(P.render(), ctx, 3) == P
    t_mp = time.perf_counter() - t0
    ok = t_ff < 10.0 and t_mp < 10.0
    report(11, ok, f"10^4 field cases in {t_ff:.1f}s, 10^4 polynomial cases in {t_mp:.1f}s")
