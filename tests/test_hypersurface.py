"""Pair polynomial construction, scans, factorization residuals, bounds."""

import math
import random
from decimal import Decimal, getcontext, localcontext

import pytest

from ovoid7.errors import (DependentBasis, NotAQuadricPair, OddCharacteristic,
                           Unsupported, WrongResidue)
from ovoid7.ff import ExtCtx, FieldCtx, TowerElem, make_field
from ovoid7.mpoly import MPoly
from ovoid7.families import (Famiglia1Params, Famiglia2Params,
                             default_tower_basis, famiglia1, famiglia2,
                             kantor_even, kantor_simple)
from ovoid7.hypersurface import (HyperplaneWitness, QuadricWitness, _quadric_RS,
                                 affine_point_scan, bound_report, build_F,
                                 diagonal_restriction,
                                 hyperplane_product_residual,
                                 quadric_product_residual, solve_deg2_system,
                                 solve_quadric_witness, threshold_boundary)
from ovoid7.quadric import OvoidSpec, collinearity_value, verify_ovoid


def zero_spec(ctx):
    z = MPoly.zero(ctx, 3)
    return OvoidSpec(ctx, z, z, z)


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


# -- construction ----------------------------------------------------------------


def test_build_F_zero_triple():
    ctx = make_field(2, 1)
    assert build_F(zero_spec(ctx)).is_zero()


def test_build_F_degree():
    ctx = make_field(2, 1)
    F = build_F(kantor_simple(ctx))
    assert F.degree() == 3                     # component degree + 1


def test_diagonal_vanishing_random():
    rng = random.Random(0)
    for q, h in ((2, 1), (3, 1), (5, 1)):
        ctx = make_field(q, h)
        for _ in range(15):
            F = build_F(rand_spec(ctx, rng))
            assert diagonal_restriction(F).is_zero()


def test_F_evaluation_matches_pair_value():
    # dual route: the 6-variable polynomial against directly evaluated
    # component differences
    rng = random.Random(1)
    for q, h in ((2, 1), (5, 1), (2, 2)):
        ctx = make_field(q, h)
        for _ in range(20):
            spec = rand_spec(ctx, rng)
            F = build_F(spec)
            t1 = tuple(rng.randrange(ctx.q) for _ in range(3))
            t2 = tuple(rng.randrange(ctx.q) for _ in range(3))
            assert F.eval_raw(t1 + t2) == collinearity_value(spec, t1, t2).v


def test_degree_bound_and_equality_for_families():
    ctx2 = make_field(2, 1)
    assert build_F(kantor_simple(ctx2)).degree() == 3
    from ovoid7.families import kantor_2mod3_even, kantor_2mod3_odd

    assert build_F(kantor_2mod3_even(ctx2)).degree() == 4
    assert build_F(kantor_2mod3_odd(make_field(5, 1))).degree() == 4


# -- scans -----------------------------------------------------------------------


def test_scan_kantor_even_q2_diagonal_only():
    ctx = make_field(2, 1)
    rep = affine_point_scan(kantor_even(default_tower_basis(ctx)))
    assert rep.total == 8 and rep.off_diagonal == 0 and rep.witness is None


def test_scan_zero_triple_counts_everything():
    ctx = make_field(2, 1)
    rep = affine_point_scan(zero_spec(ctx))
    assert rep.total == 64
    assert rep.off_diagonal == 64 - 8


def test_scan_witness_matches_verify():
    ctx = make_field(2, 3)
    spec = kantor_simple(ctx)
    rep = affine_point_scan(spec)
    ver = verify_ovoid(spec)
    assert rep.off_diagonal > 0
    assert rep.witness == ver.witness


def test_scan_against_direct_evaluation_oracle_q2():
    ctx = make_field(2, 1)
    rng = random.Random(3)
    for _ in range(6):
        spec = rand_spec(ctx, rng, max_deg=2)
        F = build_F(spec)
        total = 0
        q = 2
        for idx in range(q ** 6):
            pt = tuple((idx >> b) & 1 for b in range(6))
            if F.eval_raw(pt) == 0:
                total += 1
        rep = affine_point_scan(spec)
        assert rep.total == total


def test_scan_budget_guard():
    # x*y*z has p-weight 3, so only the pair route could scan it, and it
    # stops at q = 64
    ctx = make_field(2, 7)
    spec = OvoidSpec.from_lines(ctx, ["x*y*z", "0", "0"])
    with pytest.raises(Unsupported, match="q <= 64"):
        affine_point_scan(spec)


def test_scan_above_difference_route_limit():
    ctx = make_field(2, 8)
    with pytest.raises(Unsupported, match="difference route supports q <= 128"):
        affine_point_scan(kantor_simple(ctx))


def test_scan_off_diagonal_zero_iff_ovoid():
    rng = random.Random(4)
    for q in (2, 3):
        ctx = make_field(q, 1)
        for _ in range(20):
            spec = rand_spec(ctx, rng)
            rep = affine_point_scan(spec)
            assert (rep.off_diagonal == 0) == verify_ovoid(spec).is_ovoid


# -- hyperplane residuals -----------------------------------------------------------


@pytest.mark.parametrize("h", [1, 2])
def test_hyperplane_residual_zero_for_construction(h):
    ctx = make_field(2, h)
    w = default_tower_basis(ctx)
    assert hyperplane_product_residual(kantor_even(w), w).is_zero()


def test_hyperplane_residual_nonzero_for_other_specs():
    ctx = make_field(2, 1)
    w = default_tower_basis(ctx)
    other = OvoidSpec(ctx, MPoly.parse("x^2", ctx, 3), MPoly.parse("y^2", ctx, 3),
                      MPoly.parse("z^2", ctx, 3))
    assert not hyperplane_product_residual(other, w).is_zero()


def test_hyperplane_witness_rejects_dependent_basis():
    ctx = make_field(2, 2)
    ext = ExtCtx(ctx, 3)
    with pytest.raises(DependentBasis):
        HyperplaneWitness(ext, ext.from_packed(1), ext.gen())


def test_hyperplane_witness_rejects_elements_of_another_extension():
    ctx = make_field(2, 1)
    ext = ExtCtx(ctx, 3, modulus=(1, 1, 0, 1))
    t = ExtCtx(ctx, 3, modulus=(1, 0, 1, 1)).gen()
    with pytest.raises(Unsupported, match="must belong to the given extension"):
        HyperplaneWitness(ext, t, t * t)


def test_four_plane_residual_machinery():
    # degree-3 triples pair with quartic-extension witnesses; no split
    # exists, so the residual is nonzero but well-formed and rational
    ctx = make_field(3, 1)
    from ovoid7.families import thas_kantor

    spec = thas_kantor(ctx, 2)
    ext4 = ExtCtx(ctx, 4)
    t = ext4.gen()
    w = HyperplaneWitness(ext4, t, t * t)
    G = hyperplane_product_residual(spec, w)
    assert not G.is_zero()
    assert G.degree() <= 4
    # degree/extension mismatches are rejected
    ext3 = ExtCtx(ctx, 3)
    t3 = ext3.gen()
    with pytest.raises(Unsupported):
        hyperplane_product_residual(spec, HyperplaneWitness(ext3, t3, t3 * t3))
    ctx2 = make_field(2, 1)
    with pytest.raises(Unsupported):
        hyperplane_product_residual(zero_spec(ctx2), w)


def test_hyperplane_product_always_rational():
    # the conjugate set is Frobenius-stable, so the product descends even
    # when the residual is nonzero; residual-zero specs then have F itself
    # equal to a rational product
    ctx = make_field(2, 1)
    basis = default_tower_basis(ctx)
    spec = kantor_even(basis)
    F = build_F(spec).lift(basis.ext)
    residual = hyperplane_product_residual(spec, basis)
    assert residual.is_zero()
    product = F - residual
    assert product.try_descend() == build_F(spec)


@pytest.mark.parametrize("h", [1, 2, 3])
def test_solve_deg2_system(h):
    ctx = make_field(2, h)
    w = default_tower_basis(ctx)
    spec = solve_deg2_system(w)
    assert spec.degree == 2
    assert spec.polys() == kantor_even(w).polys()
    assert verify_ovoid(spec).is_ovoid


def test_solve_deg2_system_odd_characteristic():
    ctx = make_field(3, 1)
    ext = ExtCtx(ctx, 3)
    t = ext.gen()
    with pytest.raises(OddCharacteristic):
        solve_deg2_system(HyperplaneWitness(ext, t, t * t))


@pytest.mark.parametrize("h", [1, 2, 3])
def test_literal_condition_list_vanishes_in_char2(h):
    from ovoid7.hypersurface import deg2_condition_residuals

    ctx = make_field(2, h)
    w = default_tower_basis(ctx)
    residuals = deg2_condition_residuals(w)
    assert len(residuals) == 56
    assert not any(residuals)
    solve_deg2_system(w, literal_check=True)


def test_literal_condition_list_contradictory_in_odd_char():
    # the sign variants of the same condition cannot vanish simultaneously
    # away from characteristic 2: D3 = 1 and D3 = -1 clash
    ctx = make_field(3, 1)
    ext = ExtCtx(ctx, 3)
    t = ext.gen()
    from ovoid7.hypersurface import deg2_condition_residuals

    residuals = deg2_condition_residuals(HyperplaneWitness(ext, t, t * t))
    assert any(residuals)


# -- quadric residuals ----------------------------------------------------------------


@pytest.mark.parametrize("q", [5, 11])
@pytest.mark.parametrize("eps", [1, -1])
def test_famiglia1_residual_zero(q, eps):
    ctx = make_field(q, 1)
    for (C4, D4, a010, b100) in ((0, 0, 0, 0), (2, 3, 1, 4), (1, 0, 2, 0)):
        spec = famiglia1(ctx, Famiglia1Params(epsilon=eps, C4=C4, D4=D4,
                                              a010=a010, b100=b100))
        record = {}
        w = solve_quadric_witness(spec, record)
        assert quadric_product_residual(spec, w).is_zero()
        assert record["epsilon"] == eps
        assert record["B4"] == 1


def test_famiglia1_a100_breaks_split():
    ctx = make_field(5, 1)
    spec = famiglia1(ctx, Famiglia1Params(epsilon=1, a100=2))
    w = solve_quadric_witness(spec, {})
    assert not quadric_product_residual(spec, w).is_zero()


@pytest.mark.parametrize("h", [1, 3])
def test_famiglia2_residual_zero(h):
    ctx = make_field(2, h)
    for params in (Famiglia2Params(), Famiglia2Params(C4=1, D4=1, c001=1, c010=1, b001=1)):
        spec = famiglia2(ctx, params)
        record = {}
        w = solve_quadric_witness(spec, record)
        assert quadric_product_residual(spec, w).is_zero()
        assert record["B4"] == 1


def test_quadric_witness_guards():
    ctx = make_field(5, 1)
    with pytest.raises(NotAQuadricPair):
        QuadricWitness(ctx=ctx, QR=(0, 1, 0, 0, 0, 0), QS=(0, 0, 0, 0, 0, 0),
                       LR=(0, 0, 0, 1), MR=(0, 0, 0, 0), NR=(0, 0, 0, 0), k=2)
    from ovoid7.errors import SquareMu

    with pytest.raises(SquareMu):
        QuadricWitness(ctx=ctx, QR=(0, 1, 0, 0, 0, 0), QS=(0, 1, 0, 0, 0, 0),
                       LR=(0, 0, 0, 1), MR=(0, 0, 0, 0), NR=(0, 0, 0, 0), k=4)
    with pytest.raises(WrongResidue):
        solve_quadric_witness(zero_spec(make_field(7, 1)))


def test_quadric_residual_galois_rationality():
    # the conjugate product over the quadratic extension always descends
    ctx = make_field(2, 1)
    spec = famiglia2(ctx, Famiglia2Params())
    w = solve_quadric_witness(spec, {})
    res = quadric_product_residual(spec, w)
    assert res.is_zero()
    # perturb one linear entry: residual becomes nonzero yet stays rational
    w2 = QuadricWitness(ctx=ctx, QR=w.QR, QS=w.QS, LR=(0, 0, 0, 1),
                        MR=(0, 1, 0, 1), NR=w.NR, xi=w.xi)
    res2 = quadric_product_residual(spec, w2)
    assert not res2.is_zero()
    assert res2.try_descend().ctx is ctx


def test_quadric_residual_reads_witness_entries_in_the_base_field():
    # at q = 2 the entry 3 is the base-field element 1, never the packed
    # extension element 1 + t
    ctx = make_field(2, 1)
    spec = famiglia2(ctx, Famiglia2Params())
    w = solve_quadric_witness(spec, {})
    big = QuadricWitness(ctx=ctx, QR=tuple(v + 2 * (v == 1) for v in w.QR), QS=w.QS,
                         LR=w.LR, MR=w.MR, NR=w.NR, xi=w.xi)
    assert big.QR != w.QR
    assert quadric_product_residual(spec, big) == quadric_product_residual(spec, w)
    assert quadric_product_residual(spec, big).is_zero()


def _ext_conjugate_product_residual(spec, w):
    """The two-quadric residual the long way: lift F, R and S to F_{q^2} and
    multiply (R + xi S)(R + xi^q S) there."""
    ext = w.xi.ctx
    R, S = (P.lift(ext) for P in _quadric_RS(spec.ctx, w))
    xi = w.xi
    xiq = TowerElem(ext, ext.frobenius(xi.v, 1))
    return build_F(spec).lift(ext) - (R + S.scale(xi)) * (R + S.scale(xiq))


@pytest.mark.parametrize("h", [1, 3, 5])
def test_quadric_residual_matches_the_extension_product(h):
    # the F_q residual F - (R^2 + Tr(xi) R S + N(xi) S^2), lifted, is the
    # residual of the product of the conjugate quadrics over F_{q^2}
    ctx = make_field(2, h)
    spec = famiglia2(ctx, Famiglia2Params(C4=1, D4=1))
    w = solve_quadric_witness(spec, {})
    ext = w.xi.ctx
    witnesses = [w, QuadricWitness(ctx=ctx, QR=w.QR, QS=w.QS, LR=(0, 0, 0, 1),
                                   MR=(0, 1, 0, 1), NR=(1, 0, 1, 0), xi=w.xi)]
    if h > 1:
        xi = next(x for x in map(ext.from_packed, range(ext.order))
                  if ext.frobenius(x.v, 1) == ext.add(x.v, 1) and ext.norm(x.v) != 1)
        witnesses += [QuadricWitness(ctx=ctx, QR=v.QR, QS=v.QS, LR=v.LR, MR=v.MR,
                                     NR=v.NR, xi=xi) for v in witnesses[:2]]
    nonzero = 0
    for v in witnesses:
        res = quadric_product_residual(spec, v)
        assert res.ctx is ctx
        assert res.lift(ext) == _ext_conjugate_product_residual(spec, v)
        nonzero += not res.is_zero()
    assert nonzero == len(witnesses) - 1


def test_quadric_residual_refuses_xi_outside_the_quadratic_extension():
    ctx = make_field(2, 1)
    spec = famiglia2(ctx, Famiglia2Params())
    w = solve_quadric_witness(spec, {})
    # xi^2 = xi + 1 holds in F_4, inside a quartic extension too
    for ext in (ExtCtx(FieldCtx(2, 1), 2), ExtCtx(ctx, 4)):
        xi = next(x for x in map(ext.from_packed, range(ext.order))
                  if ext.frobenius(x.v, 1) == ext.add(x.v, 1))
        bad = QuadricWitness(ctx=ctx, QR=w.QR, QS=w.QS, LR=w.LR, MR=w.MR, NR=w.NR, xi=xi)
        with pytest.raises(Unsupported, match="quadratic extension of the base field"):
            quadric_product_residual(spec, bad)


# -- bounds -----------------------------------------------------------------------------


def test_bound_lw_value_exact():
    rep = bound_report(5, 3, 1024)
    assert rep.lw_radius == float(2 * Decimal(1024) ** Decimal("4.5"))
    assert rep.lw_radius == 2.0 ** 46
    assert rep.center == 1024 ** 5
    assert rep.lang_weil_constant == "not computed"


def test_bound_applicability_flag():
    assert bound_report(5, 3, 128).applicable        # 128 > 2*6*9 = 108
    assert not bound_report(5, 3, 108).applicable
    assert not bound_report(5, 3, 100).applicable


@pytest.mark.parametrize("d,expected", [(2, 739), (3, 2579)])
def test_threshold_boundary_prime_power(d, expected):
    # oracle: high-precision evaluation of 6.3 (d+1)^(13/3), then the scan
    with localcontext() as dctx:
        dctx.prec = 60
        bound = Decimal("6.3") * Decimal(d + 1) ** (Decimal(13) / Decimal(3))
        q = threshold_boundary(d)
        assert q == expected
        assert Decimal(q) > bound
        # no smaller prime power exceeds the bound
        from ovoid7.ff import factorize

        for smaller in range(2, q):
            if len(factorize(smaller)) == 1:
                assert Decimal(smaller) <= bound
        assert bound_report(5, d, q).threshold_ok
        prev = max(s for s in range(2, q) if len(factorize(s)) == 1)
        assert not bound_report(5, d, prev).threshold_ok


def test_bound_radii_high_precision_recompute():
    with localcontext() as dctx:
        dctx.prec = 80
        for (r, d, q) in ((5, 3, 128), (5, 4, 739), (3, 2, 64), (5, 2, 1024)):
            rep = bound_report(r, d, q)
            lw = Decimal((d - 1) * (d - 2)) * Decimal(q) ** (r - 1) * Decimal(q).sqrt()
            cm = lw + 5 * Decimal(d) ** (Decimal(13) / Decimal(3)) * Decimal(q) ** (r - 1)
            if lw:
                assert abs(Decimal(rep.lw_radius) - lw) / lw < Decimal("1e-12")
            assert abs(Decimal(rep.cm_radius) - cm) / cm < Decimal("1e-12")


def test_bound_radii_monotone():
    qs = [4, 8, 16, 32, 64]
    ds = [2, 3, 4, 5]
    for d in ds:
        vals = [bound_report(5, d, q).cm_radius for q in qs]
        assert vals == sorted(vals)
    for q in qs:
        vals = [bound_report(5, d, q).cm_radius for d in ds]
        assert vals == sorted(vals)


def test_bound_argument_guard():
    with pytest.raises(Unsupported):
        bound_report(0, 3, 4)


def test_bound_radii_past_the_double_range_are_refused():
    # the second-order radius at q = 2, d = 3 is about 2^(r + 8.2)
    assert math.isfinite(bound_report(1015, 3, 2).cm_radius)
    for r, d, q in ((1016, 3, 2), (2000, 3, 2), (20000, 3, 2), (10 ** 100, 3, 2),
                    (1, 2 ** 300, 2), (60, 3, 2 ** 20)):
        with pytest.raises(Unsupported, match="reach 2\\^1024"):
            bound_report(r, d, q)
    # the center may pass 2^1024 while both radii are finite: it stays an exact integer
    rep = bound_report(103, 2, 991)
    assert rep.center == 991 ** 103 > 2 ** 1024 and math.isfinite(rep.cm_radius)


def test_bound_report_leaves_decimal_context_alone():
    with localcontext() as dctx:
        dctx.prec = 28
        bound_report(3, 3, 1024)
        assert getcontext().prec == 28
