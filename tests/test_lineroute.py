"""The line route for triples affine linearized in one coordinate, against
the pair kernel and a scalar count: exact ordered zero counts, the count
table, thread invariance, coordinate and route choice."""

import random

import numpy as np
import pytest

from ovoid7 import _diffroute, _pairscan
from ovoid7.families import (Famiglia1Params, default_tower_basis, dye, famiglia1,
                             kantor_2mod3, kantor_even, kantor_simple, ree_tits, thas_kantor)
from ovoid7.ff import factorize, make_field
from ovoid7.hypersurface import affine_point_scan
from ovoid7.mpoly import MAX_EXP, MPoly, unpack_exps
from ovoid7.quadric import OvoidSpec, verify_ovoid

QS = (3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27)


def field(q):
    return make_field(*next(iter(factorize(q).items())))


def pair_count(spec):
    """Ordered off-diagonal zeros from a full pair scan."""
    return 2 * _pairscan.pair_scan(spec.ctx, spec.value_tables(), early_exit=False).zero_pairs


def line_spec(ctx, rng, v):
    """A random triple in which coordinate v occurs only with exponents 0
    and p^kappa, kappa >= h included wherever the exponent cap allows (so
    z^q = z and z^(pq) = z^p appear too); the other two coordinates take
    exponents up to 3."""
    top = max(k for k in range(8) if ctx.p ** k <= MAX_EXP)
    polys = []
    for _ in range(3):
        terms = {}
        for _ in range(rng.randrange(1, 6)):
            exps = [rng.randrange(4), rng.randrange(4), rng.randrange(4)]
            if rng.random() < 0.3:
                exps[v] = 0
            else:
                exps[v] = ctx.p ** rng.randrange(top + 1)
            if any(exps):                   # the triple vanishes at the origin
                terms[tuple(exps)] = rng.randrange(1, ctx.q)
        polys.append(MPoly.from_dict(ctx, 3, terms))
    return OvoidSpec(ctx, *polys)


def _kappas(spec, v):
    """The Frobenius powers (mod h) with which coordinate v occurs."""
    ctx = spec.ctx
    out = set()
    for f in spec.polys():
        for key in f.terms:
            e = unpack_exps(key, 3)[v]
            if e:
                out.add(next(k for k in range(8) if ctx.p ** k == e) % ctx.h)
    return tuple(sorted(out))


@pytest.mark.parametrize("q", QS)
def test_line_count_equals_pair_scan(q):
    ctx = field(q)
    rng = random.Random(500 + q)
    per_coordinate = 1 if q >= 25 else 2 if q >= 11 else 3
    nonzero = 0
    for v in range(3):
        for _ in range(per_coordinate):
            spec = line_spec(ctx, rng, v)
            kappas = _kappas(spec, v)
            want = pair_count(spec)
            assert _pairscan.line_count(ctx, spec.value_tables(), v, kappas) == want
            nonzero += want > 0
    assert nonzero                          # failing triples are among them


def test_high_frobenius_powers_reduce_mod_h():
    # z^3 = z on F_3 and z^9 = z on F_9: the exponent's kappa is taken mod h
    for q, lines in ((3, ["x*z^3+y^2", "z^3*y", "x^2*z"]),
                     (9, ["x*z^9+y^2*z^3", "z^27*y", "x^2*z+y"])):
        spec = OvoidSpec.from_lines(field(q), lines)
        v, kappas = _diffroute.line_coordinate(spec)
        assert v == 2 and kappas == ((0,) if q == 3 else (0, 1))
        assert _pairscan.line_count(spec.ctx, spec.value_tables(), v, kappas) == pair_count(spec)


def test_absent_coordinate_is_one_plane():
    # no monomial uses z: every slice is constant along the lines in z
    spec = OvoidSpec.from_lines(field(9), ["x^2*y^2", "x*y^2+y", "y^5+x^3"])
    assert _diffroute.line_coordinate(spec) == (2, ())
    zs, canons, counts = _pairscan._line_constants(spec.ctx, ())
    assert zs == () and counts.tolist() == [9] + [0] * 8
    assert _pairscan.line_count(spec.ctx, spec.value_tables(), 2, ()) == pair_count(spec)


def _scalar_count(spec):
    """Ordered off-diagonal zeros of L(s, t) = sum (u_s - u_t)(g_t - g_s)
    over (u, g) = (x, f3), (y, f2), (z, f1), in scalar field arithmetic
    on every ordered pair, each component evaluated once per point."""
    ctx = spec.ctx
    q = ctx.q
    pts = [_pairscan.triple_of_index(q, k) for k in range(q ** 3)]
    vals = [(t, [f.eval_raw(t) for f in (spec.f3, spec.f2, spec.f1)]) for t in pts]
    count = 0
    for s, gs in vals:
        for t, gt in vals:
            if s != t:
                total = 0
                for us, ut, a, b in zip(s, t, gs, gt):
                    total = ctx.add(total, ctx.mul(ctx.sub(us, ut), ctx.sub(b, a)))
                count += total == 0
    return count


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_line_count_equals_scalar_count(q):
    ctx = field(q)
    rng = random.Random(900 + q)
    for v in range(3):
        spec = line_spec(ctx, rng, v)
        kappas = _kappas(spec, v)
        assert _pairscan.line_count(ctx, spec.value_tables(), v, kappas) == _scalar_count(spec)


@pytest.mark.parametrize("q,kappas", [(4, (0, 1)), (5, (0,)), (8, (0, 2)), (9, (1,)),
                                      (9, (0, 1)), (16, (1, 3))])
def test_count_table_matches_enumeration(q, kappas):
    # every line value tuple (g(0), g(zs[0]), ...) looks up the number of z
    # with gamma + sum_i beta_i z^(p^kappa_i) = 0, enumerated directly
    ctx = field(q)
    zs, canons, counts = _pairscan._line_constants(ctx, kappas)
    assert len(zs) == len(kappas) and 0 not in zs
    assert len(counts) == q ** (len(kappas) + 1)
    rng = random.Random(q)
    betas = [tuple(rng.randrange(q) for _ in kappas) for _ in range(40)] + [(0,) * len(kappas)]
    for beta in betas:
        for gamma in range(q):
            def g(z):
                out = gamma
                for b, kappa in zip(beta, kappas):
                    out = ctx.add(out, ctx.mul(b, ctx.pow(z, ctx.p ** kappa)))
                return out
            index = sum(g(z) * q ** j for j, z in enumerate((0,) + zs))
            assert counts[index] == sum(1 for z in range(q) if g(z) == 0)
    # canons reads lane sums back as field elements, scaled per plane
    enc, _ = _pairscan.lane_encoding(ctx)
    a, b, c = (np.arange(q) for _ in range(3))
    sums = enc[a[:, None, None]] + enc[b[None, :, None]] + enc[c[None, None, :]]
    field_sum = ctx.v_add(ctx.v_add(a[:, None, None], b[None, :, None]), c[None, None, :])
    for j in range(len(kappas) + 1):
        assert (canons[j][sums] == field_sum * q ** j).all()


def test_results_identical_for_every_thread_count():
    rng = random.Random(3)
    for q in (9, 13):
        ctx = field(q)
        for v in range(3):
            spec = line_spec(ctx, rng, v)
            got = {_pairscan.line_count(ctx, spec.value_tables(), v, _kappas(spec, v), threads=t)
                   for t in (1, 2, 3)}
            assert got == {pair_count(spec)}
    for spec in (kantor_2mod3(field(11)), OvoidSpec.from_lines(field(13), ["x*y^2+z", "y^3*z",
                                                                         "x^2+z*y"])):
        reports = [verify_ovoid(spec, threads=t) for t in (1, 2, 3)]
        scans = [affine_point_scan(spec, threads=t) for t in (1, 2, 3)]
        assert {r.route for r in reports + scans} == {"line"}
        assert len({(r.is_ovoid, r.witness, r.pairs_checked) for r in reports}) == 1
        assert len({(s.total, s.witness) for s in scans}) == 1


def test_failing_line_triple_keeps_pair_scan_witness():
    spec = OvoidSpec.from_lines(field(13), ["x*y^2+z", "y^3*z", "x^2+z*y"])
    assert _diffroute.choose_route(spec) == "line"
    res = _pairscan.pair_scan(spec.ctx, spec.value_tables(), early_exit=True)
    rep = verify_ovoid(spec)
    assert not rep.is_ovoid and rep.route == "line"
    assert rep.witness == _pairscan.witness_triples(13, res.first_zero)
    assert rep.pairs_checked == res.pairs_checked
    scan = affine_point_scan(spec)
    assert scan.route == "line" and scan.witness == rep.witness
    assert scan.off_diagonal == pair_count(spec) > 0


def _thas_kantor(ctx):
    return thas_kantor(ctx, next(m for m in range(1, ctx.q) if not ctx.is_square(m)))


@pytest.mark.parametrize("name,make,q", [("thas-kantor", _thas_kantor, 27),
                                         ("kantor-2mod3", kantor_2mod3, 17),
                                         ("ree-tits", ree_tits, 27)])
def test_families_verify_on_the_line_route(name, make, q):
    spec = make(field(q))
    rep = verify_ovoid(spec, threads=1)
    n = q ** 3
    assert rep.route == "line" and rep.is_ovoid
    assert rep.witness is None and rep.pairs_checked == n * (n - 1) // 2


def test_route_choice():
    route = _diffroute.choose_route
    assert route(_thas_kantor(field(27))) == "line"
    assert route(kantor_2mod3(field(17))) == "line"
    assert route(ree_tits(field(27))) == "line"
    assert route(famiglia1(field(11), Famiglia1Params(epsilon=1, C4=1, D4=2))) == "line"
    assert route(kantor_simple(field(16))) == "difference"
    assert route(kantor_even(default_tower_basis(field(16)))) == "difference"
    assert route(dye(field(8))) == "pair-scan"                        # q < MIN_Q
    assert route(OvoidSpec.from_lines(field(27), ["x^2*y^2*z^2", "0", "0"])) == "pair-scan"


def test_line_coordinate():
    pick = _diffroute.line_coordinate
    # ree-tits: z occurs as z and z^9 = z^(3^2); x and y occur squared
    assert pick(ree_tits(field(27))) == (2, (0, 2))
    # thas-kantor: z only to the first power; x and y also as squares
    assert pick(_thas_kantor(field(9))) == (2, (0,))
    # kantor-2mod3 at odd q: x only to the first power
    assert pick(kantor_2mod3(field(17))) == (0, (0,))
    # the fewest kappas wins, then the first coordinate
    assert pick(OvoidSpec.from_lines(field(8), ["x^2*y+x*z", "x^4", "z^2"])) == (1, (0,))
    assert pick(OvoidSpec.from_lines(field(8), ["x*y", "y*z", "z*x"])) == (0, (0,))
    # a coordinate that no monomial uses has no kappas, and wins
    assert pick(OvoidSpec.from_lines(field(8), ["x*y", "0", "0"])) == (2, ())
    assert pick(OvoidSpec.from_lines(field(9), ["x^2*y^2", "x*y^2", "y^5"])) == (2, ())
    assert pick(OvoidSpec.from_lines(field(27), ["x^2*y^2*z^2", "0", "0"])) is None


def test_table_limit_rules_out_large_tables(monkeypatch):
    # y occurs with all four Frobenius powers of F_16: a 16^5 entry table
    spec = OvoidSpec.from_lines(field(16), ["x^3*y+z^3*y^2", "x^3*y^4*z^3", "y^8*x^3*z^3"])
    assert 16 ** 5 > _diffroute.LINE_TABLE_LIMIT
    assert _diffroute.line_coordinate(spec) is None
    assert _diffroute.choose_route(spec) == "pair-scan"
    monkeypatch.setattr(_diffroute, "LINE_TABLE_LIMIT", 16 ** 5)
    assert _diffroute.line_coordinate(spec) == (1, (0, 1, 2, 3))
    assert _diffroute.choose_route(spec) == "line"
