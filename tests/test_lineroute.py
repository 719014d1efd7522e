"""The line route for triples affine linearized in one coordinate, against
the pair kernel and a scalar count: exact ordered zero counts, the count
table, thread invariance, coordinate and route choice, and the slope check
that drops Frobenius powers, against slopes taken point by point."""

import random
import time

import numpy as np
import pytest

from ovoid7 import _diffroute, _pairscan
from ovoid7.families import (Famiglia1Params, default_tower_basis, dye, famiglia1,
                             kantor_2mod3, kantor_even, kantor_simple, ree_tits, thas_kantor)
from ovoid7.ff import factorize, make_field
from ovoid7.hypersurface import affine_point_scan
from ovoid7.mpoly import MAX_EXP, MPoly, pack_exps, unpack_exps
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


def _famiglia1(ctx):
    return famiglia1(ctx, Famiglia1Params(epsilon=1, C4=1, D4=2))


@pytest.mark.parametrize("name,make,q", [("thas-kantor", _thas_kantor, 27),
                                         ("kantor-2mod3", kantor_2mod3, 17),
                                         ("ree-tits", ree_tits, 27),
                                         ("famiglia1", _famiglia1, 11)])
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
    assert route(_famiglia1(field(11))) == "line"
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


def test_table_limit_counts_only_live_powers():
    # x occurs with three Frobenius powers of F_32, a 32^4 entry table, but
    # every slope cancels: the one-plane count needs no table at all
    ctx = field(32)
    spec = cancelling_spec(ctx, random.Random(2232), 0, (1, 2, 3))
    assert 32 ** 4 > _diffroute.LINE_TABLE_LIMIT
    assert _diffroute.live_kappas(spec, 0, (1, 2, 3)) == ()
    assert _diffroute.line_coordinate(spec) == (0, (1, 2, 3))
    assert _diffroute.choose_route(spec) == "line"
    scan = affine_point_scan(spec)
    assert scan.route == "line" and scan.off_diagonal == pair_count(spec)


def test_fewest_live_powers_win():
    # x occurs only as x, with a live slope; z occurs as z and z^3, and both
    # slopes cancel (z*y and z^3*y in f3 against 2*z*x and 2*z^3*x in f2);
    # x*y^2 has p-weight 3, so the difference route does not take the triple
    spec = OvoidSpec.from_lines(field(9), ["y^2+x*y^2", "2*z*x+2*z^3*x", "z*y+z^3*y"])
    assert _diffroute.live_kappas(spec, 0, (0,)) == (0,)
    assert _diffroute.live_kappas(spec, 2, (0, 1)) == ()
    assert _diffroute.line_coordinate(spec) == (2, (0, 1))
    scan = affine_point_scan(spec)
    assert scan.route == "line" and scan.off_diagonal == pair_count(spec)


# coordinate u of L(s, t) = sum (u_s - u_t)(g_t - g_s) is paired with
# g = (f1, f2, f3)[PAIRED[u]]: x with f3, y with f2, z with f1
PAIRED = (2, 1, 0)


def cancelling_spec(ctx, rng, v, kappas):
    """A random triple in which coordinate v occurs only as v^(p^kappa),
    kappa in kappas, and every slope cancels: for the other coordinates
    w0, w1, crossed cofactors a*v^(p^kappa)*w1 in the f paired with w0 and
    -a*v^(p^kappa)*w0 in the f paired with w1, lone v^(p^kappa) terms, and
    v-free terms with exponents up to 3."""
    w0, w1 = (w for w in range(3) if w != v)
    terms = [{}, {}, {}]

    def add(f, c, *powers):
        exps = [0, 0, 0]
        for u, e in powers:
            exps[u] = e
        terms[f][tuple(exps)] = ctx.add(terms[f].get(tuple(exps), 0), c)

    for kappa in kappas:
        e = ctx.p ** kappa
        a = rng.randrange(1, ctx.q)
        add(PAIRED[w0], a, (v, e), (w1, 1))
        add(PAIRED[w1], ctx.neg(a), (v, e), (w0, 1))
        if rng.random() < 0.7:
            add(rng.randrange(3), rng.randrange(1, ctx.q), (v, e))
    for f in range(3):
        for _ in range(rng.randrange(1, 4)):
            powers = (w0, rng.randrange(4)), (w1, rng.randrange(4))
            if powers[0][1] or powers[1][1]:
                add(f, rng.randrange(1, ctx.q), *powers)
    return OvoidSpec(ctx, *(MPoly.from_dict(ctx, 3, t) for t in terms))


@pytest.mark.parametrize("q", [9, 11, 13, 25, 27])
def test_one_plane_count_equals_pair_scan(q):
    ctx = field(q)
    rng = random.Random(1100 + q)
    per_coordinate = 1 if q >= 25 else 2
    nonzero = 0
    for v in range(3):
        for _ in range(per_coordinate):
            kappas = tuple(k for k in range(ctx.h) if rng.random() < 0.6) or (0,)
            spec = cancelling_spec(ctx, rng, v, kappas)
            assert _kappas(spec, v) == kappas
            assert _diffroute.live_kappas(spec, v, kappas) == ()
            want = pair_count(spec)
            assert _pairscan.line_count(ctx, spec.value_tables(), v, ()) == want
            nonzero += want > 0
    assert nonzero                          # failing triples are among them


def test_one_of_two_powers_stays_live():
    # z*y in f3 and -z*x in f2 cancel at kappa = 0; z^3*x in f3 leaves
    # d_x^2 at kappa = 1
    spec = OvoidSpec.from_lines(field(9), ["y^2+x^2*y", "2*x*z+x^3", "z*y+z^3*x+y^3"])
    assert _diffroute.line_coordinate(spec) == (2, (0, 1))
    assert _diffroute.live_kappas(spec, 2, (0, 1)) == (1,)
    want = pair_count(spec)
    assert want > 0
    for kappas in ((1,), (0, 1)):
        assert _pairscan.line_count(spec.ctx, spec.value_tables(), 2, kappas) == want
    scan = affine_point_scan(spec)
    assert scan.route == "line" and scan.off_diagonal == want


def test_one_plane_reports_identical_for_every_thread_count():
    rng = random.Random(21)
    failing = cancelling_spec(field(11), rng, 1, (0,))
    # two ovoids, then a failing triple
    for spec in (_thas_kantor(field(9)), kantor_2mod3(field(11)), failing):
        v, kappas = _diffroute.line_coordinate(spec)
        assert _diffroute.live_kappas(spec, v, kappas) == ()
        reports = [verify_ovoid(spec, threads=t) for t in (1, 2, 3)]
        scans = [affine_point_scan(spec, threads=t) for t in (1, 2, 3)]
        assert {r.route for r in reports + scans} == {"line"}
        assert len({(r.is_ovoid, r.witness, r.pairs_checked) for r in reports}) == 1
        assert len({(s.total, s.off_diagonal, s.witness) for s in scans}) == 1
        assert scans[0].off_diagonal == pair_count(spec)
    assert scans[0].off_diagonal > 0


@pytest.mark.parametrize("q", [8, 16])
def test_live_powers_count_exactly_in_characteristic_two(q):
    # the slope check composed with the count, as exact_scan runs them, on
    # random triples with live slopes and on cancelling ones
    ctx = field(q)
    rng = random.Random(1500 + q)
    live_seen = 0
    for v in range(3):
        for spec in (line_spec(ctx, rng, v), cancelling_spec(ctx, rng, v, (0, ctx.h - 1))):
            live = _diffroute.live_kappas(spec, v, _kappas(spec, v))
            assert _pairscan.line_count(ctx, spec.value_tables(), v, live) == pair_count(spec)
            live_seen += bool(live)
    assert live_seen


def _add_index(ctx, a, b):
    """Index of the coordinate-wise field sum of the triples a and b."""
    q = ctx.q
    return sum(ctx.v_add(a // q ** k % q, b // q ** k % q) * q ** k for k in range(3))


def _brute_slopes(spec, v):
    """The kappas < h for which some d and s give z -> g_d(s + z e_v) -
    g_d(s) a nonzero coefficient at z^(p^kappa), every d, s and z taken
    point by point from the table L[s, t] of all pair values.  The
    coefficient of z^e, 0 < e < q - 1, in the reduced polynomial of a
    function phi on F_q is -sum_z phi(z) z^(q - 1 - e)."""
    ctx = spec.ctx
    q, n = ctx.q, ctx.q ** 3
    tables = spec.value_tables()
    s, t = np.arange(n)[:, None], np.arange(n)[None, :]
    pair = 0
    for u in range(3):
        f = tables[3 + PAIRED[u]]
        pair = ctx.v_add(pair, ctx.v_mul(ctx.v_sub(tables[u][s], tables[u][t]),
                                         ctx.v_sub(f[t], f[s])))
    plus = _add_index(ctx, s, t)            # plus[s, d]: the index of s + d
    base = pair[s, plus]
    coeffs = [np.zeros((n, n), dtype=np.int64) for _ in range(ctx.h)]
    for z in range(1, q):
        shift = _add_index(ctx, np.arange(n), z * q ** v)      # s -> s + z e_v
        phi = ctx.v_sub(pair[shift[s], shift[plus]], base)
        for kappa, c in enumerate(coeffs):
            c[:] = ctx.v_add(c, ctx.v_mul(phi, ctx.pow(z, q - 1 - ctx.p ** kappa)))
    return {kappa for kappa, c in enumerate(coeffs) if c.any()}


@pytest.mark.parametrize("q", [9, 11])
def test_slope_check_against_brute_force_slopes(q):
    ctx = field(q)
    rng = random.Random(1300 + q)
    dropped = kept = 0
    for v in range(3):
        kappas = tuple(k for k in range(ctx.h) if rng.random() < 0.6) or (0,)
        for spec in (line_spec(ctx, rng, v), cancelling_spec(ctx, rng, v, kappas)):
            kappas = _kappas(spec, v)
            live = set(_diffroute.live_kappas(spec, v, kappas))
            slopes = _brute_slopes(spec, v)
            # a dropped kappa has a zero slope on every line
            assert slopes <= live
            if max(max(unpack_exps(key, 3)) for f in spec.polys() for key in f.terms) < q:
                # then a kept kappa has a nonzero slope somewhere
                assert live == slopes
            dropped += len(set(kappas) - live)
            kept += len(live)
    assert dropped and kept


def test_crossed_cofactor_with_flipped_sign_is_live():
    for q in (9, 11):
        # z*y in f3 (paired with x) against -z*x in f2 (paired with y)
        cancel = OvoidSpec.from_lines(field(q), ["y^2", "-x*z+x^2", "z*y+y^3"])
        flipped = OvoidSpec.from_lines(field(q), ["y^2", "x*z+x^2", "z*y+y^3"])
        for spec, live in ((cancel, ()), (flipped, (0,))):
            assert _diffroute.line_coordinate(spec) == (2, (0,))
            assert _diffroute.live_kappas(spec, 2, (0,)) == live
            assert _brute_slopes(spec, 2) == set(live)


@pytest.mark.parametrize("name,make,q", [("ree-tits", ree_tits, 27),
                                         ("thas-kantor", _thas_kantor, 9),
                                         ("thas-kantor", _thas_kantor, 27),
                                         ("kantor-2mod3", kantor_2mod3, 11),
                                         ("kantor-2mod3", kantor_2mod3, 17),
                                         ("famiglia1", _famiglia1, 11)])
def test_families_have_no_live_slope(name, make, q):
    spec = make(field(q))
    v, kappas = _diffroute.line_coordinate(spec)
    assert kappas and _diffroute.live_kappas(spec, v, kappas) == ()


def test_exponent_cap_keeps_kappa():
    # the cofactor x^63 of z in f3 (paired with x) is not constant in x:
    # kappa stays live, nothing is expanded past the exponent cap, and the
    # count on its two planes is exact
    spec = OvoidSpec.from_lines(field(9), ["y^2", "x*y^2", "x^63*z"])
    assert _diffroute.line_coordinate(spec) == (2, (0,))
    assert _diffroute.live_kappas(spec, 2, (0,)) == (0,)
    scan = affine_point_scan(spec)
    assert scan.route == "line" and scan.off_diagonal == pair_count(spec)


def _symbolic_live(spec, v, kappas):
    """The kappas whose slope polynomial P_kappa, expanded in five MPoly
    variables (d_x, d_y, d_z, then s at the two coordinates other than v),
    is nonzero: live_kappas by its definition."""
    ctx = spec.ctx
    var = [MPoly.variable(ctx, 5, i) for i in range(5)]
    at_s = [MPoly.constant(ctx, 5, 1)] * 3      # v -> 1 reads off a cofactor
    at_sd = list(at_s)
    for j, w in enumerate(w for w in range(3) if w != v):
        at_s[w], at_sd[w] = var[3 + j], var[3 + j] + var[w]

    def power(key):
        e = unpack_exps(key, 3)[v]
        return next(k for k in range(8) if ctx.p ** k == e) % ctx.h if e else None

    live = []
    for kappa in kappas:
        slope = MPoly.zero(ctx, 5)
        for u in range(3):
            f = spec.polys()[PAIRED[u]]
            part = MPoly(ctx, 3, {key: c for key, c in f.terms.items() if power(key) == kappa})
            slope += var[u] * (part.substitute(at_sd) - part.substitute(at_s))
        if slope:
            live.append(kappa)
    return tuple(live)


@pytest.mark.parametrize("q", [4, 8, 9, 11, 25])
def test_slope_check_equals_symbolic_expansion(q):
    # cancelling triples, each with one more term in a power of v and
    # exponents up to 2 in the other coordinates: some of these keep the
    # slope zero (a constant or crossed cofactor), most make it live
    ctx = field(q)
    rng = random.Random(1700 + q)
    top = max(k for k in range(8) if ctx.p ** k <= MAX_EXP)
    dropped = kept = 0
    for _ in range(40):
        v = rng.randrange(3)
        spec = cancelling_spec(ctx, rng, v, tuple(k for k in range(ctx.h) if rng.random() < 0.6) or (0,))
        exps = [rng.randrange(3), rng.randrange(3), rng.randrange(3)]
        exps[v] = ctx.p ** rng.randrange(top + 1)
        polys = list(spec.polys())
        f = rng.randrange(3)
        polys[f] = polys[f] + MPoly.from_dict(ctx, 3, {tuple(exps): rng.randrange(1, q)})
        spec = OvoidSpec(ctx, *polys)
        kappas = _kappas(spec, v)
        live = _diffroute.live_kappas(spec, v, kappas)
        assert live == _symbolic_live(spec, v, kappas)
        dropped += len(kappas) - len(live)
        kept += len(live)
    assert dropped and kept


def test_slope_check_reads_a_dense_triple_in_one_pass():
    # every monomial x^a y^b z^c, a, b < 61, c <= 1, in all three
    # polynomials at q = 61: the check reads their 22,326 terms once and
    # expands none of them
    ctx = field(61)
    rng = random.Random(61)
    polys = [MPoly(ctx, 3, {pack_exps((a, b, c)): rng.randrange(1, 61)
                            for a in range(61) for b in range(61) for c in (0, 1) if a or b or c})
             for _ in range(3)]
    spec = OvoidSpec(ctx, *polys)
    assert _diffroute.line_coordinate(spec) == (2, (0,))
    t0 = time.perf_counter()
    assert _diffroute.live_kappas(spec, 2, (0,)) == (0,)
    assert time.perf_counter() - t0 < 5


def test_one_plane_scan_at_27_matches_pair_scan():
    # the slopes cancel at kappa = 0 (2*x*z in f2 and y*z in f3 give
    # 3 d_x d_y = 0) and at kappa = 2 (a lone 2*z^9 in f3)
    spec = OvoidSpec.from_lines(field(27), ["z", "2*x^12+x^3*y+y^9+x^2*y+2*x*z",
                                            "2*x^21+x^9*y^9+2*z^9+x*y^2+y*z"])
    assert _diffroute.line_coordinate(spec) == (2, (0, 2))
    assert _diffroute.live_kappas(spec, 2, (0, 2)) == ()
    scan = affine_point_scan(spec)
    assert scan.route == "line" and scan.off_diagonal == pair_count(spec) == 13817466


@pytest.mark.parametrize("q", [16, 32])
def test_half_of_the_cells_in_characteristic_two(q):
    # cell (a, (b, c)) has the zero count of cell (b, (a, -c)); in
    # characteristic 2 -c = c, so every cell (a, (a, c)) is its own
    # partner and is counted once, every b > a twice
    ctx = field(q)
    rng = random.Random(2200 + q)
    nonzero = 0
    for v in range(3):
        kappas = tuple(k for k in range(ctx.h) if rng.random() < 0.5) or (0,)
        spec = cancelling_spec(ctx, rng, v, kappas)
        assert _diffroute.live_kappas(spec, v, kappas) == ()
        want = pair_count(spec)
        assert _pairscan.line_count(ctx, spec.value_tables(), v, ()) == want
        nonzero += want > 0
    assert nonzero                          # failing triples are among them


def _with_live(ctx, rng, v, live):
    """A random line triple in coordinate v with exactly `live` live
    Frobenius powers, and those powers."""
    for _ in range(200):
        spec = line_spec(ctx, rng, v)
        kappas = _diffroute.live_kappas(spec, v, _kappas(spec, v))
        if len(kappas) == live:
            return spec, kappas
    raise AssertionError(f"no triple with {live} live powers")


@pytest.mark.parametrize("q", [9, 25])
@pytest.mark.parametrize("live", [1, 2])
def test_half_of_the_cells_with_live_slopes(q, live):
    # the partner cell lies on a line of the same zero count on every
    # plane, so the halving holds with k + 1 planes too
    ctx = field(q)
    rng = random.Random(2300 + 10 * q + live)
    for v in range(3):
        spec, kappas = _with_live(ctx, rng, v, live)
        want = pair_count(spec)
        assert want > 0
        for threads in (1, 2, 3):
            got = _pairscan.line_count(ctx, spec.value_tables(), v, kappas, threads=threads)
            assert got == want
