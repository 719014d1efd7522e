"""Quadric geometry: candidate points, verification, spreads, the
skew-matrix set and the generator oracle."""

import hashlib
import random

import pytest

from ovoid7.errors import NonzeroAtOrigin, Unsupported
from ovoid7.ff import make_field
from ovoid7.mpoly import MPoly
from ovoid7.families import kantor_simple, kantor_2mod3_even, thas_kantor
from ovoid7.quadric import (KerdockMatrix, OvoidSpec, bilinear, collinearity_value,
                            enumerate_generators, generator_point_sets,
                            infinity_space_basis, kerdock_check, kerdock_set,
                            meets_every_generator_once,
                            ovoid_points, quadric_value, rank,
                            spread_space, spread_space_basis, subspace_points,
                            verify_ovoid)


def zero_spec(ctx):
    z = MPoly.zero(ctx, 3)
    return OvoidSpec(ctx, z, z, z)


def rand_spec(ctx, rng, max_deg=3):
    polys = []
    for _ in range(3):
        d = {}
        for _ in range(rng.randrange(6)):
            m = tuple(rng.randrange(max_deg + 1) for _ in range(3))
            if sum(m) == 0 or sum(m) > max_deg:
                continue
            d[m] = rng.randrange(ctx.q)
        polys.append(MPoly.from_dict(ctx, 3, d))
    return OvoidSpec(ctx, *polys)


def pfaffian4(ctx, upper):
    """Pfaffian of a 4x4 skew matrix given (m01, m02, m03, m12, m13, m23)."""
    m01, m02, m03, m12, m13, m23 = upper
    acc = ctx.mul(m01, m23)
    acc = ctx.sub(acc, ctx.mul(m02, m13))
    return ctx.add(acc, ctx.mul(m03, m12))


def det4(ctx, m):
    """Cofactor-expansion determinant; the slow cross-check for pfaffian4."""
    idx = list(range(4))

    def det(rows, cols):
        if len(rows) == 1:
            return m[rows[0]][cols[0]]
        acc = 0
        sign = 1
        for k, c in enumerate(cols):
            sub = det(rows[1:], cols[:k] + cols[k + 1:])
            term = ctx.mul(m[rows[0]][c], sub)
            acc = ctx.add(acc, term if sign > 0 else ctx.neg(term))
            sign = -sign
        return acc

    return det(idx, idx)


SMALL_FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3), 9: (3, 2)}


def triples(q):
    return [(x, y, z) for z in range(q) for y in range(q) for x in range(q)]


# -- candidate points ---------------------------------------------------------


def test_ovoid_points_count_and_quadric_membership():
    ctx = make_field(2, 1)
    pts = ovoid_points(kantor_simple(ctx))
    assert len(pts) == ctx.q ** 3 + 1
    assert all(quadric_value(ctx, p) == 0 for p in pts)


def test_zero_triple_points():
    ctx = make_field(2, 1)
    pts = ovoid_points(zero_spec(ctx))
    assert len(pts) == 9
    assert pts[-1] == (0, 0, 0, 0, 0, 0, 0, 1)
    assert all(p[7] == 0 for p in pts[:-1])


def test_origin_constraint_enforced():
    ctx = make_field(2, 1)
    with pytest.raises(NonzeroAtOrigin):
        OvoidSpec(ctx, MPoly.constant(ctx, 3, 1), MPoly.zero(ctx, 3), MPoly.zero(ctx, 3))


def test_all_candidate_points_lie_on_quadric():
    # the last-coordinate formula puts every point on Q, ovoid or not
    rng = random.Random(17)
    for q in (2, 3):
        ctx = make_field(q, 1)
        for _ in range(10):
            spec = rand_spec(ctx, rng)
            assert all(quadric_value(ctx, p) == 0 for p in ovoid_points(spec))


# -- bilinear form -------------------------------------------------------------


def test_bilinear_with_point_at_infinity():
    ctx = make_field(3, 1)
    spec = thas_kantor(ctx, 2)
    inf = (0, 0, 0, 0, 0, 0, 0, 1)
    for p in ovoid_points(spec)[:-1]:
        assert bilinear(ctx, p, inf).v == 1


def test_bilinear_polarization_identity():
    rng = random.Random(1)
    for q, h in ((3, 1), (2, 2)):
        ctx = make_field(q, h)
        for _ in range(40):
            vec = [rng.randrange(ctx.q) for _ in range(8)]
            if not any(vec):
                continue
            b = bilinear(ctx, vec, vec).v
            two_q = ctx.mul(2 % ctx.p, quadric_value(ctx, vec))
            assert b == two_q                    # 0 in characteristic 2


def test_bilinear_unit_example():
    ctx = make_field(3, 1)
    P = (1, 0, 0, 0, 0, 0, 0, 0)
    R = (0, 0, 0, 0, 0, 0, 0, 1)
    assert bilinear(ctx, P, R).v == 1


def normalize_point(ctx, coords):
    """Scale so the first nonzero coordinate is 1; idempotent.  Used by the
    scalar subspace oracle below."""
    coords = tuple(int(c) for c in coords)
    if len(coords) != 8 or not any(coords):
        raise Unsupported("projective point needs 8 coordinates, not all zero")
    for c in coords:
        if c:
            if c == 1:
                return coords
            inv = ctx.inv(c)
            return tuple(ctx.mul(inv, x) for x in coords)
    raise Unsupported("unreachable")  # pragma: no cover


def test_normalize_point_idempotent():
    ctx = make_field(5, 1)
    p = normalize_point(ctx, (0, 3, 1, 0, 2, 0, 0, 4))
    assert p[1] == 1
    assert normalize_point(ctx, p) == p


# -- verification --------------------------------------------------------------


@pytest.mark.parametrize("h,expected", [(1, True), (2, True), (3, False)])
def test_verify_kantor_simple(h, expected):
    ctx = make_field(2, h)
    rep = verify_ovoid(kantor_simple(ctx))
    assert rep.is_ovoid is expected
    if not expected:
        t1, t2 = rep.witness
        assert t1 != t2
        assert collinearity_value(kantor_simple(ctx), t1, t2).v == 0


def test_zero_triple_witness_is_first_pair():
    ctx = make_field(2, 1)
    rep = verify_ovoid(zero_spec(ctx))
    assert not rep.is_ovoid
    assert rep.witness == ((0, 0, 0), (1, 0, 0))


def test_pairs_checked_full_scan():
    ctx = make_field(2, 2)
    rep = verify_ovoid(kantor_simple(ctx))
    n = ctx.q ** 3
    assert rep.pairs_checked == n * (n - 1) // 2


def test_pair_value_swap_symmetry():
    rng = random.Random(5)
    for q, h in ((2, 1), (3, 1), (5, 1)):
        ctx = make_field(q, h)
        for _ in range(25):
            spec = rand_spec(ctx, rng)
            t1 = tuple(rng.randrange(ctx.q) for _ in range(3))
            t2 = tuple(rng.randrange(ctx.q) for _ in range(3))
            a = collinearity_value(spec, t1, t2).v
            b = collinearity_value(spec, t2, t1).v
            assert b in (a, ctx.neg(a))


def test_verify_threads_deterministic():
    ctx = make_field(2, 2)
    spec = kantor_simple(ctx)
    r1 = verify_ovoid(spec, threads=1)
    r4 = verify_ovoid(spec, threads=4)
    assert (r1.is_ovoid, r1.witness, r1.pairs_checked) == (r4.is_ovoid, r4.witness, r4.pairs_checked)
    bad = kantor_simple(make_field(2, 3))
    b1 = verify_ovoid(bad, threads=1)
    b4 = verify_ovoid(bad, threads=4)
    assert (b1.witness, b1.pairs_checked) == (b4.witness, b4.pairs_checked)


def test_verify_scale_guard():
    # kantor-simple at q = 128 takes the difference route; a triple with an
    # x*y*z term (p-weight 3) can only take the pair route, which stops at 64
    spec = OvoidSpec.from_lines(make_field(2, 7), ["x*y*z", "0", "0"])
    with pytest.raises(Unsupported, match="pair-scan route supports q <= 64"):
        verify_ovoid(spec)


def test_verify_above_difference_route_limit():
    with pytest.raises(Unsupported, match="difference route supports q <= 128"):
        verify_ovoid(kantor_simple(make_field(2, 8)))


@pytest.mark.parametrize("q,h", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_verify_against_scalar_brute_force(q, h):
    # independent oracle: plain nested loops over all unordered pairs,
    # evaluating the components through the generic polynomial evaluator
    ctx = make_field(q, h)
    rng = random.Random(q * 10 + h)
    specs = [zero_spec(ctx)] + [rand_spec(ctx, rng) for _ in range(8)]
    if ctx.p == 2:
        specs.append(kantor_simple(ctx))
    for spec in specs:
        pts = triples(ctx.q)
        brute_ok = True
        brute_witness = None
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if collinearity_value(spec, pts[i], pts[j]).v == 0:
                    brute_ok = False
                    brute_witness = (pts[i], pts[j])
                    break
            if not brute_ok:
                break
        rep = verify_ovoid(spec)
        assert rep.is_ovoid == brute_ok
        if not brute_ok:
            assert rep.witness == brute_witness


# -- spread correspondence ------------------------------------------------------


def test_spread_space_origin():
    ctx = make_field(2, 1)
    rows = spread_space(kantor_simple(ctx), (0, 0, 0))
    expected = [[1, 0, 0, 0, 0, 0, 0, 0],
                [0, 1, 0, 0, 0, 0, 0, 0],
                [0, 0, 1, 0, 0, 0, 0, 0],
                [0, 0, 0, 1, 0, 0, 0, 0]]
    assert rows == expected


def test_spread_space_rank_four():
    ctx = make_field(3, 1)
    spec = thas_kantor(ctx, 2)
    rng = random.Random(2)
    for _ in range(10):
        t = tuple(rng.randrange(3) for _ in range(3))
        assert rank(ctx, spread_space(spec, t)) == 4


def test_spread_space_points_on_quadric_q2():
    ctx = make_field(2, 1)
    spec = kantor_simple(ctx)
    for t in triples(2):
        pts = subspace_points(ctx, spread_space_basis(spec, t))
        assert len(pts) == 15
        assert all(quadric_value(ctx, p) == 0 for p in pts)
        # basis solves the constraint rows
        for row in spread_space(spec, t):
            for p in pts:
                acc = 0
                for c, v in zip(row, p):
                    acc = ctx.add(acc, ctx.mul(c, v))
                assert acc == 0


@pytest.mark.parametrize("q", [2, 3])
def test_spread_partition(q):
    ctx = make_field(q, 1)
    spec = kantor_simple(ctx) if q == 2 else thas_kantor(ctx, 2)
    assert verify_ovoid(spec).is_ovoid
    union = set()
    total = 0
    for t in triples(q):
        pts = subspace_points(ctx, spread_space_basis(spec, t))
        total += len(pts)
        union |= set(pts)
    pts = subspace_points(ctx, infinity_space_basis())
    total += len(pts)
    union |= set(pts)
    expected = (q ** 3 + 1) * (q ** 3 + q ** 2 + q + 1)
    assert total == len(union) == expected


def subspace_points_scalar(ctx, basis):
    """Span every combination of the rows one scalar point at a time,
    normalise and deduplicate: the oracle for subspace_points."""
    k = len(basis)
    seen = set()
    out = []
    for idx in range(1, ctx.q ** k):
        coeffs = [(idx // ctx.q ** i) % ctx.q for i in range(k)]
        vec = [0] * len(basis[0])
        for c, row in zip(coeffs, basis):
            if c:
                for col, r in enumerate(row):
                    vec[col] = ctx.add(vec[col], ctx.mul(c, r))
        if not any(vec):
            continue
        pt = normalize_point(ctx, vec)
        if pt not in seen:
            seen.add(pt)
            out.append(pt)
    return out


@pytest.mark.parametrize("q", [2, 3])
def test_subspace_points_match_scalar_oracle(q):
    ctx = make_field(q, 1)
    spec = kantor_simple(ctx) if q == 2 else thas_kantor(ctx, 2)
    bases = [spread_space_basis(spec, t) for t in triples(q)]
    bases.append(infinity_space_basis())
    bases += [list(g) for g in enumerate_generators(ctx)]
    for basis in bases:
        pts = subspace_points(ctx, basis)
        assert len(pts) == len(set(pts))
        assert set(pts) == set(subspace_points_scalar(ctx, basis))
    # a dependent spanning set gives the points of its span once each
    rows = infinity_space_basis()
    doubled = rows[:2] + [[ctx.add(a, b) for a, b in zip(rows[0], rows[1])]]
    assert sorted(subspace_points(ctx, doubled)) == sorted(subspace_points_scalar(ctx, doubled))


# -- skew matrix set -------------------------------------------------------------


def test_kerdock_origin_matrix_is_zero():
    ctx = make_field(2, 1)
    mats = kerdock_set(kantor_simple(ctx))
    assert mats[0].triple == (0, 0, 0)
    assert all(v == 0 for row in mats[0].m for v in row)


def test_kerdock_thas_kantor_q3_nonsingular_differences():
    ctx = make_field(3, 1)
    mats = kerdock_set(thas_kantor(ctx, 2))
    zero = mats[0]
    assert all(v == 0 for row in zero.m for v in row)
    for m in mats[1:]:
        assert det4(ctx, m.m) != 0                      # determinant enumeration
    assert len(mats) == 27


def test_pfaffian_squared_is_determinant():
    rng = random.Random(8)
    for q, h in ((3, 1), (5, 1), (2, 2)):
        ctx = make_field(q, h)
        for _ in range(40):
            u = [rng.randrange(ctx.q) for _ in range(6)]
            n = ctx.neg
            m = ((0, u[0], u[1], u[2]),
                 (n(u[0]), 0, u[3], u[4]),
                 (n(u[1]), n(u[3]), 0, u[5]),
                 (n(u[2]), n(u[4]), n(u[5]), 0))
            pf = pfaffian4(ctx, u)
            assert ctx.mul(pf, pf) == det4(ctx, m)


@pytest.mark.parametrize("q", [2, 3])
def test_kerdock_check_equivalent_to_verify(q):
    ctx = make_field(q, 1)
    rng = random.Random(q)
    specs = [zero_spec(ctx), kantor_simple(ctx) if q == 2 else thas_kantor(ctx, 2)]
    specs += [rand_spec(ctx, rng) for _ in range(50)]
    for spec in specs:
        assert kerdock_check(kerdock_set(spec)) == verify_ovoid(spec).is_ovoid


def rand_kerdock_matrix(ctx, rng, k):
    n = ctx.neg
    u = [rng.randrange(ctx.q) for _ in range(6)]
    m = ((0, u[0], u[1], u[2]),
         (n(u[0]), 0, u[3], u[4]),
         (n(u[1]), n(u[3]), 0, u[5]),
         (n(u[2]), n(u[4]), n(u[5]), 0))
    return KerdockMatrix(ctx, (k, 0, 0), m)


def scalar_kerdock_check(ctx, mats):
    ups = [m.upper() for m in mats]
    for i in range(len(ups)):
        for j in range(i + 1, len(ups)):
            if pfaffian4(ctx, [ctx.sub(a, b) for a, b in zip(ups[i], ups[j])]) == 0:
                return False
    return True


@pytest.mark.parametrize("q", sorted(SMALL_FIELDS))
def test_kerdock_check_matches_scalar_pfaffian_loop(q):
    ctx = make_field(*SMALL_FIELDS[q])
    rng = random.Random(40 + q)
    seen = set()
    for length in (0, 1, 2, 3, 5, 8, 13):
        for _ in range(6):
            mats = [rand_kerdock_matrix(ctx, rng, k) for k in range(length)]
            want = scalar_kerdock_check(ctx, mats)
            assert kerdock_check(mats) == want, (q, length)
            seen.add(want)
            if mats:
                # a repeated matrix has a zero difference
                dup = mats + [mats[rng.randrange(length)]]
                assert not scalar_kerdock_check(ctx, dup)
                assert not kerdock_check(dup)
    assert seen == {True, False}


@pytest.mark.parametrize("q", sorted(SMALL_FIELDS))
def test_pfaffian_of_difference_is_minus_collinearity(q):
    ctx = make_field(*SMALL_FIELDS[q])
    rng = random.Random(70 + q)
    for _ in range(3):
        spec = rand_spec(ctx, rng)
        mats = kerdock_set(spec)
        for _ in range(40):
            mi, mj = mats[rng.randrange(len(mats))], mats[rng.randrange(len(mats))]
            diff = [ctx.sub(a, b) for a, b in zip(mi.upper(), mj.upper())]
            want = ctx.neg(collinearity_value(spec, mi.triple, mj.triple).v)
            assert pfaffian4(ctx, diff) == want


def test_kerdock_set_items_slices_and_lists():
    ctx = make_field(3, 1)
    spec = rand_spec(ctx, random.Random(5))
    mats = kerdock_set(spec)
    assert len(mats) == 27
    n = ctx.neg
    for k, (x, y, z) in enumerate(triples(3)):
        a, b, c = (int(f.eval_raw((x, y, z))) for f in spec.polys())
        m = mats[k]
        assert m.triple == (x, y, z)
        assert m.m == ((0, x, n(y), z), (n(x), 0, a, b), (y, n(a), 0, c), (n(z), n(b), n(c), 0))
    assert [m.triple for m in mats[5:9]] == [m.triple for m in list(mats)[5:9]]
    assert mats[-1].triple == (2, 2, 2)
    # a plain list of the same matrices gives the same verdict
    for other in (zero_spec(ctx), thas_kantor(ctx, 2), spec):
        mats = kerdock_set(other)
        assert kerdock_check(list(mats)) == kerdock_check(mats) == verify_ovoid(other).is_ovoid
        assert kerdock_check(mats[:4]) == scalar_kerdock_check(ctx, mats[:4])


# -- generators -------------------------------------------------------------------

# sha256 of repr(list(enumerate_generators(make_field(q, 1)))), as listed by
# the depth-first search over echelon rows that the direct construction replaced
GENERATOR_SHA256 = {
    2: "b2033ec6d39080f72b6df16e9c18e3c743b63b9210204230630073acb5469a39",
    3: "a2a94502639a6fc7a07d33a2444d9ddab5b7b84ef35617aabaa87d6318a6b6e9",
}


@pytest.mark.parametrize("q", [2, 3])
def test_generators_pinned(q):
    gens = enumerate_generators(make_field(q, 1))
    assert len(gens) == 2 * (q + 1) * (q ** 2 + 1) * (q ** 3 + 1)
    assert hashlib.sha256(repr(list(gens)).encode()).hexdigest() == GENERATOR_SHA256[q]


def test_generators_rank4_totally_singular_q3():
    ctx = make_field(3, 1)
    gens = enumerate_generators(ctx)
    assert len(set(gens)) == 2240
    for g in gens:
        assert rank(ctx, g) == 4
        for i, u in enumerate(g):
            assert quadric_value(ctx, u) == 0
            for v in g[i + 1:]:
                assert bilinear(ctx, u, v).v == 0


def test_generator_count_q2():
    gens = enumerate_generators(make_field(2, 1))
    assert len(gens) == 2 * 3 * 5 * 9


def test_generator_count_q3():
    gens = enumerate_generators(make_field(3, 1))
    assert len(gens) == 2 * 4 * 10 * 28


def test_generators_totally_singular_q2():
    ctx = make_field(2, 1)
    for g in enumerate_generators(ctx)[:40]:
        for p in subspace_points(ctx, list(g)):
            assert quadric_value(ctx, p) == 0


def test_generator_oracle_matches_verify_q2():
    ctx = make_field(2, 1)
    gsets = generator_point_sets(ctx)
    assert len(gsets) == 270
    assert generator_point_sets(ctx) is gsets             # cached per field
    assert meets_every_generator_once(kantor_simple(ctx), gsets)
    assert meets_every_generator_once(kantor_2mod3_even(ctx), gsets)
    assert not meets_every_generator_once(zero_spec(ctx), gsets)
    rng = random.Random(3)
    for _ in range(12):
        spec = rand_spec(ctx, rng)
        assert meets_every_generator_once(spec, gsets) == verify_ovoid(spec).is_ovoid


def test_generator_scale_guard():
    with pytest.raises(Unsupported):
        enumerate_generators(make_field(5, 1))
