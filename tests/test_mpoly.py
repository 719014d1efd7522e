"""Sparse polynomial arithmetic, evaluation, text grammar."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ovoid7.errors import FieldMismatch, NotRational, ParseError, Unsupported
from ovoid7.ff import ExtCtx, make_field
from ovoid7.mpoly import MAX_EXP, MPoly, _add_keys, pack_exps, unpack_exps


def rand_poly(ctx, rng, nvars=3, max_deg=3, max_terms=5):
    d = {}
    for _ in range(rng.randrange(max_terms + 1)):
        m = tuple(rng.randrange(max_deg + 1) for _ in range(nvars))
        d[m] = rng.randrange(ctx.q)
    return MPoly.from_dict(ctx, nvars, d)


def test_additive_multiplicative_identities():
    ctx = make_field(5, 1)
    rng = random.Random(0)
    zero = MPoly.zero(ctx, 3)
    one = MPoly.constant(ctx, 3, 1)
    for _ in range(40):
        P = rand_poly(ctx, rng)
        assert P + zero == P
        assert P * one == P
        assert P - P == zero


def test_char2_square_is_frobenius():
    ctx = make_field(2, 1)
    xy = MPoly.parse("x+y", ctx, 3)
    assert xy * xy == MPoly.parse("x^2+y^2", ctx, 3)


def test_degree_of_product_over_f5():
    ctx = make_field(5, 1)
    rng = random.Random(7)
    for _ in range(80):
        P, Q = rand_poly(ctx, rng), rand_poly(ctx, rng)
        if P.is_zero() or Q.is_zero():
            continue
        assert (P * Q).degree() == P.degree() + Q.degree()


@pytest.mark.parametrize("p,h", [(2, 1), (5, 1), (2, 3)])
def test_ring_axioms_random(p, h):
    ctx = make_field(p, h)
    rng = random.Random(p + h)
    for _ in range(40):
        P, Q, R = (rand_poly(ctx, rng) for _ in range(3))
        assert P + Q == Q + P
        assert P * Q == Q * P
        assert (P + Q) + R == P + (Q + R)
        assert (P * Q) * R == P * (Q * R)
        assert P * (Q + R) == P * Q + P * R


def test_eval_is_ring_homomorphism():
    ctx = make_field(5, 1)
    rng = random.Random(3)
    for _ in range(60):
        P, Q = rand_poly(ctx, rng), rand_poly(ctx, rng)
        v = [rng.randrange(5) for _ in range(3)]
        assert (P + Q).eval_raw(v) == ctx.add(P.eval_raw(v), Q.eval_raw(v))
        assert (P * Q).eval_raw(v) == ctx.mul(P.eval_raw(v), Q.eval_raw(v))
    assert MPoly.zero(ctx, 3).eval_raw([1] * 3) == 0


def test_eval_hand_expansion():
    ctx = make_field(2, 1)
    f1 = MPoly.parse("x*y+z^2", ctx, 3)
    assert f1.eval_raw([1] * 3) == 0     # 1 + 1


def test_serialization_round_trip_1000():
    rng = random.Random(42)
    for ctx in (make_field(5, 1), make_field(2, 3)):
        for _ in range(500):
            P = rand_poly(ctx, rng)
            assert MPoly.parse(P.render(), ctx, 3) == P


def test_extension_coefficient_round_trip():
    # bracketed coordinate vectors in the rendered form
    ext = ExtCtx(make_field(2, 1), 3)
    rng = random.Random(5)
    for _ in range(100):
        d = {}
        for _ in range(rng.randrange(4)):
            m = tuple(rng.randrange(3) for _ in range(3))
            d[m] = rng.randrange(ext.order)
        P = MPoly.from_dict(ext, 3, d)
        assert MPoly.parse(P.render(), ext, 3) == P
    t = ext.gen()
    Q = MPoly.from_dict(ext, 3, {(1, 0, 0): t})
    assert Q.render() == "[0,1,0]*x"


def test_parse_sugar_and_errors():
    ctx = make_field(5, 1)
    assert MPoly.parse("-x", ctx, 3) == MPoly.parse("4*x", ctx, 3)
    assert MPoly.parse("x-y", ctx, 3) == MPoly.parse("x+4*y", ctx, 3)
    assert MPoly.parse("2*x^2*y", ctx, 3).coeff_raw((2, 1, 0)) == 2
    for bad in ("", "x+", "w", "x1", "x^", "x*", "6*x", "x^70"):
        with pytest.raises(ParseError):
            MPoly.parse(bad, ctx, 3)
    six = MPoly.parse("x1*x4+x2^2", ctx, 6)
    assert six.coeff_raw((1, 0, 0, 1, 0, 0)) == 1


def test_render_is_graded_lex_descending():
    ctx = make_field(2, 1)
    f3 = MPoly.parse("y*z+x^2+y^2+z^2", ctx, 3)
    assert f3.render() == "x^2+y^2+y*z+z^2"


def test_exponent_cap():
    ctx = make_field(2, 1)
    P = MPoly.parse("x^60", ctx, 3)
    with pytest.raises(Unsupported):
        P * MPoly.parse("x^10", ctx, 3)


def _add_keys_oracle(k1, k2, nvars):
    """The definition: unpack both keys, add the exponents, pack the sums."""
    summed = [a + b for a, b in zip(unpack_exps(k1, nvars), unpack_exps(k2, nvars))]
    if any(e > MAX_EXP for e in summed):
        raise Unsupported(f"product exceeds the exponent cap {MAX_EXP}")
    return pack_exps(summed)


def test_add_keys_matches_unpack_sum_pack():
    rng = random.Random(11)
    near_cap = list(range(MAX_EXP - 4, MAX_EXP + 1)) + [0, 1, 31, 32]

    def exps(nvars):
        return [rng.choice(near_cap) if rng.random() < 0.5 else rng.randrange(MAX_EXP + 1)
                for _ in range(nvars)]

    for _ in range(20000):
        nvars = rng.randint(1, 6)
        k1, k2 = pack_exps(exps(nvars)), pack_exps(exps(nvars))
        try:
            want = _add_keys_oracle(k1, k2, nvars)
        except Unsupported:
            with pytest.raises(Unsupported, match="exponent cap 63"):
                _add_keys(k1, k2, nvars)
        else:
            assert _add_keys(k1, k2, nvars) == want
    # a carry out of the last field alone, and sums landing exactly on the cap
    for nvars in range(1, 7):
        last = [0] * (nvars - 1)
        with pytest.raises(Unsupported, match="exponent cap"):
            _add_keys(pack_exps(last + [40]), pack_exps(last + [24]), nvars)
        assert _add_keys(pack_exps(last + [40]), pack_exps(last + [23]), nvars) \
            == pack_exps(last + [MAX_EXP])
        full = [MAX_EXP] * nvars
        assert _add_keys(pack_exps(full), 0, nvars) == pack_exps(full)


def test_extension_coefficient_errors_name_the_fault():
    ext = ExtCtx(make_field(2, 2), 2)
    assert ext.unpack(MPoly.parse("[1,3]*x", ext, 3).coeff_raw((1, 0, 0))) == (1, 3)
    assert ext.unpack(MPoly.parse("7*x", ext, 3).coeff_raw((1, 0, 0))) == (3, 1)
    for text, message in (("[0,1,0]*x", "coefficient [0,1,0] has 3 entries, expected 2"),
                          ("[1]*x", "coefficient [1] has 1 entries, expected 2"),
                          ("[0,5]*x", "coefficient [0,5] has an entry outside [0, 4)"),
                          ("16*x", "coefficient 16 outside [0, 16)"),
                          ("[0,a]*x", "bad element '[0,a]'"),
                          ("[0,1*x", "bad element '[0,1'")):
        with pytest.raises(ParseError) as info:
            MPoly.parse(text, ext, 3)
        assert str(info.value) == message, text


def test_lift_descend_round_trip():
    ctx = make_field(2, 1)
    ext = ExtCtx(ctx, 3)
    P = MPoly.parse("x*y+z^2", ctx, 3)
    assert P.lift(ext).try_descend() == P


def test_descend_rejects_irrational_coefficients():
    ctx = make_field(2, 1)
    ext = ExtCtx(ctx, 3)
    t = ext.gen()
    P = MPoly.from_dict(ext, 3, {(1, 0, 0): t})
    with pytest.raises(NotRational):
        P.try_descend()


def test_conjugate_plane_product_descends():
    # product over the Galois orbit is fixed by Frobenius, hence rational
    ctx = make_field(2, 1)
    ext = ExtCtx(ctx, 3)
    t = ext.gen()
    alpha, beta = t.v, ext.mul(t.v, t.v)
    prod = MPoly.constant(ext, 6, 1)
    from ovoid7.ff import TowerElem

    for i in range(3):
        a = ext.frobenius(alpha, i)
        b = ext.frobenius(beta, i)
        plane = (MPoly.variable(ext, 6, 0) - MPoly.variable(ext, 6, 3)
                 + (MPoly.variable(ext, 6, 1) - MPoly.variable(ext, 6, 4)).scale(TowerElem(ext, a))
                 + (MPoly.variable(ext, 6, 2) - MPoly.variable(ext, 6, 5)).scale(TowerElem(ext, b)))
        prod = prod * plane
    down = prod.try_descend()
    assert down.ctx is ctx and not down.is_zero()


def test_field_mismatch_errors():
    a = make_field(2, 1)
    b = make_field(3, 1)
    with pytest.raises(FieldMismatch):
        MPoly.parse("x", a, 3) + MPoly.parse("x", b, 3)
    with pytest.raises(FieldMismatch):
        MPoly.parse("x", a, 3) + MPoly.parse("x1", a, 6)


def test_substitute_and_remap_agree_with_eval():
    ctx = make_field(5, 1)
    rng = random.Random(12)
    for _ in range(30):
        P = rand_poly(ctx, rng)
        # remap into 6 variables at slots 3,4,5 and evaluate
        Q = P.remap_vars([3, 4, 5], 6)
        pt = [rng.randrange(5) for _ in range(6)]
        assert Q.eval_raw(pt) == P.eval_raw(pt[3:])
        # substitution composition
        imgs = [rand_poly(ctx, rng, max_deg=1, max_terms=3) for _ in range(3)]
        comp = P.substitute(imgs)
        pt3 = [rng.randrange(5) for _ in range(3)]
        inner = [g.eval_raw(pt3) for g in imgs]
        assert comp.eval_raw(pt3) == P.eval_raw(inner)


def test_remap_vars_adds_terms_that_collide():
    ctx = make_field(5, 1)
    fold = [0, 1, 2, 0, 1, 2]
    images = [MPoly.variable(ctx, 6, i) for i in fold]
    cancel = MPoly.parse("x1*x5+4*x2*x4", ctx, 6)
    assert cancel.remap_vars(fold, 6).is_zero()
    assert cancel.substitute(images).is_zero()
    assert MPoly.parse("x1*x5+3*x2*x4+x3", ctx, 6).remap_vars(fold, 6) == \
        MPoly.parse("4*x1*x2+x3", ctx, 6)
    rng = random.Random(5)
    for _ in range(40):
        P = rand_poly(ctx, rng, nvars=6, max_deg=2, max_terms=8)
        assert P.remap_vars(fold, 6) == P.substitute(images)


@given(st.lists(st.tuples(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
                          st.integers(0, 4)), max_size=4))
@settings(max_examples=60, deadline=None)
def test_addition_commutes_hypothesis(pairs):
    ctx = make_field(5, 1)
    P = MPoly.from_dict(ctx, 3, {m: c for m, c in pairs})
    Q = MPoly.parse("x+2*y^2", ctx, 3)
    assert P + Q == Q + P
