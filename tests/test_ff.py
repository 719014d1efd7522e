"""Field tower arithmetic: construction, Frobenius, trace and norm."""

import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ovoid7.errors import CompositeP, FieldMismatch, NotRational, Unsupported
from ovoid7.ff import (DEFAULT_MODULI, TABLE_LIMIT, ExtCtx, Fe, FieldCtx, TowerElem, _mul_reduce,
                       _poly_inv_mod, _poly_irreducible, frobenius, make_field, parse_field_spec,
                       rel_norm, rel_trace)


def test_prime_field_construction():
    F2 = make_field(2, 1)
    assert (F2.p, F2.h, F2.q) == (2, 1, 2)
    assert F2.modulus == (1, 1)


def test_f4_modulus_is_unique_irreducible_quadratic():
    # brute-force oracle: x^2 + c1 x + c0 over F_2 without roots
    irreducible = []
    for c0 in range(2):
        for c1 in range(2):
            if all((x * x + c1 * x + c0) % 2 for x in range(2)):
                irreducible.append((c0, c1, 1))
    assert irreducible == [(1, 1, 1)]
    assert make_field(2, 2).modulus == (1, 1, 1)


def test_f27_multiplicative_structure():
    F27 = make_field(3, 3)
    nonzero = [a for a in range(F27.q) if a != 0]
    assert len(nonzero) == 26
    # brute-force order of a generator divides 26
    for a in nonzero[:8]:
        order = 1
        acc = a
        while acc != 1:
            acc = F27.mul(acc, a)
            order += 1
            assert order <= 26
        assert 26 % order == 0


def test_make_field_errors():
    with pytest.raises(CompositeP):
        FieldCtx(4, 1)
    with pytest.raises(CompositeP):
        FieldCtx(1, 1)
    with pytest.raises(Unsupported):
        FieldCtx(2, 21)          # 2^21 > 2^20
    with pytest.raises(Unsupported):
        FieldCtx(2, 0)


def test_field_order_is_checked_before_primality():
    # is_prime and factorize take sqrt(p) steps: 2^61 - 1 would take minutes
    big = 2 ** 61 - 1
    for make in (lambda: FieldCtx(big, 1), lambda: FieldCtx(3, 10 ** 9),
                 lambda: parse_field_spec(str(big)), lambda: parse_field_spec(f"{big}^1"),
                 lambda: parse_field_spec("3000000")):
        with pytest.raises(Unsupported, match="exceeds supported range 2\\^20"):
            make()
    assert parse_field_spec(str(2 ** 20)).q == 2 ** 20


@pytest.mark.parametrize("p,h", [(2, 1), (2, 2), (2, 3), (2, 5), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (11, 1),
                                 (2, 11), (3, 7)])
def test_field_axioms_random(p, h):
    ctx = make_field(p, h)
    rng = random.Random(p * 100 + h)
    for _ in range(150):
        a, b, c = (rng.randrange(ctx.q) for _ in range(3))
        assert ctx.add(a, b) == ctx.add(b, a)
        assert ctx.mul(a, b) == ctx.mul(b, a)
        assert ctx.add(ctx.add(a, b), c) == ctx.add(a, ctx.add(b, c))
        assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
        assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
        assert ctx.add(a, ctx.neg(a)) == 0
        if a:
            assert ctx.mul(a, ctx.inv(a)) == 1


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 16, 27, 32, 64, 81, 128, 243, 256, 512, 1024])
def test_fermat_full_enumeration_small(q):
    ctx = parse_field_spec(str(q))
    for a in range(ctx.q):
        assert ctx.pow(a, q) == a


@pytest.mark.parametrize("p,h", [(2, 17), (3, 12), (5, 8), (1048573, 1)])
def test_fermat_sampled_large(p, h):
    ctx = make_field(p, h)
    rng = random.Random(h)
    for _ in range(12):
        a = rng.randrange(ctx.q)
        assert ctx.pow(a, ctx.q) == a


def test_inverse_matches_table_route():
    ctx = make_field(3, 3)
    tabs = ctx.np_tables()
    for a in range(1, ctx.q):
        # a^-1 = g^(q - 1 - log a) read off the numpy log/exp tables
        assert ctx.inv(a) == int(tabs["expx"][(ctx.q - 1 - tabs["logt"][a]) % (ctx.q - 1)])
        # the extended-Euclid route used above TABLE_LIMIT agrees
        euclid = _poly_inv_mod(make_field(3, 1), ctx.unpack(a), ctx.modulus)
        assert ctx.pack(euclid) == ctx.inv(a)


@given(st.integers(0, 7), st.integers(0, 7))
@settings(max_examples=64, deadline=None)
def test_f8_commutativity_hypothesis(a, b):
    ctx = make_field(2, 3)
    assert ctx.mul(a, b) == ctx.mul(b, a)
    assert ctx.add(a, b) == ctx.add(b, a)


# -- extensions ---------------------------------------------------------------


def test_frobenius_fixes_base_subfield():
    ctx = make_field(2, 2)
    ext = ExtCtx(ctx, 3)
    for a in range(ctx.q):
        x = ext.from_packed(a)                 # F_q embeds as the encodings [0, q)
        for i in range(1, 4):
            assert frobenius(x, i) == x


def test_frobenius_is_automorphism():
    ext = ExtCtx(make_field(3, 1), 3)
    rng = random.Random(9)
    for _ in range(60):
        x = ext.from_packed(rng.randrange(ext.order))
        y = ext.from_packed(rng.randrange(ext.order))
        assert frobenius(x * y) == frobenius(x) * frobenius(y)
        assert frobenius(x + y) == frobenius(x) + frobenius(y)


def test_frobenius_cubed_identity_q4():
    # oracle: repeated squaring computes x^(q^3) directly
    ctx = make_field(2, 2)
    ext = ExtCtx(ctx, 3)
    rng = random.Random(4)
    for _ in range(40):
        x = ext.from_packed(rng.randrange(ext.order))
        assert frobenius(x, 3) == x
        assert TowerPow(ext, x.v, ctx.q ** 3) == x.v


def TowerPow(ext, a, e):
    acc = 1
    base = a
    while e:
        if e & 1:
            acc = ext.mul(acc, base)
        base = ext.mul(base, base)
        e >>= 1
    return acc


def test_trace_norm_subfield_case():
    # c in F_q embedded in the cubic extension: Tr = 3c, N = c^3
    ctx = make_field(2, 2)
    ext = ExtCtx(ctx, 3)
    for a in range(ctx.q):
        x = ext.from_packed(a)
        assert rel_trace(x).v == ctx.mul(3 % 2, a)     # = a in char 2
        assert rel_norm(x).v == ctx.pow(a, 3)
    assert rel_trace(ext.from_packed(1)).v == 1


def test_trace_norm_invariance_laws():
    ext = ExtCtx(make_field(5, 1), 3)
    rng = random.Random(11)
    for _ in range(50):
        x = ext.from_packed(rng.randrange(ext.order))
        y = ext.from_packed(rng.randrange(ext.order))
        assert rel_trace(frobenius(x)) == rel_trace(x)
        assert rel_norm(x * y) == rel_norm(x) * rel_norm(y)
        # F_q-linearity of the trace
        lam = rng.randrange(5)
        lhs = rel_trace(ext.from_packed(lam) * x + y)
        rhs = ext.base.add(ext.base.mul(lam, rel_trace(x).v), rel_trace(y).v)
        assert lhs.v == rhs


def test_trace_norm_digit_level_oracle_f8():
    # conjugate enumeration oracle at q=2, n=3
    ext = ExtCtx(make_field(2, 1), 3)
    for e in range(8):
        conjs = [e]
        for _ in range(2):
            conjs.append(ext.pow(conjs[-1], 2))
        tr = 0
        for c in conjs:
            tr = ext.add(tr, c)
        nm = 1
        for c in conjs:
            nm = ext.mul(nm, c)
        assert ext.trace(e) == ext.descend(tr)
        assert ext.norm(e) == ext.descend(nm)
        assert ext.is_rational(tr) and ext.is_rational(nm)


def test_trace_lands_in_base_always():
    for (p, h, n) in ((2, 1, 4), (3, 1, 2), (2, 2, 3), (5, 1, 2)):
        ext = ExtCtx(make_field(p, h), n)
        for e in range(min(ext.order, 200)):
            ext.trace(e)
            ext.norm(e)                # both raise NotRational on failure


def test_descend_rejects_proper_extension_elements():
    ext = ExtCtx(make_field(2, 1), 3)
    with pytest.raises(NotRational):
        ext.descend(ext.pack((0, 1, 0)))


def test_parse_field_spec():
    assert parse_field_spec("2^4").q == 16
    assert parse_field_spec("27").q == 27
    with pytest.raises(CompositeP):
        parse_field_spec("12")
    with pytest.raises(CompositeP):
        parse_field_spec("x")


def test_default_moduli_are_irreducible():
    from ovoid7.ff import DEFAULT_MODULI

    for (p, h), coeffs in DEFAULT_MODULI.items():
        assert _poly_irreducible(make_field(p, 1), coeffs), (p, h)


def test_packed_tables_agree_with_scalar_ops():
    import numpy as np

    # orders 8, 81 and 64 lie below TABLE_LIMIT, where scalar products read
    # log/exp lists; 4096 and 6561 lie above it, where they multiply and
    # reduce coordinates.  Both sides must match the packed tables and the
    # coordinate-wise multiply-and-reduce and sum over the base field.
    assert max(2 ** 3, 3 ** 4, 4 ** 3) <= TABLE_LIMIT < min(16 ** 3, 9 ** 4)
    for (p, h, n) in ((2, 1, 3), (3, 1, 4), (2, 2, 3), (2, 4, 3), (3, 2, 4)):
        ext = ExtCtx(make_field(p, h), n)
        base = ext.base
        e = np.arange(ext.order, dtype=np.int64)
        fr = ext.v_frobenius(e)
        tr = ext.v_trace(e)
        nm = ext.v_norm(e)
        rng = random.Random(n)
        for _ in range(30):
            k = rng.randrange(ext.order)
            assert int(fr[k]) == ext.frobenius(k)
            assert int(tr[k]) == ext.trace(k)
            assert int(nm[k]) == ext.norm(k)
            m = rng.randrange(ext.order)
            reduced = ext.pack(_mul_reduce(base, ext._red, ext.unpack(k), ext.unpack(m)))
            assert int(ext.v_mul(np.int64(k), np.int64(m))) == ext.mul(k, m) == reduced
            summed = ext.pack([base.add(a, b) for a, b in zip(ext.unpack(k), ext.unpack(m))])
            assert int(ext.v_add(np.int64(k), np.int64(m))) == ext.add(k, m) == summed
            diff = ext.pack([base.sub(a, b) for a, b in zip(ext.unpack(k), ext.unpack(m))])
            assert int(ext.v_sub(np.int64(k), np.int64(m))) == ext.sub(k, m) == diff


class _DigitArithmetic:
    """F_q as a coefficient context that multiplies by multiply-and-reduce on
    digit vectors, never through log/exp tables."""

    def __init__(self, ctx):
        self.ctx, self.q = ctx, ctx.q

    def add(self, a, b):
        return self.ctx.add(a, b)

    def mul(self, a, b):
        c = self.ctx
        return c.pack(_mul_reduce(c._K, c._red, c.unpack(a), c.unpack(b)))


@pytest.mark.parametrize("field", ["3^4", "9^4", "16^3", "2^10"])
def test_exp_table_matches_sequential_powers(field):
    import numpy as np

    base, n = {"3^4": ((3, 1), 4), "9^4": ((3, 2), 4),
               "16^3": ((2, 4), 3), "2^10": ((2, 1), 10)}[field]
    if base[1] == 1:
        ctx = make_field(base[0], n)
        tabs, K, red = ctx._log_exp_tables(), make_field(*base), ctx._red
    else:
        ext = ExtCtx(make_field(*base), n)
        tabs, K, red = ext.packed_tables(), _DigitArithmetic(ext.base), ext._red
    q, N = K.q, K.q ** n
    weights = [q ** i for i in range(n)]
    exp = tabs["expx"][:N - 1].tolist()
    gen = [(exp[1] // w) % q for w in weights]
    # reference: N - 1 sequential multiplications by the generator
    acc = [1] + [0] * (n - 1)
    for i in range(N - 1):
        assert exp[i] == sum(c * w for c, w in zip(acc, weights)), i
        acc = _mul_reduce(K, red, acc, gen)
    assert acc == [1] + [0] * (n - 1)
    logt = tabs["logt"]
    assert logt[0] == 2 * N
    assert (logt[np.array(exp)] == np.arange(N - 1)).all()


# Pinned default moduli.  The curated table misses these fields, so they
# come from the smallest-irreducible search; any change to its candidate
# order or to the irreducibility test shows here.
FIELD_FALLBACK_MODULI = [
    (2, 9, (1, 0, 0, 0, 0, 0, 0, 0, 1, 1)),
    (2, 10, (1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1)),
    (2, 17, (1,) + (0,) * 13 + (1, 0, 0, 1)),
    (3, 7, (1, 0, 0, 0, 0, 1, 2, 1)),
    (3, 12, (1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 1)),
    (5, 4, (1, 0, 1, 1, 1)),
    (5, 8, (1, 0, 0, 0, 0, 1, 1, 0, 1)),
    (7, 3, (1, 0, 1, 1)),
]
EXT_MODULI = [
    (2, 2, (1, 1, 1)), (2, 3, (1, 0, 1, 1)), (2, 4, (1, 0, 0, 1, 1)),
    (3, 2, (1, 0, 1)), (3, 3, (1, 0, 2, 1)), (3, 4, (1, 0, 1, 1, 1)),
    (4, 2, (1, 2, 1)), (4, 3, (1, 0, 1, 1)), (8, 3, (1, 0, 2, 1)),
    (9, 4, (1, 0, 3, 3, 1)), (16, 3, (1, 0, 1, 1)), (27, 2, (1, 0, 1)),
    (32, 2, (1, 1, 1)), (11, 2, (1, 0, 1)),
]


@pytest.mark.parametrize(
    "kind,a,b,modulus",
    [("field", p, h, m) for p, h, m in FIELD_FALLBACK_MODULI]
    + [("ext", q, n, m) for q, n, m in EXT_MODULI],
    ids=[f"field-{p}-{h}" for p, h, _ in FIELD_FALLBACK_MODULI]
    + [f"ext-{q}-{n}" for q, n, _ in EXT_MODULI])
def test_ext_modulus_deterministic(kind, a, b, modulus):
    # first lexicographic irreducible (low-degree-first order, c_0 most significant)
    if kind == "field":
        assert len(modulus) == b + 1 and (a, b) not in DEFAULT_MODULI
        assert FieldCtx(a, b).modulus == modulus
    else:
        base = parse_field_spec(str(a))
        assert ExtCtx(base, b).modulus == ExtCtx(base, b).modulus == modulus


@pytest.mark.parametrize("q,n", [(5, 2), (4, 3), (3, 4)])
def test_ext_inverse_round_trip(q, n):
    ext = ExtCtx(parse_field_spec(str(q)), n)
    for x in range(1, ext.order):
        inv = ext.inv(x)
        assert ext.mul(x, inv) == 1
        assert ext.inv(inv) == x
    with pytest.raises(ZeroDivisionError):
        ext.inv(0)


def test_degree_one_extension_is_the_base_field():
    ctx = make_field(3, 1)
    ext = ExtCtx(ctx, 1)
    assert ext.modulus == (1, 1)
    for a in range(1, 3):
        for b in range(3):
            assert ext.mul(a, b) == ctx.mul(a, b)
        assert ext.inv(a) == ctx.inv(a)


def test_element_wrapper_rules():
    ctx, other = make_field(5, 1), make_field(7, 1)
    ext, other_ext = ExtCtx(ctx, 2), ExtCtx(ctx, 2)
    a, b = ctx.element(3), ctx.element(4)
    x, y = ext.element([2, 3]), ext.element([1, 4])
    ops = (lambda u, v: u + v, lambda u, v: u - v, lambda u, v: u * v, lambda u, v: u / v)
    for op in ops:
        # Fe combines only with an Fe of its own field
        for bad in (other.element(3), 3, x):
            with pytest.raises(FieldMismatch):
                op(a, bad)
        # TowerElem embeds an Fe of its base field and refuses everything else
        assert op(x, b) == op(x, ext.from_packed(b.v))
        for bad in (other.element(3), 3, other_ext.element([2, 3])):
            with pytest.raises(FieldMismatch):
                op(x, bad)
    # the two wrappers never compare equal, not even for n = 1
    one_ext = ExtCtx(ctx, 1)
    assert a != ext.from_packed(a.v) and ext.from_packed(a.v) != a
    assert ctx.element(1) != one_ext.from_packed(1) and one_ext.from_packed(1) != ctx.element(1)
    assert a != 3 and x != (2, 3) and x != 17
    # equal elements hash equally
    assert Fe(ctx, 3) == a and hash(Fe(ctx, 3)) == hash(a)
    assert TowerElem(ext, 17) == x and hash(TowerElem(ext, 2 + 3 * 5)) == hash(x)
    assert len({a, Fe(ctx, 3), x, ext.element((2, 3))}) == 2
    # division and negative powers
    assert (a / b) * b == a and a ** -1 * a == ctx.element(1) and a ** -2 == (a * a) ** -1
    assert (x / y) * y == x and x ** -1 * x == ext.from_packed(1) and x ** -3 == (x ** 3) ** -1
    with pytest.raises(ZeroDivisionError):
        a / ctx.element(0)
    with pytest.raises(ZeroDivisionError):
        x / ext.from_packed(0)
    assert (-a).v == 2 and (-x).coords == (3, 2)
    assert int(a) == 3 and bool(x) and not ctx.element(0) and not ext.from_packed(0)
    assert repr(a) == "Fe(3 in GF(5))" and repr(x) == "TowerElem([2, 3] in GF(5^2))"


def test_extension_order_limit_applies_to_tables_only():
    from ovoid7.families import find_artin_schreier_unit

    ext = ExtCtx(make_field(2, 7), 3)               # 2^21 elements
    t = ext.gen()
    assert ext.mul((t * t).v, t.v) == ext.pow(t.v, 3)
    with pytest.raises(Unsupported, match=r"extension order 2097152 exceeds 2\^20"):
        ext.packed_tables()
    with pytest.raises(Unsupported, match=r"extension order 4194304 exceeds 2\^20"):
        find_artin_schreier_unit(ExtCtx(make_field(2, 11), 2))


def test_from_packed_refuses_encodings_outside_the_extension():
    ext = ExtCtx(make_field(2, 1), 2)
    for e in (7, -1, 4):
        with pytest.raises(Unsupported, match=rf"element encoding {e} outside \[0, 4\)"):
            ext.from_packed(e)
    assert [ext.from_packed(e).coords for e in range(4)] == [(0, 0), (1, 0), (0, 1), (1, 1)]


def test_extension_modulus_entries_outside_the_base_field_are_refused():
    # such a modulus once sent the irreducibility test into an endless loop,
    # so the check runs in a child process that the timeout can stop
    code = ("from ovoid7.errors import Unsupported\n"
            "from ovoid7.ff import ExtCtx, make_field\n"
            "for m in ((1, 3, 1), (3, 1, 1), (1, -1, 1)):\n"
            "    try:\n"
            "        ExtCtx(make_field(2, 1), 2, m)\n"
            "    except Unsupported as exc:\n"
            "        print(exc)\n")
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["extension modulus entry 3 outside [0, 2)"] * 2 \
        + ["extension modulus entry -1 outside [0, 2)"]


def test_extension_construction_builds_no_tables():
    # the Frobenius rows and their self-check multiply and reduce coordinates
    ext = ExtCtx(make_field(2, 3), 3)
    assert ext._log_exp is None and ext._scalar is None and not ext._np
    assert ext.frobenius(ext.gen().v, 3) == ext.gen().v and ext._log_exp is None
    t = ext.gen().v
    assert ext.mul(t, t) == ext.pow(t, 2) and ext._log_exp is not None and not ext._np
    ext.v_mul(np.int64(t), np.int64(t))
    assert set(ext._np) >= {"logt", "expx", "frob"}


def test_field_modulus_entries_outside_the_prime_field_are_refused():
    # such entries were once reduced mod p, so (1, 1, 0, 3) passed as monic
    for modulus, entry in (((1, 1, 0, 3), 3), ((3, 1, 0, 1), 3), ((1, -1, 0, 1), -1)):
        with pytest.raises(Unsupported, match=rf"^modulus entry {entry} outside \[0, 2\)$"):
            FieldCtx(2, 3, modulus)
    with pytest.raises(Unsupported, match="must be monic of degree 3"):
        FieldCtx(2, 3, (1, 1, 0, 1, 0))
    with pytest.raises(Unsupported, match="modulus is reducible"):
        FieldCtx(2, 3, (1, 0, 0, 1))


@pytest.mark.parametrize("field", ["5", "8", "9", "2^11", "(2^2)^3"])
def test_v_pow_matches_scalar_pow_on_every_element(field):
    # 2^11 lies above TABLE_LIMIT, where FieldCtx once had no vector ops
    ctx = {"5": (5, 1), "8": (2, 3), "9": (3, 2), "2^11": (2, 11)}.get(field)
    ctx = make_field(*ctx) if ctx else ExtCtx(make_field(2, 2), 3)
    a = np.arange(ctx.order, dtype=np.int64)
    for e in (0, 1, 2, 7, ctx.order + 2):
        got = ctx.v_pow(a, e).tolist()
        assert got == [ctx.pow(x, e) for x in range(ctx.order)], e
