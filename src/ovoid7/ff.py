"""Finite fields F_q = F_{p^h} with q <= 2^20 and their small extensions.

Elements of F_q are encoded as integers in [0, q): the element with
power-basis digits (d_0, ..., d_{h-1}) is sum(d_i * p^i).  Elements of an
extension F_{q^n} (n in {1,2,3,4}) are length-n tuples of such integers,
or equivalently the packed integer sum(c_i * q^i).

Both are quotient rings K[t]/(m), F_p[t]/(m) and F_q[t]/(m), and share one
polynomial core over a coefficient context K.

Contexts are immutable after construction and all element operations are
pure, so contexts can be shared freely across threads.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import CompositeP, FieldMismatch, NotRational, ParseError, Unsupported

MAX_ORDER = 1 << 20
# element tables (numpy + python lists) are only materialized below this
TABLE_LIMIT = 1 << 10

# Curated default moduli, coefficients low-degree-first including the
# leading 1.  Conway polynomials where we have them tabulated; anything
# missing falls back to the lexicographically smallest monic irreducible.
DEFAULT_MODULI = {
    (2, 1): (1, 1),
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 1, 1, 0, 1),
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (2, 8): (1, 0, 1, 1, 1, 0, 0, 0, 1),
    (3, 1): (1, 1),
    (3, 2): (2, 2, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 0, 0, 2, 1),
    (3, 5): (1, 2, 0, 0, 0, 1),
    (3, 6): (2, 2, 1, 0, 2, 0, 1),
    (5, 1): (3, 1),
    (5, 2): (2, 4, 1),
    (5, 3): (3, 3, 0, 1),
    (7, 1): (4, 1),
    (7, 2): (3, 6, 1),
    (11, 1): (9, 1),
    (11, 2): (2, 7, 1),
    (13, 1): (11, 1),
    (13, 2): (2, 12, 1),
    (17, 1): (14, 1),
    (19, 1): (17, 1),
    (23, 1): (18, 1),
    (29, 1): (27, 1),
    (31, 1): (28, 1),
}


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def factorize(n: int) -> dict:
    """Prime factorization by trial division; fine for n <= 2^20-ish."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# ---------------------------------------------------------------------------
# quotient-ring core
#
# F_{p^h} = F_p[t]/(m) and F_{q^n} = F_q[t]/(m) share every algorithm
# below (Lidl & Niederreiter, *Finite Fields*, ch. 1-3).  Polynomials are
# coefficient lists, low degree first, over a coefficient context K that
# provides add/sub/neg/mul/inv on encodings and the order K.q: F_p is
# make_field(p, 1), and an extension's coefficients live in its base
# FieldCtx.  Elements of K[t]/(m) are length-n coordinate lists.


def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(K, a, b):
    """Dense product, untrimmed (length len(a) + len(b) - 1)."""
    if not a or not b:
        return []
    add, mul = K.add, K.mul
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = add(out[i + j], mul(ai, bj))
    return out


def _poly_divmod(K, a, b):
    a = _trim(list(a))
    b = _trim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    sub, mul = K.sub, K.mul
    db = len(b) - 1
    inv_lead = K.inv(b[-1])
    quo = [0] * max(1, len(a) - db)
    while a and len(a) - 1 >= db:
        shift = len(a) - 1 - db
        c = mul(a[-1], inv_lead)
        quo[shift] = c
        for i, bi in enumerate(b):
            a[shift + i] = sub(a[shift + i], mul(c, bi))
        _trim(a)
    return _trim(quo), a


def _poly_gcd(K, a, b):
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        a, b = b, _poly_divmod(K, a, b)[1]
    return a


def _reduction_rows(K, m):
    """Rows r_i with t^(n+i) = sum_k r_i[k] t^k modulo monic m, i < n-1."""
    n = len(m) - 1
    rows = []
    row = [K.neg(c) for c in m[:n]]
    for _ in range(n - 1):
        rows.append(tuple(row))
        carry = row[-1]
        row = [0] + row[:-1]
        row = [K.add(row[k], K.mul(carry, rows[0][k])) for k in range(n)]
    return rows


def _mul_reduce(K, red, a, b):
    """Product of two coordinate vectors of K[t]/(m); red = _reduction_rows(K, m)."""
    n = len(a)
    prod = _poly_mul(K, a, b)
    out = prod[:n]
    add, mul = K.add, K.mul
    for i, row in enumerate(red):
        c = prod[n + i]
        if c:
            for k in range(n):
                out[k] = add(out[k], mul(c, row[k]))
    return out


def _power(mul, one, a, e: int):
    """a^e by square and multiply: element powers, x^e mod m, order tests."""
    result = one
    while e:
        if e & 1:
            result = mul(result, a)
        e >>= 1
        if e:
            a = mul(a, a)
    return result


def _poly_inv_mod(K, a, m):
    """Inverse of a modulo irreducible m by extended Euclid, as n coordinates."""
    r0, r1 = list(m), _trim(list(a))
    s0, s1 = [], [1]
    while len(r1) > 1:
        quo, r = _poly_divmod(K, r0, r1)
        r0, r1 = r1, r
        t = _poly_mul(K, quo, s1)
        s0, s1 = s1, _trim([K.sub(x, y) for x, y in itertools.zip_longest(s0, t, fillvalue=0)])
        if not r1:
            raise ZeroDivisionError("element not invertible")
    c = K.inv(r1[0])
    out = [K.mul(c, x) for x in s1]
    return out + [0] * (len(m) - 1 - len(out))


def _poly_irreducible(K, f) -> bool:
    """Ben-Or's test: monic f of degree n is irreducible over K iff
    gcd(x^(q^i) - x, f) = 1 for every i <= n/2."""
    f = list(f)
    n = len(f) - 1
    if n < 1 or f[-1] != 1:
        return False
    mul = functools.partial(_mul_reduce, K, _reduction_rows(K, f))
    one, x = [1] + [0] * (n - 1), [0, 1] + [0] * (n - 2)
    g = x
    for _ in range(n // 2):
        g = _power(mul, one, g, K.q)
        if len(_poly_gcd(K, f, [K.sub(c, d) for c, d in zip(g, x)])) > 1:
            return False
    return True


def _smallest_irreducible(K, n: int) -> Tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree n over K,
    comparing (c_0, ..., c_{n-1}) with c_0 most significant."""
    for head in itertools.product(range(1, K.q), *[range(K.q)] * (n - 1)):
        if _poly_irreducible(K, head + (1,)):
            return head + (1,)
    raise RuntimeError("no irreducible polynomial found")  # pragma: no cover


def _primitive_tables(K, red, n: int) -> dict:
    """log/exp tables of K[t]/(m) over packed encodings sum(c_i * q^i).

    The generator is the smallest packed encoding >= 2 of full order N - 1
    (1 when N = 2).  logt maps 0 to 2N, so a product involving 0 indexes
    past the exponent range; expx repeats exp to cover sums of two logs.
    """
    q, N = K.q, K.q ** n
    mul = functools.partial(_mul_reduce, K, red)
    one = [1] + [0] * (n - 1)
    weights = [q ** i for i in range(n)]
    primes = factorize(N - 1)
    gen = one
    for e in range(2, N):
        cand = [(e // w) % q for w in weights]
        if all(_power(mul, one, cand, (N - 1) // r) != one for r in primes):
            gen = cand
            break
    # exp in blocks of B ~ sqrt(N): g^(kB + i) is g^i times (g^B)^k.  The
    # base-p digits of a packed encoding are its coordinates over F_p, and
    # multiplication by g^B is F_p-linear on them (the matrix `step`), so
    # every block after the first is one integer matrix product.
    def packed(v):
        return sum(c * w for c, w in zip(v, weights))

    count = N - 1
    B = math.isqrt(max(count - 1, 0)) + 1
    head, acc = [], one
    for _ in range(B):
        head.append(packed(acc))
        acc = mul(acc, gen)
    p = K.p
    digit = p ** np.arange(n * K.h, dtype=np.int64)
    # column j: the digits of g^B times the j-th F_p basis element p^j
    images = [packed(mul([w // c % q for c in weights], acc)) for w in digit.tolist()]
    step = np.array(images, dtype=np.int64)[None, :] // digit[:, None] % p
    block = np.array(head, dtype=np.int64)
    parts = [block]
    block = block[None, :] // digit[:, None] % p
    for _ in range(1, -(-count // B)):
        block = step @ block % p
        parts.append(digit @ block)
    exp = np.concatenate(parts)[:count]
    logt = np.full(N, 2 * N, dtype=np.int64)
    logt[exp] = np.arange(N - 1, dtype=np.int64)
    expx = np.zeros(4 * N + 4, dtype=np.int64)
    expx[: 2 * (N - 1) + 1] = exp[np.arange(2 * (N - 1) + 1) % (N - 1)]
    return {"logt": logt, "expx": expx, "order": N - 1}


class _Elem:
    """Arithmetic shared by Fe and TowerElem: a subclass names the slot of its
    encoding in _attr, and its _val turns the other operand into an encoding."""

    __slots__ = ()

    def _enc(self):
        return getattr(self, self._attr)

    def __add__(self, other):
        return type(self)(self.ctx, self.ctx.add(self._enc(), self._val(other)))

    def __sub__(self, other):
        return type(self)(self.ctx, self.ctx.sub(self._enc(), self._val(other)))

    def __neg__(self):
        return type(self)(self.ctx, self.ctx.neg(self._enc()))

    def __mul__(self, other):
        return type(self)(self.ctx, self.ctx.mul(self._enc(), self._val(other)))

    def __truediv__(self, other):
        return type(self)(self.ctx, self.ctx.mul(self._enc(), self.ctx.inv(self._val(other))))

    def __pow__(self, e: int):
        return type(self)(self.ctx, self.ctx.pow(self._enc(), e))

    def __eq__(self, other):
        return (isinstance(other, type(self)) and other.ctx is self.ctx
                and other._enc() == self._enc())

    def __hash__(self):
        return hash((id(self.ctx), self._enc()))


class Fe(_Elem):
    """An element of F_q, wrapping the integer encoding."""

    __slots__ = ("ctx", "v")
    _attr = "v"

    def __init__(self, ctx: "FieldCtx", v: int):
        self.ctx = ctx
        self.v = v

    def _val(self, other):
        if isinstance(other, Fe):
            if other.ctx is not self.ctx:
                raise FieldMismatch("elements from different field contexts")
            return other.v
        raise FieldMismatch(f"cannot combine Fe with {type(other).__name__}")

    def __int__(self):
        return self.v

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return f"Fe({self.v} in GF({self.ctx.q}))"


class FieldCtx:
    """Arithmetic context for F_q, q = p^h <= 2^20.

    Raw operations (add/sub/mul/...) act on integer encodings; `element`
    wraps them into Fe values for the object-level API.
    """

    def __init__(self, p: int, h: int, modulus: Optional[Sequence[int]] = None):
        if h < 1:
            raise Unsupported("extension degree must be positive")
        # before is_prime, which takes sqrt(p) steps; every p >= 2 puts
        # p^h above 2^20 for h > 20, so p^h is computed only for h <= 20
        if p >= 2 and (h > 20 or p ** h > MAX_ORDER):
            raise Unsupported(f"field order {p}^{h} exceeds supported range 2^20")
        if not is_prime(p):
            raise CompositeP(f"{p} is not prime")
        q = p ** h
        self.p = p
        self.h = h
        self.q = q
        # coefficient context of the quotient-ring core: F_p itself
        self._fp = self if h == 1 else make_field(p, 1)
        if modulus is None:
            modulus = DEFAULT_MODULI.get((p, h)) or _smallest_irreducible(self._fp, h)
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != h + 1 or modulus[-1] != 1:
            raise Unsupported("modulus must be monic of degree h")
        if not _poly_irreducible(self._fp, modulus):
            raise Unsupported("modulus is reducible over the prime field")
        self.modulus = modulus
        self._red = _reduction_rows(self._fp, modulus)
        self._log_exp = None
        self._scalar = None
        self._np = {}

    # -- encoding ----------------------------------------------------------

    def digits(self, a: int) -> Tuple[int, ...]:
        p = self.p
        return tuple((a // p ** i) % p for i in range(self.h))

    def from_digits(self, ds: Sequence[int]) -> int:
        p = self.p
        return sum((int(d) % p) * p ** i for i, d in enumerate(ds))

    def element(self, a: int) -> Fe:
        if not 0 <= a < self.q:
            raise Unsupported(f"element encoding {a} outside [0, {self.q})")
        return Fe(self, a)

    @property
    def name(self) -> str:
        return f"{self.p}^{self.h}"

    def modulus_text(self) -> str:
        parts = []
        for i in range(self.h, -1, -1):
            c = self.modulus[i]
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                head = "" if c == 1 else f"{c}*"
                parts.append(f"{head}t^{i}" if i > 1 else f"{head}t")
        return "+".join(parts) or "0"

    # -- raw arithmetic on integer encodings -------------------------------

    def add(self, a: int, b: int) -> int:
        p = self.p
        if p == 2:
            return a ^ b
        if self.h == 1:
            return (a + b) % p
        out = 0
        mult = 1
        for _ in range(self.h):
            out += ((a % p + b % p) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def neg(self, a: int) -> int:
        p = self.p
        if p == 2:
            return a
        if self.h == 1:
            return (-a) % p
        out = 0
        mult = 1
        for _ in range(self.h):
            out += ((p - a % p) % p) * mult
            a //= p
            mult *= p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self.h == 1:
            return (a * b) % self.p
        if self.q <= TABLE_LIMIT:
            log, exp = self._scalar or self._scalar_tables()
            return exp[log[a] + log[b]]
        return self.from_digits(_mul_reduce(self._fp, self._red, self.digits(a), self.digits(b)))

    def inv(self, a: int) -> int:
        """Multiplicative inverse: Fermat over F_p, log tables up to
        TABLE_LIMIT, extended Euclid on digit polynomials above."""
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self.h == 1:
            return pow(a, self.p - 2, self.p)
        if self.q <= TABLE_LIMIT:
            log, exp = self._scalar or self._scalar_tables()
            return exp[self.q - 1 - log[a]]
        return self.from_digits(_poly_inv_mod(self._fp, self.digits(a), self.modulus))

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        return _power(self.mul, 1, a, e)

    def is_square(self, a: int) -> bool:
        if self.p == 2 or a == 0:
            return True
        return self.pow(a, (self.q - 1) // 2) == 1

    # -- table machinery ----------------------------------------------------

    def _log_exp_tables(self) -> dict:
        if self._log_exp is None:
            self._log_exp = _primitive_tables(self._fp, self._red, self.h)
        return self._log_exp

    def _scalar_tables(self):
        """Python-int log/exp lists for scalar products of nonzero elements."""
        t = self._log_exp_tables()
        self._scalar = t["logt"].tolist(), t["expx"][: 2 * self.q].tolist()
        return self._scalar

    def np_tables(self) -> dict:
        """Numpy lookup tables for vectorized arithmetic (q <= TABLE_LIMIT)."""
        if self.q > TABLE_LIMIT:
            raise Unsupported(f"vectorized tables unavailable for q={self.q}")
        if self._np:
            return self._np
        q = self.q
        tab = dict(self._log_exp_tables())
        if self.p != 2 and self.h > 1:
            ar = np.arange(q)
            dig_a = [(ar // self.p ** i) % self.p for i in range(self.h)]
            add = np.zeros((q, q), dtype=np.int64)
            for i in range(self.h):
                da = dig_a[i][:, None]
                db = dig_a[i][None, :]
                add += ((da + db) % self.p) * self.p ** i
            tab["add_flat"] = add.reshape(-1)
            neg = np.zeros(q, dtype=np.int64)
            for i in range(self.h):
                neg += ((self.p - dig_a[i]) % self.p) * self.p ** i
            tab["neg"] = neg
            tab["sub_flat"] = add[:, neg].reshape(-1)
        inv_arr = np.zeros(q, dtype=np.int64)
        inv_arr[1:] = tab["expx"][(q - 1 - tab["logt"][1:]) % (q - 1)]
        tab["inv"] = inv_arr
        self._np = tab
        return tab

    # -- vectorized raw ops (numpy int64 arrays of encodings) ---------------

    def v_add(self, a, b):
        if self.p == 2:
            return np.bitwise_xor(a, b)
        if self.h == 1:
            return (a + b) % self.p
        t = self.np_tables()
        return t["add_flat"][a * self.q + b]

    def v_sub(self, a, b):
        if self.p == 2:
            return np.bitwise_xor(a, b)
        if self.h == 1:
            return (a - b) % self.p
        t = self.np_tables()
        return t["sub_flat"][a * self.q + b]

    def v_mul(self, a, b):
        if self.h == 1:
            return (a * b) % self.p
        t = self.np_tables()
        return t["expx"][t["logt"][a] + t["logt"][b]]

    def v_pow(self, a, e: int):
        if e == 0:
            return np.ones_like(a)
        if self.h == 1:
            # repeated squaring keeps every product in int64 range
            return _power(self.v_mul, np.ones_like(a), a % self.p, e)
        t = self.np_tables()
        lg = t["logt"][a]
        zero = lg >= 2 * self.q
        out = t["expx"][(lg * e) % t["order"]]
        out[zero] = 0
        return out

    def __repr__(self):
        return f"FieldCtx(GF({self.p}^{self.h}))"


@functools.lru_cache(maxsize=None)
def make_field(p: int, h: int = 1) -> FieldCtx:
    """Build (and cache) the F_{p^h} context with the default modulus."""
    return FieldCtx(p, h)


def parse_field_spec(text: str) -> FieldCtx:
    """Parse "p^h" or a plain prime power "q" into a field context."""
    text = text.strip()
    try:
        if "^" in text:
            ps, hs = text.split("^", 1)
            p, h = int(ps), int(hs)
        else:
            q = int(text)
            if q < 2:
                raise ValueError
            if q > MAX_ORDER:           # before factorize, which takes sqrt(q) steps
                raise Unsupported(f"field order {q} exceeds supported range 2^20")
            fac = factorize(q)
            if len(fac) != 1:
                raise CompositeP(f"{q} is not a prime power")
            (p, h), = fac.items()
    except CompositeP:
        raise
    except ValueError:
        raise CompositeP(f"cannot parse field spec {text!r}") from None
    return make_field(p, h)


# ---------------------------------------------------------------------------
# extensions


class TowerElem(_Elem):
    """An element of F_{q^n}, as a coordinate vector over F_q."""

    __slots__ = ("ctx", "coords")
    _attr = "coords"

    def __init__(self, ctx: "ExtCtx", coords: Sequence[int]):
        self.ctx = ctx
        self.coords = tuple(coords)

    def _val(self, other):
        if isinstance(other, TowerElem):
            if other.ctx is not self.ctx:
                raise FieldMismatch("elements from different extension contexts")
            return other.coords
        if isinstance(other, Fe):
            if other.ctx is not self.ctx.base:
                raise FieldMismatch("base element from a different field")
            return self.ctx.embed(other.v)
        raise FieldMismatch(f"cannot combine TowerElem with {type(other).__name__}")

    def __bool__(self):
        return any(self.coords)

    def __repr__(self):
        return f"TowerElem({list(self.coords)} in GF({self.ctx.base.q}^{self.ctx.n}))"


class ExtCtx:
    """Degree-n extension F_{q^n} of a base FieldCtx, n in {1,2,3,4}."""

    def __init__(self, base: FieldCtx, n: int, modulus: Optional[Sequence[int]] = None):
        if n not in (1, 2, 3, 4):
            raise Unsupported("extension degree must be 1..4")
        self.base = base
        self.n = n
        self.q = base.q
        self.order = base.q ** n
        if modulus is None:
            modulus = _smallest_irreducible(base, n)
        modulus = tuple(int(c) for c in modulus)
        if len(modulus) != n + 1 or modulus[-1] != 1:
            raise Unsupported("extension modulus must be monic of degree n")
        if not _poly_irreducible(base, modulus):
            raise Unsupported("extension modulus is reducible")
        self.modulus = modulus
        self._red = _reduction_rows(base, modulus)
        # Frobenius basis images: img[i][j] = (t^j)^(q^i)
        self._frob_imgs = None
        self._packed = {}
        self._check_frobenius_order()

    def _check_frobenius_order(self):
        coords = self.gen().coords
        x = coords
        for _ in range(self.n):
            x = self.frobenius(x, 1) if self.n > 1 else x
        if tuple(x) != tuple(coords):
            raise Unsupported("Frobenius applied n times is not the identity")

    # -- encoding ------------------------------------------------------------

    def pack(self, coords) -> int:
        q = self.q
        out = 0
        for c in reversed(coords):
            out = out * q + c
        return out

    def unpack(self, e: int) -> Tuple[int, ...]:
        q = self.q
        return tuple((e // q ** i) % q for i in range(self.n))

    def element(self, coords) -> TowerElem:
        coords = tuple(int(c) for c in coords)
        if len(coords) != self.n or any(not 0 <= c < self.q for c in coords):
            raise Unsupported("bad coordinate vector for extension element")
        return TowerElem(self, coords)

    def parse_element(self, text: str, what: str) -> Tuple[int, ...]:
        """The coordinates written as `[c0,...,c(n-1)]`, each in [0, q), or as
        one packed integer in [0, q^n); a ParseError names `what` and the fault."""
        text = text.strip()
        listed = text.startswith("[") and text.endswith("]")
        try:
            values = [int(v) for v in (text[1:-1].split(",") if listed else [text])]
        except ValueError:
            raise ParseError(f"bad element {text!r}") from None
        if not listed:
            if not 0 <= values[0] < self.order:
                raise ParseError(f"{what} {values[0]} outside [0, {self.order})")
            return self.unpack(values[0])
        if len(values) != self.n:
            raise ParseError(f"{what} {text} has {len(values)} entries, expected {self.n}")
        if not all(0 <= c < self.q for c in values):
            raise ParseError(f"{what} {text} has an entry outside [0, {self.q})")
        return tuple(values)

    def from_packed(self, e: int) -> TowerElem:
        return TowerElem(self, self.unpack(e))

    def embed(self, a: int) -> Tuple[int, ...]:
        return (a,) + (0,) * (self.n - 1)

    def gen(self) -> TowerElem:
        """Power-basis root t of the extension modulus."""
        if self.n == 1:
            return TowerElem(self, (self.base.neg(self.modulus[0]),))
        return TowerElem(self, (0, 1) + (0,) * (self.n - 2))

    def is_rational(self, coords) -> bool:
        return all(c == 0 for c in coords[1:])

    def descend(self, coords) -> int:
        if not self.is_rational(coords):
            raise NotRational(f"{coords} has nonzero extension coordinates")
        return coords[0]

    # -- arithmetic on coordinate tuples -------------------------------------

    def add(self, a, b):
        bb = self.base
        return tuple(bb.add(x, y) for x, y in zip(a, b))

    def sub(self, a, b):
        bb = self.base
        return tuple(bb.sub(x, y) for x, y in zip(a, b))

    def neg(self, a):
        bb = self.base
        return tuple(bb.neg(x) for x in a)

    def mul(self, a, b):
        return tuple(_mul_reduce(self.base, self._red, a, b))

    def inv(self, a):
        if not any(a):
            raise ZeroDivisionError("inverse of zero")
        return tuple(_poly_inv_mod(self.base, a, self.modulus))

    def pow(self, a, e: int):
        if e < 0:
            return self.pow(self.inv(a), -e)
        return _power(self.mul, self.embed(1), tuple(a), e)

    # -- Frobenius / trace / norm --------------------------------------------

    def _frobenius_images(self):
        if self._frob_imgs is None:
            tq = self.pow(self.gen().coords, self.q)
            # row 0: images of the power basis t^j under x -> x^q
            row = [self.embed(1)]
            acc = self.embed(1)
            for _ in range(1, self.n):
                acc = self.mul(acc, tq)
                row.append(acc)
            imgs = [row]
            for _ in range(1, self.n):
                imgs.append([self._apply_linear(imgs[0], c) for c in imgs[-1]])
            self._frob_imgs = imgs
        return self._frob_imgs

    def _apply_linear(self, imgs_row, coords):
        bb = self.base
        out = (0,) * self.n
        for j, cj in enumerate(coords):
            if cj:
                term = tuple(bb.mul(cj, x) for x in imgs_row[j])
                out = self.add(out, term)
        return out

    def frobenius(self, coords, i: int = 1):
        """coords^(q^i); Frobenius is F_q-linear so this is a basis combo."""
        i %= self.n
        if i == 0:
            return tuple(coords)
        imgs = self._frobenius_images()
        return self._apply_linear(imgs[i - 1], coords)

    def conjugates(self, coords):
        out = [tuple(coords)]
        for _ in range(self.n - 1):
            out.append(self.frobenius(out[-1]))
        return out

    def trace(self, coords) -> int:
        acc = (0,) * self.n
        for c in self.conjugates(coords):
            acc = self.add(acc, c)
        return self.descend(acc)

    def norm(self, coords) -> int:
        acc = self.embed(1)
        for c in self.conjugates(coords):
            acc = self.mul(acc, c)
        return self.descend(acc)

    # -- packed-integer fast layer --------------------------------------------

    def check_scannable(self) -> None:
        """Packed tables and element-by-element scans stop at 2^20 elements;
        tuple arithmetic has no such limit."""
        if self.order > MAX_ORDER:
            raise Unsupported(f"extension order {self.order} exceeds 2^20")

    def packed_tables(self) -> dict:
        """log/exp, Frobenius and trace tables over packed integers."""
        if self._packed:
            return self._packed
        self.check_scannable()
        N = self.order
        tabs = _primitive_tables(self.base, self._red, self.n)
        expx = tabs["expx"]
        exp = expx[: N - 1]
        frob = np.zeros(N, dtype=np.int64)
        frob[exp] = expx[(np.arange(N - 1) * self.q) % (N - 1)]
        tabs["frob"] = frob
        self._packed = tabs
        return tabs

    def v_mul_packed(self, a, b):
        t = self.packed_tables()
        return t["expx"][t["logt"][a] + t["logt"][b]]

    def v_add_packed(self, a, b):
        if self.base.p == 2:
            return np.bitwise_xor(a, b)
        q = self.q
        out = np.zeros_like(a)
        for i in range(self.n):
            da = (a // q ** i) % q
            db = (b // q ** i) % q
            out += self.base.v_add(da, db) * q ** i
        return out

    def v_frobenius_packed(self, a):
        return self.packed_tables()["frob"][a]

    def _v_conjugate_fold(self, a, op, what: str):
        """op over the n conjugates a, a^q, ..., which must land in F_q."""
        conj = a
        tot = a.copy()
        for _ in range(self.n - 1):
            conj = self.v_frobenius_packed(conj)
            tot = op(tot, conj)
        # rational check: higher digits vanish
        if np.any(tot >= self.q):
            raise NotRational(f"{what} left the base field")
        return tot

    def v_trace_packed(self, a):
        """Absolute trace to F_q of packed elements, as base encodings."""
        return self._v_conjugate_fold(a, self.v_add_packed, "trace")

    def v_norm_packed(self, a):
        """Absolute norm to F_q of packed elements, as base encodings."""
        return self._v_conjugate_fold(a, self.v_mul_packed, "norm")

    def __repr__(self):
        return f"ExtCtx(GF(({self.base.p}^{self.base.h})^{self.n}))"


# -- module-level operations matching the library surface --------------------


def frobenius(x: TowerElem, i: int = 1) -> TowerElem:
    return TowerElem(x.ctx, x.ctx.frobenius(x.coords, i))


def rel_trace(x: TowerElem) -> Fe:
    return Fe(x.ctx.base, x.ctx.trace(x.coords))


def rel_norm(x: TowerElem) -> Fe:
    return Fe(x.ctx.base, x.ctx.norm(x.coords))
