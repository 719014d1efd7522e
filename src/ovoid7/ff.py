"""Finite fields F_q = F_{p^h} with q <= 2^20 and their small extensions.

Both are quotient rings K[t]/(m): F_{p^h} = F_p[t]/(m) and, for n in
{1,2,3,4}, F_{q^n} = F_q[t]/(m).  They share one polynomial core over the
coefficient context K and one encoding: the element with power-basis
coordinates (c_0, ..., c_{d-1}) over K is the integer sum(c_i * |K|^i).  So
F_q holds [0, q), F_{q^n} holds [0, q^n), and F_q embeds in F_{q^n} as the
encodings [0, q).  Coordinate tuples appear only at the edges: pack/unpack,
ExtCtx.element, ExtCtx.parse_element and the TowerElem.coords view.

Construction settles the modulus and nothing else: log/exp lists and numpy
tables are built by the first product or vector op that needs them.  The
values of a context never change and all element operations are pure, so
contexts can be shared freely across threads.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import CompositeP, FieldMismatch, NotRational, ParseError, Unsupported

MAX_ORDER = 1 << 20
# scalar log/exp lists and the odd-p flat sum tables stop at this order; the
# other numpy tables go up to MAX_ORDER
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
# FieldCtx.  These routines take elements of K[t]/(m) as the length-n
# coordinate lists that _QuotientField.unpack returns.


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
    comparing (c_0, ..., c_{n-1}) with c_0 most significant.  Candidates
    are counted up as integers with those digits, c_0 >= 1, one at a time."""
    q = K.q
    for k in range(q ** (n - 1), q ** n):
        f = tuple(k // q ** (n - 1 - i) % q for i in range(n)) + (1,)
        if _poly_irreducible(K, f):
            return f
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
    """An element of a field context: the context `ctx` and the integer
    encoding `v`.  The other operand must lie in the same field or in its
    base, which embeds with the same encoding."""

    __slots__ = ("ctx", "v")

    def __init__(self, ctx, v: int):
        self.ctx = ctx
        self.v = v

    def _val(self, other) -> int:
        if isinstance(other, _Elem) and (other.ctx is self.ctx or other.ctx is self.ctx.base):
            return other.v
        raise FieldMismatch(f"{other!r} is not an element of {self.ctx!r} or of its base")

    def __add__(self, other):
        return type(self)(self.ctx, self.ctx.add(self.v, self._val(other)))

    def __sub__(self, other):
        return type(self)(self.ctx, self.ctx.sub(self.v, self._val(other)))

    def __neg__(self):
        return type(self)(self.ctx, self.ctx.neg(self.v))

    def __mul__(self, other):
        return type(self)(self.ctx, self.ctx.mul(self.v, self._val(other)))

    def __truediv__(self, other):
        return type(self)(self.ctx, self.ctx.mul(self.v, self.ctx.inv(self._val(other))))

    def __pow__(self, e: int):
        return type(self)(self.ctx, self.ctx.pow(self.v, e))

    def __eq__(self, other):
        return isinstance(other, type(self)) and other.ctx is self.ctx and other.v == self.v

    def __hash__(self):
        return hash((id(self.ctx), self.v))

    def __bool__(self):
        return self.v != 0


class Fe(_Elem):
    """An element of F_q."""

    __slots__ = ()

    def __int__(self):
        return self.v

    def __repr__(self):
        return f"Fe({self.v} in GF({self.ctx.q}))"


class TowerElem(_Elem):
    """An element of F_{q^n}; `coords` is a read-only view of its coordinates."""

    __slots__ = ()

    @property
    def coords(self) -> Tuple[int, ...]:
        return self.ctx.unpack(self.v)

    def __repr__(self):
        return f"TowerElem({list(self.coords)} in GF({self.ctx.q}^{self.ctx.n}))"


class _QuotientField:
    """Arithmetic of K[t]/(m) on integer encodings, shared by FieldCtx
    (F_p[t]/(m)) and ExtCtx (F_q[t]/(m)).

    The element with coordinates (c_0, ..., c_{d-1}) over K is encoded as
    sum(c_i * |K|^i).  Its base-p digits are the F_p coordinates of the c_i
    laid end to end, so sums work digit by digit (XOR when p = 2).  Products
    read log/exp lists up to TABLE_LIMIT elements and multiply-and-reduce
    the unpacked coordinates above it.  A subclass sets p, q, order and base
    (the field that `lift` and `descend` move to; a FieldCtx is its own),
    then calls this constructor.  No list or table is built until the first
    product or vector op needs it.
    """

    _what = "modulus"               # the modulus's name in messages
    _defaults = DEFAULT_MODULI      # curated moduli by (p, degree)

    def __init__(self, K, n: int, modulus: Optional[Sequence[int]]):
        """K[t]/(m) for a monic irreducible m of degree n with entries in
        [0, |K|); by default the curated one, else the smallest irreducible."""
        if modulus is None:
            modulus = self._defaults.get((self.p, n)) or _smallest_irreducible(K, n)
        modulus = tuple(int(c) for c in modulus)
        for c in modulus:
            if not 0 <= c < K.q:
                raise Unsupported(f"{self._what} entry {c} outside [0, {K.q})")
        if len(modulus) != n + 1 or modulus[-1] != 1:
            raise Unsupported(f"{self._what} must be monic of degree {n}")
        if not _poly_irreducible(K, modulus):
            raise Unsupported(f"{self._what} is reducible")
        self._K, self._deg, self.modulus = K, n, modulus
        self._red = _reduction_rows(K, modulus)
        self._log_exp = self._scalar = None
        self._np = {}

    # -- encoding ------------------------------------------------------------

    def unpack(self, a: int) -> Tuple[int, ...]:
        """The coordinates of `a` over K, low degree first."""
        k = self._K.q
        return tuple(a // k ** i % k for i in range(self._deg))

    def pack(self, coords) -> int:
        k = self._K.q
        out = 0
        for c in reversed(coords):
            out = out * k + c
        return out

    def parse_element(self, text: str, what: str) -> int:
        """The element written as its encoding in [0, order); a ParseError
        names `what` and the fault."""
        try:
            v = int(text)
        except ValueError:
            raise ParseError(f"bad element {text.strip()!r}") from None
        if not 0 <= v < self.order:
            raise ParseError(f"{what} {v} outside [0, {self.order})")
        return v

    def render_element(self, a: int) -> str:
        """An element of the base as its encoding, any other as its coordinates."""
        if self.is_rational(a):
            return str(a)
        return "[" + ",".join(str(c) for c in self.unpack(a)) + "]"

    def is_rational(self, a: int) -> bool:
        return a < self.base.q

    def descend(self, a: int) -> int:
        if not self.is_rational(a):
            raise NotRational(f"{self.unpack(a)} has nonzero extension coordinates")
        return a

    # -- scalar arithmetic ----------------------------------------------------

    def add(self, a: int, b: int) -> int:
        p = self.p
        if p == 2:
            return a ^ b
        if self.order == p:
            return (a + b) % p
        out, w = 0, 1
        for _ in range(self._deg * self._K.h):
            out += (a % p + b % p) % p * w
            a //= p
            b //= p
            w *= p
        return out

    def neg(self, a: int) -> int:
        p = self.p
        if p == 2:
            return a
        if self.order == p:
            return -a % p
        out, w = 0, 1
        for _ in range(self._deg * self._K.h):
            out += -a % p * w
            a //= p
            w *= p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self.order == self.p:
            return a * b % self.p
        if self.order <= TABLE_LIMIT:
            log, exp = self._scalar or self._scalar_tables()
            return exp[log[a] + log[b]]
        return self.pack(_mul_reduce(self._K, self._red, self.unpack(a), self.unpack(b)))

    def inv(self, a: int) -> int:
        """Multiplicative inverse: Fermat over F_p, log tables up to
        TABLE_LIMIT, extended Euclid on the coordinates above."""
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self.order == self.p:
            return pow(a, self.p - 2, self.p)
        if self.order <= TABLE_LIMIT:
            log, exp = self._scalar or self._scalar_tables()
            return exp[self.order - 1 - log[a]]
        return self.pack(_poly_inv_mod(self._K, self.unpack(a), self.modulus))

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        return _power(self.mul, 1, a, e)

    # -- tables, built on first use ---------------------------------------------

    def _log_exp_tables(self) -> dict:
        if self._log_exp is None:
            self._log_exp = _primitive_tables(self._K, self._red, self._deg)
        return self._log_exp

    def _scalar_tables(self):
        """Python-int log/exp lists for scalar products of nonzero elements."""
        t = self._log_exp_tables()
        self._scalar = t["logt"].tolist(), t["expx"][: 2 * self.order].tolist()
        return self._scalar

    def check_scannable(self) -> None:
        """Numpy tables and element-by-element scans stop at 2^20 elements,
        which only an extension can pass; scalar arithmetic has no limit."""
        if self.order > MAX_ORDER:
            raise Unsupported(f"extension order {self.order} exceeds 2^20")

    def _tables(self) -> dict:
        """The numpy tables of every vector op: log/exp; for odd p up to
        TABLE_LIMIT the flat order x order sums and differences; and for an
        extension frob, the q-power map."""
        if self._np:
            return self._np
        self.check_scannable()
        tab = dict(self._log_exp_tables())
        N = self.order
        if self.p != 2 and self.p < N <= TABLE_LIMIT:
            ar = np.arange(N)
            tab["add_flat"] = self._v_coordinates(self._K.v_add, ar[:, None], ar[None, :]).ravel()
            tab["sub_flat"] = self._v_coordinates(self._K.v_sub, ar[:, None], ar[None, :]).ravel()
        if self.base is not self:
            tab["frob"] = np.zeros(N, dtype=np.int64)
            tab["frob"][tab["expx"][: N - 1]] = tab["expx"][(np.arange(N - 1) * self.q) % (N - 1)]
        self._np = tab
        return tab

    # -- vectorized ops (numpy int64 arrays of encodings) -------------------------

    def _v_coordinates(self, op, a, b):
        """op(a, b) coordinate by coordinate over K."""
        k = self._K.q
        out = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
        for i in range(self._deg):
            out += op(a // k ** i % k, b // k ** i % k) * k ** i
        return out

    def v_add(self, a, b):
        if self.p == 2:
            return np.bitwise_xor(a, b)
        if self.order == self.p:
            return (a + b) % self.p
        if self.order > TABLE_LIMIT:
            return self._v_coordinates(self._K.v_add, a, b)
        return self._tables()["add_flat"][a * self.order + b]

    def v_sub(self, a, b):
        if self.p == 2:
            return np.bitwise_xor(a, b)
        if self.order == self.p:
            return (a - b) % self.p
        if self.order > TABLE_LIMIT:
            return self._v_coordinates(self._K.v_sub, a, b)
        return self._tables()["sub_flat"][a * self.order + b]

    def v_mul(self, a, b):
        if self.order == self.p:
            return (a * b) % self.p
        t = self._tables()
        return t["expx"][t["logt"][a] + t["logt"][b]]

    def v_pow(self, a, e: int):
        """a^e elementwise for e >= 0, by square and multiply over v_mul."""
        return _power(self.v_mul, np.ones_like(a), a, e)


class FieldCtx(_QuotientField):
    """Arithmetic context for F_q = F_p[t]/(m), q = p^h <= 2^20.

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
        self.p = p
        self.h = h
        self.q = self.order = p ** h
        self.base = self
        # coefficient context of the quotient ring: F_p itself
        super().__init__(self if h == 1 else make_field(p, 1), h, modulus)

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

    def is_square(self, a: int) -> bool:
        if self.p == 2 or a == 0:
            return True
        return self.pow(a, (self.q - 1) // 2) == 1

    def np_tables(self) -> dict:
        """The numpy tables of the vector ops, built once (see _tables)."""
        return self._tables()

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


class ExtCtx(_QuotientField):
    """Degree-n extension F_{q^n} = F_q[t]/(m) of a base FieldCtx, n in
    {1,2,3,4}; an element is the packed integer sum(c_i * q^i) of its
    coordinates over F_q, so F_q embeds as [0, q)."""

    _what = "extension modulus"
    _defaults = {}

    def __init__(self, base: FieldCtx, n: int, modulus: Optional[Sequence[int]] = None):
        if n not in (1, 2, 3, 4):
            raise Unsupported("extension degree must be 1..4")
        self.base = base
        self.n = n
        self.p = base.p
        self.q = base.q
        self.order = base.q ** n
        super().__init__(base, n, modulus)
        # the q-power map is F_q-linear: row j holds the coordinates of
        # (t^j)^q, found by multiply-and-reduce as in _poly_irreducible
        mul = functools.partial(_mul_reduce, base, self._red)
        t = self.gen().v
        tq = _power(mul, self.unpack(1), self.unpack(t), self.q)
        self._frob_rows = [self.unpack(1)]
        for _ in range(n - 1):
            self._frob_rows.append(mul(self._frob_rows[-1], tq))
        x = t
        for _ in range(n):
            x = self.frobenius(x)
        if x != t:
            raise Unsupported("Frobenius applied n times is not the identity")

    # -- elements --------------------------------------------------------------

    def element(self, coords) -> TowerElem:
        """The element with the given coordinates over F_q, each in [0, q)."""
        coords = [int(c) for c in coords]
        if len(coords) != self.n or any(not 0 <= c < self.q for c in coords):
            raise Unsupported("bad coordinate vector for extension element")
        return TowerElem(self, self.pack(coords))

    def from_packed(self, e: int) -> TowerElem:
        if not 0 <= e < self.order:
            raise Unsupported(f"element encoding {e} outside [0, {self.order})")
        return TowerElem(self, e)

    def parse_element(self, text: str, what: str) -> int:
        """The element written as one packed integer in [0, q^n) or as its
        coordinates `[c0,...,c(n-1)]`, each in [0, q); a ParseError names
        `what` and the fault."""
        text = text.strip()
        if not (text.startswith("[") and text.endswith("]")):
            return super().parse_element(text, what)
        try:
            values = [int(v) for v in text[1:-1].split(",")]
        except ValueError:
            raise ParseError(f"bad element {text!r}") from None
        if len(values) != self.n:
            raise ParseError(f"{what} {text} has {len(values)} entries, expected {self.n}")
        if not all(0 <= c < self.q for c in values):
            raise ParseError(f"{what} {text} has an entry outside [0, {self.q})")
        return self.pack(values)

    def gen(self) -> TowerElem:
        """Power-basis root t of the extension modulus."""
        return TowerElem(self, self.base.neg(self.modulus[0]) if self.n == 1 else self.q)

    # -- Frobenius / trace / norm --------------------------------------------

    def frobenius(self, a: int, i: int = 1) -> int:
        """a^(q^i): the coordinates (c_j) go to sum c_j (t^j)^q, one step per power."""
        K = self.base
        for _ in range(i % self.n):
            out = [0] * self.n
            for c, row in zip(self.unpack(a), self._frob_rows):
                if c:
                    out = [K.add(o, K.mul(c, r)) for o, r in zip(out, row)]
            a = self.pack(out)
        return a

    def v_frobenius(self, a):
        return self._tables()["frob"][a]

    def _conjugate_fold(self, a, op, frob, what: str):
        """op over the n conjugates a, a^q, ..., which must land in F_q; a is
        an encoding or a numpy array of them, with op and frob to match."""
        acc = x = a
        for _ in range(self.n - 1):
            x = frob(x)
            acc = op(acc, x)
        if np.any(acc >= self.q):
            raise NotRational(f"{what} left the base field")
        return acc

    def trace(self, a: int) -> int:
        return self._conjugate_fold(a, self.add, self.frobenius, "trace")

    def norm(self, a: int) -> int:
        return self._conjugate_fold(a, self.mul, self.frobenius, "norm")

    def v_trace(self, a):
        """Absolute trace to F_q of packed elements, as base encodings."""
        return self._conjugate_fold(a, self.v_add, self.v_frobenius, "trace")

    def v_norm(self, a):
        """Absolute norm to F_q of packed elements, as base encodings."""
        return self._conjugate_fold(a, self.v_mul, self.v_frobenius, "norm")

    def packed_tables(self) -> dict:
        """The numpy tables of the vector ops, Frobenius included, built once
        (see _tables)."""
        return self._tables()

    def __repr__(self):
        return f"ExtCtx(GF(({self.base.p}^{self.base.h})^{self.n}))"


# -- module-level operations matching the library surface --------------------


def frobenius(x: TowerElem, i: int = 1) -> TowerElem:
    return TowerElem(x.ctx, x.ctx.frobenius(x.v, i))


def rel_trace(x: TowerElem) -> Fe:
    return Fe(x.ctx.base, x.ctx.trace(x.v))


def rel_norm(x: TowerElem) -> Fe:
    return Fe(x.ctx.base, x.ctx.norm(x.v))
