"""Sparse multivariate polynomials over a field context.

Polynomials are immutable: every operation returns a fresh value.  Terms
live in a dict keyed by packed exponent vectors (6 bits per variable, so
individual exponents are capped at 63, enough for the twisted families),
mapping to nonzero integer encodings in the owning context.  A FieldCtx and
an ExtCtx share one encoding and one set of raw operations, and the base
field embeds in an extension with the same encodings, so no operation here
depends on the kind of context.

Text grammar (CLI input and canonical rendering):

    poly  := term ('+' term)*        '-' may prefix a term, meaning (p-1)*
    term  := coeff ('*' factor)* | factor ('*' factor)*
    factor:= var ('^' exp)?
    vars  := x, y, z   (3 variables)  |  x1 .. x6  (6 variables)
    coeff := field-element integer, or [a,b,...] for extension elements

Rendering sorts terms in descending graded-lexicographic order, which is
also the order used for hashing and JSON serialization.
"""

from __future__ import annotations

import functools
import re
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .errors import FieldMismatch, NotRational, ParseError, Unsupported
from .ff import ExtCtx, Fe, FieldCtx, TowerElem

EXP_BITS = 6
MAX_EXP = (1 << EXP_BITS) - 1

Ctx = Union[FieldCtx, ExtCtx]


def pack_exps(exps: Sequence[int]) -> int:
    key = 0
    for i, e in enumerate(exps):
        if e < 0 or e > MAX_EXP:
            raise Unsupported(f"exponent {e} outside 0..{MAX_EXP} "
                              f"(the exponent cap: {EXP_BITS} bits per variable)")
        key |= e << (EXP_BITS * i)
    return key


def unpack_exps(key: int, nvars: int) -> Tuple[int, ...]:
    return tuple((key >> (EXP_BITS * i)) & MAX_EXP for i in range(nvars))


def var_names(nvars: int) -> List[str]:
    if nvars == 3:
        return ["x", "y", "z"]
    return [f"x{i + 1}" for i in range(nvars)]


class MPoly:
    """A sparse polynomial over `ctx` in `nvars` variables."""

    __slots__ = ("ctx", "nvars", "terms")

    def __init__(self, ctx: Ctx, nvars: int, terms: Optional[Dict[int, int]] = None):
        self.ctx = ctx
        self.nvars = nvars
        self.terms = terms or {}

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, ctx: Ctx, nvars: int) -> "MPoly":
        return cls(ctx, nvars, {})

    @classmethod
    def constant(cls, ctx: Ctx, nvars: int, c) -> "MPoly":
        c = _coerce_raw(ctx, c)
        return cls(ctx, nvars, {0: c} if c else {})

    @classmethod
    def variable(cls, ctx: Ctx, nvars: int, i: int) -> "MPoly":
        if not 0 <= i < nvars:
            raise Unsupported(f"variable index {i} out of range")
        return cls(ctx, nvars, {1 << (EXP_BITS * i): 1})

    @classmethod
    def from_dict(cls, ctx: Ctx, nvars: int, d: Dict[Tuple[int, ...], object]) -> "MPoly":
        terms = {}
        for exps, c in d.items():
            c = _coerce_raw(ctx, c)
            if c:
                terms[pack_exps(exps)] = c
        return cls(ctx, nvars, terms)

    # -- ring operations -----------------------------------------------------

    def _chk(self, other: "MPoly"):
        if not isinstance(other, MPoly):
            raise FieldMismatch(f"expected MPoly, got {type(other).__name__}")
        if other.ctx is not self.ctx or other.nvars != self.nvars:
            raise FieldMismatch("polynomials over different contexts")

    def __add__(self, other: "MPoly") -> "MPoly":
        self._chk(other)
        ctx = self.ctx
        out = dict(self.terms)
        for k, c in other.terms.items():
            if k in out:
                s = ctx.add(out[k], c)
                if s:
                    out[k] = s
                else:
                    del out[k]
            else:
                out[k] = c
        return MPoly(ctx, self.nvars, out)

    def __neg__(self) -> "MPoly":
        ctx = self.ctx
        return MPoly(ctx, self.nvars, {k: ctx.neg(c) for k, c in self.terms.items()})

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def __mul__(self, other) -> "MPoly":
        if not isinstance(other, MPoly):
            return self.scale(other)
        self._chk(other)
        ctx = self.ctx
        out: Dict[int, int] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = _add_keys(k1, k2, self.nvars)
                c = ctx.mul(c1, c2)
                if k in out:
                    s = ctx.add(out[k], c)
                    if s:
                        out[k] = s
                    else:
                        del out[k]
                elif c:
                    out[k] = c
        return MPoly(ctx, self.nvars, out)

    def scale(self, c) -> "MPoly":
        ctx = self.ctx
        c = _coerce_raw(ctx, c)
        if not c:
            return MPoly.zero(ctx, self.nvars)
        return MPoly(ctx, self.nvars, {k: ctx.mul(v, c) for k, v in self.terms.items()})

    def __pow__(self, e: int) -> "MPoly":
        if e < 0:
            raise Unsupported("negative polynomial power")
        out = MPoly.constant(self.ctx, self.nvars, 1)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base if e > 1 else base
            e >>= 1
        return out

    def __eq__(self, other) -> bool:
        return (isinstance(other, MPoly) and other.ctx is self.ctx
                and other.nvars == self.nvars and other.terms == self.terms)

    def __hash__(self):
        return hash((id(self.ctx), self.nvars, tuple(sorted(self.terms.items(), key=lambda kv: kv[0]))))

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(unpack_exps(k, self.nvars)) for k in self.terms)

    # -- evaluation / substitution --------------------------------------------

    def eval_raw(self, point: Sequence[int]) -> int:
        if len(point) != self.nvars:
            raise FieldMismatch(f"expected {self.nvars} coordinates")
        ctx = self.ctx
        # cache powers per variable up to the max exponent used
        maxe = [0] * self.nvars
        for k in self.terms:
            for i, e in enumerate(unpack_exps(k, self.nvars)):
                if e > maxe[i]:
                    maxe[i] = e
        pows = []
        for i, v in enumerate(point):
            row = [1]
            for _ in range(maxe[i]):
                row.append(ctx.mul(row[-1], v))
            pows.append(row)
        acc = 0
        for k, c in self.terms.items():
            term = c
            for i, e in enumerate(unpack_exps(k, self.nvars)):
                if e:
                    term = ctx.mul(term, pows[i][e])
            acc = ctx.add(acc, term)
        return acc

    def substitute(self, images: Sequence["MPoly"]) -> "MPoly":
        """Composition: replace variable i by images[i] (all over one target ring)."""
        if len(images) != self.nvars:
            raise FieldMismatch("need one image per variable")
        tgt = images[0]
        out = MPoly.zero(tgt.ctx, tgt.nvars)
        for k, c in self.terms.items():
            term = MPoly.constant(tgt.ctx, tgt.nvars, c)
            for i, e in enumerate(unpack_exps(k, self.nvars)):
                if e:
                    term = term * images[i] ** e
            out = out + term
        return out

    def remap_vars(self, positions: Sequence[int], nvars: int) -> "MPoly":
        """Rename variable i to positions[i] inside a ring with `nvars` variables;
        terms that land on one monomial are added."""
        ctx = self.ctx
        out = {}
        for k, c in self.terms.items():
            exps = unpack_exps(k, self.nvars)
            new = [0] * nvars
            for i, e in enumerate(exps):
                new[positions[i]] += e
            key = pack_exps(new)
            if key in out:
                c = ctx.add(out.pop(key), c)
                if not c:
                    continue
            out[key] = c
        return MPoly(ctx, nvars, out)

    # -- coefficient-field moves ----------------------------------------------

    def lift(self, ext: ExtCtx) -> "MPoly":
        """The same polynomial over an extension of its field, whose
        encodings of base-field elements are the base field's own."""
        if ext.base is not self.ctx:
            raise FieldMismatch("extension has a different base field")
        return MPoly(ext, self.nvars, dict(self.terms))

    def try_descend(self) -> "MPoly":
        """Inverse of lift (a polynomial over a FieldCtx descends to itself);
        raises NotRational if any coefficient lies outside the base field."""
        ctx = self.ctx
        return MPoly(ctx.base, self.nvars, {k: ctx.descend(c) for k, c in self.terms.items()})

    def coeff_raw(self, exps: Sequence[int]) -> int:
        return self.terms.get(pack_exps(exps), 0)

    def items_sorted(self):
        """Terms in descending graded-lex order (canonical)."""
        def keyfun(kv):
            exps = unpack_exps(kv[0], self.nvars)
            return (sum(exps), exps)

        return sorted(self.terms.items(), key=keyfun, reverse=True)

    # -- text form -------------------------------------------------------------

    def render(self) -> str:
        if not self.terms:
            return "0"
        names = var_names(self.nvars)
        parts = []
        for k, c in self.items_sorted():
            exps = unpack_exps(k, self.nvars)
            factors = []
            for i, e in enumerate(exps):
                if e == 1:
                    factors.append(names[i])
                elif e > 1:
                    factors.append(f"{names[i]}^{e}")
            cs = self.ctx.render_element(c)
            if not factors:
                parts.append(cs)
            elif cs == "1":
                parts.append("*".join(factors))
            else:
                parts.append("*".join([cs] + factors))
        return "+".join(parts)

    @classmethod
    def parse(cls, text: str, ctx: Ctx, nvars: int) -> "MPoly":
        return _parse_poly(text, ctx, nvars)

    def __repr__(self):
        return f"MPoly({self.render()!r})"


@functools.lru_cache(maxsize=None)
def _carry_bits(nvars: int) -> int:
    """The lowest bit of each field above an exponent field: a carry out of
    exponent i lands on the bit at EXP_BITS * (i + 1)."""
    return sum(1 << (EXP_BITS * (i + 1)) for i in range(nvars))


def _add_keys(k1: int, k2: int, nvars: int) -> int:
    """The key of a product of monomials: k1 + k2, refused when an exponent
    sum passes MAX_EXP, which shows as a carry bit of k ^ k1 ^ k2."""
    k = k1 + k2
    if (k ^ k1 ^ k2) & _carry_bits(nvars):
        raise Unsupported(f"product exceeds the exponent cap {MAX_EXP}")
    return k


def _coerce_raw(ctx, c) -> int:
    """The encoding of an element of ctx or of its base, or of an integer
    taken as an encoding modulo the order."""
    if isinstance(c, (Fe, TowerElem)):
        if c.ctx is not ctx and c.ctx is not ctx.base:
            raise FieldMismatch("coefficient from a different field")
        return c.v
    if isinstance(c, int):
        return c % ctx.order
    raise FieldMismatch(f"cannot use {type(c).__name__} as coefficient")


_TERM_SPLIT = re.compile(r"\+")


def _parse_poly(text: str, ctx: Ctx, nvars: int) -> MPoly:
    names = {n: i for i, n in enumerate(var_names(nvars))}
    s = text.strip().replace(" ", "").replace("\t", "")
    if not s:
        raise ParseError("empty polynomial text")
    # unary/binary minus becomes an explicit (p-1)-scaled term
    s = s.replace("-", "+-")
    if s.startswith("+-"):
        s = s[1:]
    if s.startswith("+"):
        raise ParseError(f"dangling '+' in {text!r}")
    out = MPoly.zero(ctx, nvars)
    for chunk in _TERM_SPLIT.split(s):
        if not chunk:
            raise ParseError(f"empty term in {text!r}")
        negate = chunk.startswith("-")
        if negate:
            chunk = chunk[1:]
            if not chunk:
                raise ParseError(f"bare '-' in {text!r}")
        exps = [0] * nvars
        coeff = 1
        for factor in chunk.split("*"):
            if not factor:
                raise ParseError(f"empty factor in term {chunk!r}")
            if factor[0].isdigit() or factor[0] == "[":
                coeff = ctx.mul(coeff, ctx.parse_element(factor, "coefficient"))
                continue
            m = re.fullmatch(r"([a-z]\d*)(?:\^(\d+))?", factor)
            if not m or m.group(1) not in names:
                raise ParseError(f"bad factor {factor!r} for {nvars} variables")
            e = int(m.group(2) or 1)
            if e > MAX_EXP:
                raise ParseError(f"exponent {e} too large")
            exps[names[m.group(1)]] += e
        if negate:
            coeff = ctx.neg(coeff)
        if any(e > MAX_EXP for e in exps):
            raise ParseError("accumulated exponent too large")
        term = MPoly(ctx, nvars, {pack_exps(exps): coeff} if coeff else {})
        out = out + term
    return out

