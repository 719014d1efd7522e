"""Constructors for the explicit parameterizing triples.

Each constructor returns an OvoidSpec ready for verification.  The
degree-2 Kantor family is built from a basis {1, alpha, beta} of the
cubic extension: writing t = x + y*alpha + z*beta, the coefficient of
each quadratic monomial of t^(q + q^2) is paired against the dual basis,
which lands every coefficient in F_q.  The remaining families are
literal polynomial transcriptions with the stated parameter constraints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from .errors import (BadExponent, OddCharacteristic, SquareMu, Unsupported,
                     WrongCharacteristic, WrongResidue)
from .ff import ExtCtx, FieldCtx, TowerElem
from .hypersurface import (HyperplaneWitness, _conjugate_product, build_F,
                           quadric_product_residual, solve_quadric_witness, uvw)
from .mpoly import MPoly
from .quadric import OvoidSpec

FAMILY_NAMES = ("kantor-simple", "kantor-even", "thas-kantor", "ree-tits",
                "dye", "kantor-2mod3", "famiglia1", "famiglia2")

# the basis {1, alpha, beta} of Kantor's triple, under the name callers import
TowerBasis = HyperplaneWitness


def default_tower_basis(ctx: FieldCtx) -> HyperplaneWitness:
    """(t, t^2) for the power-basis root t of the default cubic modulus."""
    ext = ExtCtx(ctx, 3)
    t = ext.gen()
    return HyperplaneWitness(ext, t, t * t)


def _p3(ctx: FieldCtx, d: Dict[Tuple[int, int, int], object]) -> MPoly:
    return MPoly.from_dict(ctx, 3, d)


# ---------------------------------------------------------------------------
# Kantor, q = 2^h


def kantor_simple(ctx: FieldCtx) -> OvoidSpec:
    """The classical short form of the even-characteristic Kantor triple.

    An ovoid for q in {2, 4, 16} but not for q = 8.
    """
    if ctx.p != 2:
        raise OddCharacteristic("this triple needs characteristic 2")
    return OvoidSpec(
        ctx,
        MPoly.parse("x*y+z^2", ctx, 3),
        MPoly.parse("x*z+y^2+z^2", ctx, 3),
        MPoly.parse("y*z+x^2+y^2+z^2", ctx, 3),
    )


def kantor_even(basis: HyperplaneWitness) -> OvoidSpec:
    """General even-characteristic Kantor triple for the given basis.

    Expands t^(q+q^2) for t = x + y*alpha + z*beta and reads the triple
    off through the trace pairing, so every coefficient is a trace or a
    norm and certified rational.
    """
    ext = basis.ext
    ctx = ext.base
    if ext.n != 3:
        raise Unsupported("tower basis lives in a cubic extension")
    if ctx.p != 2:
        raise OddCharacteristic("general Kantor construction needs characteristic 2")
    al, be = basis.alpha.v, basis.beta.v
    alq = ext.frobenius(al, 1)
    alq2 = ext.frobenius(al, 2)
    beq = ext.frobenius(be, 1)
    beq2 = ext.frobenius(be, 2)
    # quadratic-monomial coefficients of t^q * t^(q^2)
    coeffs = {
        (2, 0, 0): 1,
        (1, 1, 0): ext.add(alq, alq2),
        (1, 0, 1): ext.add(beq, beq2),
        (0, 2, 0): ext.mul(alq, alq2),
        (0, 1, 1): ext.add(ext.mul(alq, beq2), ext.mul(alq2, beq)),
        (0, 0, 2): ext.mul(beq, beq2),
    }

    def dual_read(mult) -> Dict[Tuple[int, int, int], int]:
        out = {}
        for mono, c in coeffs.items():
            v = ext.trace(ext.mul(mult, c))
            if v:
                out[mono] = v
        return out

    f3 = _p3(ctx, dual_read(1))
    f2 = _p3(ctx, dual_read(al))
    f1 = _p3(ctx, dual_read(be))
    return OvoidSpec(ctx, f1, f2, f3)


# ---------------------------------------------------------------------------
# characteristic-3 families


def thas_kantor(ctx: FieldCtx, mu: int) -> OvoidSpec:
    """Thas-Kantor triple over F_{3^h}; mu must be a non-square."""
    if ctx.p != 3:
        raise WrongCharacteristic("Thas-Kantor needs characteristic 3")
    mu = int(mu) % ctx.q
    if mu == 0 or ctx.is_square(mu):
        raise SquareMu(f"mu={mu} is a square in GF({ctx.q})")
    neg = ctx.neg
    inv_mu = ctx.inv(mu)
    f1 = _p3(ctx, {(0, 0, 1): 1})
    f2 = _p3(ctx, {(0, 3, 0): neg(mu), (2, 1, 0): 1, (1, 0, 1): neg(1)})
    f3 = _p3(ctx, {(3, 0, 0): neg(inv_mu), (1, 2, 0): 1, (0, 1, 1): 1})
    return OvoidSpec(ctx, f1, f2, f3)


def ree_tits(ctx: FieldCtx) -> OvoidSpec:
    """Twisted triple for q = 3^(2h+1), h > 0, with sigma^2 = 3q."""
    if ctx.p != 3:
        raise WrongCharacteristic("Ree-Tits needs characteristic 3")
    if ctx.h % 2 == 0 or ctx.h < 3:
        raise BadExponent(f"q={ctx.q} is not an admissible odd power of 3")
    sigma = 3 ** ((ctx.h + 1) // 2)
    assert sigma * sigma == 3 * ctx.q
    neg = ctx.neg
    f1 = _p3(ctx, {(0, 0, 1): 1})
    f2 = _p3(ctx, {
        (sigma + 3, 0, 0): neg(1),
        (0, sigma, 0): 1,
        (2, 1, 0): 1,
        (1, 0, 1): neg(1),
    })
    f3 = _p3(ctx, {
        (2 * sigma + 3, 0, 0): neg(1),
        (sigma, sigma, 0): 1,
        (0, 0, sigma): neg(1),
        (1, 2, 0): 1,
        (0, 1, 1): 1,
    })
    return OvoidSpec(ctx, f1, f2, f3)


def dye(ctx: FieldCtx) -> OvoidSpec:
    """The sporadic degree-8 triple, defined only for q = 8."""
    if ctx.q != 8:
        raise Unsupported("the Dye triple exists only for q = 8")
    f1 = MPoly.parse("x+y+z+x^2*y+x^4*y^2+x*y^2+x^2*y^4+x^4*y^4", ctx, 3)
    f2 = MPoly.parse("y+x^2*z+x^4*z^2+x*z^2+x^2*z^4+x^4*z^4", ctx, 3)
    f3 = MPoly.parse("x+y+y^2*z+y^4*z^2+y*z^2+y^2*z^4+y^4*z^4", ctx, 3)
    return OvoidSpec(ctx, f1, f2, f3)


# ---------------------------------------------------------------------------
# Kantor, q = 2 (mod 3)


def _require_2mod3(ctx: FieldCtx):
    if ctx.q % 3 != 2:
        raise WrongResidue(f"q={ctx.q} is not 2 mod 3")


def kantor_2mod3_odd(ctx: FieldCtx) -> OvoidSpec:
    """Degree-3 Kantor triple for odd q = 2 (mod 3), p > 3."""
    if ctx.p in (2, 3):
        raise WrongCharacteristic("odd-case construction needs p > 3")
    _require_2mod3(ctx)
    n = ctx.neg

    def c(v):
        return v % ctx.p

    f1 = _p3(ctx, {
        (1, 1, 0): n(c(6)),
        (0, 3, 0): n(c(3)),
        (0, 0, 3): n(c(9)),
        (0, 1, 2): n(c(9)),
        (0, 2, 1): n(c(3)),
    })
    f2 = _p3(ctx, {
        (0, 3, 0): n(c(1)),
        (0, 1, 2): n(c(3)),
        (1, 0, 1): c(6),
        (0, 2, 1): c(3),
        (0, 0, 3): c(9),
    })
    f3 = _p3(ctx, {
        (1, 0, 0): n(c(3)),
        (0, 2, 0): n(c(3)),
        (0, 0, 2): n(c(9)),
    })
    return OvoidSpec(ctx, f1, f2, f3)


def kantor_2mod3_even(ctx: FieldCtx) -> OvoidSpec:
    """Degree-3 Kantor triple for q = 2^h, h odd (so q = 2 mod 3)."""
    if ctx.p != 2:
        raise WrongCharacteristic("even-case construction needs p = 2")
    _require_2mod3(ctx)
    f1 = MPoly.parse("z^3+z^2*y+z*y^2+x*y", ctx, 3)
    f2 = MPoly.parse("z^3+y^3+x*z", ctx, 3)
    f3 = MPoly.parse("x+z^2+z*y+y^2", ctx, 3)
    return OvoidSpec(ctx, f1, f2, f3)


def kantor_2mod3(ctx: FieldCtx) -> OvoidSpec:
    """Dispatch on parity of q."""
    return kantor_2mod3_even(ctx) if ctx.p == 2 else kantor_2mod3_odd(ctx)


# ---------------------------------------------------------------------------
# the two parameterized degree-3 families


@dataclass(frozen=True)
class Famiglia1Params:
    """Free parameters of the odd two-quadric family (p > 3, q = 2 mod 3)."""

    epsilon: int          # +1 or -1
    C4: int = 0
    D4: int = 0
    a010: int = 0
    b100: int = 0
    a100: int = 0

    def __post_init__(self):
        if self.epsilon not in (1, -1):
            raise Unsupported("epsilon must be +1 or -1")


@dataclass(frozen=True)
class Famiglia2Params:
    """Free parameters of the even two-quadric family (p = 2, h odd)."""

    C4: int = 0
    D4: int = 0
    c001: int = 0
    c010: int = 0
    b001: int = 0


def famiglia1(ctx: FieldCtx, params: Famiglia1Params) -> OvoidSpec:
    """Degree-3 family forced by a split into two conjugate quadrics, p > 3.

    Fractions like 4/27 are taken in F_q; p > 3 keeps 3 invertible.  The
    f2 coefficients of Y^2*Z, C4*YZ and the C4 part of Z^2 carry a minus
    sign, the choice the two-quadric product forces.  f3 carries a100
    with no matching X term in f1, so the two-quadric residual vanishes
    only when a100 = 0.
    """
    if ctx.p in (2, 3):
        raise WrongCharacteristic("famiglia1 needs p > 3")
    _require_2mod3(ctx)
    q = ctx.q
    eps = 1 if params.epsilon == 1 else ctx.neg(1)
    C4 = int(params.C4) % q
    D4 = int(params.D4) % q
    a010 = int(params.a010) % q
    b100 = int(params.b100) % q
    a100 = int(params.a100) % q

    def frac(num: int, den: int) -> int:
        n = num % ctx.p
        d = den % ctx.p
        return ctx.mul(n, ctx.inv(d))

    m = ctx.mul
    n = ctx.neg
    a = ctx.add

    e43 = m(eps, frac(4, 3))        # 4*eps/3
    e49 = m(eps, frac(4, 9))

    f1 = _p3(ctx, {
        (0, 0, 3): n(frac(4, 27)),
        (0, 3, 0): e43,
        (0, 2, 1): n(frac(4, 9)),
        (0, 1, 2): e49,
        (0, 2, 0): a(m(e43, C4), n(m(2 % ctx.p, D4))),
        (0, 0, 2): n(m(frac(2, 3), D4)),
        (1, 1, 0): e43,
        (0, 1, 1): m(e43, D4),
        (0, 1, 0): a010,
        (0, 0, 1): n(m(D4, D4)),
    })
    f2 = _p3(ctx, {
        (0, 3, 0): n(frac(4, 3)),
        (0, 0, 3): n(e49),
        (0, 1, 2): n(frac(4, 9)),
        (0, 2, 1): n(e43),
        (0, 2, 0): n(m(2 % ctx.p, C4)),
        (0, 0, 2): n(a(m(e43, D4), m(frac(2, 3), C4))),
        (1, 0, 1): n(e43),
        (0, 1, 1): n(m(e43, C4)),
        (1, 0, 0): b100,
        (0, 1, 0): n(m(C4, C4)),
        (0, 0, 1): n(a(m(2 % ctx.p, m(C4, D4)), a010)),
    })
    f3 = _p3(ctx, {
        (0, 2, 0): n(2 % ctx.p),
        (0, 0, 2): n(frac(2, 3)),
        (1, 0, 0): n(1),
        (0, 1, 0): n(a(m(2 % ctx.p, C4), b100)),
        (0, 0, 1): n(a(m(2 % ctx.p, D4), a100)),
    })
    return OvoidSpec(ctx, f1, f2, f3)


def famiglia2(ctx: FieldCtx, params: Famiglia2Params) -> OvoidSpec:
    """Degree-3 family forced by a split into two conjugate quadrics, p = 2.

    With all parameters zero this is coefficient-for-coefficient the even
    Kantor triple for q = 2 (mod 3).
    """
    if ctx.p != 2:
        raise WrongCharacteristic("famiglia2 needs p = 2")
    _require_2mod3(ctx)
    q = ctx.q
    C4 = int(params.C4) % q
    D4 = int(params.D4) % q
    c001 = int(params.c001) % q
    c010 = int(params.c010) % q
    b001 = int(params.b001) % q
    m = ctx.mul
    a = ctx.add
    f1 = _p3(ctx, {
        (0, 0, 3): 1,
        (0, 2, 1): 1,
        (0, 1, 2): 1,
        (0, 2, 0): a(C4, D4),
        (0, 0, 2): D4,
        (1, 1, 0): 1,
        (1, 0, 0): c001,
        (0, 1, 0): b001,
        (0, 0, 1): m(D4, D4),
    })
    f2 = _p3(ctx, {
        (0, 3, 0): 1,
        (0, 0, 3): 1,
        (0, 2, 0): C4,
        (0, 0, 2): a(C4, D4),
        (1, 0, 1): 1,
        (1, 0, 0): c010,
        (0, 1, 0): m(C4, C4),
        (0, 0, 1): b001,
    })
    f3 = _p3(ctx, {
        (0, 2, 0): 1,
        (0, 0, 2): 1,
        (0, 1, 1): 1,
        (1, 0, 0): 1,
        (0, 1, 0): c010,
        (0, 0, 1): c001,
    })
    return OvoidSpec(ctx, f1, f2, f3)


# ---------------------------------------------------------------------------
# the displayed two-quadric splits of the q = 2 (mod 3) Kantor triples


def find_artin_schreier_unit(ext: ExtCtx) -> TowerElem:
    """First xi in packed order with xi^2 = 1 + xi (characteristic 2); the
    base field F_q is [0, q), so the scan starts at q."""
    if ext.n != 2 or ext.base.p != 2:
        raise Unsupported("need a quadratic extension in characteristic 2")
    ext.check_scannable()
    for e in range(ext.q, ext.order):
        if ext.mul(e, e) == ext.add(1, e):
            return TowerElem(ext, e)
    raise Unsupported("no unit with xi^2 = 1 + xi outside the base field")


def factorized_identity_check(family: str, ctx: FieldCtx) -> bool:
    """Confirm the displayed split of the pair polynomial into two
    conjugate quadratic factors for the q = 2 (mod 3) Kantor triples.

    Both checks run over F_q.  Odd case: with xi = sqrt(-3) the factors
    are R' +- xi S', and 3 (R'^2 + 3 S'^2) reproduces the polynomial.
    Even case: the solved two-quadric witness leaves a zero residual.
    """
    if family not in ("2mod3_odd", "2mod3_even"):
        raise Unsupported(f"unknown family {family!r}")
    if family == "2mod3_even":
        spec = kantor_2mod3_even(ctx)
        return quadric_product_residual(spec, solve_quadric_witness(spec)).is_zero()
    spec = kantor_2mod3_odd(ctx)
    R, S = _odd_factor(ctx)
    return build_F(spec) == _conjugate_product(R, S, 0, 3 % ctx.p).scale(3 % ctx.p)


def _odd_factor(ctx: FieldCtx) -> Tuple[MPoly, MPoly]:
    """The F_q parts R', S' of the odd factors R' +- sqrt(-3) S':
    R' = U + x5*W - x6*V + x5*V + 3*x6*W + V^2/2 + 3*W^2/2, S' = V^2/6 + W^2/2."""
    U, V, W = uvw(ctx)
    x5 = MPoly.variable(ctx, 6, 4)
    x6 = MPoly.variable(ctx, 6, 5)
    half = ctx.inv(2 % ctx.p)
    three = 3 % ctx.p
    V2, W2 = V * V, W * W
    R = U + x5 * W - x6 * V + x5 * V + (x6 * W).scale(three) \
        + V2.scale(half) + W2.scale(ctx.mul(three, half))
    S = V2.scale(ctx.inv(6 % ctx.p)) + W2.scale(half)
    return R, S
