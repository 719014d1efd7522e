"""The 6-variable pair polynomial of a triple, its structured
factorizations, exact point counts, and the explicit count bounds.

For a triple (f1, f2, f3) the dehomogenized polynomial is

    F(X1..X6) = (X1-X4) (f3(X4,X5,X6) - f3(X1,X2,X3))
              + (X2-X5) (f2(X4,X5,X6) - f2(X1,X2,X3))
              + (X3-X6) (f1(X4,X5,X6) - f1(X1,X2,X3)),

which vanishes identically on the diagonal X1=X4, X2=X5, X3=X6.  The
candidate set is an ovoid exactly when F has no other rational zeros.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from decimal import Decimal, localcontext
from typing import Optional, Tuple

from . import _diffroute, _pairscan
from .errors import (DependentBasis, NotAQuadricPair, OddCharacteristic,
                     SquareMu, Unsupported, WrongCharacteristic, WrongResidue)
from .ff import ExtCtx, FieldCtx, TowerElem
from .mpoly import MPoly
from .quadric import OvoidSpec, Report, rank


def uvw(ctx) -> Tuple[MPoly, MPoly, MPoly]:
    """U, V, W = X1-X4, X2-X5, X3-X6 as 6-variable polynomials over ctx."""
    return tuple(MPoly.variable(ctx, 6, i) - MPoly.variable(ctx, 6, i + 3) for i in range(3))


def build_F(spec: OvoidSpec) -> MPoly:
    """F of `spec` in 6 variables over the base field, expanded symbolically."""
    ctx = spec.ctx
    first = [f.remap_vars([0, 1, 2], 6) for f in spec.polys()]
    second = [f.remap_vars([3, 4, 5], 6) for f in spec.polys()]
    out = MPoly.zero(ctx, 6)
    for diff, fi in zip(uvw(ctx), (2, 1, 0)):
        out = out + diff * (second[fi] - first[fi])
    return out


def diagonal_restriction(F: MPoly) -> MPoly:
    """Substitute X4,X5,X6 = X1,X2,X3; identically zero by construction."""
    return F.remap_vars([0, 1, 2, 0, 1, 2], 6)


@dataclass
class ScanReport(Report):
    total: int
    off_diagonal: int
    witness: Optional[Tuple[Tuple[int, int, int], Tuple[int, int, int]]]
    route: str
    elapsed: float


def affine_point_scan(spec: OvoidSpec, threads: int = 1) -> ScanReport:
    """Exact zero counts of the pair polynomial F of `spec` over the affine
    6-space, read from the triple's value tables; F is never expanded.

    The q^3 diagonal points are always zeros; off-diagonal zeros come in
    symmetric pairs, counted on the pair kernel over unordered index pairs,
    on the difference route for triples of p-weight <= 2, or on the line
    route for triples with a coordinate that occurs only with exponents 0
    and p^kappa.  The witness is the verification witness: the first
    off-diagonal zero in scan order, or the difference route's first_zero
    above the pair route's limit.
    """
    q = spec.ctx.q
    t0 = time.perf_counter()
    route, res = _diffroute.exact_scan(spec, early_exit=False, threads=threads)
    off = 2 * res.zero_pairs
    return ScanReport(
        total=q ** 3 + off,
        off_diagonal=off,
        witness=_pairscan.witness_triples(q, res.first_zero),
        elapsed=time.perf_counter() - t0,
        route=route,
    )


# ---------------------------------------------------------------------------
# structured factorizations


@dataclass(frozen=True)
class HyperplaneWitness:
    """A basis {1, alpha, beta} over F_q of a cubic or quartic extension: the
    conjugate hyperplanes of a split, and the tower basis of Kantor's triple."""

    ext: ExtCtx
    alpha: TowerElem
    beta: TowerElem

    def __post_init__(self):
        if self.ext.n not in (3, 4):
            raise Unsupported("hyperplane witnesses live in a cubic or quartic extension")
        if self.alpha.ctx is not self.ext or self.beta.ctx is not self.ext:
            raise Unsupported("basis elements must belong to the given extension")
        rows = [self.ext.unpack(1), self.alpha.coords, self.beta.coords]
        if rank(self.ext.base, rows) != 3:
            raise DependentBasis("{1, alpha, beta} are linearly dependent")


def _conjugate_plane(ext: ExtCtx, alpha: int, beta: int, power: int) -> MPoly:
    """(X1-X4) + alpha^(q^i) (X2-X5) + beta^(q^i) (X3-X6) over ext."""
    U, V, W = uvw(ext)
    return U + V.scale(ext.frobenius(alpha, power)) + W.scale(ext.frobenius(beta, power))


def hyperplane_count(d: int) -> int:
    """The number of conjugate hyperplanes in the split of a degree-d
    triple, which is also the degree of the extension they live in: three
    over the cubic extension for d = 2, four over the quartic for d = 3."""
    if d not in (2, 3):
        raise Unsupported(f"hyperplane splits apply to degree 2 or 3, got {d}")
    return d + 1


def hyperplane_product_residual(spec: OvoidSpec, witness: HyperplaneWitness) -> MPoly:
    """F minus the product of the conjugate hyperplanes through the witness
    (see hyperplane_count).  A zero residual certifies the split."""
    d = spec.degree
    nplanes = hyperplane_count(d)
    ext = witness.ext
    if ext.n != nplanes:
        raise Unsupported(f"degree-{d} split needs an extension of degree {nplanes}")
    if ext.base is not spec.ctx:
        raise Unsupported("witness extension has a different base field")
    F = build_F(spec).lift(ext)
    prod = MPoly.constant(ext, 6, 1)
    for i in range(nplanes):
        prod = prod * _conjugate_plane(ext, witness.alpha.v, witness.beta.v, i)
    return F - prod


# the monomials of a three-plane split triple, in coefficient-row order
_DEG2_MONOMIALS = ((1, 1, 0), (1, 0, 1), (0, 1, 1), (2, 0, 0), (0, 2, 0), (0, 0, 2))


def _deg2_invariants(witness: HyperplaneWitness) -> tuple:
    """The nine F_q-values of a = alpha, b = beta that fix a three-plane split:
    Tr a, Tr b, N a, N b, Tr a^(q+1), Tr b^(q+1), Tr a^(q+1) b^(q^2),
    Tr a b^(q+q^2) and Tr(a b^q + a^q b)."""
    ext = witness.ext
    if ext.n != 3:
        raise Unsupported("the degree-2 system lives over the cubic extension")
    al = witness.alpha.v
    be = witness.beta.v
    fr, mul, tr = ext.frobenius, ext.mul, ext.trace
    alq = fr(al, 1)
    beq, beq2 = fr(be, 1), fr(be, 2)
    return (tr(al), tr(be), ext.norm(al), ext.norm(be), tr(mul(al, alq)), tr(mul(be, beq)),
            tr(mul(mul(al, alq), beq2)), tr(mul(al, mul(beq, beq2))),
            tr(ext.add(mul(al, beq), mul(alq, be))))


def _deg2_rows(invariants: tuple) -> tuple:
    """The solved assignment: the _DEG2_MONOMIALS coefficients of f1, f2, f3."""
    tr_a, tr_b, n_a, n_b, tr_a1q, tr_b1q, tr_a1q_bq2, tr_a_bqq2, tr_cross = invariants
    return ((tr_cross, 0, 0, tr_b, tr_a1q_bq2, n_b),
            (0, tr_cross, 0, tr_a, n_a, tr_a_bqq2),
            (0, 0, tr_cross, 1, tr_a1q, tr_b1q))


def deg2_triple(witness: HyperplaneWitness) -> OvoidSpec:
    """The closed-form degree-2 triple whose pair polynomial splits into the
    three conjugate planes through the witness (characteristic 2)."""
    ctx = witness.ext.base
    return OvoidSpec(ctx, *(MPoly.from_dict(ctx, 3, dict(zip(_DEG2_MONOMIALS, row)))
                            for row in _deg2_rows(_deg2_invariants(witness))))


def deg2_condition_residuals(witness: HyperplaneWitness) -> list:
    """Evaluate the unreduced coefficient-matching condition list for a
    three-plane split at the solved assignment.

    The raw list carries every sign variant produced by matching the two
    symmetric halves of the product, so the variants collapse exactly in
    characteristic 2 (e.g. both D3 - 1 and D3 + 1 appear); all entries
    vanish there.  Returns the list of residual values in order.
    """
    ctx = witness.ext.base
    inv = _deg2_invariants(witness)
    tr_a, tr_b, n_a, n_b, tr_a1q, tr_b1q, tr_a1q_bq2, tr_a_bqq2, tr_cross = inv
    # A..F are the coefficients of xy, xz, yz, x^2, y^2, z^2; 1..3 name f1..f3
    (A1, B1, C1, D1, E1, F1), (A2, B2, C2, D2, E2, F2), (A3, B3, C3, D3, E3, F3) = \
        _deg2_rows(inv)

    s = ctx.sub
    a = ctx.add

    def m(k, x):
        return ctx.mul(k % ctx.p, x)

    return [
        a(E2, n_a), a(a(C2, E1), tr_a1q_bq2), a(E3, tr_a1q), a(E2, m(3, n_a)),
        a(E1, tr_a1q_bq2), a(a(C1, F2), tr_a_bqq2), a(C3, tr_cross),
        a(C2, m(2, tr_a1q_bq2)), a(C1, m(2, tr_a_bqq2)), a(D2, tr_a),
        s(A2, m(2, tr_a1q)), s(B2, tr_cross), s(E2, m(3, n_a)),
        s(C2, m(2, tr_a1q_bq2)), s(F2, tr_a_bqq2), a(F1, n_b), a(F3, tr_b1q),
        a(F2, tr_a_bqq2), a(F1, m(3, n_b)), s(D1, tr_b), s(A1, tr_cross),
        s(B1, m(2, tr_b1q)), s(E1, tr_a1q_bq2), s(C1, m(2, tr_a_bqq2)),
        s(F1, m(3, n_b)), s(D3, 1), s(a(A3, D2), tr_a), s(a(B3, D1), tr_b),
        s(a(A2, E3), tr_a1q), s(a(a(A1, B2), C3), tr_cross),
        s(a(B1, F3), tr_b1q), s(E2, n_a), s(a(C2, E1), tr_a1q_bq2),
        s(a(C1, F2), tr_a_bqq2), s(F1, n_b), a(a(A2, E3), tr_a1q),
        a(a(a(A1, B2), C3), tr_cross), a(A3, m(2, tr_a)), a(A2, m(2, tr_a1q)),
        a(A1, tr_cross), a(a(B1, F3), tr_b1q), a(B3, m(2, tr_b)),
        a(B2, tr_cross), a(B1, m(2, tr_b1q)), s(D3, 3 % ctx.p),
        s(A3, m(2, tr_a)), s(B3, m(2, tr_b)), s(E3, tr_a1q), s(C3, tr_cross),
        s(F3, tr_b1q), a(a(A3, D2), tr_a), a(a(B3, D1), tr_b),
        a(D3, 3 % ctx.p), a(D2, tr_a), a(D1, tr_b), a(D3, 1),
    ]


def solve_deg2_system(witness: HyperplaneWitness, literal_check: bool = False) -> OvoidSpec:
    """Rebuild the unique degree-2 triple with a three-plane split through
    the given basis, from the solved coefficient system.

    Only exists in characteristic 2.  The result is verified against the
    trace-pairing construction and against a vanishing residual; with
    literal_check the unreduced condition list is evaluated as well.
    """
    spec = deg2_triple(witness)
    if spec.ctx.p != 2:
        raise OddCharacteristic("the solved system forces characteristic 2")
    from .families import kantor_even

    if kantor_even(witness).polys() != spec.polys():
        raise Unsupported("solved system disagrees with the trace construction")
    if not hyperplane_product_residual(spec, witness).is_zero():
        raise Unsupported("solved system does not split as expected")
    if literal_check and any(deg2_condition_residuals(witness)):
        raise Unsupported("unreduced condition list does not vanish")
    return spec


@dataclass(frozen=True)
class QuadricWitness:
    """Two-quadric factorization data.

    Odd characteristic: F = R^2 - k S^2 with k a non-square.
    Characteristic 2:  F = (R + xi S)(R + xi^q S) with xi^q = xi + 1.
    R = Q_R(U,V,W) + U L_R + V M_R + W N_R and S = Q_S(U,V,W), where
    U, V, W are the coordinate differences and the linear blocks are
    affine in X4, X5, X6.
    """

    ctx: FieldCtx
    QR: Tuple[int, int, int, int, int, int]     # A1..A6: U2 V2 W2 UV UW VW
    QS: Tuple[int, int, int, int, int, int]     # A1'..A6'
    LR: Tuple[int, int, int, int]               # B1..B4 (X4, X5, X6, 1)
    MR: Tuple[int, int, int, int]               # C1..C4
    NR: Tuple[int, int, int, int]               # D1..D4
    k: Optional[int] = None                     # odd characteristic only
    xi: Optional[TowerElem] = None              # characteristic 2 only

    def __post_init__(self):
        if not any(self.QS):
            raise NotAQuadricPair("the second quadric is identically zero")
        if self.ctx.p == 2:
            xi = self.xi
            if xi is None:
                raise Unsupported("characteristic 2 needs xi with xi^q = xi + 1")
            ext = xi.ctx
            if ext.frobenius(xi.v, 1) != ext.add(xi.v, 1):
                raise WrongResidue("xi^q != xi + 1")
        else:
            if self.k is None:
                raise Unsupported("odd characteristic needs the non-square k")
            if self.ctx.is_square(self.k):
                raise SquareMu(f"k={self.k} is a square")


def _quadric_RS(ctx, w: QuadricWitness) -> Tuple[MPoly, MPoly]:
    U, V, W = uvw(ctx)
    X4 = MPoly.variable(ctx, 6, 3)
    X5 = MPoly.variable(ctx, 6, 4)
    X6 = MPoly.variable(ctx, 6, 5)
    one = MPoly.constant(ctx, 6, 1)

    def qform(c):
        a1, a2, a3, a4, a5, a6 = c
        return (U * U).scale(a1) + (V * V).scale(a2) + (W * W).scale(a3) \
            + (U * V).scale(a4) + (U * W).scale(a5) + (V * W).scale(a6)

    def lin(c):
        b1, b2, b3, b4 = c
        return X4.scale(b1) + X5.scale(b2) + X6.scale(b3) + one.scale(b4)

    R = qform(w.QR) + U * lin(w.LR) + V * lin(w.MR) + W * lin(w.NR)
    S = qform(w.QS)
    return R, S


def _conjugate_product(R: MPoly, S: MPoly, trace: int, norm: int) -> MPoly:
    """(R + xi S)(R + xi^q S) = R^2 + Tr(xi) R S + N(xi) S^2 for the xi in
    F_{q^2} with the given trace and norm: the product of two conjugate
    quadrics, computed over F_q."""
    out = R * R + (S * S).scale(norm)
    return out + (R * S).scale(trace) if trace else out


def quadric_product_residual(spec: OvoidSpec, witness: QuadricWitness) -> MPoly:
    """F minus the two-quadric product; identically zero iff the split holds.

    Computed over F_q in both characteristics: the product of the two
    conjugate quadrics is R^2 - k S^2 for odd p, and R^2 + Tr(xi) R S +
    N(xi) S^2 when p = 2.
    """
    if spec.degree != 3:
        raise Unsupported("two-quadric splits apply to degree-3 triples")
    ctx = spec.ctx
    if witness.ctx is not ctx:
        raise Unsupported("witness over a different field")
    if ctx.p != 2:
        trace, norm = 0, ctx.neg(witness.k)
    else:
        ext = witness.xi.ctx
        if ext.base is not ctx or ext.n != 2:
            raise Unsupported("xi must lie in the quadratic extension of the base field")
        trace, norm = ext.trace(witness.xi.v), ext.norm(witness.xi.v)
    R, S = _quadric_RS(ctx, witness)
    return build_F(spec) - _conjugate_product(R, S, trace, norm)


def solve_quadric_witness(spec: OvoidSpec, record: Optional[dict] = None) -> QuadricWitness:
    """Derive the two-quadric witness for the parameterized degree-3
    families, solving the leftover linear entries from the coefficients
    of the triple itself.

    Odd characteristic fixes k = -1/3 and the displayed M/N rows; B4 and
    the constant entries of M_R, N_R come out of the linear relations
      B4 = -c020/2,  C4 = -(b100 + c010)/(2 B4),  D4 = -(a100 + c001)/(2 B4),
    written here with c/b/a coefficients read off the actual triple.
    """
    ctx = spec.ctx
    if ctx.q % 3 != 2:
        raise WrongResidue("two-quadric witnesses require q = 2 (mod 3)")
    if ctx.p == 3:
        raise WrongCharacteristic("characteristic 3 is out of scope here")
    f1, f2, f3 = spec.polys()
    if ctx.p != 2:
        half = ctx.inv(2 % ctx.p)
        third = ctx.inv(3 % ctx.p)
        k = ctx.neg(third)                         # -1/3
        # epsilon from the Y^3 coefficient of f1: a030 = 4*eps/3
        a030 = f1.coeff_raw((0, 3, 0))
        eps = ctx.mul(a030, ctx.mul(ctx.inv(4 % ctx.p), 3 % ctx.p))
        if ctx.mul(eps, eps) != 1:
            raise Unsupported("triple is not in the parameterized family")
        two3 = ctx.mul(2 % ctx.p, third)
        C2, C3 = 2 % ctx.p, ctx.mul(eps, two3)
        D2, D3 = ctx.neg(ctx.mul(eps, two3)), two3
        B4 = ctx.neg(ctx.mul(f3.coeff_raw((0, 2, 0)), half))
        B4inv2 = ctx.inv(ctx.mul(2 % ctx.p, B4))
        C4 = ctx.neg(ctx.mul(ctx.add(f2.coeff_raw((1, 0, 0)), f3.coeff_raw((0, 1, 0))), B4inv2))
        D4 = ctx.neg(ctx.mul(ctx.add(f1.coeff_raw((1, 0, 0)), f3.coeff_raw((0, 0, 1))), B4inv2))
        w = QuadricWitness(
            ctx=ctx,
            QR=(0, 1, third, 0, 0, 0),             # V^2 + (1/3) W^2
            QS=(0, 1, third, 0, 0, 0),
            LR=(0, 0, 0, B4),
            MR=(0, C2, C3, C4),
            NR=(0, D2, D3, D4),
            k=k,
        )
        if record is not None:
            record.update({"k": k, "epsilon": 1 if eps == 1 else -1,
                           "B4": B4, "C4": C4, "D4": D4,
                           "QR": list(w.QR), "QS": list(w.QS)})
        return w
    # characteristic 2
    ext = ExtCtx(ctx, 2)
    from .families import find_artin_schreier_unit

    xi = find_artin_schreier_unit(ext)
    b4sq = f3.coeff_raw((1, 0, 0))
    B4 = ctx.pow(b4sq, ctx.q // 2)                 # square root in char 2
    if ctx.mul(B4, B4) != b4sq or B4 == 0:
        raise Unsupported("triple is not in the parameterized family")
    C4 = f2.coeff_raw((0, 2, 0))
    D4 = f1.coeff_raw((0, 0, 2))
    w = QuadricWitness(
        ctx=ctx,
        QR=(0, 1, 1, 0, 0, 1),                     # V^2 + W^2 + VW
        QS=(0, 1, 1, 0, 0, 1),
        LR=(0, 0, 0, B4),
        MR=(0, 1, 0, C4),
        NR=(0, 1, 1, D4),
        k=None,
        xi=xi,
    )
    if record is not None:
        record.update({"xi": list(xi.coords), "B4": B4, "C4": C4, "D4": D4,
                       "QR": list(w.QR), "QS": list(w.QS)})
    return w


# ---------------------------------------------------------------------------
# count bounds


@dataclass
class BoundReport(Report):
    r: int
    d: int
    q: int
    center: int
    lw_radius: float
    cm_radius: float
    applicable: bool
    threshold_ok: bool
    lang_weil_constant: str = "not computed"


def bound_report(r: int, d: int, q: int) -> BoundReport:
    """Point-count window for an absolutely irreducible r-dimensional,
    degree-d variety: center q^r, first-order radius (d-1)(d-2)q^(r-1/2),
    and the explicit second-order radius adding 5 d^(13/3) q^(r-1).

    `applicable` is the exact inequality q > 2(r+1)d^2 and `threshold_ok`
    the exact inequality q > 6.3 (d+1)^(13/3); both are evaluated in
    integer arithmetic.  Radii use Decimal at 50 digits.

    A radius is written as a double, which ends below 2^1024, so a radius
    from there up raises Unsupported, decided by logarithms before any
    power of q is computed.  The center, at most q/5 times the second-order
    radius, stays an exact integer of at most 314 digits.
    """
    if r < 1 or d < 1:
        raise Unsupported("need r >= 1 and d >= 1")
    with localcontext() as dctx:
        dctx.prec = 50
        qd = Decimal(q)
        # the radii over q^(r-1)
        lw1 = Decimal((d - 1) * (d - 2)) * qd.sqrt()
        cm1 = lw1 + Decimal(5) * (Decimal(d) ** (Decimal(13) / Decimal(3)))
        if (r - 1) * qd.ln() + cm1.ln() >= 1024 * Decimal(2).ln():
            raise Unsupported(f"the radii for r={r}, d={d}, q={q} reach 2^1024, "
                              "past the range of a JSON number")
        lw = lw1 * qd ** (r - 1)
        cm = cm1 * qd ** (r - 1)
    applicable = q > 2 * (r + 1) * d * d
    # q > 6.3 (d+1)^(13/3)  <=>  (10 q)^3 > 63^3 (d+1)^13
    threshold_ok = (10 * q) ** 3 > 63 ** 3 * (d + 1) ** 13
    return BoundReport(
        r=r, d=d, q=q,
        center=q ** r,
        lw_radius=float(lw),
        cm_radius=float(cm),
        applicable=applicable,
        threshold_ok=threshold_ok,
    )


def threshold_boundary(d: int) -> int:
    """Smallest prime power q with threshold_ok(d, q)."""
    from .ff import factorize

    q = 2
    while True:
        if len(factorize(q)) == 1 and (10 * q) ** 3 > 63 ** 3 * (d + 1) ** 13:
            return q
        q += 1
