"""Difference route: exact zero counts of the pair value for triples whose
monomials all have p-weight <= 2, in O(q^3) differences instead of O(q^6)
pairs.

Write t = s + d.  Since u_s - u_t = -d_u, the pair value of the pair
kernel (see _pairscan) restricted to one difference is

    g_d(s) = L(s, s + d) = -(d_x (f3(s+d) - f3(s)) + d_y (f2(s+d) - f2(s))
                             + d_z (f1(s+d) - f1(s))).

The p-weight of x^a y^b z^c is the sum of the base-p digits of a, b and c.
A monomial of p-weight <= 2 is a product of at most two F_p-linear maps
(Frobenius powers of the coordinates), so f(s + d) - f(s) is F_p-affine in
s, and so is g_d: g_d(s) = c_d + A_d(s) with c_d = g_d(0) and A_d linear
from F_q^3 = F_p^(3h) to F_q = F_p^h.  Its zeros are the solutions of
A_d(s) = -c_d, so g_d has p^(3h - rank A_d) zeros if c_d lies in the image
of A_d and none otherwise.  The images of the F_p-basis vectors
e = p^i q^k (coordinate k, digit i) are the columns g_d(e) - c_d; they are
reduced for all d at once, in chunks, into a basis indexed by leading
base-p digit, and c_d is reduced against it.

The ordered count sum_{d != 0} #zeros(g_d) equals the number of ordered
off-diagonal zero pairs, 2 * pair_scan(...).zero_pairs.

This module also picks each triple's exact route, trying three in turn:
the difference route above; the line route, for triples with a
coordinate v that occurs in every monomial with exponent 0 or p^kappa,
where each g_d is affine linearized along the lines s + z e_v and
_pairscan.line_count counts its zeros line by line in O(q^5) pair
values (only the kappas whose slopes do not cancel symbolically count,
see live_kappas; with none, every g_d is constant along its lines and
one plane, about q^5 / 2 pair values, suffices); and the pair scan,
O(q^6), for every other triple.
"""

from __future__ import annotations

import functools
from typing import Optional, Tuple

import numpy as np

from . import _pairscan
from .errors import Unsupported
from .ff import FieldCtx
from .mpoly import unpack_exps

# Timings on a 2-vCPU VM, one thread, warm tables, best of 9 in each of
# two processes.  Difference route: below q = 9 the pair kernel is the
# faster exact counter; on kantor-simple a pair scan takes 0.43-0.58 ms at
# q = 8 and the route 0.59-0.86 ms, at q = 16 the route takes 2.8-3.2 ms
# against 19-21 ms.  Line route (slope check and count): kantor-simple
# takes 0.19 ms against 0.37-0.40 ms at q = 8 (0.58 ms with its per-field
# tables), thas-kantor 0.23-0.26 ms against 0.84-0.93 ms at q = 9, and
# kantor-2mod3 0.45-0.50 ms against 3.0-3.2 ms at q = 11.  The line route
# already wins at q = 8, but a lower MIN_Q would change the route that
# reports give for q = 8 triples, so it stays.
MIN_Q = 9
# At q = 256 the six int64 value tables alone would take about 800 MiB.
Q_LIMIT = 128
CHUNK = 1 << 14          # differences reduced together
# The line route's count table has q^(k+1) entries for k live Frobenius powers;
# at q = 16, k = 4 building it took 0.15 s, five times the pair scan.
LINE_TABLE_LIMIT = 1 << 18


def p_weight(p: int, exps) -> int:
    """Sum of the base-p digits of the exponents."""
    total = 0
    for e in exps:
        while e:
            e, r = divmod(e, p)
            total += r
    return total


def eligible(spec) -> bool:
    """True iff every monomial of f1, f2, f3 has p-weight <= 2."""
    p = spec.ctx.p
    return all(p_weight(p, unpack_exps(key, 3)) <= 2
               for f in spec.polys() for key in f.terms)


def _frobenius_power(p: int, e: int) -> Optional[int]:
    """kappa with e = p^kappa, or None."""
    kappa = 0
    while e % p == 0:
        e //= p
        kappa += 1
    return kappa if e == 1 else None


def line_coordinate(spec) -> Optional[Tuple[int, Tuple[int, ...], Tuple[int, ...]]]:
    """(v, kappas, live) for the line route: a coordinate v that occurs in
    every monomial of f1, f2, f3 with exponent 0 or p^kappa, the sorted set
    of those kappa mod h, and the live ones among them (live_kappas), whose
    count table of q^(k+1) entries for k live kappas fits LINE_TABLE_LIMIT.
    Of several, the one with the fewest live kappas, then the fewest
    kappas, then the first of x, y, z; None if there is none.  The slopes
    of each candidate coordinate are checked once."""
    ctx = spec.ctx
    found = []
    for v in range(3):
        exps = {unpack_exps(key, 3)[v] for f in spec.polys() for key in f.terms} - {0}
        powers = {_frobenius_power(ctx.p, e) for e in exps}
        if None in powers:
            continue
        kappas = tuple(sorted({kappa % ctx.h for kappa in powers}))
        live = live_kappas(spec, v, kappas)
        if ctx.q ** (len(live) + 1) <= LINE_TABLE_LIMIT:
            found.append((len(live), len(kappas), v, kappas, live))
    return min(found)[2:] if found else None


def live_kappas(spec, v: int, kappas: Tuple[int, ...]) -> Tuple[int, ...]:
    """The kappas of a candidate line coordinate v whose slopes do
    not cancel symbolically.

    Let w0, w1 be the other two coordinates.  On the line s + z e_v the
    slice g_d has the coefficient -P_kappa(d, s') at z^(p^kappa), with s'
    the w0, w1 coordinates of s and d' those of d,

        P_kappa = sum over u of d_u (b_u(s' + d') - b_u(s')),

    and b_u the cofactor, in the f paired with u (x with f3, y with f2, z
    with f1), of every v^(p^kappa') with kappa' = kappa mod h.  A kappa is
    dropped iff P_kappa, in the five variables d and s', is the zero
    polynomial, so the slope is zero everywhere and the line count stays
    exact.  That holds iff b_v is constant, b_w0 = c + alpha w1 and
    b_w1 = c' - alpha w0: d_v occurs in no other term; a monomial
    c w0^a w1^b of b_w0 with a > 0 leaves c d_w0^(a+1) s_w1^b, which has
    no d_w1 and so nothing to cancel against, and one with a = 0 leaves
    c d_w0 d_w1^b, which the d_w1 term only meets at b = 1 (and the same
    for b_w1).  So the check reads each term once and expands nothing."""
    ctx = spec.ctx
    w0, w1 = (w for w in range(3) if w != v)
    paired = (spec.f3, spec.f2, spec.f1)

    def cofactor(u: int, kappa: int) -> dict:
        """{(a, b): c} for the monomials c w0^a w1^b of b_u."""
        out = {}
        for key, c in paired[u].terms.items():
            e = unpack_exps(key, 3)
            if e[v] and _frobenius_power(ctx.p, e[v]) % ctx.h == kappa:
                out[e[w0], e[w1]] = ctx.add(out.get((e[w0], e[w1]), 0), c)
        return {m: c for m, c in out.items() if c}

    def lives(kappa: int) -> bool:
        b_v, b_0, b_1 = (cofactor(u, kappa) for u in (v, w0, w1))
        return not (b_v.keys() <= {(0, 0)} and b_0.keys() <= {(0, 0), (0, 1)}
                    and b_1.keys() <= {(0, 0), (1, 0)}
                    and ctx.add(b_0.get((0, 1), 0), b_1.get((1, 0), 0)) == 0)

    return tuple(kappa for kappa in kappas if lives(kappa))


def choose_route(spec):
    """(route, line): route is "difference", "line" or "pair-scan" for this
    triple, the first of them that takes it, and line the line route's
    (v, live kappas), else None; Unsupported when its route does not
    reach q."""
    q = spec.ctx.q
    if q >= MIN_Q and eligible(spec):
        if q > Q_LIMIT:
            raise Unsupported(f"the difference route supports q <= {Q_LIMIT}")
        return "difference", None
    if q > _pairscan.Q_LIMIT:
        raise Unsupported(f"the pair-scan route supports q <= {_pairscan.Q_LIMIT}; "
                          f"the difference route (q <= {Q_LIMIT}) needs every monomial "
                          "of p-weight <= 2")
    pick = line_coordinate(spec) if q >= MIN_Q else None
    if pick is not None:
        return "line", (pick[0], pick[2])
    return "pair-scan", None


@functools.lru_cache(maxsize=16)
def _fp_tables(ctx: FieldCtx):
    """smul[c*q + v] = c*v for c in F_p; inv[c] = 1/c in F_p (inv[0] = 0);
    digq[lvl, v] = q times the base-p digit lvl of v."""
    p, q = ctx.p, ctx.q
    smul = ctx.v_mul(np.arange(p)[:, None], np.arange(q)[None, :]).ravel()
    inv = np.array([0] + [pow(c, p - 2, p) for c in range(1, p)], dtype=np.int64)
    digq = np.arange(q)[None, :] // p ** np.arange(ctx.h)[:, None] % p * q
    for a in (smul, inv, digq):
        a.flags.writeable = False
    return smul, inv, digq


def _negated(ctx: FieldCtx, tables, d):
    """(-d_x, -d_y, -d_z) for the difference index (or indices) d."""
    return [ctx.v_sub(0, u[d]) for u in tables[:3]]


def _slice_values(ctx: FieldCtx, tables, s, neg_d, t):
    """g_d(s) = L(s, t) for t = s + d, given neg_d = _negated(d); s is one
    index or an array like t."""
    out = 0
    for nd, g in zip(neg_d, tables[5:2:-1]):
        out = ctx.v_add(out, ctx.v_mul(nd, ctx.v_sub(g[t], g[s])))
    return out


def zero_counts(ctx: FieldCtx, tables) -> np.ndarray:
    """#zeros of g_d for every difference index d (0 for d = 0)."""
    p, q, h = ctx.p, ctx.q, ctx.h
    smul, inv, digq = _fp_tables(ctx)
    n = q ** 3
    counts = np.zeros(n, dtype=np.int64)
    for lo in range(1, n, CHUNK):
        d = np.arange(lo, min(lo + CHUNK, n))
        neg_d = _negated(ctx, tables, d)
        c = _slice_values(ctx, tables, 0, neg_d, d)
        # basis[lvl] is 0 or has its leading digit, 1, at base-p digit lvl
        basis = np.zeros((h, len(d)), dtype=np.int64)
        for k in range(3):
            dk = tables[k][d]
            for i in range(h):
                t = d + (ctx.v_add(dk, p ** i) - dk) * q ** k
                v = ctx.v_sub(_slice_values(ctx, tables, p ** i * q ** k, neg_d, t), c)
                for lvl in reversed(range(h)):
                    v = ctx.v_sub(v, smul[digq[lvl, v] + basis[lvl]])
                    new = digq[lvl, v] != 0        # only where the slot is empty
                    if new.any():
                        vn = v[new]
                        basis[lvl, new] = smul[inv[digq[lvl, vn] // q] * q + vn]
                        v[new] = 0
        for lvl in reversed(range(h)):
            c = ctx.v_sub(c, smul[digq[lvl, c] + basis[lvl]])
        rank = np.count_nonzero(basis, axis=0)
        counts[d] = np.where(c == 0, p ** (3 * h - rank), 0)
    return counts


def first_zero(ctx: FieldCtx, tables, counts) -> Optional[Tuple[int, int]]:
    """(i, j), i < j, from the smallest d with a zero and the first zero s
    of g_d in scan order; None if no g_d has a zero.  This order differs
    from the pair scan's first pair."""
    bad = np.flatnonzero(counts)
    if not len(bad):
        return None
    q, d = ctx.q, int(bad[0])
    s = np.arange(q ** 3)
    t = (ctx.v_add(tables[0], tables[0][d]) + q * ctx.v_add(tables[1], tables[1][d])
         + q * q * ctx.v_add(tables[2], tables[2][d]))
    vals = _slice_values(ctx, tables, s, _negated(ctx, tables, d), t)
    i = int(np.flatnonzero(vals == 0)[0])
    return tuple(sorted((i, int(t[i]))))


def exact_scan(spec, early_exit: bool, threads: int = 1):
    """(route, PairScanResult) for every triple, on the route choose_route
    picks.  On the difference and line routes zero_pairs is always exact
    and every pair counts as checked; a failing triple's witness comes
    from an early-exit pair scan up to the pair route's limit, so it is
    the pair scan's first zero pair, and from first_zero above it (the
    difference route only: the line route stops at the pair route's
    limit)."""
    route, line = choose_route(spec)
    ctx = spec.ctx
    tables = spec.value_tables()
    if route == "pair-scan":
        return route, _pairscan.pair_scan(ctx, tables, early_exit=early_exit, threads=threads)
    if early_exit and ctx.q <= _pairscan.Q_LIMIT:
        # g_d(0) = L(0, d) = 0 is a zero pair (0, d): the triple fails, and the
        # early-exit pair scan, which finds its witness, is cheaper than the route
        d = np.arange(1, ctx.q ** 3)
        if not _slice_values(ctx, tables, 0, _negated(ctx, tables, d), d).all():
            return route, _pairscan.pair_scan(ctx, tables, early_exit=True, threads=threads)
    if route == "line":
        counts = None
        total = _pairscan.line_count(ctx, tables, *line, threads=threads)
    else:
        counts = zero_counts(ctx, tables)
        total = int(counts.sum())
    n = ctx.q ** 3
    first, pairs = None, n * (n - 1) // 2
    if total and ctx.q <= _pairscan.Q_LIMIT:
        res = _pairscan.pair_scan(ctx, tables, early_exit=True, threads=threads)
        first, pairs = res.first_zero, res.pairs_checked
    elif total:
        first = first_zero(ctx, tables, counts)
    return route, _pairscan.PairScanResult(total // 2, first, pairs)
