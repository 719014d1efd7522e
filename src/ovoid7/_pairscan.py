"""Table-keyed scan over pairs of parameter triples.

The non-collinearity value for triples i and j is

    L(i, j) = (x_i - x_j)(f3_j - f3_i) + (y_i - y_j)(f2_j - f2_i)
            + (z_i - z_j)(f1_j - f1_i)

which is symmetric in (i, j), so unordered pairs carry all information.
Triples are indexed with x varying fastest (index k encodes the triple
(k mod q, (k div q) mod q, k div q^2)), and the deterministic witness is
always the first violating pair in (i, j) order.

Every term has the form (u_i - u_j)(g_j - g_i) with (u, g) one of (x, f3),
(y, f2) and (z, f1), so for a fixed row i it depends on the column j only
through the key u_j*q + g_j.  A run of rows therefore gets one table,
T[3*(a*q + b) + k, i] = enc((u_i - a)(b - g_i)) for the three terms k,
gathered from per-field grids of v_sub and v_mul results (q^2 entries
per row and term, 1/q of the pair work).  Column j carries the uint16 keys
3*(u_j*q + g_j) + k, computed once per scan.  A step of r rows gathers,
for every key of its columns, the r entries of T under that key in one
copy, so each pair costs three lookups, two uint16 adds and one zero
test on the sum.

enc spreads the h base-p digits of an element into s-bit lanes with
2^s > 3(p - 1), so a sum of three encodings never carries from one lane
into the next, and lane by lane it equals the field sum up to multiples
of p.  L(i, j) = 0 exactly when every lane of the sum is 0 mod p.  In
characteristics 2 and 3 the zero test reads bit 0 of each lane after a
few shifts and bitwise operations on the uint16 sums themselves (see
_even_zero and _ternary_zero).  For p >= 5 it is a lookup in a boolean
table over the 2^(s*h) possible sums (at most 4096 for q <= 64), which
widens each sum to an index and gathers: about twice the time of the
three term lookups together.  The same encoding serves every field, and
the search's prefilter reads two rows of the pair table, those of the
points 0 and 1, off the same grids and tests them with the same zero
test.  These per-field constants are built once per field context.

Rows are scanned in blocks of about BLOCK_ELEMS pairs, the unit of early
exit and of pairs_checked; a block is worked through in steps of about
STEP_ELEMS pairs so its tables and intermediates stay in cache.  A
block's row tables are built as the scan reaches them, in pieces of one
step, then two, four, ... steps, so an early exit in the first step pays
for one step's table and a full block for about log2(steps) gathers.
Blocks can be fanned out over a thread pool; the merge keeps block
order, so results do not depend on the worker count.
"""

from __future__ import annotations

import functools
from concurrent.futures import ThreadPoolExecutor
from typing import Tuple

import numpy as np

from .errors import Unsupported
from .ff import FieldCtx

Q_LIMIT = 64             # an O(q^6) scan at q = 128 visits about 2 * 10^12 pairs
BLOCK_ELEMS = 1 << 21
STEP_ELEMS = 1 << 15

_TERMS = np.arange(3)[:, None]


def triple_of_index(q: int, k: int) -> Tuple[int, int, int]:
    return (k % q, (k // q) % q, k // (q * q))


def witness_triples(q: int, first_zero):
    """The two triples of a scan's first zero pair (i, j), or None."""
    if first_zero is None:
        return None
    i, j = first_zero
    return triple_of_index(q, i), triple_of_index(q, j)


def coordinate_arrays(q: int):
    """x/y/z arrays for all q^3 triples in scan order."""
    k = np.arange(q ** 3, dtype=np.int64)
    return k % q, (k // q) % q, k // (q * q)


def eval_on_grid(poly, ctx: FieldCtx, xs, ys, zs):
    """Evaluate a 3-variable polynomial on coordinate arrays (field elements
    in [0, q)), term by term; each power is one q-entry table and a gather."""
    from .mpoly import unpack_exps

    elems = np.arange(ctx.q, dtype=xs.dtype)
    out = np.zeros_like(xs)
    for key, c in poly.terms.items():
        term = np.full_like(xs, c)
        for coords, e in zip((xs, ys, zs), unpack_exps(key, 3)):
            if e:
                term = ctx.v_mul(term, ctx.v_pow(elems, e)[coords])
        out = ctx.v_add(out, term)
    return out


def _even_zero(low, t):
    """Characteristic 2: a lane holds 0..3 and is 0 mod 2 iff its bit 0 is
    clear."""
    return (t & low) == 0


def _ternary_zero(low, t):
    """Characteristic 3: a lane holds 0..6 in bits b2 b1 b0, and 0, 3 and 6
    are exactly the values with b1 == b0 | b2.  Only bit 0 of each lane is
    kept, so the shifts never mix lanes."""
    return (((t | t >> 2) ^ (t >> 1)) & low) == 0


# characteristic -> lane bit test; other fields look sums up in a table
_LANE_TESTS = {2: _even_zero, 3: _ternary_zero}


def _lane_width(p: int) -> int:
    """Bits per lane s, 2^s > 3(p - 1): a sum of three lanes never carries."""
    return (3 * (p - 1)).bit_length()


def _lane_canon(ctx: FieldCtx):
    """canon[t], t < 2^(s*h): the element whose digits are the lanes of the
    lane sum t reduced mod p; t is a zero sum iff canon[t] == 0."""
    p, h, s = ctx.p, ctx.h, _lane_width(ctx.p)
    t = np.arange(1 << (s * h))
    return sum((t >> (s * i) & ((1 << s) - 1)) % p * p ** i for i in range(h))


def lane_encoding(ctx: FieldCtx):
    """(enc, is_zero): enc[v] holds the base-p digits of v in s-bit lanes
    (see _lane_width); is_zero(t) takes a uint16 array of sums of three
    encodings and says for each sum whether every lane is 0 mod p.  In
    characteristics 2 and 3 that is a bit test on the lanes, valid only
    for such sums (each lane at most 3(p - 1): the char-3 test reads a
    lane of 7 as 0); otherwise a lookup in a boolean table over the
    2^(s*h) possible sums."""
    p, h = ctx.p, ctx.h
    s = _lane_width(p)
    if s * h > 16 or 3 * ctx.q ** 2 > 1 << 16:
        raise Unsupported(f"the pair kernel's 16-bit lanes and keys do not fit q={ctx.q}")
    v = np.arange(ctx.q)
    enc = sum((v // p ** i % p) << (s * i) for i in range(h)).astype(np.uint16)
    if p in _LANE_TESTS:
        low = np.uint16(sum(1 << (s * i) for i in range(h)))
        return enc, functools.partial(_LANE_TESTS[p], low)
    zero = _lane_canon(ctx) == 0
    zero.flags.writeable = False
    return enc, zero.take


@functools.lru_cache(maxsize=64)
def _constants(ctx: FieldCtx):
    """Per-field constants: prod[a*q + b] = enc(a*b), the zero test, the key
    grids left[a, u] = (u - a)*q and right[b, g] = b - g, and the matrix that
    maps the six value tables to the column keys 3*(u*q + g)."""
    enc, is_zero = lane_encoding(ctx)
    q = ctx.q
    ar = np.arange(q)
    prod = enc[ctx.v_mul(ar[:, None], ar[None, :])].ravel()
    left = ctx.v_sub(ar[None, :], ar[:, None]) * q
    right = ctx.v_sub(ar[:, None], ar[None, :])
    # rows: (x, f3), (y, f2), (z, f1) out of (x, y, z, f1, f2, f3)
    mix = np.array([[3 * q, 0, 0, 0, 0, 3], [0, 3 * q, 0, 0, 3, 0], [0, 0, 3 * q, 3, 0, 0]])
    for a in (prod, left, right, mix):
        a.flags.writeable = False       # shared by every scan over this field
    return prod, is_zero, left, right, mix


@functools.lru_cache(maxsize=64)
def _lower_mask(step: int):
    """mask[c, i] = c >= i: which of the first step - 1 columns of a step
    lie past row i."""
    mask = np.tril(np.ones((max(step - 1, 0), step), dtype=bool))
    mask.flags.writeable = False
    return mask


class PairScanResult:
    __slots__ = ("zero_pairs", "first_zero", "pairs_checked")

    def __init__(self, zero_pairs, first_zero, pairs_checked):
        self.zero_pairs = zero_pairs          # unordered count, None if early exit
        self.first_zero = first_zero          # (i, j) with i < j, or None
        self.pairs_checked = pairs_checked


def _row_table(prod, left, right, us, gs):
    """T[3*(a*q + b) + k, r] = enc((u_r - a)(b - g_r)) for term k and row r,
    given the rows' (x, y, z) values us and (f3, f2, f1) values gs."""
    q = len(left)
    return prod.take(left.take(us, axis=1)[:, None] + right.take(gs, axis=1)).reshape(3 * q * q, -1)


def _lane_sums(table, keys):
    """acc[c, r]: the sum of the three term encodings of row r against
    column c, from a row table and the columns' keys."""
    terms = table.take(keys, axis=0)
    acc = terms[0] + terms[1]
    acc += terms[2]
    return acc


def _scan_inputs(mix, tables):
    """(us, gs, keys) of a scan over the six value tables: every triple's
    (x, y, z) values us and (f3, f2, f1) values gs (term k pairs us[k] with
    gs[k]), and its column keys 3*(u*q + g) + k, made with _constants' mix."""
    vals = np.array(tables)
    return vals[:3], vals[5:2:-1], (mix @ vals + _TERMS).astype(np.uint16)


def _row_step(n: int, rows: int) -> int:
    """Rows per step against about n columns, at most rows: a power of two,
    at least 8, so each gathered table entry is one 16, 32, ... byte copy."""
    return min(rows, 1 << max(3, (STEP_ELEMS // max(1, n)).bit_length() - 1))


def _growing_pieces(s: int, e: int, step: int):
    """(t, u) pieces of the rows s .. e-1 that get one row table each: the
    first holds one step, each later one twice the rows of the one
    before."""
    width = step
    while s < e:
        yield s, min(s + width, e)
        s, width = s + width, 2 * width


def _fan_out(fn, starts, threads: int):
    """fn(s) for each s of starts, in order.  Several workers take one batch
    of `workers` starts at a time from a thread pool, so a caller that stops
    early waits for no later batch; one worker makes no pool."""
    workers = min(max(1, int(threads or 1)), len(starts))
    if workers == 1:
        yield from map(fn, starts)
        return
    with ThreadPoolExecutor(workers) as pool:
        for b in range(0, len(starts), workers):
            yield from pool.map(fn, starts[b:b + workers])


def pair_scan(ctx: FieldCtx, tables, early_exit: bool, threads: int = 1) -> PairScanResult:
    """Scan all unordered pairs of triples.

    tables: (x, y, z, f1, f2, f3) int64 arrays of length q^3 in scan order.
    With early_exit the scan stops after the first block containing a zero
    of L; otherwise every pair is visited and zeros are counted exactly.
    """
    prod, is_zero, left, right, mix = _constants(ctx)
    us, gs, keys = _scan_inputs(mix, tables)
    n = keys.shape[1]
    rows_per_block = max(1, BLOCK_ELEMS // max(1, n))
    step = _row_step(n, min(rows_per_block, n))
    lower = _lower_mask(step)

    def scan_block(s: int):
        e = min(s + rows_per_block, n)
        pairs = (e - s) * (n - 1) - (s + e - 1) * (e - s) // 2
        nz, first = 0, None
        for t, u in _growing_pieces(s, e, step):
            table = _row_table(prod, left, right, us[:, t:u], gs[:, t:u])
            for a in range(t, u, step):
                # rows a .. a+r-1 against columns a+1 .. n-1; hit[c, i] is the pair (a+i, a+1+c)
                r = min(step, u - a)
                hit = is_zero(_lane_sums(table[:, a - t:a - t + r], keys[:, a + 1:]))
                hit[:r - 1] &= lower[:r - 1, :r]
                m = int(np.count_nonzero(hit))
                if m:
                    if first is None:
                        i, c = divmod(int(hit.T.argmax()), n - a - 1)
                        first = (a + i, a + 1 + c)
                    nz += m
                    if early_exit:
                        return pairs, nz, first
        return pairs, nz, first

    # Early exit stops at the first block containing a zero; later blocks
    # of the same batch are discarded from the pair count, so the reported
    # numbers are identical for every worker count.
    pairs_checked = 0
    zero_total = 0
    first_zero = None
    for pairs, nz, first in _fan_out(scan_block, range(0, n, rows_per_block), threads):
        pairs_checked += pairs
        zero_total += nz
        if first_zero is None:
            first_zero = first
        if early_exit and zero_total:
            return PairScanResult(None, first_zero, pairs_checked)
    return PairScanResult(zero_total, first_zero, pairs_checked)


# ---------------------------------------------------------------------------
# line route


@functools.lru_cache(maxsize=64)
def _line_constants(ctx: FieldCtx, kappas: Tuple[int, ...]):
    """(zs, canons, counts) for lines on which a slice has the form
    gamma + sum_i beta_i z^(p^kappas[i]) (kappas distinct, each < h).

    Such a slice is gamma plus an F_p-linear map Lam_beta of z, so it has
    |ker Lam_beta| zeros when -gamma lies in the image of Lam_beta and none
    otherwise.  The sample points zs are picked greedily in increasing
    order, each where some beta not yet told apart by the earlier points
    has Lam_beta(z) != 0; then beta -> (Lam_beta(z))_(z in zs) is one to
    one, and the values at 0, zs[0], ..., zs[k-1] fix gamma and beta.
    counts[g_0 + q g_1 + ... + q^k g_k] is the zero count of the line with
    those values, and canons[j][t] is q^j times the field element whose
    digits are the lanes of the lane sum t reduced mod p."""
    p, q = ctx.p, ctx.q
    k = len(kappas)
    ar = np.arange(q)
    b = np.arange(q ** k)                   # beta with digits b = sum_i beta_i q^i
    lam = np.zeros((q ** k, q), dtype=np.int64)
    for i, kappa in enumerate(kappas):
        lam = ctx.v_add(lam, ctx.v_mul((b // q ** i % q)[:, None], ctx.v_pow(ar, p ** kappa)))
    zs, alive = [], np.ones(q ** k, dtype=bool)
    for z in range(1, q):
        still = alive & (lam[:, z] == 0)
        if np.count_nonzero(still) < np.count_nonzero(alive):
            zs.append(z)
            alive = still
    # the image is a subspace, so it holds -gamma exactly when it holds gamma
    image = np.zeros((q ** k, q), dtype=bool)
    image[b[:, None], lam] = True
    kernel = np.count_nonzero(lam == 0, axis=1)
    index = ar + sum(ctx.v_add(ar, lam[:, z:z + 1]) * q ** j for j, z in enumerate(zs, 1))
    counts = np.zeros(q ** (k + 1), dtype=np.uint8)
    counts[index.ravel()] = (kernel[:, None] * image).ravel()
    canon = _lane_canon(ctx)
    canons = np.stack([canon * q ** j for j in range(k + 1)])
    for a in (canons, counts):
        a.flags.writeable = False
    return tuple(zs), canons, counts


@functools.lru_cache(maxsize=64)
def _diagonal_excess(step: int, q: int):
    """x[j, i], for row a + i of a step and column (a + j // q, j % q):
    2 before the row's own base point, 1 on it and 0 past it, which is
    what counting every column twice adds to the weights 0, 1 and 2 that
    line_count gives those columns."""
    b = np.arange(step * q)[:, None] // q
    i = np.arange(step)
    x = (b <= i).astype(np.uint8) + (b < i)
    x.flags.writeable = False
    return x


def line_count(ctx: FieldCtx, tables, v: int, kappas: Tuple[int, ...], threads: int = 1) -> int:
    """Ordered count of off-diagonal zeros, 2 * pair_scan(...).zero_pairs,
    counted along the lines s + z e_v: on each, every slice g_d(s) =
    L(s, s + d) has the form gamma + sum_i beta_i z^(p^kappas[i]), affine
    linearized in z, when coordinate v occurs only with exponents 0 and
    p^kappa and kappas holds every kappa mod h whose slope beta does not
    vanish identically (_diffroute.live_kappas).  So its values at z = 0,
    zs[0], ..., zs[k-1] give its zero count (see _line_constants).

    Cell (a, (b, c)), for a and b in the plane v = 0 and c in F_q, stands
    for the line through a with difference b + c e_v - a.  Plane j holds
    the rows a + zs[j-1] e_v and the columns b + (c + zs[j-1]) e_v, so a
    cell of every plane is a value on the same line.  The shift by -c e_v
    and L(s, t) = L(t, s) map the line of (a, (b, c)) onto that of
    (b, (a, -c)), so both have the same zero count: row a meets only the
    columns with b >= a, counted twice for b > a and once for b = a,
    about half of the (k + 1) q^5 pair values.  The columns are laid out
    b-major, so those of a step of rows are a suffix.  With no kappas
    every slice is constant along its lines: the plane v = 0 alone goes
    under the kernel's zero test, with q zeros per zero cell (the test
    takes half the time of the canon and count lookups on that plane,
    2-vCPU VM, q = 27 and 47).  Results are sums of integers, the same
    for every thread count."""
    q = ctx.q
    prod, is_zero, left, right, mix = _constants(ctx)
    zs, canons, counts = _line_constants(ctx, kappas) if kappas else ((), None, None)
    us, gs, keys = _scan_inputs(mix, tables)
    n = keys.shape[1]
    m = q * q                               # rows per plane
    base = np.flatnonzero(us[v] == 0)       # the plane v = 0, in scan order
    ar = np.arange(q)
    step = _row_step(n, m)
    width = max(STEP_ELEMS // step, step * q)   # columns per piece of a step
    excess = _diagonal_excess(step, q)
    rows, cols = [], []
    for z in (0,) + zs:
        plane = base + z * q ** v
        rows.append((us[:, plane], gs[:, plane]))
        cols.append(keys[:, (base[:, None] + ctx.v_add(ar, z) * q ** v).ravel()])

    def line_zeros(row_tables, c0: int, c1: int):
        """Zero counts of the lines of the step's cells against columns
        c0 .. c1-1 (boolean on one plane: q zeros per true cell)."""
        sums = _lane_sums(row_tables[0], cols[0][:, c0:c1])
        if not zs:
            return is_zero(sums)
        idx = canons[0].take(sums)
        for canon, table, keys_j in zip(canons[1:], row_tables[1:], cols[1:]):
            idx += canon.take(_lane_sums(table, keys_j[:, c0:c1]))
        return counts.take(idx)

    def count_rows(a: int) -> int:
        r = min(step, m - a)
        row_tables = [_row_table(prod, left, right, u[:, a:a + r], g[:, a:a + r])
                      for u, g in rows]
        total = 0
        for c0 in range(a * q, n, width):
            cells = line_zeros(row_tables, c0, min(c0 + width, n))
            if c0 == a * q:                 # the first r*q columns have a <= b < a + r
                total -= int((cells[:r * q] * excess[:r * q, :r]).sum())
            total += 2 * int(cells.sum() if zs else np.count_nonzero(cells))
        return total

    total = sum(_fan_out(count_rows, range(0, m, step), threads))
    # the lines of the zero difference are the q^3 diagonal zeros
    return (1 if zs else q) * total - n
