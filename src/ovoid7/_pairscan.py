"""Vectorized scan over pairs of parameter triples.

The non-collinearity value for triples i and j is

    L(i, j) = (x_i - x_j)(f3_j - f3_i) + (y_i - y_j)(f2_j - f2_i)
            + (z_i - z_j)(f1_j - f1_i)

which is symmetric in (i, j), so unordered pairs carry all information.
Triples are indexed with x varying fastest (index k encodes the triple
(k mod q, (k div q) mod q, k div q^2)), and the deterministic witness is
always the first violating pair in (i, j) order.

Arithmetic is the field context's vectorized v_add/v_sub/v_mul, which
pick one of three strategies per field: prime fields use modular integer
numpy ops, characteristic 2 uses xor for addition plus log/exp gathers
for products, and other prime powers gather from flat tables.
Row blocks can be fanned out over a thread pool; the merge keeps block
order, so results do not depend on the worker count.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from typing import Tuple

import numpy as np

from .ff import FieldCtx

BLOCK_ELEMS = 1 << 21


def triple_of_index(q: int, k: int) -> Tuple[int, int, int]:
    return (k % q, (k // q) % q, k // (q * q))


def index_of_triple(q: int, t) -> int:
    x, y, z = t
    return x + q * y + q * q * z


def coordinate_arrays(q: int):
    """x/y/z arrays for all q^3 triples in scan order."""
    k = np.arange(q ** 3, dtype=np.int64)
    return k % q, (k // q) % q, k // (q * q)


def eval_on_grid(poly, ctx: FieldCtx, xs, ys, zs):
    """Evaluate a 3-variable polynomial on coordinate arrays, term by term."""
    from .mpoly import unpack_exps

    out = np.zeros_like(xs)
    for key, c in poly.terms.items():
        ex, ey, ez = unpack_exps(key, 3)
        term = np.full_like(xs, c)
        if ex:
            term = ctx.v_mul(term, ctx.v_pow(xs, ex))
        if ey:
            term = ctx.v_mul(term, ctx.v_pow(ys, ey))
        if ez:
            term = ctx.v_mul(term, ctx.v_pow(zs, ez))
        out = ctx.v_add(out, term)
    return out


class PairScanResult:
    __slots__ = ("zero_pairs", "first_zero", "pairs_checked", "elapsed")

    def __init__(self, zero_pairs, first_zero, pairs_checked, elapsed):
        self.zero_pairs = zero_pairs          # unordered count, None if early exit
        self.first_zero = first_zero          # (i, j) with i < j, or None
        self.pairs_checked = pairs_checked
        self.elapsed = elapsed


def pair_scan(ctx: FieldCtx, tables, early_exit: bool, threads: int = 1) -> PairScanResult:
    """Scan all unordered pairs of triples.

    tables: (x, y, z, f1, f2, f3) int64 arrays of length q^3 in scan order.
    With early_exit the scan stops after the first block containing a zero
    of L; otherwise every pair is visited and zeros are counted exactly.
    """
    t0 = time.perf_counter()
    xs, ys, zs, f1, f2, f3 = tables
    n = len(xs)
    rows_per_block = max(1, BLOCK_ELEMS // max(1, n))
    starts = list(range(0, n, rows_per_block))
    threads = max(1, int(threads or 1))

    def scan_block(s: int):
        e = min(s + rows_per_block, n)
        if s + 1 >= n:
            return 0, 0, None
        I = np.arange(s, e, dtype=np.int64)[:, None]
        cols = np.arange(s + 1, n, dtype=np.int64)[None, :]
        sub, mul, add = ctx.v_sub, ctx.v_mul, ctx.v_add
        acc = mul(sub(xs[I], xs[cols]), sub(f3[cols], f3[I]))
        acc = add(acc, mul(sub(ys[I], ys[cols]), sub(f2[cols], f2[I])))
        acc = add(acc, mul(sub(zs[I], zs[cols]), sub(f1[cols], f1[I])))
        zero = (acc == 0)
        zero &= cols > I
        pairs = sum(n - 1 - i for i in range(s, e))
        nz = int(zero.sum())
        first = None
        if nz:
            flat = np.flatnonzero(zero.ravel())
            width = zero.shape[1]
            # row-major order coincides with (i, j) order inside the block
            r, c = divmod(int(flat[0]), width)
            first = (s + r, s + 1 + c)
        return pairs, nz, first

    # Early exit stops at the first block containing a zero; later blocks
    # of the same batch are discarded from the pair count, so the reported
    # numbers are identical for every worker count.
    pairs_checked = 0
    zero_total = 0
    first_zero = None

    def consume(results):
        nonlocal pairs_checked, zero_total, first_zero
        for pairs, nz, first in results:
            pairs_checked += pairs
            zero_total += nz
            if first is not None and first_zero is None:
                first_zero = first
            if early_exit and zero_total:
                return True
        return False

    if threads == 1:
        for s in starts:
            if consume([scan_block(s)]):
                return PairScanResult(None, first_zero, pairs_checked,
                                      time.perf_counter() - t0)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for batch_start in range(0, len(starts), threads):
                batch = starts[batch_start:batch_start + threads]
                if consume(pool.map(scan_block, batch)):
                    return PairScanResult(None, first_zero, pairs_checked,
                                          time.perf_counter() - t0)
    return PairScanResult(zero_total, first_zero, pairs_checked,
                          time.perf_counter() - t0)
