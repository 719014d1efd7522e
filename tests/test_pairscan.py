"""The table-keyed pair kernel against a scalar oracle, and the bounds of
its lane encoding."""

import random
import types

import numpy as np
import pytest

from ovoid7 import _pairscan
from ovoid7.errors import Unsupported
from ovoid7.families import kantor_simple, ree_tits
from ovoid7.ff import factorize, make_field
from ovoid7.mpoly import MPoly
from ovoid7.quadric import OvoidSpec, collinearity_value

FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3), 9: (3, 2)}


def rand_spec(ctx, rng, max_deg=3):
    polys = []
    for _ in range(3):
        d = {}
        for _ in range(rng.randrange(6)):
            m = tuple(rng.randrange(max_deg + 1) for _ in range(3))
            if sum(m) == 0 or sum(m) > max_deg:
                continue
            d[m] = rng.randrange(ctx.q)
        polys.append(MPoly.from_dict(ctx, 3, d))
    return OvoidSpec(ctx, *polys)


class _Values:
    """A component whose values come from the scalar evaluator, computed once
    per triple instead of once per pair."""

    def __init__(self, poly, pts):
        self.values = {t: poly.eval_raw(t) for t in pts}

    def eval_raw(self, t):
        return self.values[t]


def scalar_oracle(spec):
    """(zero count, first zero) over all unordered pairs in scan order, from
    quadric.collinearity_value on plain integers, without numpy tables."""
    q = spec.ctx.q
    pts = [(x, y, z) for z in range(q) for y in range(q) for x in range(q)]
    values = types.SimpleNamespace(ctx=spec.ctx, f1=_Values(spec.f1, pts),
                                   f2=_Values(spec.f2, pts), f3=_Values(spec.f3, pts))
    count, first = 0, None
    for i, ti in enumerate(pts):
        for j in range(i + 1, len(pts)):
            if collinearity_value(values, ti, pts[j]).v == 0:
                count += 1
                if first is None:
                    first = (i, j)
    return count, first


def pairs_before(n, rows):
    """Unordered pairs (i, j), i < j, with i < rows."""
    return rows * (n - 1) - rows * (rows - 1) // 2


def _with_planted_pair(spec, i, j):
    """The value tables of an ovoid with triple j's values copied from
    triple i: (i, j) is then the only zero pair."""
    tables = [t.copy() for t in spec.value_tables()]
    for t in tables:
        t[j] = t[i]
    return tables


def specs_for(q):
    ctx = make_field(*FIELDS[q])
    rng = random.Random(1000 + q)
    zero = MPoly.zero(ctx, 3)
    specs = [rand_spec(ctx, rng) for _ in range(4 if q <= 5 else 2 if q < 9 else 1)]
    if q <= 5:
        specs.append(OvoidSpec(ctx, zero, zero, zero))
    if ctx.p == 2:
        specs.append(kantor_simple(ctx))
    return specs


@pytest.mark.parametrize("q", sorted(FIELDS))
def test_kernel_matches_scalar_oracle(q, monkeypatch):
    n = q ** 3
    for spec in specs_for(q):
        count, first = scalar_oracle(spec)
        tables = spec.value_tables()
        # the default layout, then many blocks and steps per scan
        for block, step in ((_pairscan.BLOCK_ELEMS, _pairscan.STEP_ELEMS), (1 << 12, 1 << 9)):
            monkeypatch.setattr(_pairscan, "BLOCK_ELEMS", block)
            monkeypatch.setattr(_pairscan, "STEP_ELEMS", step)
            rows_per_block = max(1, block // n)
            for threads in (1, 2, 3):
                full = _pairscan.pair_scan(spec.ctx, tables, early_exit=False, threads=threads)
                assert (full.zero_pairs, full.first_zero) == (count, first)
                assert full.pairs_checked == n * (n - 1) // 2
                early = _pairscan.pair_scan(spec.ctx, tables, early_exit=True, threads=threads)
                assert early.zero_pairs is None if first else early.zero_pairs == 0
                assert early.first_zero == first
                # early exit stops after the block holding the first zero
                rows = n if first is None else min(n, (first[0] // rows_per_block + 1)
                                                   * rows_per_block)
                assert early.pairs_checked == pairs_before(n, rows)
            monkeypatch.undo()


@pytest.mark.parametrize("p,h", sorted(FIELDS.values()) + [(2, 4), (3, 3)])
def test_value_tables_match_scalar_evaluation(p, h):
    # eval_on_grid reads each power from a q-entry table; the scalar
    # evaluator is the reference, including exponents up to the cap
    ctx = make_field(p, h)
    rng = random.Random(100 * p + h)
    spec = rand_spec(ctx, rng)
    high = MPoly.from_dict(ctx, 3, {(ctx.q - 1, 0, 1): 1, (5, 63, 0): rng.randrange(1, ctx.q),
                                    (0, 2, 40): 1})
    xs, ys, zs = _pairscan.coordinate_arrays(ctx.q)
    pts = list(zip(xs.tolist(), ys.tolist(), zs.tolist()))
    for poly in (spec.f1, spec.f2, spec.f3, high):
        got = _pairscan.eval_on_grid(poly, ctx, xs, ys, zs)
        assert got.tolist() == [poly.eval_raw(t) for t in pts]


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_early_exit_past_first_block_q16(threads):
    # q = 16: n = 4096 triples, 512 rows per block, 8 blocks (three threads
    # take them in batches of 3, 3 and 2).  Kantor-simple
    # is an ovoid there; copying triple i onto triple j makes (i, j) the
    # only zero pair, since every other pair still joins two ovoid points.
    spec = kantor_simple(make_field(2, 4))
    i, j = 1100, 2000                      # row 1100 lies in block 2 (rows 1024..1535)
    tables = _with_planted_pair(spec, i, j)
    full = _pairscan.pair_scan(spec.ctx, tables, early_exit=False, threads=threads)
    assert (full.zero_pairs, full.first_zero) == (1, (i, j))
    early = _pairscan.pair_scan(spec.ctx, tables, early_exit=True, threads=threads)
    assert early.first_zero == (i, j)
    assert early.pairs_checked == pairs_before(4096, 1536) == 5111040


def _failing_13():
    """A triple at q = 13 whose first zero pair, (0, 13), lies in the
    first 8-row step of the first of three 954-row blocks."""
    return OvoidSpec.from_lines(make_field(13, 1), ["x^2+y*z", "x*y+z^2", "y^3+x"])


# (early exit's first_zero and pairs_checked, the full scan's zero_pairs),
# recorded when every block built its whole row table at once.  At q = 16
# a block holds 512 rows in steps of 8; a planted pair (i, j) is the only
# zero, with row i in the first step, in later steps of the first block
# (among them its last, partial row table) and in the third block.
PINNED_SCANS = [
    ("q13", None, ((0, 13), 1640403, 184548)),
    ("ks16", (3, 7), ((3, 7), 1965824, 1)),
    ("ks16", (100, 2000), ((100, 2000), 1965824, 1)),
    ("ks16", (509, 3000), ((509, 3000), 1965824, 1)),
    ("ks16", (1100, 2000), ((1100, 2000), 5111040, 1)),
]


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("name,planted,want", PINNED_SCANS)
def test_witness_and_pairs_checked_are_pinned(name, planted, want, threads):
    if name == "q13":
        spec = _failing_13()
        tables = spec.value_tables()
    else:
        spec = kantor_simple(make_field(2, 4))
        tables = _with_planted_pair(spec, *planted)
    n = spec.ctx.q ** 3
    early = _pairscan.pair_scan(spec.ctx, tables, early_exit=True, threads=threads)
    full = _pairscan.pair_scan(spec.ctx, tables, early_exit=False, threads=threads)
    assert (early.first_zero, early.pairs_checked, full.zero_pairs) == want
    assert early.zero_pairs is None
    assert (full.first_zero, full.pairs_checked) == (want[0], n * (n - 1) // 2)


def test_early_exit_in_first_step_builds_one_steps_row_table(monkeypatch):
    # the zero pair (0, 13) lies in the first step of a 954-row block: the
    # scan builds row tables for those 8 rows and no more
    spec = _failing_13()
    tables = spec.value_tables()
    built = []
    row_table = _pairscan._row_table

    def spy(prod, left, right, us, gs):
        built.append(us.shape[1])
        return row_table(prod, left, right, us, gs)

    monkeypatch.setattr(_pairscan, "_row_table", spy)
    early = _pairscan.pair_scan(spec.ctx, tables, early_exit=True)
    assert early.first_zero == (0, 13)
    assert built == [8] == [_pairscan._row_step(13 ** 3, 954)]
    # a full scan builds every row's table once, in pieces that double
    built.clear()
    _pairscan.pair_scan(spec.ctx, tables, early_exit=False)
    assert sum(built) == 13 ** 3
    assert built[:7] == [8, 16, 32, 64, 128, 256, 450]


def test_one_block_scan_makes_no_pool(monkeypatch):
    # q = 4: 64 triples fit in one block, so threads=4 runs without a pool
    spec = kantor_simple(make_field(2, 2))
    tables = spec.value_tables()
    tables_fail = _with_planted_pair(spec, 3, 40)
    want = [_pairscan.pair_scan(spec.ctx, t, early_exit=e, threads=1)
            for t in (tables, tables_fail) for e in (False, True)]

    def no_pool(*args, **kwargs):
        raise AssertionError("a one-block scan built a thread pool")

    monkeypatch.setattr(_pairscan, "ThreadPoolExecutor", no_pool)
    got = [_pairscan.pair_scan(spec.ctx, t, early_exit=e, threads=4)
           for t in (tables, tables_fail) for e in (False, True)]
    assert [(r.zero_pairs, r.first_zero, r.pairs_checked) for r in got] == \
        [(r.zero_pairs, r.first_zero, r.pairs_checked) for r in want]
    assert want[2].zero_pairs == 1 and want[3].first_zero == (3, 40)


def prime_powers_up_to(limit):
    return [tuple(*factorize(q).items()) for q in range(2, limit + 1) if len(factorize(q)) == 1]


@pytest.mark.parametrize("p,h", prime_powers_up_to(_pairscan.Q_LIMIT))
def test_lane_encoding_bounds(p, h):
    ctx = make_field(p, h)
    q = ctx.q
    enc, is_zero = _pairscan.lane_encoding(ctx)
    s = (3 * (p - 1)).bit_length()
    lane = (1 << s) - 1
    # each lane holds one base-p digit and has room for a sum of three
    assert 1 << s > 3 * (p - 1)
    for v in range(q):
        assert [(int(enc[v]) >> (s * i)) & lane for i in range(h)] == list(ctx.unpack(v))
    # a sum of three encodings fits the lane dtype, and so do the column keys
    assert enc.dtype == np.uint16
    assert 3 * int(enc.max()) < 1 << (s * h) <= 1 << 16
    mix = _pairscan._constants(ctx)[4]
    assert int((mix @ np.full(6, q - 1)).max()) + 2 <= np.iinfo(np.uint16).max
    # the zero test (a lane bit test for p = 2, 3, a table otherwise) marks
    # exactly the sums whose lanes are all 0 mod p, over every value a sum
    # can take: each lane at most 3(p - 1).  That is all 2^(s*h) values
    # except at p = 3, where a lane never holds 7.
    lanes = [[(v >> (s * i)) & lane for i in range(h)] for v in range(1 << (s * h))]
    t = np.array([v for v, ls in enumerate(lanes) if max(ls) <= 3 * (p - 1)], dtype=np.uint16)
    assert len(t) == (3 * p - 2) ** h
    assert is_zero(t).tolist() == [all(ls_i % p == 0 for ls_i in lanes[v]) for v in t.tolist()]
    # ... which are exactly the sums of three encodings adding to 0 in F_q
    a, b, c = (g.ravel() for g in np.meshgrid(*[np.arange(q)] * 3, indexing="ij"))
    field_zero = ctx.v_add(ctx.v_add(a, b), c) == 0
    assert (is_zero(enc[a] + enc[b] + enc[c]) == field_zero).all()


@pytest.mark.parametrize("q", [9, 16, 27])
def test_lane_bit_test_matches_table_fallback(q, monkeypatch):
    # the same scans with the zero test forced to the table lookup of p >= 5
    ctx = make_field(*tuple(*factorize(q).items()))
    rng = random.Random(2000 + q)
    ovoid = kantor_simple(ctx) if ctx.p == 2 else ree_tits(ctx) if q == 27 else None
    # full scans up to q = 16; at q = 27 early exit only
    fulls = (True, False) if q < 27 else (False,)
    cases = [(rand_spec(ctx, rng).value_tables(), full) for full in fulls for _ in range(3)]
    if ovoid is not None:
        # the only zero pair lies in the fourth block (512 rows per block
        # at q = 16, 106 at q = 27)
        planted = _with_planted_pair(ovoid, 1600 if q == 16 else 330, q ** 3 - 5)
        cases += [(planted, full) for full in fulls]

    def scans():
        return [(r.zero_pairs, r.first_zero, r.pairs_checked)
                for tables, full in cases for threads in (1, 2)
                for r in [_pairscan.pair_scan(ctx, tables, early_exit=not full,
                                              threads=threads)]]

    _pairscan._constants.cache_clear()
    bit = scans()
    monkeypatch.setattr(_pairscan, "_LANE_TESTS", {})
    _pairscan._constants.cache_clear()
    try:
        assert _pairscan._constants(ctx)[1].__name__ == "take"
        assert scans() == bit
    finally:
        _pairscan._constants.cache_clear()
    # the scans found zeros, and the planted pair is found past the first block
    assert any(first is not None for _, first, _ in bit)
    if ovoid is not None:
        assert bit[-1][1] == (1600 if q == 16 else 330, q ** 3 - 5)


def test_lane_encoding_refuses_fields_past_16_bits():
    with pytest.raises(Unsupported):
        _pairscan.lane_encoding(make_field(2, 8))
