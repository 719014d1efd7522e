"""Exhaustive and pruned searches over parameterizing triples and
factorization witnesses.

Coefficient vectors are ordered per-component (f1, f2, f3), monomials in
descending graded-lexicographic order inside each component, and are
enumerated lexicographically (last position fastest); every reported hit
is re-derivable from its candidate index.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from . import _pairscan
from .errors import BudgetExceeded, DependentBasis, ParseError, Unsupported
from .ff import ExtCtx, FieldCtx, TowerElem
from .mpoly import MPoly, unpack_exps
from .quadric import OvoidSpec


def triple_monomials(max_degree: int) -> List[Tuple[int, int, int]]:
    """Constant-free monomials up to max_degree, descending graded-lex."""
    out = [m for m in itertools.product(range(max_degree + 1), repeat=3)
           if 1 <= sum(m) <= max_degree]
    return sorted(out, key=lambda m: (sum(m), m), reverse=True)


MaskValue = Union[int, str]


@dataclass
class SearchConfig:
    """A search's coefficient space, resolved once at construction into its
    monomials, pinned positions (position -> value) and free positions."""
    ctx: FieldCtx
    max_degree: int = 2
    restriction: Union[str, Dict[str, Dict[str, MaskValue]]] = "full"
    budget: int = 1 << 28

    def __post_init__(self):
        if self.max_degree not in (2, 3):
            raise Unsupported("search supports max_degree 2 or 3")
        self._monos = triple_monomials(self.max_degree)
        # each monomial as MPoly.render writes it, for reports of hits
        self._mono_text = [MPoly.from_dict(self.ctx, 3, {m: 1}).render() for m in self._monos]
        self._fixed = self._pins()
        self._free = [i for i in range(3 * len(self._monos)) if i not in self._fixed]

    def _pins(self) -> Dict[int, int]:
        monos, q = self._monos, self.ctx.q
        n = len(monos)
        if self.restriction == "full":
            return {}
        if self.restriction == "homogeneous-top":
            return {i * n + j: 0
                    for i in range(3)
                    for j, m in enumerate(monos) if sum(m) != self.max_degree}
        if not isinstance(self.restriction, dict):
            raise Unsupported(f"unknown restriction {self.restriction!r}")
        fixed = {}
        index = {m: j for j, m in enumerate(monos)}
        for fi, fname in enumerate(("f1", "f2", "f3")):
            pins = self.restriction.get(fname) or {}
            if not isinstance(pins, dict):
                raise ParseError(f'mask {fname!r} must map monomials to integers or "free"')
            seen = {}                   # monomial -> the key that named it
            for mono_text, val in pins.items():
                if not (type(val) is int or isinstance(val, str)):
                    raise ParseError(f'mask {fname!r} must map monomials to integers or "free"; '
                                     f'key {mono_text!r} holds {val!r}')
                probe = MPoly.parse(mono_text, self.ctx, 3)
                if len(probe.terms) != 1:
                    raise Unsupported(f"mask key {mono_text!r} is not a monomial")
                (key, c), = probe.terms.items()
                if c != 1:
                    raise Unsupported(f"mask key {mono_text!r} has a coefficient")
                exps = unpack_exps(key, 3)
                if exps not in index:
                    raise Unsupported(f"monomial {mono_text!r} outside degree bound")
                if exps in seen:
                    raise ParseError(f"mask {fname!r} names one monomial twice: keys "
                                     f"{seen[exps]!r} and {mono_text!r}")
                seen[exps] = mono_text
                if isinstance(val, str):
                    if val != "free":
                        raise Unsupported(f"mask value {val!r} not an integer or 'free'")
                    continue
                if not 0 <= val < q:
                    raise ParseError(f"mask {fname!r} key {mono_text!r}: value {val} "
                                     f"outside [0, {q})")
                fixed[fi * n + index[exps]] = val
        return fixed

    def candidate_count(self) -> int:
        return self.ctx.q ** len(self._free)

    def vector(self, candidate_index: int) -> List[int]:
        """The coefficient vector of one candidate."""
        q = self.ctx.q
        vec = [self._fixed.get(pos, 0) for pos in range(3 * len(self._monos))]
        k = candidate_index
        for pos in reversed(self._free):    # last free position varies fastest
            vec[pos] = k % q
            k //= q
        return vec

    def batch_spec_lines(self, indices: List[int]) -> List[List[str]]:
        """[spec_from_index(self, i).render_lines() for i in indices] in one
        pass, joined from the monomial texts (already in MPoly's render
        order): each index splits into its three components' block numbers,
        and each distinct block gets its base-q digits (one array division
        per free position) and is joined into text once."""
        q, n = self.ctx.q, len(self._monos)
        k = np.asarray(indices, dtype=object)   # Python ints: q^60 at degree 3 passes int64
        texts = []
        for c in reversed(range(3)):
            free = [pos - c * n for pos in self._free if pos // n == c]
            k, block = k // q ** len(free), k % q ** len(free)
            blocks, inv = np.unique(block, return_inverse=True)
            vecs = np.tile([self._fixed.get(c * n + j, 0) for j in range(n)], (len(blocks), 1))
            for j in reversed(free):        # last free position varies fastest
                blocks, vecs[:, j] = blocks // q, blocks % q
            lines = ["+".join(t if c == 1 else f"{c}*{t}"
                              for t, c in zip(self._mono_text, v) if c) or "0"
                     for v in vecs.tolist()]
            texts.insert(0, [lines[b] for b in inv.tolist()])
        return [list(spec) for spec in zip(*texts)]


@dataclass
class SearchResult:
    candidates_tested: int
    found_indices: List[int]          # candidate indices in enumeration order
    config: SearchConfig
    elapsed: float

    def to_json_dict(self, max_listed: int = 1000) -> dict:
        listed = self.found_indices[:max_listed]
        return {
            "candidates_tested": self.candidates_tested,
            "ovoids_found": len(self.found_indices),
            "specs": self.config.batch_spec_lines(listed),
            "candidate_indices": [int(i) for i in self.found_indices],
            "truncated": len(self.found_indices) > max_listed,
            "elapsed_ms": round(self.elapsed * 1000.0, 3),
        }


def spec_from_index(cfg: SearchConfig, candidate_index: int) -> OvoidSpec:
    """The triple of one candidate."""
    monos = cfg._monos
    n = len(monos)
    vec = cfg.vector(candidate_index)
    polys = []
    for i in range(3):
        d = {m: vec[i * n + j] for j, m in enumerate(monos) if vec[i * n + j]}
        polys.append(MPoly.from_dict(cfg.ctx, 3, d))
    return OvoidSpec(cfg.ctx, *polys)


def index_of_spec(cfg: SearchConfig, spec: OvoidSpec) -> Optional[int]:
    """The candidate index of a triple, or None outside the search space."""
    monos = cfg._monos
    polys = spec.polys()
    if any(unpack_exps(key, 3) not in monos for f in polys for key in f.terms):
        return None
    vec = [f.coeff_raw(m) for f in polys for m in monos]
    if any(vec[pos] != val for pos, val in cfg._fixed.items()):
        return None
    idx = 0
    for pos in cfg._free:
        idx = idx * cfg.ctx.q + vec[pos]
    return idx


# Table entries in one chunk of a component's blocks, and bitset words
# gathered by the prefilter in one step.
CHUNK_ELEMS = 1 << 22
STEP_ELEMS = 1 << 18


def exhaustive_triple_search(cfg: SearchConfig) -> SearchResult:
    """Enumerate coefficient vectors and keep those defining ovoids.

    The candidate count is computed before starting; a BudgetExceeded
    error carries it.

    A verdict depends only on the value tables of f1, f2 and f3 on the q^3
    grid.  Free positions are ordered component by component, last fastest,
    so a candidate index is k = (k1*Q2 + k2)*Q3 + k3, where k_c numbers the
    Q_c coefficient blocks of component c.  Each component's blocks are
    evaluated once, in chunks of at most CHUNK_ELEMS table entries, and
    deduplicated (at q = 2, x^2 = x folds the 512 blocks of a component to
    64 tables).  Every triple of distinct tables then passes an exact
    prefilter on two rows of the pair table: the origin against every other
    point (x f3 + y f2 + z f1 != 0), then, for the survivors only, the point
    (1, 0, 0) against the points past it.  Each component contributes one
    field value per column of a row, V[t, j] = (u_i - u_j)(g_t[j] - g_t[i]).

    The origin row is tested bit-parallel.  Of the current chunk triple,
    the component k with the most tables (the last on a tie) is packed into
    uint64 words: bits[j, v] holds the tables of k whose value at column j
    is v.  For each pair (a, b) of tables of the other two components, one
    gather of bits[j, -(V[a, j] + V[b, j])] and an OR over the columns give
    the tables of k that the pair rejects, 64 per word.  Survivors of both
    rows get an early-exit pair scan (at q = 2, 64 of the 2,048 that pass
    the origin row, 8 of them ovoid table triples).  The blocks of each
    passing triple expand to candidate indices, returned in increasing
    order.
    """
    count = cfg.candidate_count()
    if count > cfg.budget:
        raise BudgetExceeded(count, cfg.budget)
    t0 = time.perf_counter()
    ctx = cfg.ctx
    q = ctx.q
    monos, fixed = cfg._monos, cfg._fixed
    n = len(monos)

    # value tables of each monomial on the q^3 grid, in scan order
    xs, ys, zs = _pairscan.coordinate_arrays(q)
    mono_vals = np.stack([
        _pairscan.eval_on_grid(MPoly.from_dict(ctx, 3, {m: 1}), ctx, xs, ys, zs)
        for m in monos
    ])                                                    # (n, q^3)
    npts = q ** 3
    us = (zs, ys, xs)                                     # f1 pairs with z, f2 with y, f3 with x

    # per component: pinned coefficients, free monomials, and how many of
    # the last free positions one chunk enumerates (q^low blocks)
    comps = []
    for c in range(3):
        coeffs = [fixed.get(c * n + j, 0) for j in range(n)]
        free = [i - c * n for i in cfg._free if i // n == c]
        low = 0
        while low < len(free) and q ** (low + 1) * npts <= CHUNK_ELEMS:
            low += 1
        comps.append((coeffs, free, low))
    sizes = [q ** len(free) for _, free, _ in comps]
    current: List[Optional[_Chunk]] = [None] * 3

    def part(c: int, chunk: int) -> _Chunk:
        """Component c's current chunk, rebuilt when the chunk changes."""
        if current[c] is None or current[c].chunk != chunk:
            coeffs, free, low = comps[c]
            tabs, inv = _chunk_tables(ctx, mono_vals, coeffs, free, low, chunk)
            current[c] = _Chunk(chunk, tabs, _row_values(ctx, us[c], tabs, 0), chunk * q ** low, inv)
        return current[c]

    found = []
    for chunks in itertools.product(*(range(q ** (len(free) - low)) for _, free, low in comps)):
        parts = [part(c, ch) for c, ch in enumerate(chunks)]
        k = max(range(3), key=lambda c: (len(parts[c].tabs), c))
        i, j = (c for c in range(3) if c != k)
        if parts[k].bits is None:
            parts[k].bits = _origin_bits(q, parts[k].row0)
        vi, vj = parts[i].row0, parts[j].row0
        step = max(1, STEP_ELEMS // ((npts - 1) * parts[k].bits.shape[1]))
        for lo in range(0, len(vi) * len(vj), step):
            a, b = np.divmod(np.arange(lo, min(lo + step, len(vi) * len(vj))), len(vj))
            r, t = _origin_survivors(ctx, parts[k].bits, vi[a], vj[b])
            rows = [None] * 3
            rows[i], rows[j], rows[k] = a[r], b[r], t
            row1 = functools.reduce(ctx.v_add, (_row_values(ctx, u, p.tabs[rr], 1)
                                                for u, p, rr in zip(us, parts, rows)))
            for triple in zip(*(rr[row1.all(axis=1)] for rr in rows)):
                tables = (xs, ys, zs) + tuple(p.tabs[row] for p, row in zip(parts, triple))
                if _pairscan.pair_scan(ctx, tables, early_exit=True).first_zero is None:
                    k1, k2, k3 = (p.first + np.flatnonzero(p.inv == row)
                                  for p, row in zip(parts, triple))
                    found.append(((k1[:, None, None] * sizes[1] + k2[:, None]) * sizes[2]
                                  + k3).ravel())
    found = np.sort(np.concatenate(found)).tolist() if found else []
    return SearchResult(candidates_tested=count, found_indices=found,
                        config=cfg, elapsed=time.perf_counter() - t0)


@dataclass(eq=False)
class _Chunk:
    """One chunk of a component's blocks: its distinct value tables, their
    origin-row values (_row_values), its first block, the table of each
    block, and the origin row's bits (_origin_bits), built when the search
    first packs this component."""
    chunk: int
    tabs: np.ndarray
    row0: np.ndarray
    first: int
    inv: np.ndarray
    bits: Optional[np.ndarray] = None


def _row_values(ctx: FieldCtx, u, tabs, i: int):
    """vals[t, j - i - 1] = (u_i - u_j)(g_j - g_i) for each value table
    g = tabs[t] and every point j > i: one component's term of row i of the
    pair table."""
    return ctx.v_mul(ctx.v_sub(u[i], u[None, i + 1:]), ctx.v_sub(tabs[:, i + 1:], tabs[:, i:i + 1]))


def _origin_bits(q: int, vals):
    """bits[j*q + v, w]: bit b of word w is set iff table 64*w + b has the
    value v at column j of vals (one component's origin row).  The padding
    bits of the last word are set for every value of column 0, so no
    padding table survives."""
    tables, width = vals.shape
    padded = np.full((width, -(-tables // 64) * 64), q, dtype=np.int16)   # q matches no value
    padded[:, :tables] = vals.T
    bits = np.stack([np.packbits(padded == v, axis=1, bitorder="little").view("<u8")
                     for v in range(q)], axis=1).reshape(width * q, -1)
    bits[:q, -1] |= np.uint64(((1 << 64) - 1) ^ ((1 << tables % 64) - 1) if tables % 64 else 0)
    return bits


def _origin_survivors(ctx: FieldCtx, bits, va, vb):
    """(r, t) for every table t of the packed component whose origin-row
    values, packed in bits (see _origin_bits), leave va[r] + vb[r] + V[t]
    nonzero at every column: one gather of bits[j, -(va + vb)[r, j]] and an
    OR over the columns j give each pair's rejected tables."""
    target = ctx.v_sub(0, ctx.v_add(va, vb))
    alive = ~np.bitwise_or.reduce(bits[np.arange(va.shape[1]) * ctx.q + target], axis=1)
    some = np.flatnonzero(alive.any(axis=1))
    r, t = np.nonzero(np.unpackbits(alive[some].view(np.uint8), axis=1, bitorder="little"))
    return some[r], t


def _chunk_tables(ctx: FieldCtx, mono_vals, coeffs, free, low: int, chunk: int):
    """Distinct value tables of one chunk of a component's blocks.

    The chunk pins the free positions before the last `low` ones to the
    base-q digits of `chunk` and enumerates the last `low`, last fastest.
    Returns the distinct tables (one row each) and the row of each block.
    """
    coeffs = list(coeffs)
    head, tail = free[:len(free) - low], free[len(free) - low:]
    for j in reversed(head):
        chunk, coeffs[j] = divmod(chunk, ctx.q)
    vals = np.zeros((1, mono_vals.shape[1]), dtype=np.int64)
    for j, cj in enumerate(coeffs):
        if cj and j not in tail:
            vals = ctx.v_add(vals, ctx.v_mul(np.int64(cj), mono_vals[j]))
    scaled = np.arange(ctx.q)[:, None]
    for j in tail:
        vals = ctx.v_add(vals[:, None, :], ctx.v_mul(scaled, mono_vals[j])[None]).reshape(
            -1, vals.shape[1])
    # one byte per entry (the pair kernel's lanes need q < 148), so each
    # table compares as one byte string, much faster than unique(axis=0)
    rows = np.ascontiguousarray(vals, dtype=np.uint8).view(np.dtype((np.void, vals.shape[1])))
    _, first, inv = np.unique(rows.ravel(), return_index=True, return_inverse=True)
    return vals[first], inv


# ---------------------------------------------------------------------------
# quartic-extension witness search


@dataclass
class WitnessSearchReport:
    independent_pairs: List[Tuple[TowerElem, TowerElem]]
    dependent_pairs: int
    pairs_scanned: int
    elapsed: float

    def to_json_dict(self) -> dict:
        return {
            "independent_pairs": [[list(a.coords), list(b.coords)]
                                  for a, b in self.independent_pairs],
            "dependent_pairs": self.dependent_pairs,
            "pairs_scanned": self.pairs_scanned,
            "elapsed_ms": round(self.elapsed * 1000.0, 3),
        }


def _independent_of_one(ext: ExtCtx, alphas, betas):
    """Mask of the packed pairs with {1, alpha, beta} independent over F_q.

    1 has coordinates (1, 0, ..., 0), so the set is independent iff the
    coordinates 1..n-1 of alpha and beta have rank 2: some 2x2 minor
    a_i b_j - a_j b_i is nonzero.
    """
    base = ext.base
    q = ext.q
    a = [(alphas // q ** i) % q for i in range(1, ext.n)]
    b = [(betas // q ** i) % q for i in range(1, ext.n)]
    out = np.zeros(np.shape(alphas), dtype=bool)
    for i, j in itertools.combinations(range(ext.n - 1), 2):
        out |= base.v_sub(base.v_mul(a[i], b[j]), base.v_mul(a[j], b[i])) != 0
    return out


# (alpha, beta) pairs one witness search may scan
WITNESS_PAIR_BUDGET = 10 ** 8


def hyperplane_witness_search(ext: ExtCtx) -> WitnessSearchReport:
    """Scan all (alpha, beta) pairs of the quartic extension against the
    trace conditions forced by a four-hyperplane split.

    Returns independent witnesses (none exist) plus a count of the pairs
    that satisfy the traces with {1, alpha, beta} dependent.  Conditions
    3-6 are evaluated at once on the (alpha, beta) grid of the elements
    that pass the single-element condition, alpha along rows.
    """
    if ext.n != 4:
        raise Unsupported("the four-hyperplane case lives in a quartic extension")
    if ext.base.p != 3:
        raise Unsupported("a four-hyperplane split forces characteristic 3")
    N = ext.order
    if N * N > WITNESS_PAIR_BUDGET:
        raise Unsupported(f"{N * N} pairs exceed budget {WITNESS_PAIR_BUDGET}")
    t0 = time.perf_counter()
    a = np.arange(N, dtype=np.int64)
    fr = ext.v_frobenius
    mul = ext.v_mul
    add = ext.v_add
    tr4 = ext.v_trace

    def tr42(x):
        return add(x, fr(fr(x)))

    a1 = fr(a)
    a2 = fr(a1)
    # single-element condition: Tr_4(x^{q+1}) + Tr_{4/2}(x^{q^2+1}) = 0
    x0 = np.flatnonzero(add(tr4(mul(a, a1)), tr42(mul(a, a2))) == 0)
    x1 = fr(x0)
    x2 = fr(x1)
    x3 = fr(x2)
    sum_123 = add(add(x1, x2), x3)                           # x^q + x^{q^2} + x^{q^3}
    cross = add(add(mul(x2, x1), mul(x3, x1)), mul(x3, x2))  # x^{q^2+q} + x^{q^3+q} + x^{q^3+q^2}
    # conditions 3-6 on the grid: alpha along rows, beta along columns
    # cond3: Tr_4(alpha^{q+1} beta^{q^3+q^2}) + Tr_{4/2}(alpha^{q^2+1} beta^{q^3+q}) = 0
    c3 = add(tr4(mul(mul(x0, x1)[:, None], mul(x3, x2)[None, :])),
             tr42(mul(mul(x0, x2)[:, None], mul(x3, x1)[None, :])))
    # cond4: Tr_4(alpha (beta^q + beta^{q^2} + beta^{q^3})) = 0
    c4 = tr4(mul(x0[:, None], sum_123[None, :]))
    # cond5: Tr_4(beta (alpha^{q^2+q} + alpha^{q^3+q} + alpha^{q^3+q^2})) = 0
    c5 = tr4(mul(cross[:, None], x0[None, :]))
    # cond6: Tr_4(alpha (beta^{q^2+q} + beta^{q^3+q} + beta^{q^3+q^2})) = 0
    c6 = tr4(mul(x0[:, None], cross[None, :]))
    rows, cols = np.nonzero((c3 == 0) & (c4 == 0) & (c5 == 0) & (c6 == 0))
    alphas, betas = x0[rows], x0[cols]
    indep = _independent_of_one(ext, alphas, betas)
    return WitnessSearchReport(
        independent_pairs=[(ext.from_packed(int(x)), ext.from_packed(int(y)))
                           for x, y in zip(alphas[indep], betas[indep])],
        dependent_pairs=int(np.count_nonzero(~indep)),
        pairs_scanned=N * N,
        elapsed=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# degree-2 basis recognition


def recognize_kantor_even(spec: OvoidSpec):
    """Brute-force basis scan: the first (alpha, beta) in packed order whose
    closed-form degree-2 triple is the given triple, or None.

    The scan prefilters on six of the trace/norm values that the closed form
    places in the triple, compares the closed form of each survivor with the
    triple, and confirms the match with the exact residual.
    """
    from .hypersurface import HyperplaneWitness, deg2_triple, hyperplane_product_residual

    ctx = spec.ctx
    if ctx.p != 2:
        raise Unsupported("basis recognition applies in characteristic 2")
    if ctx.q ** 3 > 1 << 12:
        raise Unsupported("basis scan supports q^3 <= 4096")
    if spec.degree != 2:
        return None    # no split exists outside degree 2 (zero triple included)
    f1, f2, f3 = spec.polys()
    ext = ExtCtx(ctx, 3)
    e = np.arange(ext.order, dtype=np.int64)
    tr = ext.v_trace
    tr_e = tr(e)
    nrm_e = ext.v_norm(e)
    tr_q1 = tr(ext.v_mul(e, ext.v_frobenius(e)))
    # x^2 and y^2 of f2 and y^2 of f3 are Tr a, N a, Tr a^(q+1); x^2 and
    # z^2 of f1 and z^2 of f3 are the same values of b
    alphas = np.flatnonzero((tr_e == f2.coeff_raw((2, 0, 0))) & (nrm_e == f2.coeff_raw((0, 2, 0)))
                            & (tr_q1 == f3.coeff_raw((0, 2, 0))))
    betas = np.flatnonzero((tr_e == f1.coeff_raw((2, 0, 0))) & (nrm_e == f1.coeff_raw((0, 0, 2)))
                           & (tr_q1 == f3.coeff_raw((0, 0, 2))))
    for ap in alphas:
        for bp in betas:
            try:
                w = HyperplaneWitness(ext, ext.from_packed(int(ap)), ext.from_packed(int(bp)))
            except DependentBasis:
                continue
            if (deg2_triple(w).polys() == spec.polys()
                    and hyperplane_product_residual(spec, w).is_zero()):
                return w
    return None
