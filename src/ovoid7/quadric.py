"""Geometry of the hyperbolic quadric in PG(7, q).

The quadric is Q = X0*X7 + X1*X6 + X2*X5 + X3*X4.  A parameterizing
triple (f1, f2, f3) of polynomials over F_q with f_i(0,0,0) = 0 yields
the q^3 + 1 candidate points

    (1, x, y, z, f1, f2, f3, -(z*f1 + y*f2 + x*f3))   and   (0,...,0,1),

all of which lie on Q by construction.  The candidate set is an ovoid
exactly when the polarization value of every distinct pair of affine
points is nonzero; `verify_ovoid` checks this exhaustively.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import _pairscan
from .errors import NonzeroAtOrigin, FieldMismatch, Unsupported
from .ff import Fe, FieldCtx
from .mpoly import MPoly

VERIFY_Q_LIMIT = 64          # full pair scans above this are impractical
GENERATOR_Q_LIMIT = 3

Point = Tuple[int, ...]
Triple = Tuple[int, int, int]


def normalize_point(ctx: FieldCtx, coords: Sequence[int]) -> Point:
    """Scale so the first nonzero coordinate is 1; idempotent."""
    coords = tuple(int(c) for c in coords)
    if len(coords) != 8 or not any(coords):
        raise Unsupported("projective point needs 8 coordinates, not all zero")
    for c in coords:
        if c:
            if c == 1:
                return coords
            inv = ctx.inv(c)
            return tuple(ctx.mul(inv, x) for x in coords)
    raise Unsupported("unreachable")  # pragma: no cover


def quadric_value(ctx: FieldCtx, pt: Sequence[int]) -> int:
    acc = ctx.mul(pt[0], pt[7])
    acc = ctx.add(acc, ctx.mul(pt[1], pt[6]))
    acc = ctx.add(acc, ctx.mul(pt[2], pt[5]))
    return ctx.add(acc, ctx.mul(pt[3], pt[4]))


def bilinear(ctx: FieldCtx, pt: Sequence[int], rt: Sequence[int]) -> Fe:
    """Polarization of Q: symmetric for odd q, alternating for even q."""
    acc = 0
    for i, j in ((0, 7), (1, 6), (2, 5), (3, 4)):
        acc = ctx.add(acc, ctx.mul(pt[i], rt[j]))
        acc = ctx.add(acc, ctx.mul(pt[j], rt[i]))
    return Fe(ctx, acc)


@dataclass(frozen=True)
class OvoidSpec:
    """A parameterizing triple over F_q."""

    ctx: FieldCtx
    f1: MPoly
    f2: MPoly
    f3: MPoly

    def __post_init__(self):
        for f in (self.f1, self.f2, self.f3):
            if f.ctx is not self.ctx or f.nvars != 3:
                raise FieldMismatch("triple must be 3-variable polynomials over ctx")
            if f.coeff_raw((0, 0, 0)) != 0:
                raise NonzeroAtOrigin("parameterizing polynomials must vanish at the origin")

    @property
    def degree(self) -> int:
        return max(0, self.f1.degree(), self.f2.degree(), self.f3.degree())

    @property
    def q(self) -> int:
        return self.ctx.q

    def polys(self) -> Tuple[MPoly, MPoly, MPoly]:
        return (self.f1, self.f2, self.f3)

    def render_lines(self) -> List[str]:
        return [f.render() for f in self.polys()]

    @classmethod
    def from_lines(cls, ctx: FieldCtx, lines: Sequence[str]) -> "OvoidSpec":
        polys = [MPoly.parse(s, ctx, 3) for s in lines]
        if len(polys) != 3:
            raise Unsupported("a triple needs exactly three polynomials")
        return cls(ctx, *polys)

    def value_tables(self):
        """(x, y, z, f1, f2, f3) int64 arrays over all q^3 triples in scan order."""
        ctx = self.ctx
        xs, ys, zs = _pairscan.coordinate_arrays(ctx.q)
        f1 = _pairscan.eval_on_grid(self.f1, ctx, xs, ys, zs)
        f2 = _pairscan.eval_on_grid(self.f2, ctx, xs, ys, zs)
        f3 = _pairscan.eval_on_grid(self.f3, ctx, xs, ys, zs)
        return xs, ys, zs, f1, f2, f3

    def __repr__(self):
        return f"OvoidSpec(q={self.q}, {self.f1.render()!r}, {self.f2.render()!r}, {self.f3.render()!r})"


def collinearity_value(spec: OvoidSpec, t1: Triple, t2: Triple) -> Fe:
    """The pairwise obstruction value; zero means the two points are collinear."""
    ctx = spec.ctx
    v1 = [int(spec.f1.eval_raw(t1)), int(spec.f2.eval_raw(t1)), int(spec.f3.eval_raw(t1))]
    v2 = [int(spec.f1.eval_raw(t2)), int(spec.f2.eval_raw(t2)), int(spec.f3.eval_raw(t2))]
    acc = 0
    for a1, a2, g1, g2 in (
        (t1[0], t2[0], v1[2], v2[2]),
        (t1[1], t2[1], v1[1], v2[1]),
        (t1[2], t2[2], v1[0], v2[0]),
    ):
        acc = ctx.add(acc, ctx.mul(ctx.sub(a1, a2), ctx.sub(g2, g1)))
    return Fe(ctx, acc)


def ovoid_points(spec: OvoidSpec) -> List[Point]:
    """The q^3 affine candidate points plus the distinguished point at infinity."""
    ctx = spec.ctx
    xs, ys, zs, f1, f2, f3 = spec.value_tables()
    pts: List[Point] = []
    for k in range(ctx.q ** 3):
        x, y, z = int(xs[k]), int(ys[k]), int(zs[k])
        a, b, c = int(f1[k]), int(f2[k]), int(f3[k])
        last = ctx.neg(ctx.add(ctx.add(ctx.mul(z, a), ctx.mul(y, b)), ctx.mul(x, c)))
        pts.append((1, x, y, z, a, b, c, last))
    pts.append((0, 0, 0, 0, 0, 0, 0, 1))
    return pts


@dataclass
class VerificationReport:
    is_ovoid: bool
    witness: Optional[Tuple[Triple, Triple]]
    pairs_checked: int
    elapsed: float
    q: int
    degree: int

    def to_json_dict(self) -> dict:
        return {
            "is_ovoid": self.is_ovoid,
            "witness": [list(self.witness[0]), list(self.witness[1])] if self.witness else None,
            "pairs_checked": self.pairs_checked,
            "elapsed_ms": round(self.elapsed * 1000.0, 3),
            "q": self.q,
            "degree": self.degree,
        }


def verify_ovoid(spec: OvoidSpec, threads: int = 1, early_exit: bool = True) -> VerificationReport:
    """Exhaustive pairwise check of the candidate point set.

    The witness, when present, is the first violating pair in scan order
    (x fastest within a triple, first index slowest across the pair).
    """
    ctx = spec.ctx
    if ctx.q > VERIFY_Q_LIMIT:
        raise Unsupported(f"verification supports q <= {VERIFY_Q_LIMIT}")
    t0 = time.perf_counter()
    res = _pairscan.pair_scan(ctx, spec.value_tables(), early_exit=early_exit, threads=threads)
    witness = None
    if res.first_zero is not None:
        i, j = res.first_zero
        witness = (_pairscan.triple_of_index(ctx.q, i), _pairscan.triple_of_index(ctx.q, j))
    return VerificationReport(
        is_ovoid=res.first_zero is None,
        witness=witness,
        pairs_checked=res.pairs_checked,
        elapsed=time.perf_counter() - t0,
        q=ctx.q,
        degree=spec.degree,
    )


# ---------------------------------------------------------------------------
# spread correspondence


def spread_space(spec: OvoidSpec, t: Triple) -> List[List[int]]:
    """Coefficient rows of the four linear forms cutting out the solid S_P.

    Row r is (c0..c7) with sum(c_i X_i) = 0.  The solutions form a
    4-dimensional totally singular subspace for any triple values.
    """
    ctx = spec.ctx
    x, y, z = (int(v) % ctx.q for v in t)
    a = int(spec.f1.eval_raw((x, y, z)))
    b = int(spec.f2.eval_raw((x, y, z)))
    c = int(spec.f3.eval_raw((x, y, z)))
    n = ctx.neg
    return [
        [1, 0, 0, 0, n(z), y, n(x), 0],
        [0, 1, 0, 0, n(b), n(a), 0, x],
        [0, 0, 1, 0, n(c), 0, a, n(y)],
        [0, 0, 0, 1, 0, c, b, z],
    ]


def spread_space_basis(spec: OvoidSpec, t: Triple) -> List[List[int]]:
    """A basis of the solution space of spread_space(spec, t)."""
    ctx = spec.ctx
    x, y, z = (int(v) % ctx.q for v in t)
    a = int(spec.f1.eval_raw((x, y, z)))
    b = int(spec.f2.eval_raw((x, y, z)))
    c = int(spec.f3.eval_raw((x, y, z)))
    n = ctx.neg
    return [
        [z, b, c, 0, 1, 0, 0, 0],
        [n(y), a, 0, n(c), 0, 1, 0, 0],
        [x, 0, n(a), n(b), 0, 0, 1, 0],
        [0, n(x), y, n(z), 0, 0, 0, 1],
    ]


def infinity_space_rows() -> List[List[int]]:
    """Constraint rows of the solid paired with the point at infinity:
    X4 = X5 = X6 = X7 = 0."""
    rows = []
    for i in (4, 5, 6, 7):
        row = [0] * 8
        row[i] = 1
        rows.append(row)
    return rows


def infinity_space_basis() -> List[List[int]]:
    """Basis of the solid X4 = X5 = X6 = X7 = 0 (coordinates X0..X3 free)."""
    rows = []
    for i in (0, 1, 2, 3):
        row = [0] * 8
        row[i] = 1
        rows.append(row)
    return rows


def subspace_points(ctx: FieldCtx, basis: Sequence[Sequence[int]]) -> List[Point]:
    """All distinct projective points spanned by the rows of `basis`."""
    k = len(basis)
    seen = set()
    out = []
    for idx in range(1, ctx.q ** k):
        coeffs = [(idx // ctx.q ** i) % ctx.q for i in range(k)]
        vec = [0] * len(basis[0])
        for c, row in zip(coeffs, basis):
            if c:
                for col, r in enumerate(row):
                    vec[col] = ctx.add(vec[col], ctx.mul(c, r))
        if not any(vec):
            continue
        pt = normalize_point(ctx, vec)
        if pt not in seen:
            seen.add(pt)
            out.append(pt)
    return out


def _rref(ctx: FieldCtx, rows: Sequence[Sequence[int]], ncols: int):
    """Reduced row echelon form over F_q: (rows, pivot columns)."""
    mat = [list(int(c) for c in row) for row in rows]
    pivots = []
    r = 0
    for col in range(ncols):
        if r == len(mat):
            break
        piv = None
        for i in range(r, len(mat)):
            if mat[i][col]:
                piv = i
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = ctx.inv(mat[r][col])
        mat[r] = [ctx.mul(inv, v) for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                f = mat[i][col]
                mat[i] = [ctx.sub(a, ctx.mul(f, b)) for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
    return mat, pivots


def rank(ctx: FieldCtx, rows: Iterable[Sequence[int]]) -> int:
    """Rank over F_q."""
    rows = list(rows)
    return len(_rref(ctx, rows, len(rows[0]) if rows else 0)[1])


# ---------------------------------------------------------------------------
# rank-distance matrix set


class KerdockMatrix:
    """A 4x4 skew-symmetric matrix attached to one parameter triple."""

    __slots__ = ("ctx", "triple", "m")

    def __init__(self, ctx: FieldCtx, triple: Triple, m: Sequence[Sequence[int]]):
        self.ctx = ctx
        self.triple = tuple(triple)
        self.m = tuple(tuple(int(c) for c in row) for row in m)
        for i in range(4):
            if self.m[i][i] != 0:
                raise Unsupported("skew matrix needs a zero diagonal")
            for j in range(4):
                if self.m[i][j] != ctx.neg(self.m[j][i]):
                    raise Unsupported("matrix is not skew-symmetric")

    def upper(self) -> Tuple[int, int, int, int, int, int]:
        m = self.m
        return (m[0][1], m[0][2], m[0][3], m[1][2], m[1][3], m[2][3])

    def __eq__(self, other):
        return isinstance(other, KerdockMatrix) and other.m == self.m

    def __hash__(self):
        return hash(self.m)


def kerdock_set(spec: OvoidSpec) -> List[KerdockMatrix]:
    """One matrix per parameter triple, in scan order."""
    ctx = spec.ctx
    xs, ys, zs, f1, f2, f3 = spec.value_tables()
    n = ctx.neg
    out = []
    for k in range(ctx.q ** 3):
        x, y, z = int(xs[k]), int(ys[k]), int(zs[k])
        a, b, c = int(f1[k]), int(f2[k]), int(f3[k])
        m = (
            (0, x, n(y), z),
            (n(x), 0, a, b),
            (y, n(a), 0, c),
            (n(z), n(b), n(c), 0),
        )
        out.append(KerdockMatrix(ctx, (x, y, z), m))
    return out


def pfaffian4(ctx: FieldCtx, upper: Sequence[int]) -> int:
    """Pfaffian of a 4x4 skew matrix given (m01, m02, m03, m12, m13, m23)."""
    m01, m02, m03, m12, m13, m23 = upper
    acc = ctx.mul(m01, m23)
    acc = ctx.sub(acc, ctx.mul(m02, m13))
    return ctx.add(acc, ctx.mul(m03, m12))


def det4(ctx: FieldCtx, m: Sequence[Sequence[int]]) -> int:
    """Cofactor-expansion determinant; the slow cross-check for pfaffian4."""
    idx = list(range(4))

    def det(rows, cols):
        if len(rows) == 1:
            return m[rows[0]][cols[0]]
        acc = 0
        sign = 1
        for k, c in enumerate(cols):
            sub = det(rows[1:], cols[:k] + cols[k + 1:])
            term = ctx.mul(m[rows[0]][c], sub)
            acc = ctx.add(acc, term if sign > 0 else ctx.neg(term))
            sign = -sign
        return acc

    return det(idx, idx)


def kerdock_check(mats: Sequence[KerdockMatrix]) -> bool:
    """True iff every difference of two distinct matrices is nonsingular."""
    if not mats:
        return True
    ctx = mats[0].ctx
    ups = [m.upper() for m in mats]
    n = len(ups)
    for i in range(n):
        ui = ups[i]
        for j in range(i + 1, n):
            uj = ups[j]
            diff = tuple(ctx.sub(a, b) for a, b in zip(ui, uj))
            if pfaffian4(ctx, diff) == 0:
                return False
    return True


# ---------------------------------------------------------------------------
# generator enumeration (small q oracle)


@functools.lru_cache(maxsize=4)
def enumerate_generators(ctx: FieldCtx) -> List[Tuple[Point, ...]]:
    """All maximal totally singular subspaces, as reduced-echelon 4x8 bases.

    Exhaustive DFS over echelon rows; practical for q in {2, 3} only.
    The count always equals 2(q+1)(q^2+1)(q^3+1).
    """
    if ctx.q > GENERATOR_Q_LIMIT:
        raise Unsupported(f"generator enumeration supports q <= {GENERATOR_Q_LIMIT}")
    q = ctx.q

    def bil(u, v):
        acc = 0
        for i, j in ((0, 7), (1, 6), (2, 5), (3, 4)):
            acc = ctx.add(acc, ctx.mul(u[i], v[j]))
            acc = ctx.add(acc, ctx.mul(u[j], v[i]))
        return acc

    def reduce_rows(rows, piv_cols, new_row, new_piv):
        # clear the new pivot column from earlier rows (keeps RREF shape)
        out = []
        for row in rows:
            c = row[new_piv]
            if c:
                row = tuple(ctx.sub(a, ctx.mul(c, b)) for a, b in zip(row, new_row))
            out.append(row)
        return out

    results = set()
    visited = set()

    def span_candidates(basis, last_piv):
        """Normalized singular vectors in the span with pivot beyond last_piv."""
        k = len(basis)
        if k == 0:
            return
        idx = np.arange(1, q ** k, dtype=np.int64)
        cols = []
        for col in range(8):
            acc = np.zeros_like(idx)
            for i, brow in enumerate(basis):
                c = brow[col]
                if c:
                    coeff = (idx // q ** i) % q
                    acc = ctx.v_add(acc, ctx.v_mul(coeff, np.full_like(idx, c)))
            cols.append(acc)
        arr = np.stack(cols, axis=1)
        # pivot = first nonzero column; require normalized and past last_piv
        nz = arr != 0
        has = nz.any(axis=1)
        piv = np.where(has, nz.argmax(axis=1), 8)
        lead = arr[np.arange(len(arr)), np.minimum(piv, 7)]
        ok = has & (piv > last_piv) & (lead == 1)
        qv = ctx.v_add(ctx.v_add(ctx.v_mul(arr[:, 0], arr[:, 7]),
                                 ctx.v_mul(arr[:, 1], arr[:, 6])),
                       ctx.v_add(ctx.v_mul(arr[:, 2], arr[:, 5]),
                                 ctx.v_mul(arr[:, 3], arr[:, 4])))
        ok &= qv == 0
        for row_idx in np.flatnonzero(ok):
            vec = tuple(int(v) for v in arr[row_idx])
            yield vec, int(piv[row_idx])

    def extend(rows, piv_cols):
        if len(rows) == 4:
            # reduction keeps rows in reduced echelon form, which is unique
            # per subspace, so distinct chains to one solid collide here
            results.add(tuple(rows))
            return
        if rows:
            key = tuple(rows)
            if key in visited:
                return
            visited.add(key)
        # linear constraints: zero at existing pivots, orthogonal to rows
        cons = []
        for pc in piv_cols:
            row = [0] * 8
            row[pc] = 1
            cons.append(row)
        for r in rows:
            cons.append([r[7], r[6], r[5], r[4], r[3], r[2], r[1], r[0]])
        basis = nullspace(ctx, cons)
        last_piv = piv_cols[-1] if piv_cols else -1
        for vec, piv in span_candidates(basis, last_piv):
            new_rows = reduce_rows(rows, piv_cols, vec, piv)
            new_rows.append(vec)
            extend(new_rows, piv_cols + [piv])

    extend([], [])
    return sorted(results)


def nullspace(ctx: FieldCtx, rows: Sequence[Sequence[int]]) -> List[List[int]]:
    """Basis of the right nullspace of the given row constraints."""
    ncols = 8 if not rows else len(rows[0])
    mat, pivots = _rref(ctx, rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * ncols
        vec[fc] = 1
        for ri, pc in enumerate(pivots):
            vec[pc] = ctx.neg(mat[ri][fc])
        basis.append(vec)
    return basis


def generator_point_sets(ctx: FieldCtx, generators=None) -> List[frozenset]:
    """Frozen point sets of each generator (for fast incidence counting)."""
    if generators is None:
        return _generator_point_sets_cached(ctx)
    return [frozenset(subspace_points(ctx, list(g))) for g in generators]


@functools.lru_cache(maxsize=4)
def _generator_point_sets_cached(ctx: FieldCtx) -> List[frozenset]:
    return [frozenset(subspace_points(ctx, list(g))) for g in enumerate_generators(ctx)]


def meets_every_generator_once(spec: OvoidSpec, gen_sets=None) -> bool:
    """Definition-level oracle: each generator meets the candidate set once."""
    ctx = spec.ctx
    if gen_sets is None:
        gen_sets = generator_point_sets(ctx)
    pts = frozenset(ovoid_points(spec))
    return all(len(g & pts) == 1 for g in gen_sets)
