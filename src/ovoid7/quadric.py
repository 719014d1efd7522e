"""Geometry of the hyperbolic quadric in PG(7, q).

The quadric is Q = X0*X7 + X1*X6 + X2*X5 + X3*X4.  A parameterizing
triple (f1, f2, f3) of polynomials over F_q with f_i(0,0,0) = 0 yields
the q^3 + 1 candidate points

    (1, x, y, z, f1, f2, f3, -(z*f1 + y*f2 + x*f3))   and   (0,...,0,1),

all of which lie on Q by construction.  The candidate set is an ovoid
exactly when the polarization value of every distinct pair of affine
points is nonzero; `verify_ovoid` checks this exhaustively, on the pair
kernel or, for triples of p-weight <= 2, on the difference route, or,
for triples affine linearized in one coordinate, on the line route.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass, fields
from collections.abc import Sequence
from typing import Iterable, List, Optional, Tuple

import numpy as np

from . import _diffroute, _pairscan
from .errors import NonzeroAtOrigin, FieldMismatch, Unsupported
from .ff import Fe, FieldCtx
from .mpoly import MPoly

GENERATOR_Q_LIMIT = 3

Point = Tuple[int, ...]
Triple = Tuple[int, int, int]


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


def _json_value(value):
    return [_json_value(v) for v in value] if isinstance(value, tuple) else value


class Report:
    """A dataclass report whose JSON form lists its fields in declaration
    order, with `elapsed` seconds written as `elapsed_ms` and tuples as lists."""

    def to_json_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "elapsed":
                out["elapsed_ms"] = round(value * 1000.0, 3)
            else:
                out[f.name] = _json_value(value)
        return out


@dataclass
class VerificationReport(Report):
    is_ovoid: bool
    witness: Optional[Tuple[Triple, Triple]]
    pairs_checked: int
    route: str
    elapsed: float
    q: int
    degree: int


def verify_ovoid(spec: OvoidSpec, threads: int = 1) -> VerificationReport:
    """Exhaustive pairwise check of the candidate point set, on the route
    _diffroute.choose_route picks: difference, line or pair-scan.

    The witness, when present, is the first violating pair in scan order
    (x fastest within a triple, first index slowest across the pair),
    found by an early-exit pair scan on every route; above the pair
    route's limit it is the difference route's first_zero.
    """
    t0 = time.perf_counter()
    route, res = _diffroute.exact_scan(spec, early_exit=True, threads=threads)
    return VerificationReport(
        is_ovoid=res.first_zero is None,
        witness=_pairscan.witness_triples(spec.q, res.first_zero),
        pairs_checked=res.pairs_checked,
        elapsed=time.perf_counter() - t0,
        q=spec.q,
        degree=spec.degree,
        route=route,
    )


# ---------------------------------------------------------------------------
# spread correspondence


def _point_values(spec: OvoidSpec, t: Triple):
    """(x, y, z, f1, f2, f3) at the triple t."""
    x, y, z = (int(v) % spec.ctx.q for v in t)
    return (x, y, z) + tuple(int(f.eval_raw((x, y, z))) for f in spec.polys())


def spread_space(spec: OvoidSpec, t: Triple) -> List[List[int]]:
    """Coefficient rows of the four linear forms cutting out the solid S_P.

    Row r is (c0..c7) with sum(c_i X_i) = 0.  The solutions form a
    4-dimensional totally singular subspace for any triple values.
    """
    x, y, z, a, b, c = _point_values(spec, t)
    n = spec.ctx.neg
    return [
        [1, 0, 0, 0, n(z), y, n(x), 0],
        [0, 1, 0, 0, n(b), n(a), 0, x],
        [0, 0, 1, 0, n(c), 0, a, n(y)],
        [0, 0, 0, 1, 0, c, b, z],
    ]


def spread_space_basis(spec: OvoidSpec, t: Triple) -> List[List[int]]:
    """A basis of the solution space of spread_space(spec, t)."""
    x, y, z, a, b, c = _point_values(spec, t)
    n = spec.ctx.neg
    return [
        [z, b, c, 0, 1, 0, 0, 0],
        [n(y), a, 0, n(c), 0, 1, 0, 0],
        [x, 0, n(a), n(b), 0, 0, 1, 0],
        [0, n(x), y, n(z), 0, 0, 0, 1],
    ]


def infinity_space_basis() -> List[List[int]]:
    """Basis of the solid X4 = X5 = X6 = X7 = 0 (coordinates X0..X3 free)."""
    rows = []
    for i in (0, 1, 2, 3):
        row = [0] * 8
        row[i] = 1
        rows.append(row)
    return rows


@functools.lru_cache(maxsize=16)
def _leading_one_combinations(q: int, k: int) -> np.ndarray:
    """Every coefficient vector in F_q^k whose first nonzero entry is 1."""
    out = [(0,) * lead + (1,) + rest
           for lead in range(k) for rest in itertools.product(range(q), repeat=k - 1 - lead)]
    arr = np.array(out, dtype=np.int64).reshape(len(out), k)
    arr.flags.writeable = False
    return arr


def subspace_points(ctx: FieldCtx, basis: Sequence[Sequence[int]]) -> List[Point]:
    """All distinct projective points spanned by the rows of `basis`.

    In reduced echelon form the first nonzero coordinate of a combination
    sits at the pivot of its first nonzero coefficient and equals that
    coefficient, so the normalised points are exactly the combinations
    whose first nonzero coefficient is 1, each met once.
    """
    ncols = len(basis[0])
    rows, pivots = _rref(ctx, basis, ncols)
    coeffs = _leading_one_combinations(ctx.q, len(pivots))
    acc = np.zeros((len(coeffs), ncols), dtype=np.int64)
    for i in range(len(pivots)):
        acc = ctx.v_add(acc, ctx.v_mul(coeffs[:, i, None], np.array(rows[i], dtype=np.int64)))
    return [tuple(pt) for pt in acc.tolist()]


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


class KerdockSet(Sequence):
    """Skew matrices held as their six upper-triangle entries, one int64
    array each in the order of `KerdockMatrix.upper`; items are built (and
    validated) on access, slices stay arrays."""

    __slots__ = ("ctx", "triples", "upper")

    def __init__(self, ctx: FieldCtx, triples, upper):
        self.ctx = ctx
        self.triples = triples          # (x, y, z) arrays
        self.upper = upper              # (m01, m02, m03, m12, m13, m23) arrays

    @classmethod
    def stack(cls, mats: Sequence[KerdockMatrix]) -> "KerdockSet":
        """The arrays of a nonempty list of matrices over one field."""
        triples = np.array([m.triple for m in mats], dtype=np.int64).T
        upper = np.array([m.upper() for m in mats], dtype=np.int64).T
        return cls(mats[0].ctx, tuple(triples), tuple(upper))

    def __len__(self):
        return len(self.upper[0])

    def __getitem__(self, k):
        if isinstance(k, slice):
            return KerdockSet(self.ctx, tuple(a[k] for a in self.triples),
                              tuple(a[k] for a in self.upper))
        m01, m02, m03, m12, m13, m23 = (int(a[k]) for a in self.upper)
        n = self.ctx.neg
        m = (
            (0, m01, m02, m03),
            (n(m01), 0, m12, m13),
            (n(m02), n(m12), 0, m23),
            (n(m03), n(m13), n(m23), 0),
        )
        return KerdockMatrix(self.ctx, tuple(int(a[k]) for a in self.triples), m)


def kerdock_set(spec: OvoidSpec) -> KerdockSet:
    """One matrix per parameter triple, in scan order:
    m01 = x, m02 = -y, m03 = z, m12 = f1, m13 = f2, m23 = f3.  The check
    runs on the pair kernel, so it stops at the pair route's limit."""
    ctx = spec.ctx
    if ctx.q > _pairscan.Q_LIMIT:
        raise Unsupported(f"the kerdock check runs on the pair-scan route, "
                          f"which supports q <= {_pairscan.Q_LIMIT}")
    xs, ys, zs, f1, f2, f3 = spec.value_tables()
    return KerdockSet(ctx, (xs, ys, zs), (xs, ctx.v_sub(0, ys), zs, f1, f2, f3))


def kerdock_check(mats: Sequence[KerdockMatrix], threads: int = 1) -> bool:
    """True iff every difference of two distinct matrices is nonsingular.

    With d the entrywise difference of two matrices' upper triangles,
    Pf = d01*d23 - d02*d13 + d03*d12, which is exactly -L(i, j) of the pair
    kernel for the tables (m01, m02, m03, m12, -m13, m23) taken as
    (x, y, z, f1, f2, f3).  For a kerdock_set those are the triple's own
    value tables with y and f2 negated, which leaves L unchanged.
    """
    if not len(mats):
        return True
    if not isinstance(mats, KerdockSet):
        mats = KerdockSet.stack(mats)
    ctx = mats.ctx
    m01, m02, m03, m12, m13, m23 = mats.upper
    tables = (m01, m02, m03, m12, ctx.v_sub(0, m13), m23)
    return _pairscan.pair_scan(ctx, tables, early_exit=True, threads=threads).first_zero is None


# ---------------------------------------------------------------------------
# generator enumeration (small q oracle)


def _echelon_bases(q: int, m: int):
    """Every m x 4 reduced-echelon matrix over F_q, with its pivot columns."""
    for piv in itertools.combinations(range(4), m):
        slots = [(i, c) for i, p in enumerate(piv) for c in range(p + 1, 4) if c not in piv]
        for vals in itertools.product(range(q), repeat=len(slots)):
            rows = [[int(c == p) for c in range(4)] for p in piv]
            for (i, c), v in zip(slots, vals):
                rows[i][c] = v
            yield piv, rows


@functools.lru_cache(maxsize=4)
def enumerate_generators(ctx: FieldCtx) -> List[Tuple[Point, ...]]:
    """All maximal totally singular subspaces, as reduced-echelon 4x8 bases.

    Write a vector as (a | b) with a = X0..X3 and b = X4..X7, so that
    Q(a | b) = a . rev(b).  A generator W is fixed by its projection U onto
    X0..X3 (dimension m, taken in reduced echelon form with pivot columns
    piv) and an alternating m x m matrix M over F_q: W meets X0 = .. = X3 = 0
    in the rows (0 | rev(k)) for k in the nullspace of U, and row j of U
    lifts to (U_j | b_j) with U_i . rev(b_j) = M_ij, that is with M_ij at
    X_{7 - piv_i}.  Total singularity is exactly M alternating, so there are
    sum_m [4, m]_q q^(m(m-1)/2) = 2(q+1)(q^2+1)(q^3+1) generators; the
    oracle is meant for q in {2, 3}.
    """
    if ctx.q > GENERATOR_Q_LIMIT:
        raise Unsupported(f"generator enumeration supports q <= {GENERATOR_Q_LIMIT}")
    q = ctx.q
    out = []
    for m in range(5):
        pairs = list(itertools.combinations(range(m), 2))
        for piv, u in _echelon_bases(q, m):
            kernel = [[0] * 4 + k[::-1] for k in nullspace(ctx, u, 4)]
            for vals in itertools.product(range(q), repeat=len(pairs)):
                rows = [row + [0] * 4 for row in u]
                for (i, j), v in zip(pairs, vals):
                    rows[j][7 - piv[i]] = v
                    rows[i][7 - piv[j]] = ctx.neg(v)
                basis, _ = _rref(ctx, rows + kernel, 8)
                out.append(tuple(tuple(row) for row in basis))
    return sorted(out)


def nullspace(ctx: FieldCtx, rows: Sequence[Sequence[int]], ncols: int) -> List[List[int]]:
    """Basis of the right nullspace of the given row constraints."""
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


@functools.lru_cache(maxsize=4)
def generator_point_sets(ctx: FieldCtx) -> List[frozenset]:
    """Frozen point sets of each generator (for fast incidence counting),
    cached per field."""
    return [frozenset(subspace_points(ctx, list(g))) for g in enumerate_generators(ctx)]


def meets_every_generator_once(spec: OvoidSpec, gen_sets=None) -> bool:
    """Definition-level oracle: each generator meets the candidate set once."""
    ctx = spec.ctx
    if gen_sets is None:
        gen_sets = generator_point_sets(ctx)
    pts = frozenset(ovoid_points(spec))
    return all(len(g & pts) == 1 for g in gen_sets)
