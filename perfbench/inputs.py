"""Seeded input generation for the benchmark workloads.

Everything random that a workload feeds to ovoid7 is drawn here from the
workload seed and written to files (spec, mask and witness files) or to
`--param` values recorded in `inputs.json`.  The same seed always gives
byte-identical files.  Generation runs in the parent process, outside
every timer; the timed worker only reads the files.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

# Random triples follow the shape of acceptance criterion 7: up to five
# terms per component, monomials of total degree 1..3, any coefficient.
RAND_MAX_TERMS = 5
RAND_MAX_DEGREE = 3

VERIFY_LARGE_RANDOM_QS = (9, 13, 16)
CROSSCHECK_QS = (2, 3, 4, 5, 7, 8, 9)
CROSSCHECK_PER_Q = 12
KANTOR_EVEN_QS = ((2, 1), (2, 2), (2, 3), (2, 4))
FAMIGLIA1_QS = (5, 11, 17)
FAMIGLIA2_QS = ((2, 1), (2, 3), (2, 5))
MASK4_FREE = 8          # 4^8 = 65,536 candidates
MASK3_FREE = 10         # 3^10 = 59,049 candidates


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def monomial_text(m) -> str:
    return "*".join(f"{v}^{e}" if e > 1 else v for v, e in zip("xyz", m) if e)


def random_spec_lines(q: int, rng: random.Random) -> list:
    """Three polynomial lines for a random triple vanishing at the origin."""
    lines = []
    for _ in range(3):
        terms = []
        for _ in range(rng.randrange(RAND_MAX_TERMS + 1)):
            m = tuple(rng.randrange(RAND_MAX_DEGREE + 1) for _ in range(3))
            if 0 < sum(m) <= RAND_MAX_DEGREE:
                terms.append(f"{rng.randrange(q)}*{monomial_text(m)}")
        lines.append("+".join(terms) or "0")
    return lines


def _write_spec(path: Path, lines) -> str:
    path.write_text("\n".join(lines) + "\n")
    return path.name


def _kantor_even_basis(p: int, h: int, rng: random.Random):
    """Random (alpha, beta) coordinates in the cubic extension, redrawn
    until {1, alpha, beta} is independent over F_q."""
    from ovoid7.errors import DependentBasis
    from ovoid7.families import TowerBasis
    from ovoid7.ff import ExtCtx, make_field

    ext = ExtCtx(make_field(p, h), 3)
    q = p ** h
    while True:
        alpha = [rng.randrange(q) for _ in range(3)]
        beta = [rng.randrange(q) for _ in range(3)]
        try:
            TowerBasis(ext, ext.element(alpha), ext.element(beta))
        except DependentBasis:
            continue
        return alpha, beta


def _search_mask(q_spec, free: int, centre, rng: random.Random) -> dict:
    """Mask over the 27 degree-<=2 coefficient positions: `free` seeded
    positions stay free, the rest are pinned to `centre` (a dict from
    (component, monomial) to value) or, without a centre, to random values."""
    from ovoid7.search import triple_monomials

    p, h = q_spec
    q = p ** h
    monos = triple_monomials(2)
    positions = [(fi, m) for fi in range(3) for m in monos]
    free_set = set(rng.sample(range(len(positions)), free))
    mask = {"f1": {}, "f2": {}, "f3": {}}
    for k, (fi, m) in enumerate(positions):
        if k in free_set:
            value = "free"
        elif centre is not None:
            value = centre[(fi, m)]
        else:
            value = rng.randrange(q)
        mask[f"f{fi + 1}"][monomial_text(m)] = value
    return mask


def _kantor_simple_coeffs(p: int, h: int) -> dict:
    from ovoid7.families import kantor_simple
    from ovoid7.ff import make_field
    from ovoid7.search import triple_monomials

    spec = kantor_simple(make_field(p, h))
    return {(fi, m): f.coeff_raw(m)
            for fi, f in enumerate(spec.polys()) for m in triple_monomials(2)}


def generate(workload: str, seed: int, out_dir: Path) -> dict:
    """Write the seeded inputs of `workload` into `out_dir` and return the
    manifest (also written as inputs.json)."""
    rng = _rng(workload, seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {"workload": workload, "seed": seed}
    if workload == "verify-large":
        manifest["random"] = {
            str(q): _write_spec(out_dir / f"rand_q{q}.spec", random_spec_lines(q, rng))
            for q in VERIFY_LARGE_RANDOM_QS}
    elif workload == "search-classify":
        mask4 = _search_mask((2, 2), MASK4_FREE, _kantor_simple_coeffs(2, 2), rng)
        mask3 = _search_mask((3, 1), MASK3_FREE, None, rng)
        (out_dir / "mask_q4.json").write_text(json.dumps(mask4, indent=1) + "\n")
        (out_dir / "mask_q3.json").write_text(json.dumps(mask3, indent=1) + "\n")
        manifest["masks"] = {"4": "mask_q4.json", "3": "mask_q3.json"}
    elif workload == "crosscheck-small":
        manifest["random"] = {
            str(q): [_write_spec(out_dir / f"rand_q{q}_{k}.spec", random_spec_lines(q, rng))
                     for k in range(CROSSCHECK_PER_Q)]
            for q in CROSSCHECK_QS}
        bases = {}
        for p, h in KANTOR_EVEN_QS:
            alpha, beta = _kantor_even_basis(p, h, rng)
            name = f"ke_q{p ** h}.witness.json"
            (out_dir / name).write_text(json.dumps({"alpha": alpha, "beta": beta}) + "\n")
            bases[str(p ** h)] = {"alpha": alpha, "beta": beta, "witness": name}
        manifest["kantor_even"] = bases
        # famiglia1 keeps a100 = 0: its docstring says the two-quadric split
        # exists only there, and random draws agree (20 of 20 per q passed
        # the quadric check with a100 = 0, 4 of 30 with a100 != 0).
        manifest["famiglia1"] = {
            str(q): {"eps": rng.choice((1, -1)), "C4": rng.randrange(q),
                     "D4": rng.randrange(q), "a010": rng.randrange(q),
                     "b100": rng.randrange(q), "a100": 0}
            for q in FAMIGLIA1_QS}
        manifest["famiglia2"] = {
            str(p ** h): {k: rng.randrange(p ** h)
                          for k in ("C4", "D4", "c001", "c010", "b001")}
            for p, h in FAMIGLIA2_QS}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    (out_dir / "inputs.json").write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    return manifest
