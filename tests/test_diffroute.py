"""The difference route for triples of p-weight <= 2 against the pair
kernel: exact ordered zero counts, eligibility, route choice and the
witness above the pair route's limit."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ovoid7 import _diffroute, _pairscan
from ovoid7.families import (default_tower_basis, dye, kantor_2mod3, kantor_even,
                             kantor_simple, ree_tits, thas_kantor)
from ovoid7.ff import make_field
from ovoid7.hypersurface import affine_point_scan
from ovoid7.mpoly import MPoly
from ovoid7.quadric import OvoidSpec, collinearity_value, verify_ovoid

FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3), 9: (3, 2),
          11: (11, 1), 13: (13, 1), 16: (2, 4)}


def pair_count(spec):
    """Ordered off-diagonal zeros from a full pair scan."""
    return 2 * _pairscan.pair_scan(spec.ctx, spec.value_tables(), early_exit=False).zero_pairs


def difference_count(spec):
    """Ordered off-diagonal zeros from the difference route's slice counts."""
    return int(_diffroute.zero_counts(spec.ctx, spec.value_tables()).sum())


@st.composite
def pweight2_specs(draw):
    """A triple whose monomials are products of one or two powers p^i of
    the variables (i <= h, so x^q = x appears too), any coefficients."""
    ctx = make_field(*FIELDS[draw(st.sampled_from(sorted(FIELDS)))])
    polys = []
    for _ in range(3):
        terms = {}
        for _ in range(draw(st.integers(0, 5))):
            exps = [0, 0, 0]
            for _ in range(draw(st.integers(1, 2))):
                exps[draw(st.integers(0, 2))] += ctx.p ** draw(st.integers(0, ctx.h))
            terms[tuple(exps)] = draw(st.integers(0, ctx.q - 1))
        polys.append(MPoly.from_dict(ctx, 3, terms))
    return OvoidSpec(ctx, *polys)


@settings(max_examples=80, deadline=None)
@given(pweight2_specs())
def test_difference_count_equals_pair_scan(spec):
    assert _diffroute.eligible(spec)
    assert difference_count(spec) == pair_count(spec)


def test_random_pweight2_triples_at_q25_q27():
    rng = random.Random(7)
    for p, h in ((5, 2), (3, 3)):
        ctx = make_field(p, h)
        lines = ["+".join(f"{rng.randrange(ctx.q)}*{rng.choice('xyz')}^{p ** rng.randrange(h)}"
                          f"*{rng.choice('xyz')}^{p ** rng.randrange(h)}" for _ in range(3))
                 for _ in range(3)]
        spec = OvoidSpec.from_lines(ctx, lines)
        assert _diffroute.eligible(spec)
        assert difference_count(spec) == pair_count(spec)


# -- families ------------------------------------------------------------------


@pytest.mark.parametrize("h", [4, 5, 6, 7])
def test_kantor_simple_ovoid_except_q64(h):
    ctx = make_field(2, h)
    spec = kantor_simple(ctx)
    rep = verify_ovoid(spec, threads=1)
    assert rep.route == "difference"
    assert rep.is_ovoid is (ctx.q != 64)
    n = ctx.q ** 3
    if rep.is_ovoid:
        assert rep.witness is None and rep.pairs_checked == n * (n - 1) // 2
    else:
        assert int(collinearity_value(spec, *rep.witness)) == 0
    if ctx.q == 16:
        assert difference_count(spec) == pair_count(spec) == 0


@pytest.mark.parametrize("h", [4, 7])
def test_kantor_even_is_ovoid_on_difference_route(h):
    spec = kantor_even(default_tower_basis(make_field(2, h)))
    rep = verify_ovoid(spec, threads=1)
    assert rep.route == "difference" and rep.is_ovoid
    if h == 4:
        assert difference_count(spec) == pair_count(spec) == 0


def test_dye_both_routes_agree():
    spec = dye(make_field(2, 3))
    assert difference_count(spec) == pair_count(spec) == 0
    assert verify_ovoid(spec).route == "pair-scan"          # below the crossover


def _thas_kantor(ctx):
    return thas_kantor(ctx, next(m for m in range(1, ctx.q) if not ctx.is_square(m)))


def test_eligibility():
    yes = [kantor_simple(make_field(2, 4)), kantor_even(default_tower_basis(make_field(2, 4))),
           dye(make_field(2, 3)), OvoidSpec.from_lines(make_field(3, 2), ["x^3", "0", "0"]),
           # every monomial of the even Kantor q = 2 mod 3 triple has 2-weight <= 2
           kantor_2mod3(make_field(2, 5))]
    no = [ree_tits(make_field(3, 3)), kantor_2mod3(make_field(17, 1)),
          _thas_kantor(make_field(3, 2)),
          OvoidSpec.from_lines(make_field(3, 2), ["x^2*y", "0", "0"])]
    assert all(_diffroute.eligible(s) for s in yes)
    assert not any(_diffroute.eligible(s) for s in no)
    assert _diffroute.p_weight(2, (3, 0, 0)) == 2 and _diffroute.p_weight(2, (2, 0, 0)) == 1


def test_route_choice():
    ks = kantor_simple
    assert _diffroute.choose_route(ks(make_field(2, 3)))[0] == "pair-scan"      # q < MIN_Q
    assert _diffroute.choose_route(ks(make_field(2, 4)))[0] == "difference"
    assert _diffroute.choose_route(_thas_kantor(make_field(3, 3)))[0] == "line"
    assert affine_point_scan(ks(make_field(2, 4))).route == "difference"


# -- witnesses -------------------------------------------------------------------


def _brute_first_zero(spec):
    """Smallest difference index d with a zero, then its first s, by scalar
    evaluation of every pair."""
    ctx = spec.ctx
    q = ctx.q
    triples = [_pairscan.triple_of_index(q, k) for k in range(q ** 3)]
    index = {t: k for k, t in enumerate(triples)}
    for d in triples[1:]:
        for s in triples:
            t = tuple(ctx.add(a, b) for a, b in zip(s, d))
            if int(collinearity_value(spec, s, t)) == 0:
                return tuple(sorted((index[s], index[t])))
    return None


def test_first_zero_is_smallest_difference_then_first_s():
    rng = random.Random(11)
    for q in (3, 4, 5):
        ctx = make_field(*FIELDS[q])
        for _ in range(4):
            lines = ["+".join(f"{rng.randrange(q)}*{rng.choice('xyz')}*{rng.choice('xyz')}"
                              for _ in range(2)) for _ in range(3)]
            spec = OvoidSpec.from_lines(ctx, lines)
            tables = spec.value_tables()
            counts = _diffroute.zero_counts(ctx, tables)
            assert _diffroute.first_zero(ctx, tables, counts) == _brute_first_zero(spec)


def test_witness_above_pair_limit(monkeypatch):
    # lower the pair route's limit so that q = 9 exercises the witness
    # that verification reports above it
    spec = OvoidSpec.from_lines(make_field(3, 2), ["x^3+y", "x*z", "y^2"])
    ctx = spec.ctx
    want = _diffroute.first_zero(ctx, spec.value_tables(),
                                 _diffroute.zero_counts(ctx, spec.value_tables()))
    assert want is not None
    monkeypatch.setattr(_pairscan, "Q_LIMIT", 8)
    rep = verify_ovoid(spec)
    n = ctx.q ** 3
    assert rep.route == "difference" and not rep.is_ovoid
    assert rep.witness == _pairscan.witness_triples(ctx.q, want)
    assert rep.pairs_checked == n * (n - 1) // 2
    assert int(collinearity_value(spec, *rep.witness)) == 0
    scan = affine_point_scan(spec)
    assert scan.witness == rep.witness
    assert scan.off_diagonal == pair_count(spec)


def test_failing_route_witness_is_pair_scan_witness():
    # below the pair route's limit a failing triple keeps the pair scan's witness
    spec = OvoidSpec.from_lines(make_field(2, 4), ["x*y+z", "y^2", "x^2+z^2"])
    rep = verify_ovoid(spec)
    res = _pairscan.pair_scan(spec.ctx, spec.value_tables(), early_exit=True)
    assert rep.route == "difference" and not rep.is_ovoid
    assert rep.witness == _pairscan.witness_triples(16, res.first_zero)
    assert rep.pairs_checked == res.pairs_checked
    # scan mode counts on the route, then reruns the early-exit scan for the witness
    scan = affine_point_scan(spec)
    full = _pairscan.pair_scan(spec.ctx, spec.value_tables(), early_exit=False)
    assert scan.route == "difference" and scan.witness == rep.witness
    assert scan.off_diagonal == 2 * full.zero_pairs > 0
