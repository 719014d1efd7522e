"""The explicit family constructors and their identities."""

import pytest

from ovoid7.errors import (BadExponent, DependentBasis, OddCharacteristic,
                           SquareMu, Unsupported, WrongCharacteristic,
                           WrongResidue)
from ovoid7.ff import ExtCtx, make_field
from ovoid7.families import (Famiglia1Params, Famiglia2Params, TowerBasis,
                             default_tower_basis, dye,
                             factorized_identity_check, famiglia1,
                             famiglia2,
                             find_artin_schreier_unit,
                             kantor_2mod3, kantor_2mod3_even,
                             kantor_2mod3_odd, kantor_even, kantor_simple,
                             ree_tits, thas_kantor)
from ovoid7.quadric import verify_ovoid


def test_kantor_simple_polynomials():
    ctx = make_field(2, 1)
    spec = kantor_simple(ctx)
    assert spec.render_lines() == ["x*y+z^2", "x*z+y^2+z^2", "x^2+y^2+y*z+z^2"]
    assert spec.degree == 2
    with pytest.raises(OddCharacteristic):
        kantor_simple(make_field(3, 1))


def test_kantor_even_is_ovoid_small():
    for h in (1, 2):
        ctx = make_field(2, h)
        spec = kantor_even(default_tower_basis(ctx))
        assert spec.degree == 2
        assert verify_ovoid(spec).is_ovoid


def test_kantor_even_with_classical_modulus_reproduces_simple_triple():
    # with the cubic modulus t^3 + t + 1 over F_2 and basis (t, t^2) the
    # trace pairing lands exactly on the short-form triple
    ctx = make_field(2, 1)
    ext = ExtCtx(ctx, 3, modulus=(1, 1, 0, 1))
    t = ext.gen()
    spec = kantor_even(TowerBasis(ext, t, t * t))
    assert spec.polys() == kantor_simple(ctx).polys()


def test_kantor_even_deterministic():
    ctx = make_field(2, 2)
    a = kantor_even(default_tower_basis(ctx))
    b = kantor_even(default_tower_basis(ctx))
    assert a.polys() == b.polys()


def test_kantor_even_requires_char2():
    ctx = make_field(3, 1)
    with pytest.raises(OddCharacteristic):
        kantor_even(default_tower_basis(ctx))


def test_tower_basis_independence_check():
    ctx = make_field(2, 2)
    ext = ExtCtx(ctx, 3)
    with pytest.raises(DependentBasis):
        TowerBasis(ext, ext.from_packed(1), ext.gen())


def test_tower_basis_is_the_hyperplane_witness():
    from ovoid7.hypersurface import HyperplaneWitness

    assert TowerBasis is HyperplaneWitness
    ext4 = ExtCtx(make_field(2, 1), 4)
    t = ext4.gen()
    with pytest.raises(Unsupported, match="tower basis lives in a cubic extension"):
        kantor_even(TowerBasis(ext4, t, t * t))


def test_thas_kantor():
    ctx = make_field(3, 1)
    spec = thas_kantor(ctx, 2)
    assert spec.degree == 3
    assert verify_ovoid(spec).is_ovoid
    with pytest.raises(SquareMu):
        thas_kantor(ctx, 1)
    with pytest.raises(WrongCharacteristic):
        thas_kantor(make_field(5, 1), 2)


def test_thas_kantor_q9():
    ctx = make_field(3, 2)
    mu = next(m for m in range(1, 9) if not ctx.is_square(m))
    assert verify_ovoid(thas_kantor(ctx, mu)).is_ovoid


def test_ree_tits_structure():
    ctx = make_field(3, 3)
    spec = ree_tits(ctx)
    sigma = 9
    assert sigma * sigma == 3 * ctx.q
    assert spec.degree == 2 * sigma + 3
    assert spec.f2.coeff_raw((sigma + 3, 0, 0)) == ctx.neg(1)
    with pytest.raises(BadExponent):
        ree_tits(make_field(3, 1))
    with pytest.raises(BadExponent):
        ree_tits(make_field(3, 2))
    with pytest.raises(WrongCharacteristic):
        ree_tits(make_field(2, 1))


def test_ree_tits_exponent_cap():
    # q = 3^5 still fits: the largest exponent is 2*27 + 3 = 57
    assert ree_tits(make_field(3, 5)).degree == 57
    # q = 3^7 needs exponents up to 2*81 + 3 = 165, past the cap of 63
    with pytest.raises(Unsupported, match="exponent cap"):
        ree_tits(make_field(3, 7))


def test_dye():
    ctx = make_field(2, 3)
    spec = dye(ctx)
    assert spec.degree == 8
    assert verify_ovoid(spec).is_ovoid
    with pytest.raises(Unsupported):
        dye(make_field(2, 2))


def test_kantor_2mod3_odd():
    ctx = make_field(5, 1)
    spec = kantor_2mod3_odd(ctx)
    assert spec.degree == 3
    assert verify_ovoid(spec).is_ovoid
    with pytest.raises(WrongResidue):
        kantor_2mod3_odd(make_field(7, 1))
    with pytest.raises(WrongCharacteristic):
        kantor_2mod3_odd(make_field(3, 1))


def test_kantor_2mod3_even():
    ctx = make_field(2, 1)
    spec = kantor_2mod3_even(ctx)
    assert spec.degree == 3
    assert verify_ovoid(spec).is_ovoid
    # every coefficient is 0 or 1
    for f in spec.polys():
        assert set(f.terms.values()) <= {1}
    with pytest.raises(WrongResidue):
        kantor_2mod3_even(make_field(2, 2))
    assert kantor_2mod3(ctx).polys() == spec.polys()


def test_famiglia2_zero_params_equals_kantor_even_case():
    for h in (1, 3, 5):
        ctx = make_field(2, h)
        assert famiglia2(ctx, Famiglia2Params()).polys() == kantor_2mod3_even(ctx).polys()


def test_famiglia_residue_guards():
    with pytest.raises(WrongResidue):
        famiglia1(make_field(7, 1), Famiglia1Params(epsilon=1))
    with pytest.raises(WrongCharacteristic):
        famiglia1(make_field(3, 1), Famiglia1Params(epsilon=1))
    with pytest.raises(WrongCharacteristic):
        famiglia2(make_field(5, 1), Famiglia2Params())
    with pytest.raises(Unsupported):
        Famiglia1Params(epsilon=2)


def test_quadratic_extension_units():
    ctx2 = make_field(2, 1)
    ext2 = ExtCtx(ctx2, 2)
    eta = find_artin_schreier_unit(ext2)
    assert eta * eta == eta + ext2.from_packed(1)


@pytest.mark.parametrize("q,h", [(5, 1), (11, 1), (17, 1), (23, 1), (5, 3)])
def test_factorized_identity_odd(q, h):
    assert factorized_identity_check("2mod3_odd", make_field(q, h))


@pytest.mark.parametrize("h", [1, 3, 5, 7])
def test_factorized_identity_even(h):
    assert factorized_identity_check("2mod3_even", make_field(2, h))


def test_factorized_identity_wrong_residue():
    with pytest.raises(WrongResidue):
        factorized_identity_check("2mod3_odd", make_field(7, 1))
    with pytest.raises(Unsupported):
        factorized_identity_check("nope", make_field(5, 1))


def test_famiglia1_zero_params_is_ovoid_at_q5():
    # observed small-field fact, frozen as a regression; membership in the
    # family is a necessary shape for a two-quadric split, and at q = 5
    # the zero-parameter instances do verify exhaustively
    for eps in (1, -1):
        spec = famiglia1(make_field(5, 1), Famiglia1Params(epsilon=eps))
        assert verify_ovoid(spec).is_ovoid


def test_default_tower_basis_is_power_basis():
    ctx = make_field(2, 2)
    basis = default_tower_basis(ctx)
    t = basis.ext.gen()
    assert basis.alpha == t
    assert basis.beta == t * t
