"""Closed forms on split extensions against the generic table engine."""

import numpy as np
import pytest

import oracles
from gamma_forge.core import GammaForgeError
from gamma_forge.groups import construct
from gamma_forge.constructions import circ_loop
from gamma_forge.sdforms import ONE, SdElement, SdForms, act, add, frac, inv, mul, neg


@pytest.fixture(scope="module")
def g21():
    return construct("sd:7:3:2")


@pytest.fixture(scope="module")
def forms21(g21):
    return SdForms(g21.sd_spec)


def test_inverse_example(forms21):
    # (1, t) with t: h -> 2h inverts to (3, t^2)
    assert forms21.inverse(SdElement(1, 1)) == SdElement(3, 2)
    # cross-check: (1,1)(3,2) = (1 + 2*3, 0) = (0, 0)
    assert oracles.mul21((1, 1), (3, 2)) == (0, 0)


def test_sqrt_closed_form(forms21, g21):
    for u in range(21):
        h, f = g21.sd_spec.decode(u)
        got = forms21.sqrt(SdElement(h, f))
        assert g21.sd_spec.encode(got.h, got.f) == int(g21.sqrt_table[u])


def test_circ_examples(forms21):
    assert forms21.circ(SdElement(1, 0), SdElement(0, 1)) == SdElement(5, 1)
    assert forms21.circ(SdElement(1, 1), SdElement(1, 1)) == SdElement(3, 2)


def test_commutator_closed_form_lands_in_h(forms21, g21):
    for x in (SdElement(1, 0), SdElement(4, 2), SdElement(6, 1)):
        for y in (SdElement(0, 1), SdElement(2, 2), SdElement(5, 0)):
            got = forms21.commutator(x, y)
            assert got.f == 0
            expected = oracles.comm21((x.h, x.f), (y.h, y.f))
            assert (got.h, got.f) == expected


def test_ldiv_closed_form_is_circ_division(forms21, g21):
    q = circ_loop(g21)
    spec = g21.sd_spec
    for xi in range(21):
        for yi in range(21):
            hx, fx = spec.decode(xi)
            hy, fy = spec.decode(yi)
            d = forms21.ldiv(SdElement(hx, fx), SdElement(hy, fy))
            assert spec.encode(d.h, d.f) == int(q.ldiv[xi, yi])
    # reading the same formula as division in the group fails outright
    assert not (forms21.ldiv_table() == g21.table.left_division).all()


def test_lxy_closed_form_single_values(forms21, g21):
    q = circ_loop(g21)
    ig = oracles.inner_generators(q.tbl)
    spec = g21.sd_spec
    rng = np.random.default_rng(1)
    for _ in range(100):
        u, x, y = (int(v) for v in rng.integers(0, 21, 3))
        hu, fu = spec.decode(u)
        hx, fx = spec.decode(x)
        hy, fy = spec.decode(y)
        got = forms21.lxy(SdElement(hu, fu), SdElement(hx, fx), SdElement(hy, fy))
        assert spec.encode(got.h, got.f) == int(ig.Ls[x, y, u])


@pytest.mark.parametrize("spec_str", ["sd:7:3:2", "sd:7:3:4", "sd:13:3:3", "wr:3"])
def test_all_closed_form_tables_agree(spec_str):
    g = construct(spec_str)
    forms = SdForms(g.sd_spec)
    q = circ_loop(g)
    assert (forms.inverse_table() == g.inverse).all()
    assert (forms.sqrt_table() == g.sqrt_table).all()
    assert (forms.commutator_table() == g.comm_table).all()
    assert (forms.circ_table() == q.tbl).all()
    assert (forms.ldiv_table() == q.ldiv).all()
    # one table per F-part of x: the element (h, f) has index f*|H| + h
    assert (forms.lxy_table()[np.arange(q.n) // forms.nH] == oracles.inner_generators(q.tbl).Ls).all()


def test_expression_evaluator_pieces(forms21, g21):
    spec = g21.sd_spec
    nH = spec.nH
    # ONE is the identity map; act composes with the action arrays
    assert (forms21.eval(ONE) == np.arange(nH)).all()
    assert (forms21.eval(act(1)) == spec.action[1]).all()
    # 1 + 1 doubles, and (2)(1/2) is the identity again
    doubled = forms21.eval(add(ONE, ONE))
    assert (forms21.eval(frac(add(ONE, ONE), 1, 2)) == np.arange(nH)).all()
    assert (doubled == spec.H.tbl[np.arange(nH), np.arange(nH)]).all()
    # neg is elementwise inversion
    assert (forms21.eval(neg(ONE)) == spec.H.inverse).all()
    # composition order: act(1) then act(2) equals the action of their product
    lhs = forms21.eval(mul(act(1), act(2)))
    assert (lhs == spec.action[spec.F.mul(1, 2)]).all()


def test_inverse_expression_requires_bijection(forms21):
    # -1 + 1 is the zero map, which must refuse inversion
    with pytest.raises(GammaForgeError, match="bijection"):
        forms21.eval(inv(add(neg(ONE), ONE)))


def test_pointwise_sum_map_is_automorphism(forms21, g21):
    spec = g21.sd_spec
    for f1 in range(3):
        for f2 in range(3):
            phi = forms21.pointwise_sum_map(f1, f2)
            assert len(set(phi.tolist())) == spec.nH
            assert (phi[spec.H.tbl] == spec.H.tbl[phi[:, None], phi[None, :]]).all()
