"""Closed forms on split extensions against the generic table engine."""

import numpy as np
import pytest

import oracles
from gamma_forge.core import GammaForgeError
from gamma_forge.groups import construct
from gamma_forge.constructions import circ_loop
from gamma_forge.sdforms import SdForms


@pytest.fixture(scope="module")
def g21():
    return construct("sd:7:3:2")


@pytest.fixture(scope="module")
def forms21(g21):
    return SdForms(g21.sd_spec)


def test_inverse_example(forms21):
    # (1, t) with t: h -> 2h inverts to (3, t^2)
    assert forms21.inverse_table()[oracles.idx21((1, 1))] == oracles.idx21((3, 2))
    # cross-check: (1,1)(3,2) = (1 + 2*3, 0) = (0, 0)
    assert oracles.mul21((1, 1), (3, 2)) == (0, 0)


def test_sqrt_closed_form(forms21, g21):
    roots = forms21.sqrt_table()
    for u in range(21):
        assert roots[u] == oracles.idx21(oracles.sqrt21(oracles.P21[u]))


def test_circ_examples(forms21):
    circ, idx = oracles.whole_table(forms21.circ_table, forms21.nF), oracles.idx21
    assert circ[idx((1, 0)), idx((0, 1))] == idx((5, 1))
    assert circ[idx((1, 1)), idx((1, 1))] == idx((3, 2))


def test_commutator_closed_form_lands_in_h(forms21, g21):
    comm = oracles.whole_table(forms21.commutator_table, forms21.nF)
    assert (comm < 7).all()  # F-part 0
    for x, a in enumerate(oracles.P21):
        for y, b in enumerate(oracles.P21):
            assert comm[x, y] == oracles.idx21(oracles.comm21(a, b))


def test_ldiv_closed_form_is_circ_division(forms21, g21):
    q = circ_loop(g21)
    ldiv = oracles.whole_table(forms21.ldiv_table, forms21.nF)
    for x, a in enumerate(oracles.P21):
        for y, b in enumerate(oracles.P21):
            assert oracles.circ21(a, oracles.P21[ldiv[x, y]]) == b
    # reading the same formula as division in the group fails outright
    assert not (oracles.whole_table(forms21.ldiv_table, forms21.nF) == oracles._ldiv(g21.tbl)).all()


def test_lxy_closed_form_single_values(forms21, g21):
    q = circ_loop(g21)
    ig = oracles.inner_generators(q.tbl)
    lxy = np.stack([oracles.whole_table(lambda f2, f=f: forms21.lxy_table(f, f2), 3) for f in range(3)])
    rng = np.random.default_rng(1)
    for _ in range(100):
        u, x, y = (int(v) for v in rng.integers(0, 21, 3))
        assert lxy[x // 7, y, u] == int(ig.Ls[x, y, u])


@pytest.mark.parametrize("spec_str", ["sd:7:3:2", "sd:7:3:4", "sd:13:3:3", "wr:3"])
def test_all_closed_form_tables_agree(spec_str):
    g = construct(spec_str)
    forms = SdForms(g.sd_spec)
    q = circ_loop(g)
    assert (forms.inverse_table() == g.inverse).all()
    assert (forms.sqrt_table() == g.sqrt_table).all()
    assert (oracles.whole_table(forms.commutator_table, forms.nF) == oracles.commutator_table(g)).all()
    assert (oracles.whole_table(forms.circ_table, forms.nF) == q.tbl).all()
    assert (oracles.whole_table(forms.ldiv_table, forms.nF) == oracles._ldiv(q.tbl)).all()
    # one table per F-part of x: the element (h, f) has index f*|H| + h
    lxy = np.stack([oracles.whole_table(lambda f2, f=f: forms.lxy_table(f, f2), forms.nF) for f in range(forms.nF)])
    assert (lxy[np.arange(q.n) // forms.nH] == oracles.inner_generators(q.tbl).Ls).all()


def test_expression_evaluator_pieces(forms21, g21):
    spec, f = g21.sd_spec, forms21
    nH = spec.nH
    # one is the identity map; act gives the action arrays
    assert (f.one == np.arange(nH)).all()
    assert (f.act(1) == spec.action[1]).all()
    # 1 + 1 doubles, its root is the identity again, and H's squares double too
    doubled = f.add(f.one, f.one)
    assert (spec.H.sqrt_table[doubled] == np.arange(nH)).all()
    assert (doubled == spec.H.squares).all()
    assert (f.add(f.one, f.one, f.one) == spec.H.tbl[doubled, f.one]).all()
    # neg is elementwise inversion
    assert (f.neg(f.one) == spec.H.inverse).all()
    # composition order: act(1) then act(2) equals the action of their product
    assert (f.mul(f.act(1), f.act(2)) == spec.action[spec.F.mul(1, 2)]).all()
    # inv undoes a bijection on either side
    phi = f.add(f.one, f.act(1))
    assert (f.inv(phi)[phi] == f.one).all() and (phi[f.inv(phi)] == f.one).all()


def test_inverse_expression_requires_bijection(forms21):
    # -1 + 1 is the zero map, which must refuse inversion
    f = forms21
    with pytest.raises(GammaForgeError, match="bijection"):
        f.inv(f.add(f.neg(f.one), f.one))


def test_pointwise_sum_map_is_automorphism(forms21, g21):
    spec = g21.sd_spec
    for f1 in range(3):
        for f2 in range(3):
            phi = forms21.add(forms21.act(f1), forms21.act(f2))
            assert len(set(phi.tolist())) == spec.nH
            assert (phi[spec.H.tbl] == spec.H.tbl[phi[:, None], phi[None, :]]).all()
