"""The circ and oplus constructions and the two-way variety translation."""

import numpy as np
import pytest

import oracles
from gamma_forge.core import CayleyTable, ConstructionError
from gamma_forge.groups import construct, cyclic, direct, heisenberg
from gamma_forge.constructions import (
    bruck_from_gamma,
    circ_loop,
    gamma_from_bruck,
    oplus_loop,
)
from gamma_forge.loops import Loop, check_gamma_axioms, is_left_bruck, powers_coincide


@pytest.fixture(scope="module")
def g21():
    return construct("sd:7:3:2")


@pytest.fixture(scope="module")
def q21(g21):
    return circ_loop(g21)


def test_circ_on_abelian_is_identity_map():
    for g in (cyclic(9), direct([cyclic(3), cyclic(5)])):
        q = circ_loop(g)
        assert (q.tbl == g.tbl).all()


def test_circ_requires_unique_2_divisibility():
    with pytest.raises(ConstructionError, match="2-divisible"):
        circ_loop(cyclic(4))


def test_circ_heisenberg_is_abelian_group_of_exponent_3():
    h = heisenberg(3)
    q = circ_loop(h)
    assert q.is_associative()[0]
    assert q.commutativity is None
    assert all(oracles.left_power(q, x, 3) == 0 for x in range(q.n))


def test_circ_group21_value(q21):
    x, y = oracles.idx21((1, 0)), oracles.idx21((0, 1))
    assert q21.label(q21.mul(x, y)) == "(5,1)"


def test_circ_matches_pair_oracle(q21):
    for a in oracles.P21:
        for b in oracles.P21:
            expected = oracles.idx21(oracles.circ21(a, b))
            assert q21.mul(oracles.idx21(a), oracles.idx21(b)) == expected


def test_oplus_values(g21):
    op = oplus_loop(g21)
    x, y = oracles.idx21((1, 0)), oracles.idx21((0, 1))
    assert op.label(op.mul(x, y)) == "(4,1)"
    for a, b in [((1, 0), (0, 1)), ((3, 2), (5, 1)), ((6, 2), (2, 2))]:
        got = op.mul(oracles.idx21(a), oracles.idx21(b))
        assert got == oracles.idx21(oracles.oplus21(a, b))


def test_oplus_on_abelian_is_identity_map():
    g = cyclic(27)
    assert (oplus_loop(g).tbl == g.tbl).all()


def test_oplus_equals_circ_exactly_for_two_engel(g21):
    h = heisenberg(3)
    assert (circ_loop(h).tbl == oplus_loop(h).tbl).all()
    assert not (circ_loop(g21).tbl == oplus_loop(g21).tbl).all()


def test_bruck_from_gamma_on_abelian():
    g = cyclic(9)
    q = Loop(g.table)
    assert (bruck_from_gamma(q) == g.tbl).all()


def test_bruck_from_gamma_gives_oplus(q21, g21):
    b = Loop(CayleyTable(bruck_from_gamma(q21)))
    assert (b.tbl == oplus_loop(g21).tbl).all()
    assert is_left_bruck(b)[0]
    # identity row and column preserved
    assert (b.tbl[0] == np.arange(21)).all()
    assert (b.tbl[:, 0] == np.arange(21)).all()


def test_gamma_from_bruck_recovers_circ(q21, g21):
    op = oplus_loop(g21)
    back = gamma_from_bruck(op)
    assert (back == q21.tbl).all()


def test_roundtrips_are_identity(q21):
    for spec in ("heis:3", "wr:3"):
        q = circ_loop(construct(spec))
        assert (gamma_from_bruck(Loop(CayleyTable(bruck_from_gamma(q)))) == q.tbl).all()
    assert (gamma_from_bruck(Loop(CayleyTable(bruck_from_gamma(q21)))) == q21.tbl).all()


def test_translation_requires_odd_order():
    z4 = cyclic(4)
    with pytest.raises(ConstructionError, match="odd"):
        bruck_from_gamma(Loop(z4.table))


def test_bruck_from_gamma_verifies_axioms(g21):
    op = oplus_loop(g21)  # left Bruck but not commutative
    with pytest.raises(ConstructionError, match="axioms"):
        bruck_from_gamma(op)


def test_gamma_from_bruck_verifies_input(q21):
    # the circ loop of a nonabelian group is not left Bruck
    with pytest.raises(ConstructionError, match="left Bruck"):
        gamma_from_bruck(q21)


def test_loop_sqrt_table(q21):
    s = q21.sqrt_table
    for x in range(q21.n):
        assert q21.mul(s[x], s[x]) == x


def test_power_op(q21, g21):
    # <x> is cyclic on the left powers of x, so x^k is the one at k mod m
    x = oracles.idx21((1, 0))
    pw = oracles.cyclic_powers(q21.tbl, x)
    assert pw[0] == 0
    assert q21.label(pw[2]) == "(2,0)"
    y = oracles.idx21((0, 1))
    assert q21.label(q21.inverse[y]) == "(0,2)"
    # loop powers match group powers at every exponent
    gx = oracles.P21[x]
    for k in range(1, 22):
        acc = (0, 0)
        for _ in range(k):
            acc = oracles.mul21(acc, gx)
        assert pw[k % len(pw)] == oracles.idx21(acc)


def test_powers_coincide(g21, q21):
    ok, w = powers_coincide(g21, q21)
    assert ok, w
    ok, w = powers_coincide(g21, oplus_loop(g21))
    assert ok, w
    z = cyclic(9)
    assert powers_coincide(z, Loop(z.table))[0]


def test_constructed_loop_provenance(q21):
    assert q21.source["construction"] == "circ"
    assert q21.source["source"] == "sd:7:3:2"


def test_circ_loop_gamma_axioms_hold(q21):
    assert check_gamma_axioms(q21).all_hold
