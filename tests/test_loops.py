"""Loop predicates, inner mappings, automorphicity, center, and isomorphism."""

import sys

import numpy as np
import pytest

import oracles
from oracles import Permutation, is_isomorphic, translation
from gamma_forge.core import CayleyTable, ConstructionError, GammaForgeError, divide_rows
from gamma_forge.groups import construct, cyclic, direct, upper_central_series
from gamma_forge.constructions import circ_loop, oplus_loop
from gamma_forge.loops import (
    Loop,
    check_gamma_axioms,
    is_automorphic,
    is_left_bruck,
    is_moufang,
    is_power_associative,
    loop_center,
    loop_nilpotency_class,
    quotient_loop,
)


@pytest.fixture(scope="module")
def q21():
    return circ_loop(construct("sd:7:3:2"))


@pytest.fixture(scope="module")
def q81():
    return circ_loop(construct("wr:3"))


def test_loop_requires_identity_at_zero():
    t = CayleyTable([[1, 0], [0, 1]])
    with pytest.raises(ConstructionError):
        Loop(t)


def test_gamma_axioms_on_abelian_group():
    g = direct([cyclic(3), cyclic(9)])
    v = check_gamma_axioms(Loop(g.table))
    assert v.all_hold


def test_gamma_axioms_on_circ(q21):
    assert check_gamma_axioms(q21).all_hold


def test_moufang_examples(q21):
    g = construct("sd:7:3:2")
    assert oracles.moufang_scan(g.tbl) is None  # groups satisfy the identity
    with pytest.raises(GammaForgeError, match="commutative loops only"):
        is_moufang(g)  # a noncommutative loop is refused
    ok, w = is_moufang(q21)
    assert not ok and w == oracles.moufang_scan(q21.tbl)


def test_left_bruck_examples(q21):
    op = oplus_loop(construct("sd:7:3:2"))
    assert is_left_bruck(op)[0]
    assert not is_left_bruck(q21)[0]


def test_power_associativity(q21):
    assert is_power_associative(q21)[0]
    assert is_power_associative(Loop(cyclic(9).table))[0]


def test_division_identities_exhaustive(q21):
    # x*(x\y) = y and (y/x)*x = y over all pairs, and translations invert
    t, n = q21.tbl, q21.n
    ld, rd = divide_rows(t, np.arange(n)), divide_rows(t.T, np.arange(n)).T
    assert (t[np.arange(n)[:, None], ld] == np.arange(n)[None, :]).all()
    for x in range(n):
        assert (t[rd[:, x], x] == np.arange(n)).all()
        lx = translation(q21.table, x, "left")
        assert (lx * lx.inverse()).is_identity()


def test_inner_generators_abelian_trivial():
    g = cyclic(9)
    ig = oracles.inner_generators(g.tbl)
    assert (ig.Ls == np.arange(9)).all()
    assert (ig.Rs == np.arange(9)).all()
    assert (ig.Ts == np.arange(9)).all()


def test_inner_generators_commutative_invariants(q21):
    ig = oracles.inner_generators(q21.tbl)
    assert (ig.Ts == np.arange(21)).all()          # T maps trivial
    assert (ig.Ls == ig.Rs).all()                  # L and R families coincide
    assert (ig.Ls[:, :, 0] == 0).all()             # identity fixed
    assert (ig.Ls != np.arange(21)).any()          # some generator is nontrivial


def test_automorphic_examples(q21):
    assert is_automorphic(Loop(cyclic(27).table)).is_true
    assert is_automorphic(q21).is_true


def test_automorphic_wreath(q81):
    assert is_automorphic(q81).is_true


def test_noncommutative_loops_are_refused():
    # the oplus loop of a non-2-Engel group is a noncommutative Bruck loop
    op = oplus_loop(construct("sd:7:3:2"))
    for decide in (is_automorphic, loop_center):
        with pytest.raises(GammaForgeError, match="commutative loops only"):
            decide(op)


def test_automorphic_matches_extensional_inner_oracle(q21):
    # close the full multiplication group, take the identity stabilizer, and
    # test every inner mapping directly
    subjects = [q21, Loop(cyclic(27).table), circ_loop(construct("heis:3"))]
    for q in subjects:
        gens = [translation(q.table, x, "left") for x in range(q.n)]
        gens += [translation(q.table, x, "right") for x in range(q.n)]
        mlt = oracles.close(gens)
        inn = oracles.stabilizer_of(mlt, 0)
        brute = all(
            all(q.mul(p.images[u], p.images[v]) == p.images[q.mul(u, v)]
                for u in range(q.n) for v in range(q.n))
            for p in inn.elements
        )
        assert brute == is_automorphic(q).is_true


def test_stabilizer_equals_standard_generator_closure(q21):
    gens = [translation(q21.table, x, "left") for x in range(q21.n)]
    gens += [translation(q21.table, x, "right") for x in range(q21.n)]
    inn = oracles.stabilizer_of(oracles.close(gens), 0)
    ig = oracles.inner_generators(q21.tbl)
    standard = [Permutation(ig.Ls[x, y]) for x in range(q21.n) for y in range(q21.n)]
    standard += [Permutation(ig.Rs[x, y]) for x in range(q21.n) for y in range(q21.n)]
    standard += [Permutation(ig.Ts[x]) for x in range(q21.n)]
    assert oracles.close(standard) == inn


def test_loop_center_of_group_is_group_center():
    # heis:3 is not commutative, so the oracle gives its loop center
    g = construct("heis:3")
    from gamma_forge.groups import center
    assert set(oracles.center_scan(g.tbl)[2]) == set(center(g).members)


def test_loop_center_wreath(q81):
    w = construct("wr:3")
    z = loop_center(q81)
    assert len(z) == 9
    zeta2 = upper_central_series(w)[2].members
    assert set(z) == set(zeta2)
    # independent oracle on labeled pairs
    assert {oracles.P81[i] for i in z} == set(oracles.second_center81())


def test_loop_center_group21_trivial(q21):
    assert loop_center(q21) == (0,)


def test_quotient_wreath_center(q81):
    quot, _ = quotient_loop(q81)
    assert quot.n == 9
    assert quot.is_associative()[0]
    assert quot.commutativity is None


def test_loop_nilpotency_class(q81):
    assert loop_nilpotency_class(circ_loop(construct("heis:3"))) == 1
    assert loop_nilpotency_class(q81) == 2
    q21 = circ_loop(construct("sd:7:3:2"))
    assert loop_nilpotency_class(q21) is None  # trivial center stalls the chain


def test_isomorphic_self(q21):
    res = is_isomorphic(q21, q21)
    assert res.verdict == "yes"
    assert res.mapping[0] == 0


def test_isomorphic_the_two_order21_loops():
    qa = circ_loop(construct("sd:7:3:2"))
    qb = circ_loop(construct("sd:7:3:4"))
    res = is_isomorphic(qa, qb)
    assert res.verdict == "yes"
    phi = np.array(res.mapping)
    assert (phi[qa.tbl] == qb.tbl[phi[:, None], phi[None, :]]).all()


def test_isomorphic_refutes_abelian(q21):
    z21 = direct([cyclic(3), cyclic(7)])
    res = is_isomorphic(q21, Loop(z21.table))
    assert res.verdict == "no"
    assert res.certificate


def test_isomorphic_order_mismatch(q21):
    res = is_isomorphic(q21, Loop(cyclic(9).table))
    assert res.verdict == "no"


def test_isomorphic_budget_indeterminate():
    qa = circ_loop(construct("sd:7:3:2"))
    qb = circ_loop(construct("sd:7:3:4"))
    res = is_isomorphic(qa, qb, budget=3)
    assert res.verdict == "indeterminate"


def test_isomorphism_search_needs_no_recursion_per_element():
    # the search keeps its candidates on a stack: 243 elements deep under a
    # recursion limit of 150 (a recursive search raised RecursionError)
    g = cyclic(243)
    pi = np.random.default_rng(5).permutation(g.order)
    pi[pi == 0], pi[0] = pi[0], 0
    t = np.empty_like(g.tbl)
    t[pi[:, None], pi[None, :]] = pi[g.tbl]
    qa, qb = Loop(g.table), Loop(CayleyTable(t))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    try:
        res = is_isomorphic(qa, qb)
    finally:
        sys.setrecursionlimit(limit)
    assert res.verdict == "yes"
    phi = np.array(res.mapping)
    assert (phi[qa.tbl] == qb.tbl[phi[:, None], phi[None, :]]).all()
