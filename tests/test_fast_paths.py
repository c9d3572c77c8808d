"""Differential tests: each fast loop scan against the slow scan it replaced.

The references in ``oracles`` are the per-x associativity scan, the per-(x, y)
left Bruck, P-map and inner-mapping scans, the per-a nucleus scan, the
per-(x, y) Bruck -> Gamma translation, the per-x power-associativity scan,
the per-cell identity relabeling, run on raw arrays, and the scalar power
loops; numpy's argsort is the reference for the divisions.  Verdicts and
witnesses, tables and error messages must agree exactly, so the fast paths
keep the least witness.  The orbit walk of the translation is checked against
the walk over every pair, the translation refuses every loop that is not left
Bruck, and the oplus loops of the catalog have |LMlt| odd, as Glauberman's
theorem says.  The closed-form L maps compared on generators are checked
against the comparison of every x.  The stabilizer chain of the left
translations is checked against the group they generate, closed element by
element.  The center of a commutative loop is checked
with and without its sieve, and the quotient by it against the cosets and
products formed by definition.  Random Latin-square loops check the closure
lemmas behind the generator tests and include loops in which the operation
matters, or the sieve keeps a candidate that is not central; on them and on
group tables, core.closure is checked against the scalar frontier closure.
"""

import itertools
import math
import re
import sys
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest

import oracles
from oracles import Permutation
from gamma_forge.catalog import CATALOG_SPECS
from gamma_forge import checks, constructions, core
from gamma_forge.constructions import bruck_from_gamma, circ_loop, gamma_from_bruck, oplus_loop
from gamma_forge.core import CayleyTable, ConstructionError, EvenOrderError, GammaForgeError
from gamma_forge import loops
from gamma_forge.groups import Group, construct
from gamma_forge.loops import (
    Loop,
    associativity_witness,
    check_gamma_axioms,
    is_automorphic,
    is_left_bruck,
    is_power_associative,
    loop_center,
    powers_coincide,
)
from gamma_forge.sdforms import SdForms
from gamma_forge.tableio import normalize_identity


@lru_cache(maxsize=None)
def group(spec):
    return construct(spec)


SMALL_SPECS = [s for s in CATALOG_SPECS if group(s).order <= 243]


def relabel(t, seed):
    """The table under a seeded permutation of the elements that fixes 0."""
    rng = np.random.default_rng(seed)
    pi = np.concatenate([[0], 1 + rng.permutation(len(t) - 1)])
    out = np.empty_like(t)
    out[pi[:, None], pi[None, :]] = pi[t]
    return out


def cocycle_loop(seed, m, k, odd=False, commutative=False):
    """A seeded random loop on Z_m x Z_k, element (a, b) at index a + m b:
    (a, b)(c, d) = (a + c + f(b, d), b + d) for a random f that vanishes on
    the axes (so (0, 0) is the identity) and on the pairs (b, -b) (so
    inverses are two-sided).  A random f is no 2-cocycle, so the loop is not
    associative.  With odd (m and k odd), f(-b, -d) = -f(b, d), which gives
    the automorphic inverse property, so the Bruck scan reaches its rows.
    With commutative, f is symmetric, and so is the loop."""
    rng = np.random.default_rng(seed)
    f = rng.integers(0, m, (k, k))
    neg = -np.arange(k) % k
    if odd:
        f = (f - f[np.ix_(neg, neg)]) % m
    if commutative:
        f = np.triu(f) + np.triu(f, 1).T
    f[0, :] = f[:, 0] = f[np.arange(k), neg] = 0
    a, b = np.arange(m * k) % m, np.arange(m * k) // m
    return (a[:, None] + a[None, :] + f[b[:, None], b[None, :]]) % m + m * ((b[:, None] + b[None, :]) % k)


def twisted_loop(seed, m, k, commutative=False):
    """A seeded random loop on Z_m x Z_k: (a, b)(c, d) = (phi_bd(a + c), b + d)
    for random permutations phi_bd of Z_m, the identity when b or d is 0.
    Unlike cocycle_loop its translation commutators need not have odd order.
    With commutative, phi_db = phi_bd, and the loop is commutative."""
    rng = np.random.default_rng(seed)
    phi = np.array([[rng.permutation(m) for _ in range(k)] for _ in range(k)])
    phi[0, :] = phi[:, 0] = np.arange(m)
    if commutative:
        lower, upper = np.triu_indices(k, 1)
        phi[upper, lower] = phi[lower, upper]
    a, b = np.arange(m * k) % m, np.arange(m * k) // m
    return phi[b[:, None], b[None, :], (a[:, None] + a[None, :]) % m] + m * ((b[:, None] + b[None, :]) % k)


def assert_inner_scans_match_references(t):
    """The inner-mapping scan of a commutative loop (a noncommutative one is
    refused) and, at odd order, the Bruck -> Gamma translation."""
    q = Loop(CayleyTable(t))
    if (t == t.T).all():
        w = oracles.automorphic_scan(t)
        assert is_automorphic(q) == (w is None, w)
    else:
        with pytest.raises(GammaForgeError, match="commutative loops only"):
            is_automorphic(q)
    if len(t) % 2 == 0:
        return
    # the translation takes left Bruck loops only, and translates each (Glauberman);
    # the walk alone equals the per-pair scan wherever every commutator has odd order
    table, message = oracles.gamma_from_bruck_scan(t)
    if oracles.left_bruck_scan(t)[0]:
        assert message is None and (gamma_from_bruck(q) == table).all()
    else:
        with pytest.raises(ConstructionError, match="not a left Bruck loop"):
            gamma_from_bruck(q)
    if message is None:
        assert (constructions._gamma_by_orbit_walk(q) == table).all()


def assert_matches_references(t):
    assert_center_matches_reference(t)
    assert_identity_scans_match_references(t)


def assert_center_matches_reference(t):
    """The center of a commutative loop, with and without the sieve: the sieve
    only screens, so the closure alone must reach the same center.  A
    noncommutative loop is refused."""
    if not (t == t.T).all():
        with pytest.raises(GammaForgeError, match="commutative loops only"):
            loop_center(Loop(CayleyTable(t)))
        return
    z = oracles.center_scan(t)[2]
    assert Loop(CayleyTable(t)).center == z
    unsieved = Loop(CayleyTable(t))
    unsieved.__dict__["generators"] = np.array([], dtype=unsieved.tbl.dtype)
    assert loop_center(unsieved) == z


def assert_identity_scans_match_references(t):
    """Associativity, the P-map and inverse-translation axioms, left Bruck."""
    q = Loop(CayleyTable(t))
    w = oracles.assoc_scan(t)
    assert associativity_witness(t, q.generators) == w
    assert q.is_associative() == (w is None, w)
    gamma = oracles.gamma_axioms_scan(t)
    bruck = oracles.left_bruck_scan(t)
    if gamma is None:  # no two-sided inverses: both scans are inapplicable
        assert not is_left_bruck(q)[0]
        assert check_gamma_axioms(q).p_map_identity.holds is None
        return
    v = check_gamma_axioms(q)
    assert (v.inverse_translations_commute.holds, v.inverse_translations_commute.witness) == gamma[0]
    assert (v.p_map_identity.holds, v.p_map_identity.witness) == gamma[1]
    assert is_left_bruck(q) == bruck


@pytest.mark.parametrize("spec", SMALL_SPECS)
def test_catalog_loops_match_references(spec):
    g = group(spec)
    assert associativity_witness(g.tbl, g.generators) is None and oracles.assoc_scan(g.tbl) is None
    circ, oplus = circ_loop(g).tbl, oplus_loop(g).tbl
    for t in (circ, oplus):
        assert_matches_references(t)
    for t in (circ,) if (circ == oplus).all() else (circ, oplus):
        assert_inner_scans_match_references(t)


@pytest.mark.parametrize("spec,seed", [("sd:7:3:2", 1), ("wr:3", 2), ("heis:3", 3), ("sd:11:5:3", 4)])
def test_relabeled_loops_match_references(spec, seed):
    for q in (circ_loop(group(spec)), oplus_loop(group(spec))):
        assert_matches_references(relabel(q.tbl, seed))
        assert_inner_scans_match_references(relabel(q.tbl, seed))


def test_order_729_circ_associativity_witness():
    q = circ_loop(group("ut:4:3"))
    assert q.is_associative() == (False, (1, 243, 27))
    assert oracles.assoc_scan(q.tbl) == (1, 243, 27)


@pytest.mark.parametrize("spec,witness", [("wr:3", (1, 27, 27)), ("sd:7:3:2", (1, 7, 7))])
def test_circ_bruck_failures(spec, witness):
    q = circ_loop(group(spec))
    assert is_left_bruck(q) == (False, witness)
    assert oracles.left_bruck_scan(q.tbl) == (False, witness)


RANDOM_LOOPS = [(0, 3, 5, False), (1, 5, 3, False), (2, 4, 9, False),
                (3, 3, 5, True), (4, 5, 7, True), (5, 3, 9, True)]


@pytest.mark.parametrize("seed,m,k,odd", RANDOM_LOOPS)
def test_random_loops_fail_p_map_and_match_references(seed, m, k, odd):
    t = relabel(cocycle_loop(seed, m, k, odd), seed)
    gamma = oracles.gamma_axioms_scan(t)
    assert gamma is not None and gamma[1][0] is False
    assert oracles.assoc_scan(t) is not None
    if odd:  # the Bruck scan itself, not the inverse-property test, decides
        assert len(oracles.left_bruck_scan(t)[1]) == 3
    assert_matches_references(t)
    assert oracles.automorphic_scan(t)[0] == "L"
    assert_inner_scans_match_references(t)


def test_small_row_blocks_match_references(monkeypatch):
    # blocks of 3 rows of n cells, in the loop builds and the scans, put most
    # witnesses and dropped center candidates past the first block, which the
    # default budget of cells reaches only above order 128
    tables = [relabel(cocycle_loop(seed, m, k, odd), seed) for seed, m, k, odd in RANDOM_LOOPS]
    for spec in ("sd:7:3:2", "wr:3", "heis:3", "sd:11:5:3"):
        g = group(spec)
        monkeypatch.setattr(core, "_BLOCK_CELLS", 3 * g.order)
        tables += [relabel(q.tbl, 8) for q in (circ_loop(g), oplus_loop(g))]
    for t in tables:
        monkeypatch.setattr(core, "_BLOCK_CELLS", 3 * len(t))
        assert_matches_references(t)
    # under this relabeling the least Bruck failure of circ(wr:3) is at y = 3
    assert oracles.left_bruck_scan(relabel(circ_loop(group("wr:3")).tbl, 8)) == (False, (1, 3, 3))


def test_block_witness_is_least_across_blocks():
    n, bad = 300, {(5, 250, 1), (5, 200, 7), (9, 3, 3)}

    def sides(x, ys):
        rows = range(n)[ys]
        lhs = np.zeros((len(rows), n), dtype=int)
        for i, y in enumerate(rows):
            lhs[i, [u for (bx, by, u) in bad if (bx, by) == (x, y)]] = 1
        return lhs, np.zeros_like(lhs)

    assert loops._least_block_witness(n, sides) == (5, 200, 7)
    assert loops._least_block_witness(n, lambda x, ys: (np.zeros((1, n)),) * 2) is None
    # the row-block scans name rows past the first block by their own index
    mask = np.ones((n, n), dtype=bool)
    mask[[250, 200, 200], [1, 9, 7]] = False
    assert core.first_false_rows(n, lambda r: mask[r]) == (200, 7)
    assert core.first_false_rows(n, lambda r: mask[r] | True) is None
    t = np.add.outer(np.arange(n), np.arange(n)) % n
    t[150, 200] = 0
    assert loops.commutativity_witness(t) == (150, 200)


def test_nonassociative_table_group_error_names_least_triple():
    t = relabel(cocycle_loop(5, 3, 5), 5)
    x, y, z = oracles.assoc_scan(t)
    with pytest.raises(ConstructionError) as err:
        Group(CayleyTable(t))
    assert str(err.value) == f"not associative: ({x}*{y})*{z} != {x}*({y}*{z})"


TWISTED_LOOPS = [(0, 3, 3), (1, 3, 3), (4, 3, 3), (1, 5, 3), (5, 3, 5), (2, 5, 5)]


@pytest.mark.parametrize("seed,m,k", TWISTED_LOOPS)
def test_twisted_loops_match_references(seed, m, k):
    t = twisted_loop(seed, m, k)
    for s in (seed, seed + 10):
        assert_inner_scans_match_references(relabel(t, s))


def test_twisted_loops_reach_even_orders():
    # the inputs above must exercise both translation outcomes
    outcomes = [oracles.gamma_from_bruck_scan(twisted_loop(*p))[1] for p in TWISTED_LOOPS]
    assert outcomes[0] is None
    assert outcomes[2] == "translation commutator at (3,6) has even order 6"
    assert "has even order 30" in outcomes[5]


# loops whose translation commutators all have odd order: oplus (the left Bruck
# partner of circ) of the catalog groups up to order 155, and the random cocycle
# loops of odd order, which are not left Bruck, so only the walk itself takes them
BRUCK_CASES = [("oplus", spec) for spec in SMALL_SPECS if group(spec).order <= 155]
BRUCK_CASES += [("cocycle", seed, m, k, odd) for seed, m, k, odd in RANDOM_LOOPS if m * k % 2]


def bruck_case(case):
    if case[0] == "oplus":
        return oplus_loop(group(case[1])).tbl
    return relabel(cocycle_loop(*case[1:]), case[1])


@pytest.mark.parametrize("case", BRUCK_CASES, ids=str)
def test_orbit_walk_matches_doubling_and_references(case, monkeypatch):
    # the walk against the walk over every pair at each size, and against the
    # per-pair scan up to order 81; the oplus loops through gamma_from_bruck
    t = bruck_case(case)
    q = Loop(CayleyTable(t))
    walk = gamma_from_bruck if case[0] == "oplus" else constructions._gamma_by_orbit_walk
    walked = walk(q)
    assert (walked == oracles.gamma_by_full_orbit_walk(q)).all()
    if len(t) <= 81:
        table, message = oracles.gamma_from_bruck_scan(t)
        assert message is None and (walked == table).all()
    if case[0] == "oplus":  # the roundtrip of circ
        assert (walked == circ_loop(group(case[1])).tbl).all()
    # blocks of 3 rows x: orbits closing in several blocks, some blocks of fewer rows
    monkeypatch.setattr(core, "_BLOCK_CELLS", 3 * q.n)
    assert (walk(q) == walked).all()


def test_left_bruck_loops_of_odd_order_have_lmlt_of_odd_order():
    # Glauberman's theorem, on which the Bruck -> Gamma walk rests, on every
    # oplus loop of the catalog up to order 243 and on oplus(ut:4:3): |LMlt| is
    # the product of the orbit lengths of the chain of the L_x, checked against
    # the group closed element by element on sd:7:3:2 and wr:3
    for spec in SMALL_SPECS + ["ut:4:3"]:
        q = oplus_loop(group(spec))
        assert q.left_bruck == (True, None), spec
        order = math.prod(len(level.orbit) for level in oracles.mlt_chain(q.tbl).levels)
        assert order % 2 == 1, spec
        if spec in ("sd:7:3:2", "wr:3"):
            assert order == len(oracles.close([Permutation(row) for row in q.tbl])), spec


def test_the_walk_guard_names_an_even_cycle_and_the_refusal_keeps_other_loops_out(monkeypatch):
    # with the left Bruck verdict forced to pass, the walk of twisted_loop(4, 3, 3)
    # meets a cycle of even length, and raises naming its pair
    t = twisted_loop(4, 3, 3)
    with monkeypatch.context() as m:
        m.setattr(Loop, "left_bruck", (True, None))
        with pytest.raises(GammaForgeError, match="internal inconsistency") as err:
            gamma_from_bruck(Loop(CayleyTable(t)))
    x, y = map(int, re.search(r"at \((\d+),(\d+)\)", str(err.value)).groups())
    lx, ly = Permutation(t[x]), Permutation(t[y])
    commutator = ly.inverse() * lx.inverse() * ly * lx  # u -> x(y(x\(y\u))): a product applies its left factor first
    assert len(next(c for c in commutator.cycles() if t[y, x] in c)) % 2 == 0
    # the walk of twisted_loop(1, 3, 3) ends, though a commutator has even order:
    # only the refusal of a loop that is not left Bruck keeps its table out
    t = twisted_loop(1, 3, 3)
    q = Loop(CayleyTable(t))
    constructions._gamma_by_orbit_walk(q)
    assert "even order" in oracles.gamma_from_bruck_scan(t)[1]
    assert not oracles.left_bruck_scan(t)[0]
    with pytest.raises(ConstructionError, match="not a left Bruck loop"):
        gamma_from_bruck(q)


@pytest.mark.parametrize("rows", [3, 128])
def test_orbit_walk_over_pairs_x_le_y_matches_the_full_walk(rows, monkeypatch):
    # the walk takes the pairs x <= y and mirrors each entry to (y, x); against
    # the walk over every pair, at order 381 (uint16 elements) and on the
    # noncommutative cocycle loops, with blocks of 3 rows closing across blocks
    loops_ = [Loop(CayleyTable(bruck_from_gamma(circ_loop(group("sd:127:3:19")))))]
    loops_ += [Loop(CayleyTable(bruck_case(case))) for case in BRUCK_CASES if case[0] == "cocycle"]
    assert not all(q.commutativity is None for q in loops_)
    for q in loops_:
        monkeypatch.setattr(core, "_BLOCK_CELLS", rows * q.n)
        walked = constructions._gamma_by_orbit_walk(q)
        assert walked.dtype == core.element_dtype(q.n)
        assert (walked == oracles.gamma_by_full_orbit_walk(q)).all()


def test_roundtrip_at_order_729():
    circ = circ_loop(group("ut:4:3"))
    assert (gamma_from_bruck(Loop(CayleyTable(bruck_from_gamma(circ)))) == circ.tbl).all()


def test_hash_collisions_never_skip_a_map(monkeypatch):
    # with zero weights every map has hash 0, so only exact comparison with
    # the first map tells maps apart; in the products with circ(sd:7:3:2)
    # the first failing map comes after the maps of 21 passing x
    monkeypatch.setattr(loops, "_MAP_HASH_WEIGHTS", np.zeros_like(loops._MAP_HASH_WEIGHTS))
    circ = circ_loop(group("sd:7:3:2")).tbl
    tables = [relabel(latin_loop(seed, commutative=True), seed) for seed in (0, 2, 4)]
    tables += [circ] + [product_loop(circ, latin_loop(seed, commutative=True)) for seed in (1, 9)]
    witnesses = []
    for t in tables:
        witnesses.append(oracles.automorphic_scan(t))
        assert is_automorphic(Loop(CayleyTable(t)))[1] == witnesses[-1]
    assert witnesses[3] is None and witnesses[4][1] == witnesses[5][1] == 21


@pytest.mark.parametrize("family", [cocycle_loop, twisted_loop], ids=lambda f: f.__name__)
def test_generator_inner_maps_decide_commutative_random_loops(family):
    # the lemma of is_automorphic (every (gp) \ (g(pu)) for the generators g
    # an automorphism) against the scan of every L_{x,y}, in verdict and
    # witness, on seeded commutative loops of orders 8 to 21; each family has
    # automorphic and other members, and at (4, 2) seeds 11 and 13 of the
    # twisted family are automorphic loops that are not groups
    verdicts = set()
    for (m, k), seed in itertools.product([(4, 2), (2, 4), (3, 3), (4, 3), (3, 5), (7, 3)], range(16)):
        t = family(seed, m, k, commutative=True)
        assert (t == t.T).all()
        w = oracles.automorphic_scan(t)
        assert is_automorphic(Loop(CayleyTable(t))) == (w is None, w)
        verdicts.add((w is None, oracles.assoc_scan(t) is None))
    assert (True, True) in verdicts and (False, False) in verdicts
    assert ((True, False) in verdicts) == (family is twisted_loop)


def test_least_inner_witness_builds_the_maps_of_one_x_a_block_at_a_time():
    # a non-automorphic commutative loop of order 1240: the maps of one x
    # built whole held n^2 intp flat indices, 12.3 MB of a 21.8 MB peak; a
    # block of y per step keeps the peak near the division table it holds
    # (3.1 MB), and the (x, y) order, so the witness is the whole-x scan's
    q = Loop(CayleyTable(product_loop(cocycle_loop(0, 2, 4, commutative=True), circ_loop(group("sd:31:5:2")).tbl)))
    assert q.n == 1240 and q.commutativity is None
    q.generators
    tracemalloc.start()
    try:
        verdict = is_automorphic(q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict == (False, ("L", 2, 2, 2, 4))
    assert peak < 6e6


@pytest.mark.parametrize("spec", ["sd:31:5:2", "ut:4:3"])
def test_automorphic_tests_only_the_maps_that_do_not_sift(spec, monkeypatch):
    # no chain level has base point 0, as no chain holds a translation, and
    # a map takes the n^2 test only when the chain of the maps tested
    # before does not hold it
    chains, unsifted, tests = [], [], []

    class Chain(core.StabilizerChain):
        def __init__(self, n):
            super().__init__(n)
            chains.append(self)

        def sift(self, g, start=0):
            h, level = super().sift(g, start)
            if sys._getframe(1).f_code.co_name == "is_automorphic" and (h != self.identity).any():
                unsifted.append(g)
            return h, level

    real = loops._automorphism_witness
    monkeypatch.setattr(loops, "StabilizerChain", Chain)
    monkeypatch.setattr(loops, "_automorphism_witness", lambda t, phi: tests.append(phi) or real(t, phi))
    assert is_automorphic(circ_loop(group(spec))) == (True, None)
    assert len(chains) == 1 and chains[0].levels
    assert [level.point for level in chains[0].levels if level.point == 0] == []
    assert 0 < len(tests) <= len(unsifted)


@pytest.mark.parametrize("spec,witness", [("sd:7:3:2", ("R", 1, 7, 7, 7)), ("wr:3", ("T", 1, -1, 27, 27))])
def test_oplus_inner_map_witnesses(spec, witness):
    # R and T witnesses need a noncommutative loop: the oracle finds them,
    # and is_automorphic, which decides commutative loops, refuses the loop
    t = oplus_loop(group(spec)).tbl
    assert oracles.automorphic_scan(t) == witness
    with pytest.raises(GammaForgeError, match="commutative loops only"):
        is_automorphic(Loop(CayleyTable(t)))


def mlt_case(case):
    """A loop table: circ or oplus of a catalog group, or a seeded random loop."""
    kind, *args = case
    if kind in ("circ", "oplus"):
        return (circ_loop if kind == "circ" else oplus_loop)(group(args[0])).tbl
    return (twisted_loop if kind == "twisted" else cocycle_loop)(*args)


MLT_CASES = [(kind, spec) for spec in SMALL_SPECS if group(spec).order <= 27
             for kind in ("circ", "oplus")]
MLT_CASES += [("twisted", 0, 3, 3), ("twisted", 10, 3, 3), ("twisted", 5, 3, 3),
              ("cocycle", 0, 3, 5), ("cocycle", 1, 3, 5, True), ("cocycle", 2, 3, 3)]
# loops whose left translations generate a proper subgroup of Mlt: the chain is LMlt(Q)
LMLT_PROPER = [("oplus", "sd:7:3:2"), ("oplus", "sd:7:3:4"), ("twisted", 10, 3, 3)]


@pytest.mark.parametrize("case", MLT_CASES, ids=str)
def test_mlt_chain_matches_extensional_closure(case):
    # the chain of the L_x is LMlt(Q), which is Mlt(Q) when Q is commutative
    t = mlt_case(case)
    q = Loop(CayleyTable(t))
    lmlt = oracles.close([Permutation(row) for row in t])
    if (t == t.T).all():
        assert lmlt == oracles.multiplication_group(t)
    if case in LMLT_PROPER:
        assert len(lmlt) < len(oracles.multiplication_group(t))
    chain = oracles.mlt_chain(t)
    assert chain.levels[0].point == 0
    assert math.prod(len(level.orbit) for level in chain.levels) == len(lmlt)
    stab_gens = [Permutation(p) for p in (chain.levels[1].gens if len(chain.levels) > 1 else [])]
    assert all(p.images[0] == 0 for p in stab_gens)
    assert oracles.close(stab_gens or [Permutation.identity(q.n)]) == oracles.stabilizer_of(lmlt, 0)
    # every left translation sifts to the identity; a permutation outside LMlt does not
    for p in t:
        h, level = chain.sift(p.astype(chain.identity.dtype))
        assert level == len(chain.levels) and (h == chain.identity).all()
    if len(lmlt) < math.factorial(q.n):
        outside = next(p for p in itertools.permutations(range(q.n)) if Permutation(p) not in lmlt)
        h, level = chain.sift(np.array(outside, dtype=chain.identity.dtype))
        assert level < len(chain.levels) or (h != chain.identity).any()


def identity_moved(t, seed):
    """The table under a seeded permutation of the elements that moves 0."""
    rng = np.random.default_rng(seed)
    pi = rng.permutation(len(t))
    if pi[0] == 0:
        pi[[0, 1]] = pi[[1, 0]]
    out = np.empty_like(t)
    out[pi[:, None], pi[None, :]] = pi[t]
    return out


@pytest.mark.parametrize("spec,seed", [("cyclic:3", 0), ("wr:3", 1), ("sd:31:5:2", 2), ("ut:4:3", 3)])
def test_normalize_identity_matches_reference(spec, seed):
    arr = identity_moved(group(spec).tbl, seed)
    ref_out, ref_sigma = oracles.normalize_identity_scan(arr)
    out, sigma = normalize_identity(arr, core.classify(arr).identity_index)  # in place
    assert out is arr and (out == ref_out).all()
    assert sigma == ref_sigma and all(type(v) is int for v in sigma)
    # nothing to move: identity already at 0, or no two-sided identity
    for t in (group(spec).tbl, (np.arange(4)[:, None] - np.arange(4)[None, :]) % 4):
        for out, sigma in (normalize_identity(t, core.classify(t).identity_index), oracles.normalize_identity_scan(t)):
            assert out is t and sigma is None


def product_loop(t1, t2):
    """The direct product of two loop tables, element (a, b) at index a + len(t1) b,
    computed in intp (a library table is in a narrow unsigned dtype)."""
    n1, n2 = len(t1), len(t2)
    a, b = np.arange(n1 * n2) % n1, np.arange(n1 * n2) // n1
    t1, t2 = np.asarray(t1, dtype=np.intp), np.asarray(t2, dtype=np.intp)
    return t1[a[:, None], a[None, :]] + n1 * t2[b[:, None], b[None, :]]


def latin_loop(seed, commutative=False):
    """A seeded random loop of order 5 to 11: a random Latin square whose row
    and column 0 are the identity, filled cell by cell by backtracking over
    a random order of symbols per cell.  With commutative, each cell below
    the diagonal takes the value of its mirror image."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 12))
    t = np.full((n, n), -1)
    t[0], t[:, 0] = np.arange(n), np.arange(n)
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]
    choices = [rng.permutation(n) for _ in cells]

    def fill(c):
        if c == len(cells):
            return True
        i, j = cells[c]
        for v in [t[j, i]] if commutative and j < i else choices[c]:
            if v not in t[i, :j] and v not in t[:i, j]:
                t[i, j] = v
                if fill(c + 1):
                    return True
        t[i, j] = -1
        return False

    assert fill(0)
    return t


def passing_sets(t):
    """The x passing the middle nucleus law, the left Bol identity and (with
    two-sided inverses, else None) the P-map identity, with the operation
    each set is closed under, all by brute force over every triple."""
    n = len(t)
    x, y, z = np.indices((n, n, n))
    sets = [((t[t[y, x], z] == t[y, t[x, z]]).all(axis=(1, 2)), t),
            ((t[x, t[y, t[x, z]]] == t[t[x, t[y, x]], z]).all(axis=(1, 2)), t[np.arange(n)[:, None], t.T])]
    inv = oracles._two_sided_inverse(t)
    if inv is None:
        return sets + [None]
    P = oracles._ldiv(t)[inv[:, None], t.T]  # P[x, u] = x^-1 \ (u x)
    return sets + [((P[x, P[y, P[x, z]]] == P[P[x, y], z]).all(axis=(1, 2)), P)]


LATIN_SEEDS = list(range(200))
# in these random loops the set passing the left Bol (P-map) identity is no
# subloop: its least members generate the whole loop under the product, but
# not under (a, b) -> a(ba) (under (a, b) -> P_a(b))
BOL_MISLEADS = [2170, 5291, 6088]
P_MAP_MISLEADS = [1536, 2653, 2922]


def test_passing_sets_are_closed_under_their_operations():
    # the lemmas behind the generator tests, checked on random loops; in some
    # of them a passing set is not a subloop, so the operation matters
    not_subloops = [0, 0, 0]
    for seed in LATIN_SEEDS + BOL_MISLEADS + P_MAP_MISLEADS:
        t = latin_loop(seed)
        for i, entry in enumerate(passing_sets(t)):
            if entry is None:
                continue
            passing, op = entry
            xs = np.flatnonzero(passing)
            assert passing[op[np.ix_(xs, xs)]].all()
            not_subloops[i] += not passing[t[np.ix_(xs, xs)]].all()
    assert min(not_subloops[1:]) > 0


@pytest.mark.parametrize("seed", LATIN_SEEDS[:60] + BOL_MISLEADS + P_MAP_MISLEADS)
def test_random_latin_loops_match_references(seed):
    t = latin_loop(seed)
    assert_matches_references(t)
    # is_left_bruck stops at the inverse property in these loops; the Bol scan itself
    assert loops._left_bol_witness(t) == oracles.left_bol_scan(t)
    assert is_power_associative(Loop(CayleyTable(t))) == oracles.power_associative_scan(t)


# seeds whose backtracking ends quickly (seed 7 takes about 9 s)
COMMUTATIVE_LATIN_SEEDS = [0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 13]


@pytest.mark.parametrize("seed", COMMUTATIVE_LATIN_SEEDS)
def test_random_commutative_loops_match_references(seed):
    t = latin_loop(seed, commutative=True)
    assert (t == t.T).all()
    assert_matches_references(t)
    assert_inner_scans_match_references(t)


def cml81():
    """A nonassociative commutative Moufang loop of order 81, the least order
    with one, on GF(3)^4: x o y = x + y + (0, 0, 0, (x3 - y3)(x1 y2 - x2 y1))."""
    v = (np.arange(81)[:, None] // 3 ** np.arange(4)) % 3
    x, y = v[:, None, :], v[None, :, :]
    s = (x + y) % 3
    s[..., 3] = (s[..., 3] + (x[..., 2] - y[..., 2]) * (x[..., 0] * y[..., 1] - x[..., 1] * y[..., 0])) % 3
    return s @ 3 ** np.arange(4)


# latin_loop(seed, commutative=True) is an abelian group, so left Bol, for
# these seeds; for COMMUTATIVE_LATIN_SEEDS but 11 it is not left Bol
BOL_COMMUTATIVE_LATIN_SEEDS = [11, 23, 38]


def test_moufang_closure_matches_the_scan():
    # a commutative loop is Moufang exactly when it is left Bol: the closure
    # decides, and the scan gives the least witness of a failure; a
    # noncommutative loop is refused, and only the oracle scans it
    tables = [cml81()] + [latin_loop(seed, commutative=True)
                          for seed in COMMUTATIVE_LATIN_SEEDS + BOL_COMMUTATIVE_LATIN_SEEDS[1:]]
    tables += [latin_loop(seed) for seed in LATIN_SEEDS[:20]]
    for spec in SMALL_SPECS:
        tables += [circ_loop(group(spec)).tbl, oplus_loop(group(spec)).tbl]
    verdicts = []
    for t in tables:
        w, q = oracles.moufang_scan(t), Loop(CayleyTable(t))
        if q.commutativity is None:
            assert loops.is_moufang(q) == (w is None, w)
        else:
            with pytest.raises(GammaForgeError, match="commutative loops only"):
                loops.is_moufang(q)
        verdicts.append((bool((t == t.T).all()), w is None, oracles.assoc_scan(t) is None))
    assert verdicts[0] == (True, True, False)  # Moufang, not a group
    assert {(True, False, False), (False, False, False), (True, True, True)} <= set(verdicts)
    for seed in BOL_COMMUTATIVE_LATIN_SEEDS:
        assert loops._left_bol_witness(latin_loop(seed, commutative=True)) is None


def test_random_loops_are_decided_without_their_chain(monkeypatch):
    # the first map that does not sift refutes these loops after one n^2
    # test, so no chain of Mlt(Q), all of S_n for most random loops, is built
    # (for a random loop of order 64 it took about 5 s); no center builds one
    tests, real = [], loops._automorphism_witness
    monkeypatch.setattr(loops, "_automorphism_witness",
                        lambda t, phi: tests.append(sys._getframe(1).f_code.co_name) or real(t, phi))
    for t in (latin_loop(0, commutative=True), latin_loop(13, commutative=True)):
        q = Loop(CayleyTable(t))
        tests.clear()
        assert is_automorphic(q)[1] == oracles.automorphic_scan(t)
        assert tests.count("is_automorphic") == 1
        assert loop_center(q) == oracles.center_scan(t)[2]
    assert not hasattr(Loop, "inner_generators")
    for spec, size in (("ut:4:3", 27), ("sd:997:3:304", 1)):
        assert len(loop_center(circ_loop(group(spec)))) == size


def center_full_tests(q, monkeypatch):
    """loop_center(q) and the results of the full n^2 tests it runs: the
    calls of first_false_rows made from loop_center itself."""
    tests, real = [], loops.first_false_rows

    def spy(*args):
        w = real(*args)
        if sys._getframe(1).f_code.co_name == "loop_center":
            tests.append(w)
        return w

    monkeypatch.setattr(loops, "first_false_rows", spy)
    return loop_center(q), tests


def test_center_closure_runs_one_full_test_per_generator(monkeypatch):
    # Z(circ(ut:4:3)) is Z_3^3: 26 candidates survive the sieve, and the
    # closure takes all but the 3 that generate Z(Q) with no test of their
    # own (a center without the closure runs 26)
    q = circ_loop(group("ut:4:3"))
    z, tests = center_full_tests(q, monkeypatch)
    assert len(z) == 27 and tests == [None] * 3
    assert len(core.closure(q.n, lambda a, b: q.tbl[a, b], z)[1]) == 3


# in these random commutative loops the sieve on the loop's generators leaves
# a candidate that is not central, and only its full test refutes it (the
# first two such seeds from 0; seeds whose backtracking takes over 2 s skipped)
SIEVE_MISLEADS = [258, 259]


@pytest.mark.parametrize("seed", SIEVE_MISLEADS)
def test_center_sieve_survivors_take_the_full_test(seed, monkeypatch):
    t = latin_loop(seed, commutative=True)
    z, tests = center_full_tests(Loop(CayleyTable(t)), monkeypatch)
    assert z == oracles.center_scan(t)[2]
    assert any(w is not None for w in tests)


def assert_quotient_matches_reference(q):
    """The quotient by the center: table, coset map and names against the
    cosets and products formed by definition."""
    quot, block_of = loops.quotient_loop(q)
    table, blocks, reps = oracles.central_quotient_scan(q.tbl, q.center)
    assert quot.tbl.tolist() == table.tolist() and block_of.tolist() == blocks.tolist()
    assert quot.table.element_names == [q.label(r) + "*S" for r in reps]


# the catalog circ loops whose center is neither trivial nor the whole loop
PROPER_CENTER_SPECS = ["wr:3", "ut:4:3"]


def test_proper_centers_of_the_catalog():
    assert [s for s in CATALOG_SPECS if 1 < len(circ_loop(group(s)).center) < group(s).order] == PROPER_CENTER_SPECS


@pytest.mark.parametrize("spec", PROPER_CENTER_SPECS)
def test_central_quotients_match_the_coset_scan(spec):
    q = circ_loop(group(spec))
    assert_quotient_matches_reference(q)
    assert_quotient_matches_reference(Loop(CayleyTable(relabel(q.tbl, 5))))


@pytest.mark.parametrize("seed", COMMUTATIVE_LATIN_SEEDS[:4])
def test_central_quotients_of_products_with_z3_match_the_coset_scan(seed):
    # a random commutative loop times Z_3: the center holds {0} x Z_3
    t = product_loop(latin_loop(seed, commutative=True), group("cyclic:3").tbl)
    for table in (t, relabel(t, seed)):
        q = Loop(CayleyTable(table))
        assert 1 < len(q.center) < q.n
        assert_quotient_matches_reference(q)


def test_quotient_by_a_patched_center_is_refused():
    # the quotient trusts loop_center for a central subgroup; handed the Z_3
    # complement of sd:7:3:2, not normal, its cosets partition the group but
    # the cross-assert finds a cell that is not well defined, and {0, 1}, no
    # subgroup, fails the partition check
    q = Loop(group("sd:7:3:2").table)
    for patched, message in ((core.closure(q.n, lambda a, b: q.tbl[a, b], [7])[0], "is not well defined at"),
                             ((0, 1), "do not partition")):
        q.__dict__["center"] = patched
        with pytest.raises(GammaForgeError, match=f"internal inconsistency: .* {message}"):
            loops.quotient_loop(q)


def test_closure_matches_the_scalar_closure():
    # core.closure against the oracle's frontier closure, one scalar product at
    # a time: on group tables, and under the product, left Bol and P-map
    # operations of random Latin loops (0 is a left identity of each, so the
    # closure of 0 reaches the generators).  With the seed 0..n-1 it reaches
    # every element, and each generator is the least element that 0 and the
    # generators before it do not reach; with a random seed the generators
    # come from the seed and reach the same members
    ops = [group(spec).tbl for spec in ("cyclic:27", "sd:7:3:2", "wr:3", "heis:5")]
    for seed in LATIN_SEEDS[:40] + BOL_MISLEADS + P_MAP_MISLEADS:
        ops += [op for _, op in filter(None, passing_sets(latin_loop(seed)))]
    rng = np.random.default_rng(22)
    for op in ops:
        n, mul = len(op), lambda a, b: int(op[a, b])
        members, gens = core.closure(n, lambda a, b: op[a, b], range(n))
        assert members == tuple(range(n)) == oracles.subgroup_closure(mul, gens)
        for i, a in enumerate(gens):
            assert a == min(set(range(n)) - set(oracles.subgroup_closure(mul, gens[:i])))
        seed = rng.integers(0, n, size=3).tolist()
        members, gens = core.closure(n, lambda a, b: op[a, b], seed)
        assert set(gens) <= set(seed) and members == oracles.subgroup_closure(mul, gens)


def test_random_latin_loops_tell_the_operations_apart():
    # closing the passing generators under the product instead would find no
    # failure in these loops, though the references find one
    for seed in BOL_MISLEADS:
        t = latin_loop(seed)
        assert oracles.left_bol_scan(t) is not None
        assert loops._closure_witness(len(t), lambda x, y: t[x, y],
                                      lambda x, ys: (t[x][t[ys][:, t[x]]], t[t[x, t[ys, x]]])) is None
    for seed in P_MAP_MISLEADS:
        t = latin_loop(seed)
        P = passing_sets(t)[2][1]
        assert oracles.gamma_axioms_scan(t)[1][0] is False
        assert loops._closure_witness(len(t), lambda x, y: t[x, y],
                                      lambda x, ys: (P[x][P[ys][:, P[x]]], P[P[x, ys]])) is None


PRODUCT_CASES = [(kind, seed, first) for kind in ("circ", "oplus")
                 for seed in (2, 6) for first in (True, False)]


def product_case(kind, seed, first):
    """circ or oplus of sd:7:3:2 times a random odd cocycle loop of order 15,
    in either order: the generators from the catalog factor pass (but for
    the left Bol identity in circ), so witnesses lie past passing subloops."""
    q = (circ_loop if kind == "circ" else oplus_loop)(group("sd:7:3:2")).tbl
    r = cocycle_loop(seed, 3, 5, odd=True)
    return product_loop(q, r) if first else product_loop(r, q)


@pytest.mark.parametrize("kind,seed,first", PRODUCT_CASES)
def test_product_loops_match_references(kind, seed, first):
    t = product_case(kind, seed, first)
    for table in (t, relabel(t, seed)):
        assert_identity_scans_match_references(table)
        assert is_power_associative(Loop(CayleyTable(table))) == oracles.power_associative_scan(table)


def test_product_loops_reach_late_witnesses():
    witnesses = []
    for case in PRODUCT_CASES:
        q = Loop(CayleyTable(product_case(*case)))
        witnesses += [check_gamma_axioms(q).p_map_identity.witness, is_left_bruck(q)[1]]
    assert all(w is not None for w in witnesses)
    assert sum(w[0] > 1 for w in witnesses) >= 12


# --- element powers: the power cycles against scalar powers


def assert_power_cycles_match_scalar_powers(q):
    """q.power_cycles holds, for each x in ascending order that is no power of
    an x before it, the cycle of its left powers, of the length given by
    oracles.loop_order_of; sqrt_table is x^((m+1)/2) for the order m of each
    x, or raises with the least x of even order."""
    orders = [oracles.loop_order_of(q, x) for x in range(q.n)]
    heads, covered = [], np.arange(q.n) == 0
    for m, pw in q.power_cycles.items():
        assert pw.dtype == q.tbl.dtype and pw.shape[1] == m and not pw.flags.writeable
        assert (pw[:, 0] == 0).all() and (pw[:, 1:] == q.tbl[pw[:, :-1], pw[:, 1:2]]).all()  # x^k = x^(k-1) x
        assert (q.tbl[pw[:, -1], pw[:, 1]] == 0).all() and pw[:, 1].tolist() == sorted(pw[:, 1].tolist())
        heads += [(x, m, row) for x, row in zip(pw[:, 1].tolist(), pw)]
    for x, m, row in sorted(heads, key=lambda h: h[0]):
        assert not covered[x] and m == orders[x]
        covered[row] = True
    assert covered.all()
    even = [x for x, m in enumerate(orders) if m % 2 == 0]
    if even:
        with pytest.raises(EvenOrderError, match=rf"^element {re.escape(q.label(even[0]))} has even order {orders[even[0]]}$"):
            q.sqrt_table
    else:
        assert q.sqrt_table.tolist() == [oracles.left_power(q, x, (m + 1) // 2) for x, m in enumerate(orders)]


@pytest.mark.parametrize("spec", SMALL_SPECS + ["ut:4:3", "cyclic:2187", "cyclic:12", "dp:sd:7:3:2,cyclic:4"])
def test_walked_group_powers_match_scalar_powers(spec):
    assert_power_cycles_match_scalar_powers(group(spec))


@pytest.mark.parametrize("spec", [s for s in SMALL_SPECS if group(s).order <= 81])
def test_walked_loop_powers_match_scalar_powers(spec):
    for q in (circ_loop(group(spec)), oplus_loop(group(spec))):
        assert_power_cycles_match_scalar_powers(q)


def test_even_orders_have_one_message():
    # a group and a loop take their roots from one walk, with one text for an even order
    g = group("cyclic:12")
    for q in (g, Loop(g.table)):
        with pytest.raises(EvenOrderError, match=r"^element 1 has even order 12$"):
            q.sqrt_table
    g = group("sd:7:3:2")
    t = product_loop(g.tbl, group("cyclic:2").tbl)  # element (a, b) at a + 21 b: (0, 1) has order 2
    with pytest.raises(EvenOrderError, match=r"^element 21 has even order 2$"):
        Loop(CayleyTable(t)).sqrt_table


def seeded_loops():
    """Seeded loops, most not power-associative: cocycle and twisted loops of
    order 15, circ(sd:7:3:2) times a cocycle loop, and relabelings of these."""
    circ21 = circ_loop(group("sd:7:3:2")).tbl
    out = []
    for seed in range(4):
        for t in (cocycle_loop(seed, 3, 5), cocycle_loop(seed, 5, 3), twisted_loop(seed, 3, 5),
                  product_loop(circ21, cocycle_loop(seed, 3, 5))):
            out += [t, relabel(t, seed)]
    return out


@pytest.mark.parametrize("rows", [128, 1])
def test_power_associativity_matches_references_on_seeded_loops(rows, monkeypatch):
    witnesses = []
    for t in seeded_loops():
        # 128 rows of n cells: every gather whole; 1 cell: each row x^i of a gather is its own block
        monkeypatch.setattr(core, "_BLOCK_CELLS", rows * len(t) if rows > 1 else 1)
        q = Loop(CayleyTable(t))
        verdict = is_power_associative(q)
        assert verdict == oracles.power_associative_scan(t)
        if not verdict[0]:
            assert powers_coincide(group(f"cyclic:{q.n}"), q) == (False, (verdict[1], -1))
            witnesses.append(verdict[1])
    # most witnesses lie past the first x tested, some past a whole subloop of 21 covered elements
    assert len(witnesses) >= 28 and sum(w > 1 for w in witnesses) >= 16 and max(witnesses) >= 63


@pytest.mark.parametrize("spec", SMALL_SPECS + ["ut:4:3", "cyclic:2187"])
def test_batched_power_associativity_matches_the_scan_one_x_at_a_time(spec):
    # every catalog circ and oplus loop up to 243, circ(ut:4:3) and the
    # group cyclic:2187 (its own circ loop), whose one cycle of 2187 powers
    # takes several row blocks of one x
    g = group(spec)
    for t in ((g.tbl,) if spec == "cyclic:2187" else (circ_loop(g).tbl, oplus_loop(g).tbl)):
        assert is_power_associative(Loop(CayleyTable(t))) == oracles.power_associative_by_element(t) == (True, None)


def _collected_cycles(t):
    """(x, m, passes) for each x, ascending, that is no power of an x before
    it: the length m of its cycle of left powers, and whether <x> is associative."""
    q, covered, out = Loop(CayleyTable(t)), np.arange(len(t)) == 0, []
    for x in range(1, len(t)):
        if not covered[x]:
            m = oracles.loop_order_of(q, x)
            covered[[oracles.left_power(q, x, k) for k in range(m)]] = True
            out.append((x, m, oracles.cyclic_powers(t, x) is not None))
    return out


def test_power_associativity_witness_in_a_later_length_batch():
    # the least witness lies in a batch of another length than the first x's,
    # and in the two twisted loops a larger x fails in a length batch opened
    # before the witness's: the witness is the least failing x over all batches
    later = 0
    for t in seeded_loops() + [twisted_loop(72, 5, 3), twisted_loop(281, 5, 3)]:
        verdict = is_power_associative(Loop(CayleyTable(t)))
        assert verdict == oracles.power_associative_by_element(t)
        if not verdict[0]:
            cycles = _collected_cycles(t)
            w, m = next((x, m) for x, m, ok in cycles if not ok)
            assert verdict == (False, w)
            later += m != cycles[0][1]
    assert later >= 10
    for t, witness, batches in ((twisted_loop(72, 5, 3), 6, [5, 3, 9, 6]), (twisted_loop(281, 5, 3), 6, [5, 3, 12, 15])):
        cycles = _collected_cycles(t)
        assert list(dict.fromkeys(m for _, m, _ in cycles)) == batches
        m = next(m for x, m, _ in cycles if x == witness)
        assert any(x > witness and not ok and batches.index(mx) < batches.index(m) for x, mx, ok in cycles)


def test_power_associativity_keeps_each_block_within_the_budget():
    # the one cycle of cyclic:2187 holds 2187^2 cells, 38 MB of intp flat
    # indices if gathered whole; a block of rows of that cycle per step stays
    # near the budget
    q = Loop(group("cyclic:2187").table)
    tracemalloc.start()
    try:
        assert is_power_associative(q) == (True, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_cyclic_powers_decide_each_generated_submagma():
    # a closure test of <x>, then its left powers, which close at the order of x
    small = [t for t in seeded_loops() if len(t) == 15]
    for t in small + [circ_loop(group("sd:7:3:2")).tbl, cocycle_loop(3, 5, 3, odd=True)]:
        q = Loop(CayleyTable(t))
        for x in range(len(t)):
            pw = oracles.cyclic_powers(t, x)
            assert (pw is not None) == oracles.submagma_is_associative(t, x)
            if pw is not None:
                assert pw.tolist() == [oracles.left_power(q, x, k) for k in range(len(pw))]
                assert len(pw) == oracles.loop_order_of(q, x)


@pytest.mark.parametrize("spec", [s for s in SMALL_SPECS if group(s).order <= 125] + ["ut:4:3"])
def test_powers_coincide_matches_the_scalar_loop(spec):
    g = group(spec)
    for t in (circ_loop(g).tbl, oplus_loop(g).tbl, relabel(g.tbl, 1), relabel(g.tbl, 2)):
        assert powers_coincide(g, Loop(CayleyTable(t))) == oracles.powers_coincide_scan(g.tbl, t)


def test_powers_coincide_witnesses_reach_late_exponents():
    ks = set()
    for spec in ("sd:7:3:2", "cyclic:27", "sd:31:5:2", "heis:5"):
        g = group(spec)
        for seed in range(6):
            t = relabel(g.tbl, seed)
            got = powers_coincide(g, Loop(CayleyTable(t)))
            assert got == oracles.powers_coincide_scan(g.tbl, t)
            ks.add(got[1][1])
    assert max(ks) > 2


def test_powers_coincide_witness_may_be_a_later_head_of_its_length():
    # every head of Z3 x Z3 has a cycle of 3 powers; relabelled by the swap of
    # 4 and 5, the powers of 1 and 3 still agree, and the least x whose powers
    # differ is a head after the first two of that one length
    g = group("dp:cyclic:3,cyclic:3")
    pi = np.arange(9)
    pi[[4, 5]] = [5, 4]
    t = pi[g.tbl[pi[:, None], pi]]  # the swap is its own inverse
    q = Loop(CayleyTable(t))
    got = powers_coincide(g, q)
    assert got == oracles.powers_coincide_scan(g.tbl, t) and not got[0]
    assert list(q.power_cycles) == [3] and got[1][0] in q.power_cycles[3][2:, 1].tolist()


@pytest.mark.parametrize("spec", SMALL_SPECS + ["ut:4:3"])
def test_divisions_match_the_argsort_they_replace(spec):
    # rows c\. of the left division, and the right division columns ./c
    # through the transpose, for all c, for c in any order with repeats, and
    # for a few random c, against argsort; on groups (ut:4:3 is uint16 and
    # noncommutative), relabeled oplus loops and noncommutative twisted loops
    g = group(spec)
    for t in (g.tbl, relabel(oplus_loop(g).tbl, 5), twisted_loop(len(spec), 3, 5)):
        c = CayleyTable(t).table
        n = len(c)
        for cs in (np.arange(n), np.array([n - 1, 0, n - 1]), np.random.default_rng(n).integers(0, n, 3)):
            left, right = core.divide_rows(c, cs), core.divide_rows(c.T, cs)
            assert left.dtype == right.dtype == core.element_dtype(n)
            assert (left == np.argsort(t, axis=1)[cs]).all()
            assert (right == np.argsort(t, axis=0)[:, cs].T).all()


def mutated_tables(t, seed):
    """Copies of a Latin table t, each broken one way: a repeated entry in a
    row, two entries of a row swapped (the rows stay permutations, two
    columns break), and every row equal to the first (only columns break)."""
    rng = np.random.default_rng(seed)
    n = len(t)
    x, y, z = (int(v) for v in rng.integers(0, n, 3))
    repeated, swapped = t.copy(), t.copy()
    repeated[x, y] = t[x, (y + 1) % n]
    swapped[x, [y, (y + 1) % n]] = t[x, [(y + 1) % n, y]]
    return repeated, swapped, np.tile(t[z], (n, 1))


@pytest.mark.parametrize("rows", [3, 128])
def test_classify_marks_match_the_sort_they_replace(rows, monkeypatch):
    # the row and column marks of classify against the sorted rows and
    # columns of oracles.classify_by_sort: verdict, identity and witness text
    tables = []
    for i, spec in enumerate(SMALL_SPECS):
        g = group(spec)
        tables += [g.tbl, relabel(oplus_loop(g).tbl, i), (2 * np.arange(g.order)[:, None] + np.arange(g.order)) % g.order]
    tables += [twisted_loop(seed, 3, 5) for seed in range(3)] + [cocycle_loop(seed, 5, 7) for seed in range(3)]
    tables += [mut for i, t in enumerate(list(tables)) for mut in mutated_tables(np.asarray(t), i)]
    tables.append(np.roll(np.arange(9), 4)[np.add.outer(np.arange(9), np.arange(9)) % 9])
    texts = set()
    for t in tables:
        monkeypatch.setattr(core, "_BLOCK_CELLS", rows * len(t))
        res = core.classify(CayleyTable(t))
        latin, identity, witness = oracles.classify_by_sort(t)
        assert (res.is_latin, res.identity_index, res.witness) == (latin, identity, witness)
        assert res.is_loop == (identity is not None)
        texts.add(witness.split()[0] if witness else None)
    assert texts == {None, "row", "column", "no"}


def test_inverses_are_read_from_the_zero_cells():
    # the inverses of a loop against the division tables they were read from
    loops_ = [f(group(spec)) for spec in ("sd:7:3:2", "wr:3", "sd:31:5:2") for f in (circ_loop, oplus_loop)]
    loops_ += [Loop(CayleyTable(t)) for t in
               [twisted_loop(seed, 3, 5) for seed in range(4)] + [cocycle_loop(seed, 5, 7) for seed in range(4)]]
    two_sided = set()
    for q in loops_:
        assert (q.right_inverses == oracles._ldiv(q.tbl)[:, 0]).all()
        assert (q.left_inverses == oracles._rdiv(q.tbl)[0, :]).all()
        assert q.right_inverses.dtype == q.left_inverses.dtype == core.element_dtype(q.n)
        two_sided.add(q.inverse is not None)
    assert two_sided == {True, False}


lmap_scan = checks._lmap_scan


@pytest.fixture
def scans(monkeypatch):
    """The calls _lmap_witness makes to the L-map scan: "gens" when it compares
    the generators only, else "whole"."""
    calls = []
    monkeypatch.setattr(checks, "_lmap_scan", lambda q, lxy, nH, gens=None:
                        calls.append("whole" if gens is None else "gens") or lmap_scan(q, lxy, nH, gens))
    return calls


@pytest.mark.parametrize("spec", [s for s in CATALOG_SPECS if s.startswith("sd:")])
def test_closed_form_fast_path_matches_the_per_x_scan(spec, scans):
    g = group(spec)
    forms, q = SdForms(g.sd_spec), circ_loop(g)
    nH, nF = forms.nH, forms.nF
    assert is_automorphic(q) == (True, None)
    assert checks._lmap_witness(q, forms.lxy_table, nH, True) is None and scans == ["gens"]
    assert lmap_scan(q, forms.lxy_table, nH) is None

    # a mutated entry of the last F-block's rows of y in the last F-part:
    # the first x of the block differs, and the scan names it
    def mutated(f, f2):
        table = forms.lxy_table(f, f2)
        if f == f2 == nF - 1:
            table[5, 2] = (table[5, 2] + 1) % g.order
        return table

    assert checks._lmap_witness(q, mutated, nH, True) == ((nF - 1) * nH, (nF - 1) * nH + 5, 2)
    assert scans == ["gens"] * 2 + ["whole"]
    # one block of all n elements with the table of x = 0: its first x agrees,
    # so only the generator compare of the other x can catch it
    one_block = lambda f, f2: oracles.whole_table(lambda k: forms.lxy_table(0, k), nF)
    w = lmap_scan(q, one_block, g.order)
    assert w is not None and w[0] > 0
    assert checks._lmap_witness(q, one_block, g.order, True) == w and scans == ["gens"] * 2 + ["whole"] + ["gens", "whole"]


@pytest.mark.parametrize("what,method", [("commutator", "commutator_table"), ("circ product", "circ_table"),
                                         ("circ division", "ldiv_table")])
def test_closed_form_check_names_a_mutated_cell_in_whole_table_indices(what, method, monkeypatch):
    # each table comes as the rows of one F-part of x at a time; the cells
    # mutated in the last F-part of sd:7:3:2 (rows 14..20) are named in the
    # indices of the whole table, the least first, past a row block (3 rows)
    g = group("sd:7:3:2")
    monkeypatch.setattr(core, "_BLOCK_CELLS", 3 * g.order)
    real = getattr(SdForms, method)

    def mutated(self, f):
        rows = real(self, f)
        if f == self.nF - 1:
            rows[[6, 5], [1, 2]] = (rows[[6, 5], [1, 2]] + 1) % g.order
        return rows

    monkeypatch.setattr(SdForms, method, mutated)
    [check] = checks.run_checks(g, ["closed-form-agreement"]).checks
    assert (check.verdict, check.witness) == ("fail", f"{what} differs at ({g.label(19)},{g.label(2)})")


@pytest.mark.parametrize("spec", ["sd:7:3:2", "sd:13:3:3", "wr:3"])
def test_closed_form_fast_path_needs_an_automorphic_loop(spec, scans):
    # the oplus loop of a split extension is not automorphic: every x is
    # compared whole at once, with the L maps of the first x of each block as
    # the tables, against the scalar inner maps of the oracle
    g = group(spec)
    q, nH = oplus_loop(g), g.sd_spec.nH
    Ls = oracles.inner_generators(q.tbl).Ls
    assert oracles.automorphic_scan(q.tbl) is not None
    w = checks._lmap_witness(q, lambda f, f2: Ls[f * nH, f2 * nH:(f2 + 1) * nH], nH, False)
    firsts = [(x, *np.argwhere(Ls[x] != Ls[x // nH * nH])[0]) for x in range(q.n)
              if (Ls[x] != Ls[x // nH * nH]).any()]
    assert scans == ["whole"] and w == firsts[0]


def test_generator_compare_misleads_without_automorphisms():
    # why the fast path needs an automorphic loop: in this twisted loop of
    # order 15, L_{13,y} and L_{12,y} agree on the loop's generators {1, 3}
    # for every y, and differ
    q = Loop(CayleyTable(twisted_loop(5, 3, 5)))
    Ls = oracles.inner_generators(q.tbl).Ls
    gens = q.generators.tolist()
    assert gens == [1, 3] and oracles.automorphic_scan(q.tbl) is not None
    assert (Ls[13][:, gens] == Ls[12][:, gens]).all() and not (Ls[13] == Ls[12]).all()


def test_generator_compare_reads_every_generator():
    # the scan on generators against the scalar maps: with the identity maps
    # of x = 0 as the table of one block of all x, it names the first x, y
    # and index into gens at which some L_{x,y} moves a generator
    for seed in range(4):
        q = Loop(CayleyTable(twisted_loop(seed, 3, 5)))
        Ls = oracles.inner_generators(q.tbl).Ls
        for gens in (np.array([1, 3]), np.array([2, 7]), np.array([1, 2])):
            moved = [(x, *np.argwhere(Ls[x][:, gens] != gens)[0]) for x in range(q.n) if (Ls[x][:, gens] != gens).any()]
            assert lmap_scan(q, lambda f, f2: Ls[0], q.n, gens) == moved[0]
