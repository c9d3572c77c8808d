"""Differential tests: each fast loop scan against the slow scan it replaced.

The references in ``oracles`` are the per-x associativity scan, the per-(x, y)
left Bruck, P-map and inner-mapping scans, the per-a nucleus scan, the
per-(x, y) Bruck -> Gamma translation and the per-cell identity relabeling,
run on raw arrays.  Verdicts and witnesses, tables and error messages must
agree exactly, so the fast paths keep the least witness.
"""

from functools import lru_cache

import numpy as np
import pytest

import oracles
from gamma_forge.catalog import CATALOG_SPECS
from gamma_forge.constructions import circ_loop, gamma_from_bruck, oplus_loop
from gamma_forge.core import CayleyTable, ConstructionError, EvenOrderError
from gamma_forge import loops
from gamma_forge.groups import Group, construct
from gamma_forge.loops import (
    AutomorphicVerdict,
    Loop,
    associativity_witness,
    check_gamma_axioms,
    is_automorphic,
    is_left_bruck,
)
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


def cocycle_loop(seed, m, k, odd=False):
    """A seeded random loop on Z_m x Z_k, element (a, b) at index a + m b:
    (a, b)(c, d) = (a + c + f(b, d), b + d) for a random f that vanishes on
    the axes (so (0, 0) is the identity) and on the pairs (b, -b) (so
    inverses are two-sided).  A random f is no 2-cocycle, so the loop is not
    associative.  With odd (m and k odd), f(-b, -d) = -f(b, d), which gives
    the automorphic inverse property, so the Bruck scan reaches its rows."""
    rng = np.random.default_rng(seed)
    f = rng.integers(0, m, (k, k))
    neg = -np.arange(k) % k
    if odd:
        f = (f - f[np.ix_(neg, neg)]) % m
    f[0, :] = f[:, 0] = f[np.arange(k), neg] = 0
    a, b = np.arange(m * k) % m, np.arange(m * k) // m
    return (a[:, None] + a[None, :] + f[b[:, None], b[None, :]]) % m + m * ((b[:, None] + b[None, :]) % k)


def twisted_loop(seed, m, k):
    """A seeded random loop on Z_m x Z_k: (a, b)(c, d) = (phi_bd(a + c), b + d)
    for random permutations phi_bd of Z_m, the identity when b or d is 0.
    Unlike cocycle_loop its translation commutators need not have odd order."""
    rng = np.random.default_rng(seed)
    phi = np.array([[rng.permutation(m) for _ in range(k)] for _ in range(k)])
    phi[0, :] = phi[:, 0] = np.arange(m)
    a, b = np.arange(m * k) % m, np.arange(m * k) // m
    return phi[b[:, None], b[None, :], (a[:, None] + a[None, :]) % m] + m * ((b[:, None] + b[None, :]) % k)


def assert_inner_scans_match_references(t):
    """The inner-mapping scan and, at odd order, the Bruck -> Gamma translation."""
    q = Loop(CayleyTable(t))
    w = oracles.automorphic_scan(t)
    assert is_automorphic(q, probes=0) == AutomorphicVerdict(
        "true" if w is None else "false", w, exhaustive=True)
    if len(t) % 2 == 0:
        return
    table, message = oracles.gamma_from_bruck_scan(t)
    if message is None:
        assert (gamma_from_bruck(q, verify=False).tbl == table).all()
    else:
        with pytest.raises(EvenOrderError) as err:
            gamma_from_bruck(q, verify=False)
        assert str(err.value) == message


def assert_matches_references(t):
    q = Loop(CayleyTable(t))
    w = oracles.assoc_scan(t)
    assert associativity_witness(t) == w
    assert q.is_associative() == (w is None, w)
    data = q.center_data
    assert (data.commutant, data.nucleus, data.center) == oracles.center_scan(t)
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
    assert associativity_witness(g.tbl) is None and oracles.assoc_scan(g.tbl) is None
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
    # blocks of 3 rows put most witnesses and dropped nucleus candidates past
    # the first block, which the 128-row blocks reach only above order 128
    monkeypatch.setattr(loops, "_ROW_BLOCK", 3)
    for seed, m, k, odd in RANDOM_LOOPS:
        assert_matches_references(relabel(cocycle_loop(seed, m, k, odd), seed))
    for spec in ("sd:7:3:2", "wr:3", "heis:3", "sd:11:5:3"):
        for q in (circ_loop(group(spec)), oplus_loop(group(spec))):
            assert_matches_references(relabel(q.tbl, 8))
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


def test_twisted_loops_reach_even_orders_and_late_witnesses():
    # the inputs above must exercise both translation outcomes, and inner-map
    # failures found only after whole blocks of passing maps
    outcomes = [oracles.gamma_from_bruck_scan(twisted_loop(*p))[1] for p in TWISTED_LOOPS]
    assert outcomes[0] is None
    assert outcomes[2] == "translation commutator at (3,6) has even order 6"
    assert "has even order 30" in outcomes[5]
    assert all(oracles.automorphic_scan(twisted_loop(*p))[1] > 1 for p in TWISTED_LOOPS)


def test_hash_collisions_never_skip_a_map(monkeypatch):
    # with zero weights every map has hash 0, so only exact comparison with
    # the first map tells maps apart
    monkeypatch.setattr(loops, "_MAP_HASH_WEIGHTS", np.zeros_like(loops._MAP_HASH_WEIGHTS))
    tables = [relabel(twisted_loop(seed, m, k), seed) for seed, m, k in TWISTED_LOOPS[:4]]
    tables += [relabel(cocycle_loop(seed, m, k, odd), seed) for seed, m, k, odd in RANDOM_LOOPS[:3]]
    tables += [circ_loop(group("sd:7:3:2")).tbl, relabel(oplus_loop(group("sd:7:3:2")).tbl, 3),
               oplus_loop(group("wr:3")).tbl]
    for t in tables:
        w = oracles.automorphic_scan(t)
        assert is_automorphic(Loop(CayleyTable(t)), probes=0).witness == w


@pytest.mark.parametrize("spec,witness", [("sd:7:3:2", ("R", 1, 7, 7, 7)), ("wr:3", ("T", 1, -1, 27, 27))])
def test_oplus_inner_map_witnesses(spec, witness):
    v = is_automorphic(oplus_loop(group(spec)), probes=0)
    assert (v.status, v.witness, v.exhaustive) == ("false", witness, True)


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
    out, sigma = normalize_identity(arr)
    ref_out, ref_sigma = oracles.normalize_identity_scan(arr)
    assert (out == ref_out).all() and out.dtype == arr.dtype
    assert sigma == ref_sigma and all(type(v) is int for v in sigma)
    # nothing to move: identity already at 0, or no two-sided identity
    for t in (group(spec).tbl, (np.arange(4)[:, None] - np.arange(4)[None, :]) % 4):
        for out, sigma in (normalize_identity(t), oracles.normalize_identity_scan(t)):
            assert out is t and sigma is None
