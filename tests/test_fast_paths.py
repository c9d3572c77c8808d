"""Differential tests: each fast loop scan against the slow scan it replaced.

The references in ``oracles`` are the per-x associativity scan, the per-(x, y)
left Bruck and P-map scans and the per-a nucleus scan, run on raw arrays.
Verdicts and witnesses must agree exactly, so the fast paths keep the least
witness.
"""

from functools import lru_cache

import numpy as np
import pytest

import oracles
from gamma_forge.catalog import CATALOG_SPECS
from gamma_forge.constructions import circ_loop, oplus_loop
from gamma_forge.core import CayleyTable, ConstructionError
from gamma_forge import loops
from gamma_forge.groups import Group, construct
from gamma_forge.loops import Loop, associativity_witness, check_gamma_axioms, is_left_bruck


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
    for q in (circ_loop(g), oplus_loop(g)):
        assert_matches_references(q.tbl)


@pytest.mark.parametrize("spec,seed", [("sd:7:3:2", 1), ("wr:3", 2), ("heis:3", 3), ("sd:11:5:3", 4)])
def test_relabeled_loops_match_references(spec, seed):
    for q in (circ_loop(group(spec)), oplus_loop(group(spec))):
        assert_matches_references(relabel(q.tbl, seed))


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
