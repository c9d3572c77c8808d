"""Group constructors, commutator machinery, series, and predicates."""

import itertools
import random

import numpy as np
import pytest

import oracles
from gamma_forge import checks, core, groups, tableio
from gamma_forge.catalog import CATALOG_SPECS
from gamma_forge.core import CayleyTable, ConstructionError, EvenOrderError, build_table, closure, left_power_walk
from gamma_forge.groups import (
    Group,
    SemidirectSpec,
    SpecParseError,
    Subgroup,
    center,
    construct,
    cyclic,
    derived_series,
    derived_subgroup,
    direct,
    from_file,
    heisenberg,
    is_metabelian,
    is_two_engel,
    is_uniquely_2_divisible,
    lower_central_series,
    nilpotency_class,
    sd,
    unitriangular,
    upper_central_series,
)
from gamma_forge.checks import commutator_identities_hold, metabelian_identities_hold, run_checks
from gamma_forge.constructions import circ_loop
from gamma_forge.loops import Loop


@pytest.fixture(scope="module")
def g21():
    return construct("sd:7:3:2")


@pytest.fixture(scope="module")
def w81():
    return construct("wr:3")


def test_cyclic_basic():
    z7 = cyclic(7)
    assert z7.order == 7
    assert z7.mul(3, 5) == 1
    assert z7.inverse[2] == 5


def test_a_group_is_a_loop_with_read_only_inverses_and_roots():
    # the inverses a group reads are the Loop's right inverses, and like its
    # square roots they cannot be written, in a group or a loop
    g = construct("sd:7:3:2")
    q = circ_loop(g)
    assert isinstance(g, Loop)
    assert g.inverse is g.right_inverses and q.inverse is q.right_inverses
    assert (g.tbl[np.arange(g.order), g.inverse] == 0).all()
    for a in (g.inverse, g.right_inverses, g.sqrt_table, q.right_inverses, q.sqrt_table):
        assert not a.flags.writeable


def test_direct_product():
    g = direct([cyclic(3), cyclic(5)])
    assert g.order == 15
    assert g.commutativity is None
    assert g.label(0) == "(0,0)"


def test_sd_construction_matches_oracle(g21):
    assert g21.order == 21
    assert g21.commutativity is not None
    for a in oracles.P21:
        for b in oracles.P21:
            got = g21.mul(oracles.idx21(a), oracles.idx21(b))
            assert got == oracles.idx21(oracles.mul21(a, b))


def test_sd_rejects_bad_action():
    with pytest.raises(ConstructionError, match="invalid action"):
        sd(7, 3, 3)  # 3^3 = 27 = 6 mod 7


def test_sd_even_order_rejected():
    with pytest.raises(ConstructionError, match="odd"):
        sd(9, 2, 8)  # valid action but even acting group


def test_heisenberg_structure():
    h = heisenberg(3)
    assert h.order == 27
    assert nilpotency_class(h) == 2
    assert center(h).order == 3
    series = upper_central_series(h)
    assert series[-1].order == 27  # second center is everything


def test_wreath_structure(w81):
    assert w81.order == 81
    assert nilpotency_class(w81) == 3
    series = upper_central_series(w81)
    assert [s.order for s in series] == [1, 3, 9, 81]
    low = lower_central_series(w81)
    assert [s.order for s in low] == [81, 9, 3, 1]


def test_wreath_gamma3_is_diagonal(w81):
    # third lower-central term: diagonal vectors (c,c,c) with trivial top part
    low = lower_central_series(w81)
    gamma3 = set(low[2].members)
    expected = {oracles.idx81(((c, c, c), 0)) for c in range(3)}
    assert gamma3 == expected


def test_wreath_matches_oracle(w81):
    rng = np.random.default_rng(0)
    for _ in range(300):
        i, j = int(rng.integers(81)), int(rng.integers(81))
        a, b = oracles.P81[i], oracles.P81[j]
        assert w81.mul(i, j) == oracles.idx81(oracles.mul81(a, b))


def test_unitriangular_table_group():
    u = unitriangular(3, 3)
    assert isinstance(u, Group)
    assert u.order == 27
    assert nilpotency_class(u) == 2


def test_unitriangular_functional(monkeypatch):
    # ut:5:3 is above the table cap, so the library refuses it; its rule,
    # held by the oracle shim, gives the series from the normal closures of
    # the generators' commutators
    monkeypatch.delenv("GAMMA_FORGE_TABLE_CAP", raising=False)
    with pytest.raises(ConstructionError, match="order 59049 of UT\\(5,3\\) is above the table cap 3000"):
        unitriangular(5, 3)
    u = oracles.rule_group("unitriangular", 5, 3)
    assert u.order == 3 ** 10
    # generators have order 3
    for g0 in u.gens:
        assert g0 != 0 and u.mul(u.mul(g0, g0), g0) == 0
    assert [len(s) for s in oracles.functional_series(u, True)] == [3 ** 10, 729, 3, 1]  # not metabelian
    lower = oracles.functional_series(u, False)
    assert len(lower) - 1 == 4 and lower[-1] == (0,)  # class 4


def test_ut43_metabelian_class3():
    u = construct("ut:4:3")
    assert isinstance(u, Group)
    assert u.order == 729
    assert is_metabelian(u)
    assert nilpotency_class(u) == 3


def test_commutator_examples(g21):
    xs = np.arange(9)
    assert (cyclic(9).commutator(xs[:, None], xs) == 0).all()
    x, y = oracles.idx21((1, 0)), oracles.idx21((0, 1))
    assert g21.label(g21.commutator(x, y)) == "(3,0)"
    assert g21.label(oracles.nested_commutator(g21, [x, y, y])) == "(2,0)"
    assert g21.commutator(x, y) == oracles.commutator(g21, x, y) == oracles.idx21(oracles.comm21((1, 0), (0, 1)))


def test_u2d_examples(g21):
    assert is_uniquely_2_divisible(cyclic(7))
    assert not is_uniquely_2_divisible(cyclic(2))
    assert is_uniquely_2_divisible(g21)


@pytest.mark.parametrize("spec", ["cyclic:27", "cyclic:28", "dp:cyclic:3,cyclic:4"])
def test_u2d_matches_product_scan(spec):
    # the distinct squares of the table against one product at a time, at odd and even orders
    g = construct(spec)
    expected = oracles.uniquely_2_divisible_scan(g)
    assert expected == (g.order % 2 == 1)
    assert is_uniquely_2_divisible(g) == expected


def test_sqrt_examples(g21):
    assert cyclic(7).sqrt_table[4] == 2
    assert g21.label(g21.sqrt_table[oracles.idx21((4, 0))]) == "(2,0)"
    assert g21.label(g21.sqrt_table[oracles.idx21((0, 1))]) == "(0,2)"
    with pytest.raises(EvenOrderError):
        cyclic(4).sqrt_table


def test_sqrt_of_square_is_identity_map(g21):
    assert (g21.sqrt_table[g21.squares] == np.arange(g21.order)).all()
    h = heisenberg(3)
    assert (h.sqrt_table[h.squares] == np.arange(h.order)).all()


def test_group21_series(g21):
    assert center(g21).order == 1
    series = upper_central_series(g21)
    assert [s.order for s in series] == [1]  # stalls at the trivial subgroup
    assert nilpotency_class(g21) is None
    low = lower_central_series(g21)
    assert low[1].order == 7  # derived part is the normal cyclic factor
    assert low[-1].order == 7  # never reaches 1


def test_derived_and_metabelian(g21):
    z = direct([cyclic(3), cyclic(9)])
    assert is_metabelian(z)
    assert derived_series(z)[-1].order == 1
    assert is_metabelian(g21)
    members, _ = derived_subgroup(g21)
    assert set(g21.label(m) for m in members) == {f"({h},0)" for h in range(7)}


def test_two_engel_examples(g21):
    ok, w = is_two_engel(cyclic(9))
    assert ok and w is None
    ok, w = is_two_engel(heisenberg(3))
    assert ok
    ok, w = is_two_engel(g21)
    assert not ok
    assert (g21.label(w[0]), g21.label(w[1])) == ("(1,0)", "(0,1)")


def test_nested_commutator_detects_class():
    h = heisenberg(3)
    # class 2: every length-3 commutator trivial, some length-2 not
    assert all(oracles.nested_commutator(h, [x, y, z]) == 0
               for x in range(0, 27, 5) for y in range(27) for z in range(27))
    assert h.commutator(np.arange(27)[:, None], np.arange(27)).any()


def test_commutator_identity_suite_exhaustive(g21):
    assert commutator_identities_hold(g21) == (True, None)
    assert commutator_identities_hold(heisenberg(3)) == (True, None)


def test_commutator_identity_suite_exact_beyond_81():
    # order 155, where 20000 sampled triples stood in for the n^3 scan
    g = construct("sd:31:5:2")
    assert commutator_identities_hold(g) == (True, None)
    assert metabelian_identities_hold(g) == (True, None)


def test_metabelian_identity_suite(g21, w81):
    assert metabelian_identities_hold(g21) == (True, None)
    assert metabelian_identities_hold(w81) == (True, None)


IDENTITY_CHECKS = ["commutator-identities", "metabelian-commutator-identities"]


def _identity_outcomes(g):
    """(verdict, witness) of both identity checks on g, and those the n^3 oracle predicts."""
    got = [(c.verdict, c.witness) for c in run_checks(g, IDENTITY_CHECKS).checks]
    want = [oracles.commutator_identities_scan(g, metabelian) for metabelian in (False, True)]
    want = [("pass" if w is None else "fail", w) for w in want]
    if want[0][0] == "fail":  # a wrong bracket fails the metabelian check with its witness
        want[1] = want[0]
    return got, want


@pytest.mark.parametrize("spec", [s for s, order in CATALOG_SPECS.items() if order <= 81])
def test_identity_checks_match_the_triple_scan(spec, tmp_path):
    # the bracket scan and the two reductions give the verdict and witness of
    # every identity at all n^3 triples, on the catalog group and two relabelings
    g = construct(spec)
    for h in (g, _relabeled_file_group(g, 1, tmp_path), _relabeled_file_group(g, 2, tmp_path)):
        got, want = _identity_outcomes(h)
        assert got == want == [("pass", None)] * 2


def _swap_roots(g, a, b):
    s = g.sqrt_table.copy()
    s[[a, b]] = s[[b, a]]
    g.sqrt_table = s


@pytest.mark.parametrize("spec", ["sd:7:3:2", "sd:13:3:3", "sd:11:5:3", "heis:3", "wr:3", "sd:31:5:2"])
def test_identity_checks_kill_the_mutants_with_the_least_witness(spec, tmp_path, monkeypatch):
    # each mutant fails with the witness of the n^3 oracle (for a wrong
    # bracket, the least pair of the definition; order 155 ends there too):
    # the bracket x y x^-1 y^-1, the transposed bracket [y, x], and two
    # square roots swapped at the first or the last two commutator values.
    # Two roots swapped outside them pass both: neither side of the root
    # identity reads them.  Both checks read one bracket scan.  Blocks of one
    # row put the witnesses past the first block
    monkeypatch.setattr(core, "_BLOCK_CELLS", 1)
    calls = []
    real = checks.commutator_identities_hold
    monkeypatch.setattr(checks, "commutator_identities_hold", lambda g: calls.append(g) or real(g))
    g0 = construct(spec)
    subjects = [g0] if g0.order > 81 else [g0, _relabeled_file_group(g0, 3, tmp_path)]
    for base in subjects:
        cs = [int(c) for c in base.commutators if c]
        outside = [x for x in range(1, base.order) if x not in set(cs)][:2]
        mutants = [("xyx^-1y^-1", lambda g: setattr(g, "commutator", lambda x, y, t=g.tbl, inv=g.inverse:
                                                      t[t[t[x, y], inv[x]], inv[y]])),
                   ("transposed", lambda g: setattr(g, "commutator", lambda x, y, real=g.commutator: real(y, x)))]
        if base.order <= 81:
            mutants += [("roots at commutators", lambda g: _swap_roots(g, *cs[:2])),
                        ("roots at the last commutators", lambda g: _swap_roots(g, *cs[-2:])),
                        ("roots outside", lambda g: _swap_roots(g, *outside))]
        for name, mutate in mutants:
            g = construct(spec) if base is g0 else from_file(base.source_spec[len("file:"):])
            mutate(g)
            calls.clear()
            got, want = _identity_outcomes(g)
            assert got == want, (name, got, want)
            assert len(calls) == 1
            if name.startswith("roots"):
                assert got[0] == ("pass", None)
                if name == "roots outside":
                    assert got[1] == ("pass", None)
                elif spec.startswith("sd:"):  # G' = H meets the centre trivially: [sqrt(c), z] is not always 1
                    assert got[1][0] == "fail"
                if got[1][0] == "fail":
                    assert got[1][1].startswith("root-of-commutator identity fails at ("), name
            elif name == "transposed" or not spec.startswith("heis"):
                # (in class 2, x y x^-1 y^-1 = [x^-1, y^-1] is [x, y])
                assert got[0][0] == "fail" and got[0][1].startswith("commutator definition fails at ("), name


def _symmetric_group_4(pi):
    """S_4 (derived length 3, not metabelian) on its 24 permutations in sorted
    order relabeled by pi, a permutation of 0..23 that fixes the identity."""
    perms = sorted(itertools.permutations(range(4)))
    idx = {p: i for i, p in enumerate(perms)}
    t = np.array([[idx[tuple(a[b[i]] for i in range(4))] for b in perms] for a in perms])
    relabeled = np.empty_like(t)
    relabeled[pi[:, None], pi[None, :]] = pi[t]
    return Group(CayleyTable(relabeled))


def test_rotation_scan_names_the_least_failing_triple(monkeypatch):
    # outside a metabelian group the rotation product fails, and the
    # generators see it in S_4; the check then scans the triples in order,
    # one pair (x, y) per block here, so its witness is the oracle's least
    # failing triple
    monkeypatch.setattr(core, "_BLOCK_CELLS", 24)
    rng = np.random.default_rng(4)
    for pi in [np.arange(24)] + [np.concatenate([[0], 1 + rng.permutation(23)]) for _ in range(3)]:
        g = _symmetric_group_4(pi)
        assert not is_metabelian(g) and commutator_identities_hold(g) == (True, None)
        w = checks._rotation_witness(g)
        assert w is not None
        g.sqrt_table = np.arange(24)  # S_4 has no roots; with s(x) = x the root identity holds trivially
        want = oracles.commutator_identities_scan(g, metabelian=True)
        assert f"rotation product fails at ({w[0]},{w[1]},{w[2]})" == want


def test_wreath_nested_commutator_class_crosscheck(w81):
    # class 3: every 4-argument nested commutator vanishes (sampled), while
    # some 3-argument one does not
    rng = np.random.default_rng(5)
    for _ in range(4000):
        xs = [int(v) for v in rng.integers(0, 81, 4)]
        assert oracles.nested_commutator(w81, xs) == 0
    found = False
    for _ in range(4000):
        xs = [int(v) for v in rng.integers(0, 81, 3)]
        if oracles.nested_commutator(w81, xs) != 0:
            found = True
            break
    assert found


def test_commuting_automorphism_sums_are_automorphisms():
    # pointwise product of two commuting odd-order automorphisms is again one
    for spec_str in ("sd:7:3:2", "sd:7:3:4", "sd:13:3:3", "sd:11:5:3", "sd:31:5:2", "wr:3"):
        g = construct(spec_str)
        spec = g.sd_spec
        nH = spec.nH
        mulH = spec.H.tbl
        for f1 in range(spec.nF):
            for f2 in range(spec.nF):
                phi = mulH[spec.action[f1], spec.action[f2]]
                assert len(set(phi.tolist())) == nH  # bijective
                hom = phi[mulH] == mulH[phi[:, None], phi[None, :]]
                assert hom.all()


def test_semidirect_spec_validation():
    H, F = cyclic(7), cyclic(3)
    bad = np.stack([np.arange(7)] * 3)  # constant action is not a homomorphism image set
    bad[1] = (2 * np.arange(7)) % 7
    with pytest.raises(ConstructionError):
        SemidirectSpec(H, F, bad)


def test_subgroup_validation(g21):
    with pytest.raises(ConstructionError, match="identity"):
        Subgroup(g21, (1, 2))
    with pytest.raises(ConstructionError, match="closed"):
        Subgroup(g21, (0, 1))  # (1,0) alone does not close without the rest of H
    Subgroup(g21, tuple(range(7)))  # the normal cyclic factor is fine


def test_spec_parser_errors():
    with pytest.raises(SpecParseError, match="unknown group family"):
        construct("weird:3")
    with pytest.raises(SpecParseError, match="bad token"):
        construct("cyclic:x")
    with pytest.raises(SpecParseError, match="sd takes"):
        construct("sd:7:3")
    with pytest.raises(SpecParseError, match="nested dp"):
        construct("dp:dp:cyclic:3,cyclic:3,cyclic:5")


def test_from_file_roundtrip(tmp_path, g21):
    path = tmp_path / "g21.tbl"
    tableio.export_table(g21.table, path)
    g2 = from_file(path)
    assert (g2.tbl == g21.tbl).all()


@pytest.mark.parametrize("spec", ["cyclic:27", "dp:cyclic:3,cyclic:9", "sd:31:5:2",
                                  "heis:5", "ut:4:3", "wr:3"])
def test_table_and_functional_modes_agree(spec):
    # the family's rule on two ints, as the oracle shim holds it, equals the table
    table, fun = construct(spec), oracles.rule_group("construct", spec)
    n = table.order
    assert fun.order == n
    assert np.array_equal([[fun.mul(x, y) for y in range(n)] for x in range(n)], table.tbl)
    assert (fun.name, fun.gens) == (table.name, table.gens)


@pytest.mark.parametrize("spec", ["sd:7:3:2", "sd:7:3:4", "sd:13:3:3", "sd:11:5:3",
                                  "sd:31:5:2", "wr:3"])
def test_split_tables_match_semidirect_formula(spec):
    g = construct(spec)
    table, labels = oracles.semidirect_table(g.sd_spec)
    assert np.array_equal(g.tbl, table)
    assert [g.label(x) for x in range(g.order)] == labels
    # the action read off the rule is the intended one
    action = g.sd_spec.action
    if spec.startswith("sd:"):
        q, p, a = (int(t) for t in spec.split(":")[1:])
        f, h = np.ogrid[:p, :q]
        assert np.array_equal(action, np.array([pow(a, k, q) for k in range(p)])[f] * h % q)
    else:
        for k in range(3):
            assert [action[k, i] for i in range(27)] == \
                [oracles.V3.index(oracles.shift(v, k)) for v in oracles.V3]


def test_orders_beyond_int32_are_refused():
    # a table factor's int32 entries times a stride would overflow past 2^31, so
    # such an order is refused before the cap is read: twenty factors Z3 reach
    # 3^20 > 2^31, while nineteen (3^19 < 2^31) meet only the table cap
    for spec in ("dp:" + ",".join(["cyclic:3"] * 20), "sd:3000000017:1:1", "wr:16"):
        with pytest.raises(ConstructionError, match="too large"):
            construct(spec)
    with pytest.raises(ConstructionError, match="above the table cap"):
        construct("dp:" + ",".join(["cyclic:3"] * 19))


def test_direct_products_widen_narrow_factor_tables():
    # Z5 x Z61 (order 305): the Z5 table is uint8, and its entries times the
    # stride 61 plus the Z61 part reach 4 * 61 + 60 = 304, past uint8's 255
    g = construct("dp:cyclic:5,cyclic:61")
    x = np.arange(305)
    assert g.tbl.dtype == np.uint16 and construct("cyclic:5").tbl.dtype == np.uint8
    assert (g.tbl == (x[:, None] // 61 + x // 61) % 5 * 61 + (x[:, None] + x) % 61).all()


def test_power_walk_stops_on_a_table_that_is_not_a_group():
    # max(x, y): 0 has order 1, every other x is its own square
    with pytest.raises(ConstructionError, match=r"^element 1 has no power equal to the identity within 5 steps$"):
        left_power_walk(build_table(5, np.maximum).table)
    # Z3 on 0..2, max above: 1 and 2 close, 3 is the least element that does not
    t = build_table(5, lambda x, y: np.where((x < 3) & (y < 3), (x + y) % 3, np.maximum(x, y))).table
    with pytest.raises(ConstructionError, match=r"^element 3 has no power equal to the identity within 5 steps$"):
        left_power_walk(t)


def test_even_order_flagged():
    g = cyclic(4)
    assert "even order" in g.notes
    assert not is_uniquely_2_divisible(g)


def test_subgroup_closure_matches_the_frontier_closure():
    # on each catalog group's commutator seed, and on seeded random seeds
    # (repeats and the identity included) that often generate the whole group
    for spec in CATALOG_SPECS:
        g = construct(spec)
        seeds = [groups._commutator_seed(g, range(g.order), None)]
        rng = random.Random(spec)
        seeds += [rng.choices(range(g.order), k=k) for k in (0, 1, 1, 2, 3)] + [[0, 0]]
        for seed in seeds:
            members, gens = closure(g.order, g.rule, seed)
            assert members == oracles.subgroup_closure(g.mul, seed), (spec, seed)
            assert set(gens) <= set(seed) and oracles.subgroup_closure(g.mul, gens) == members


@pytest.mark.parametrize("spec", [s for s, order in CATALOG_SPECS.items() if order <= 81])
def test_commutator_matches_the_oracle(spec):
    g = construct(spec)
    xs = np.arange(g.order)
    assert (g.commutator(xs[:, None], xs) == oracles.commutator_table(g)).all()
    assert g.commutators.tolist() == sorted(set(oracles.commutator_table(g).ravel().tolist()))


def _relabeled_file_group(g, seed, tmp_path):
    """g written to a .tbl file under a seeded relabeling that moves the identity, read back."""
    rng = np.random.default_rng(seed)
    pi = rng.permutation(g.order)
    t = np.empty_like(g.tbl)
    t[pi[:, None], pi[None, :]] = pi[g.tbl]
    path = tmp_path / f"g{seed}.tbl"
    tableio.export_table(CayleyTable(t), path)
    return from_file(path)


@pytest.mark.parametrize("spec", [s for s, order in CATALOG_SPECS.items() if order <= 243])
def test_generator_center_and_series_match_the_pairwise_scan(spec, tmp_path):
    # [x, s] for s in a generating set found by the closure, against [x, y]
    # for every y; file groups carry no catalog generators.  The generators are
    # those of the build's associativity test, each the least element outside
    # the subgroup of those before
    g = construct(spec)
    for h in (g, _relabeled_file_group(g, 1, tmp_path), _relabeled_file_group(g, 2, tmp_path)):
        assert h.gens == () or h is g
        gens = h.generators.tolist()
        for i, a in enumerate(gens):
            assert a == min(set(range(h.order)) - set(oracles.subgroup_closure(h.mul, gens[:i])))
        assert oracles.subgroup_closure(h.mul, gens) == tuple(range(h.order))
        series = oracles.upper_central_series_scan(np.asarray(h.tbl))
        assert [s.members for s in upper_central_series(h)] == series
        assert center(h).members == (series[1] if len(series) > 1 else (0,))


@pytest.mark.parametrize("spec", [s for s, order in CATALOG_SPECS.items() if order <= 81 and not s.startswith("dp:")])
def test_series_match_the_normal_closures_of_the_declared_generators(spec):
    # both series start from the shared commutator set; wr:3 (class 3,
    # metabelian) tells the derived series from the lower central one
    g = construct(spec)
    assert [s.members for s in derived_series(g)] == oracles.functional_series(g, True)
    assert [s.members for s in lower_central_series(g)] == oracles.functional_series(g, False)
