"""Acceptance suite: one test per criterion, each printing a pass line.

Everything asserts exact element equality (zero tolerance); the only numeric
bounds are the per-criterion wall-clock budgets, checked generously.
"""

import hashlib
import time

import numpy as np
import pytest

import oracles
from oracles import Permutation, is_isomorphic, translation
from gamma_forge.groups import (
    center,
    construct,
    is_metabelian,
    is_two_engel,
    upper_central_series,
)
from gamma_forge.constructions import bruck_from_gamma, circ_loop, gamma_from_bruck, oplus_loop
from gamma_forge.core import CayleyTable
from gamma_forge.loops import (
    Loop,
    check_gamma_axioms,
    is_automorphic,
    is_moufang,
    loop_center,
    powers_coincide,
    quotient_loop,
)
from gamma_forge.catalog import CATALOG_SPECS, run_survey
from gamma_forge.report import survey_to_json

DESK_SPECS = [s for s in CATALOG_SPECS if s != "ut:4:3"]  # materialized, order <= 243

ABELIAN_SPECS = [s for s in DESK_SPECS if s.startswith(("cyclic:", "dp:"))]


@pytest.fixture(scope="module")
def catalog():
    out = {}
    for spec in DESK_SPECS:
        g = construct(spec)
        out[spec] = (g, circ_loop(g))
    return out


def _elapsed_under(t0, limit, label):
    elapsed = time.time() - t0
    assert elapsed < limit, f"{label} took {elapsed:.1f}s, budget {limit}s"
    return elapsed


def test_criterion_01_gamma_loop_theorem(catalog):
    t0 = time.time()
    for spec, (g, q) in catalog.items():
        assert g.order <= 243 and g.order % 2 == 1
        v = check_gamma_axioms(q)
        assert v.all_hold, f"{spec}: {v}"
        ok, w = powers_coincide(g, q)
        assert ok, f"{spec}: powers disagree at {w}"
    elapsed = _elapsed_under(t0, 120, "criterion 1")
    print(f"\n[criterion 1] PASS: loop axioms and power coincidence on "
          f"{len(catalog)} catalog groups ({elapsed:.1f}s)")


def test_criterion_02_baer_biconditional(catalog):
    t0 = time.time()
    for spec in ABELIAN_SPECS + ["heis:3", "heis:5"]:
        q = catalog[spec][1]
        assert q.is_associative()[0], f"{spec} should give an associative table"
    witnesses = {}
    for spec in ["sd:7:3:2", "sd:13:3:3", "sd:11:5:3", "wr:3"]:
        q = catalog[spec][1]
        assoc, w = q.is_associative()
        assert not assoc and w is not None, f"{spec} should be nonassociative"
        witnesses[spec] = w

    # brute-force oracle: least violating triple of the order-21 loop over
    # labeled pairs, then frozen expected values
    found = oracles.least_nonassoc_triple_circ21()
    assert found is not None
    x, y, z, lhs, rhs = found
    assert (x, y, z) == ((1, 0), (0, 1), (0, 1))
    assert (lhs, rhs) == ((4, 2), (6, 2))
    q21 = catalog["sd:7:3:2"][1]
    got = witnesses["sd:7:3:2"]
    assert tuple(q21.label(v) for v in got) == ("(1,0)", "(0,1)", "(0,1)")
    assert q21.label(q21.mul(q21.mul(got[0], got[1]), got[2])) == "(4,2)"
    assert q21.label(q21.mul(got[0], q21.mul(got[1], got[2]))) == "(6,2)"
    elapsed = _elapsed_under(t0, 60, "criterion 2")
    print(f"\n[criterion 2] PASS: associativity exactly on class<=2 entries, "
          f"order-21 witness ((1,0),(0,1),(0,1)) -> (4,2) vs (6,2) ({elapsed:.1f}s)")


def test_criterion_03_moufang_iff_two_engel(catalog):
    t0 = time.time()
    for spec, (g, q) in catalog.items():
        engel, _ = is_two_engel(g)
        moufang, _ = is_moufang(q)
        assert moufang == engel, f"{spec}: Moufang={moufang} but 2-Engel={engel}"
        same = bool((q.tbl == oplus_loop(g).tbl).all())
        assert same == engel, f"{spec}: tables equal={same} but 2-Engel={engel}"
    elapsed = _elapsed_under(t0, 120, "criterion 3")
    print(f"\n[criterion 3] PASS: Moufang <=> 2-Engel <=> circ==oplus on "
          f"{len(catalog)} entries ({elapsed:.1f}s)")


def test_criterion_04_split_metabelian_automorphic(catalog):
    t0 = time.time()
    for spec in ["sd:7:3:2", "sd:7:3:4", "sd:13:3:3", "sd:11:5:3", "sd:31:5:2", "wr:3"]:
        q = catalog[spec][1]
        assert is_automorphic(q) == (True, None), spec
    elapsed = _elapsed_under(t0, 60, "criterion 4")
    print(f"\n[criterion 4] PASS: exhaustive automorphicity on six split "
          f"extensions up to order 155 ({elapsed:.1f}s)")


def test_criterion_05_closed_form_oracle(catalog):
    from gamma_forge.sdforms import SdForms
    t0 = time.time()
    for spec in ["sd:7:3:2", "wr:3"]:
        g, q = catalog[spec]
        forms = SdForms(g.sd_spec)
        assert (forms.inverse_table() == g.inverse).all(), spec
        assert (forms.sqrt_table() == g.sqrt_table).all(), spec
        assert (oracles.whole_table(forms.commutator_table, forms.nF) == oracles.commutator_table(g)).all(), spec
        assert (oracles.whole_table(forms.circ_table, forms.nF) == q.tbl).all(), spec
        assert (oracles.whole_table(forms.ldiv_table, forms.nF) == oracles._ldiv(q.tbl)).all(), spec
        lxy = np.stack([oracles.whole_table(lambda f2, f=f: forms.lxy_table(f, f2), forms.nF)
                        for f in range(forms.nF)])[np.arange(q.n) // forms.nH]  # one per F-part of x
        assert (lxy == oracles.inner_generators(q.tbl).Ls).all(), spec
    elapsed = _elapsed_under(t0, 120, "criterion 5")
    print(f"\n[criterion 5] PASS: six closed forms match the table engine on "
          f"all pairs and triples of sd:7:3:2 and wr:3, exactly ({elapsed:.1f}s)")


def test_criterion_06_correspondence_roundtrips(catalog):
    t0 = time.time()
    for spec in ["sd:7:3:2", "heis:3", "wr:3"]:
        g, q = catalog[spec]
        b = Loop(CayleyTable(bruck_from_gamma(q)))
        assert (b.tbl == oplus_loop(g).tbl).all(), spec
        back = gamma_from_bruck(b)
        assert (back == q.tbl).all(), spec
    elapsed = _elapsed_under(t0, 60, "criterion 6")
    print(f"\n[criterion 6] PASS: translation roundtrips are the identity and "
          f"land on oplus ({elapsed:.1f}s)")


def test_criterion_07_center_theorems(catalog):
    t0 = time.time()
    for spec, (g, q) in catalog.items():
        lc = set(loop_center(q))
        for a in center(g).members:
            assert a in lc, f"{spec}: group-central {g.label(a)} not loop-central"
        if is_metabelian(g):
            series = upper_central_series(g)
            zeta2 = series[2].members if len(series) > 2 else series[-1].members
            for a in zeta2:
                assert a in lc, f"{spec}: second-center {g.label(a)} not loop-central"
    w, qw = catalog["wr:3"]
    series = upper_central_series(w)
    zeta2 = set(series[2].members)
    assert len(zeta2) == 9
    assert {oracles.P81[i] for i in zeta2} == set(oracles.second_center81())
    lc = loop_center(qw)
    assert set(lc) == zeta2
    quot, _ = quotient_loop(qw)
    assert quot.n == 9
    assert quot.is_associative()[0] and quot.commutativity is None
    elapsed = _elapsed_under(t0, 180, "criterion 7")
    print(f"\n[criterion 7] PASS: center containments on the catalog, exact "
          f"equality of size 9 and abelian order-9 quotient for wr:3 ({elapsed:.1f}s)")


def test_criterion_08_uniqueness_order_21(catalog):
    t0 = time.time()
    qa = catalog["sd:7:3:2"][1]
    qb = catalog["sd:7:3:4"][1]
    res = is_isomorphic(qa, qb)
    assert res.verdict == "yes" and res.mapping is not None
    phi = np.array(res.mapping)
    assert (phi[qa.tbl] == qb.tbl[phi[:, None], phi[None, :]]).all()
    elapsed = _elapsed_under(t0, 60, "criterion 8")
    print(f"\n[criterion 8] PASS: the two order-21 loops are isomorphic with an "
          f"explicit verified map ({elapsed:.1f}s)")


def test_criterion_09_oracle_equivalences(catalog):
    t0 = time.time()
    small = [(spec, g, q) for spec, (g, q) in catalog.items() if g.order <= 27]
    assert len(small) >= 10
    for spec, g, q in small:
        gens = [translation(q.table, x, "left") for x in range(q.n)]
        gens += [translation(q.table, x, "right") for x in range(q.n)]
        mlt = oracles.close(gens)
        inn = oracles.stabilizer_of(mlt, 0)
        brute = all(
            all(q.mul(p.images[u], p.images[v]) == p.images[q.mul(u, v)]
                for u in range(q.n) for v in range(q.n))
            for p in inn.elements
        )
        assert brute == is_automorphic(q)[0], spec

        ig = oracles.inner_generators(q.tbl)
        standard = [Permutation(ig.Ls[x, y]) for x in range(q.n) for y in range(q.n)]
        standard += [Permutation(ig.Rs[x, y]) for x in range(q.n) for y in range(q.n)]
        standard += [Permutation(ig.Ts[x]) for x in range(q.n)]
        assert oracles.close(standard) == inn, spec
    elapsed = _elapsed_under(t0, 120, "criterion 9")
    print(f"\n[criterion 9] PASS: generator verdicts match the extensional "
          f"inner-mapping oracle on {len(small)} loops of order <= 27 exactly "
          f"({elapsed:.1f}s)")


# the survey JSON of orders 3..81 and 3..243 as first recorded; any byte
# change is a regression
SURVEY_3_81_SHA256 = "0bc7522a3e4aa567e1f91dfdc8fd01108ec73d090022d0f09616d889e66d889a"
SURVEY_3_243_SHA256 = "03d141e7972212c1576439e9b8ff8eb27d0a89e16879f6f601eb6be52a0721c4"


def test_criterion_10_survey_integrity():
    t0 = time.time()
    rows1, summary1 = run_survey(3, 81)
    rows2, summary2 = run_survey(3, 81)
    assert summary1["counterexample-flags"] == 0
    out1 = survey_to_json(rows1, summary1)
    out2 = survey_to_json(rows2, summary2)
    assert out1 == out2  # byte-deterministic
    assert hashlib.sha256(out1.encode()).hexdigest() == SURVEY_3_81_SHA256
    assert summary1["rows"] == 20
    assert all(r.flag is None for r in rows1)
    rows3, summary3 = run_survey(3, 243)
    out3 = survey_to_json(rows3, summary3)
    assert hashlib.sha256(out3.encode()).hexdigest() == SURVEY_3_243_SHA256
    assert summary3["rows"] == 22 and summary3["counterexample-flags"] == 0
    elapsed = _elapsed_under(t0, 300, "criterion 10")
    print(f"\n[criterion 10] PASS: survey of orders 3..81 produced "
          f"{summary1['rows']} rows, zero flags, byte-identical across runs; "
          f"3..243 matches its recorded bytes ({elapsed:.1f}s)")
