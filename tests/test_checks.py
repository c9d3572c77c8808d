"""The check registry, and the names the traced benchmark relies on."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import oracles

from gamma_forge import checks, cli, constructions, core, loops, tableio
from gamma_forge.checks import CHECK_IDS, CLAIMS, GROUP_ONLY_CHECKS, CheckContext, run_check, run_checks
from gamma_forge.constructions import circ_loop, oplus_loop
from gamma_forge.groups import Group, construct, derived_subgroup, from_file, nilpotency_class

ROOT = Path(__file__).resolve().parent.parent


def test_each_check_reports_its_one_claim():
    assert len(CHECK_IDS) == len(set(CHECK_IDS)) == 15
    assert list(CLAIMS) == CHECK_IDS
    assert all(isinstance(c, str) and c for c in CLAIMS.values())
    assert set(GROUP_ONLY_CHECKS) < set(CHECK_IDS)
    # sd:7:3:2 runs every check; heis:3 skips some inside their checks;
    # cyclic:4 skips every loop check before it runs
    reports = {spec: run_checks(construct(spec)) for spec in ("sd:7:3:2", "heis:3", "cyclic:4")}
    for report in reports.values():
        assert [c.check_id for c in report.checks] == CHECK_IDS
        for c in report.checks:
            assert c.claim == CLAIMS[c.check_id]
    assert "skipped" in {c.verdict for c in reports["heis:3"].checks}
    unbuilt = [c.check_id for c in reports["cyclic:4"].checks
               if (c.verdict, c.witness) == ("skipped", "not uniquely 2-divisible")]
    assert unbuilt == [cid for cid in CHECK_IDS if cid not in GROUP_ONLY_CHECKS]


def test_automorphic_prediction_reads_the_split_spec_only(tmp_path):
    # a group built as a split extension has an sd_spec, so the theorem
    # predicts a pass; the same table read from a file under the spec string
    # has none, and sd:7:3:2 is not nilpotent, so no theorem predicts its verdict
    path = tmp_path / "sd.tbl"
    tableio.export_table(construct("sd:7:3:2").table, path)
    expected = lambda g: run_checks(g, ["automorphic-inner-mappings"]).checks[0].expected
    assert expected(from_file(path, source_spec="sd:7:3:2")) is None
    assert expected(construct("sd:7:3:2")) == "pass"


def _traced_layers(tmp_path, *cli_args) -> set[str]:
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans), *cli_args],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    json.loads(proc.stdout)
    return {layer for _sid, _parent, layer, _start, _end in json.loads(spans.read_text())["spans"]}


def test_traced_benchmark_sees_rows_and_every_check(tmp_path):
    layers = _traced_layers(tmp_path, "survey", "--orders", "3..9", "--format", "json")
    assert "catalog.row" in layers
    layers = _traced_layers(tmp_path, "verify", "sd:7:3:2", "--format", "json")
    assert {f"checks.{cid}" for cid in CHECK_IDS} <= layers


def test_class3_check_computes_each_loop_center_once(monkeypatch):
    calls = []
    real = loops.loop_center

    def counting(q):
        calls.append(q)
        return real(q)

    monkeypatch.setattr(loops, "loop_center", counting)
    report = run_checks(construct("wr:3"), ["class3-center-equality"])
    assert report.checks[0].verdict == "pass"
    assert calls and len({id(q) for q in calls}) == len(calls)


def test_verify_scans_powers_once_per_loop(monkeypatch):
    # circ_loop and oplus_loop verify power coincidence as they are built, and
    # power-coincidence reports that result instead of scanning again
    calls = []
    real = loops.powers_coincide

    def counting(g, q):
        calls.append(q.name)
        return real(g, q)

    for module in (loops, constructions, checks):  # every binding, as a tracer wraps them
        monkeypatch.setattr(module, "powers_coincide", counting, raising=False)
    report = run_checks(construct("sd:7:3:2"))
    assert {c.check_id: c.verdict for c in report.checks}["power-coincidence"] == "pass"
    assert sorted(calls) == ["circ(Z7:|Z3(a=2))", "oplus(Z7:|Z3(a=2))"]


def test_verify_decides_each_loop_law_once_per_table(monkeypatch):
    # a Loop keeps its commutativity, automorphic-inverse, power-associativity,
    # axiom-block and left Bruck verdicts, and construction, the translations and
    # every check read them there: no table is scanned twice for one fact,
    # through any binding of the scan.  Each group table is closed for its
    # generators once, by the Light's test of its build, and each loop's
    # Loop.generators is found once
    scanned = []  # (fact, table): holding the tables keeps their ids distinct
    closed = []  # (Loop.generators, its group or loop)
    real_closure = core.closure

    def closing(n, op, seed):
        caller = sys._getframe(1)
        if caller.f_code.co_name == "generators":
            closed.append((caller.f_code.co_name, caller.f_locals["self"]))
        return real_closure(n, op, seed)

    def spy(fact, real, table_of):
        def counting(arg):
            scanned.append((fact, table_of(arg)))
            return real(arg)
        return counting

    modules = [m for name, m in sys.modules.items() if name.startswith("gamma_forge")]
    for fact, table_of in (("commutativity_witness", lambda t: t), ("aip_witness", lambda q: q.tbl),
                           ("is_power_associative", lambda q: q.tbl), ("check_gamma_axioms", lambda q: q.tbl),
                           ("is_left_bruck", lambda q: q.tbl)):
        real = getattr(loops, fact)
        counting = spy(fact, real, table_of)
        for m in modules:
            for name, value in list(vars(m).items()):
                if value is real:
                    monkeypatch.setattr(m, name, counting)
    for m in modules:
        for name, value in list(vars(m).items()):
            if value is real_closure:
                monkeypatch.setattr(m, name, closing)
    # the group and its two factors are built and closed; the circ loop, and for
    # wr:3 its order-9 quotient, are closed for the associativity test, the
    # center sieve and (sd:7:3:2) the closed-form L maps
    for spec, roundtrip_or_quotient, closures in (
            ("sd:7:3:2", "correspondence-roundtrip", [("generators", 3), ("generators", 7), ("generators", 21),
                                                      ("generators", 21)]),
            ("wr:3", "class3-center-equality", [("generators", 3), ("generators", 9), ("generators", 27),
                                                 ("generators", 81), ("generators", 81)])):
        closed.clear()
        g = construct(spec)
        scanned.clear()
        report = run_checks(g)
        assert report.consistent and {c.check_id: c.verdict for c in report.checks}[roundtrip_or_quotient] == "pass"
        assert [c.verdict for c in report.checks if c.check_id == "closed-form-agreement"] == ["pass"]
        assert sorted((caller, len(owner.tbl)) for caller, owner in closed) == closures, spec
        assert len({id(owner) for _, owner in closed}) == len(closed), spec
        facts = [(fact, id(t)) for fact, t in scanned]
        assert len(facts) == len(set(facts)), spec
        # the circ and oplus loops were each scanned, and for wr:3 the commutativity of its order-9
        # quotient; the axiom block of circ and the left Bruck verdict of oplus once, roundtrip included
        assert sorted((fact, len(t)) for fact, t in scanned) == sorted(
            [("aip_witness", g.order)] * 2 + [("commutativity_witness", g.order)]
            + [("is_power_associative", g.order)] * 2 + [("commutativity_witness", 9)] * (spec == "wr:3")
            + [("check_gamma_axioms", g.order), ("is_left_bruck", g.order)])
        circ_table = circ_loop(g).tbl
        assert {fact: (t == circ_table).all() for fact, t in scanned
                if fact in ("check_gamma_axioms", "is_left_bruck")} == {"check_gamma_axioms": True,
                                                                         "is_left_bruck": False}
    # every reader, called twice on loops built and validated, scans only the facts
    # construction leaves open: the oplus loop's commutativity and inverse property,
    # and the axiom block and left Bruck verdict of each loop
    circ, oplus = circ_loop(g), oplus_loop(g)
    scanned.clear()
    for _ in range(2):
        for q in (circ, oplus):
            q.gamma_axioms, q.left_bruck
            loops.powers_coincide(g, q), q.sqrt_table
        loops.is_moufang(circ), loops.is_automorphic(circ), loops.loop_center(circ)
    assert sorted((fact, t is oplus.tbl) for fact, t in scanned) == [
        ("aip_witness", True), ("check_gamma_axioms", False), ("check_gamma_axioms", True),
        ("commutativity_witness", True), ("is_left_bruck", False), ("is_left_bruck", True)]


def test_class3_check_builds_each_central_quotient_once(monkeypatch):
    calls = []
    real = loops.quotient_loop

    def counting(q):
        calls.append(q.n)
        return real(q)

    monkeypatch.setattr(loops, "quotient_loop", counting)
    monkeypatch.setattr(checks, "quotient_loop", counting)
    report = run_checks(construct("wr:3"), ["class3-center-equality"])
    assert report.checks[0].verdict == "pass"
    assert calls == [81, 9]  # circ(wr:3) by its center, then the quotient by its own


def test_check_catches_a_wrong_commutator_convention():
    # x y x^-1 y^-1 in place of [x, y] fails the definition [x, y] = x^-1 y^-1 x y;
    # sd:31:5:2 (order 155) was sampled before, sd:7:3:2 (order 21) scanned at
    # every triple.  Both identity checks name the least pair where the two
    # differ, which the oracle finds from all n^2 pairs
    for spec in ("sd:31:5:2", "sd:7:3:2"):
        g = construct(spec)
        assert checks.commutator_identities_hold(g) == (True, None)
        t, inv = g.tbl, g.inverse
        g.commutator = lambda x, y: t[t[t[x, y], inv[x]], inv[y]]
        witness = oracles.commutator_identities_scan(g)
        assert witness.startswith("commutator definition fails at (")
        assert checks.commutator_identities_hold(g) == (False, witness)
        assert [(c.verdict, c.witness) for c in run_checks(g, ["commutator-identities",
                                                                "metabelian-commutator-identities"]).checks] \
            == [("fail", witness)] * 2


def test_check_pins_the_bracket_convention():
    # the transposed table [y, x] = [x, y]^-1 passes every expansion in
    # sd:31:5:2, whose G' is abelian; the definition [x, y] = x^-1 y^-1 x y
    # fails on it, at the oracle's least pair
    for spec in ("sd:31:5:2", "sd:7:3:2"):
        g = construct(spec)
        assert checks.commutator_identities_hold(g)[0]
        g.commutator = lambda x, y, real=g.commutator: real(y, x)
        ok, witness = checks.commutator_identities_hold(g)
        assert not ok and witness.startswith("commutator definition fails at (")
        assert witness == oracles.commutator_identities_scan(g)


def test_checks_at_order_729_keep_scratch_to_a_row_block():
    # every step of verify ut:4:3 (the checks of the verify-class3-729
    # benchmark: all but class3-center-equality) may hold at most 1.43 MB
    # above what it holds before and after: the largest excess measured is
    # 1.33 MB, in circ-loop-gamma-axioms, and 0.1 MB is margin.  An n^2 intp
    # temporary here is 4.3 MB and an element table 1.06 MB, so a step that
    # builds an intp table or two element tables it does not keep fails; so
    # do blocks of 128 rows (2.19 MB in circ-loop-gamma-axioms) and 20000
    # sampled triples of intp (1.44 MB in each commutator identity check).
    # automorphic-inner-mappings holds at most 0.8 MB: about 0.43 MB is
    # measured, and the chain of Mlt(Q) it built before held 1.23 MB
    g = construct("ut:4:3")
    ctx = CheckContext(g)
    steps = [("circ_loop", lambda: circ_loop(g)), ("oplus_loop", lambda: oplus_loop(g)),
             ("derived_subgroup", lambda: derived_subgroup(g)), ("nilpotency_class", lambda: nilpotency_class(g))]
    steps += [(cid, lambda cid=cid: run_check(ctx, cid)) for cid in CHECK_IDS if cid != "class3-center-equality"]
    excess = {}
    tracemalloc.start()
    try:
        for name, step in steps:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            kept = step()  # what a step returns counts as held after it
            after, peak = tracemalloc.get_traced_memory()
            excess[name] = peak - max(before, after)
            del kept
    finally:
        tracemalloc.stop()
    assert {name: round(b / 1e6, 2) for name, b in excess.items() if b > 1.43e6} == {}
    assert excess["automorphic-inner-mappings"] < 0.8e6


@pytest.mark.parametrize("spec", ["ut:4:3", "sd:127:3:19"])
def test_every_scan_block_is_within_the_cell_budget(spec, monkeypatch):
    # every mask handed to first_false, and every block of the center sieve and
    # of the root identity (rows n wide, reduced without first_false), holds at
    # most _BLOCK_CELLS cells unless it is a single row: through the group build
    # and every check, the roundtrip included
    masks, blocks = [], []
    real_first_false, real_row_blocks = core.first_false, core.row_blocks

    def first_false(mask):
        masks.append(np.shape(mask))
        return real_first_false(mask)

    def row_blocks(n, width=None):
        caller = sys._getframe(1)
        out = list(real_row_blocks(n, width))
        if caller.f_code.co_name in ("loop_center", "_root_witness"):
            owner = caller.f_locals["q" if "q" in caller.f_locals else "g"]
            blocks.extend((caller.f_code.co_name, r.stop - r.start, len(owner.tbl)) for r in out)
        return iter(out)

    for real, spy in ((real_first_false, first_false), (real_row_blocks, row_blocks)):
        for m in [m for name, m in sys.modules.items() if name.startswith("gamma_forge")]:
            for name, value in list(vars(m).items()):
                if value is real:
                    monkeypatch.setattr(m, name, spy)
    report = run_checks(construct(spec), force_exhaustive=True)
    assert report.consistent and "fail" not in {c.verdict for c in report.checks}
    budget = core._BLOCK_CELLS
    assert masks and {caller for caller, _, _ in blocks} == {"loop_center", "_root_witness"}
    assert [s for s in masks if len(s) > 1 and s[0] > 1 and np.prod(s) > budget] == []
    assert [b for b in blocks if b[1] > 1 and b[1] * b[2] > budget] == []


@pytest.mark.parametrize("spec", ["sd:7:3:2", "ut:4:3"])
def test_verify_scans_no_group_for_power_associativity(spec, monkeypatch, capsys):
    # a Group is power-associative by its build, so its square roots read no
    # scan of cyclic powers; only the circ and oplus loops are scanned
    scanned = []
    real = loops.is_power_associative
    monkeypatch.setattr(loops, "is_power_associative", lambda q: scanned.append(q) or real(q))
    assert cli.main(["verify", spec]) == 0
    capsys.readouterr()
    assert sorted(q.name.split("(")[0] for q in scanned) == ["circ", "oplus"]
    assert not any(isinstance(q, Group) for q in scanned)


class _TakeSpy(np.ndarray):
    """A view of a table whose take() records who gave it which index dtype,
    and the cells of the array taken from: a row, or the flat table or a
    flat block of its rows."""
    calls: list = []

    def take(self, indices, *args, **kwargs):
        _TakeSpy.calls.append((sys._getframe(1).f_code.co_name, np.asarray(indices).dtype, self.size))
        return np.asarray(self).take(indices, *args, **kwargs)


def _spy_on_loop(q):
    q.tbl = q.tbl.view(_TakeSpy)
    return q


def _held_arrays(ctx):
    """The arrays a CheckContext holds after its checks, each once (a view
    counts as the array it views), by the first path that reaches it: through
    attributes, lists, tuples, dicts and the package's own objects, such as a
    stabilizer chain and its levels."""
    held, seen = {}, set()

    def walk(path, obj):
        key = (obj.__array_interface__["data"][0], obj.nbytes) if isinstance(obj, np.ndarray) else id(obj)
        if key in seen:
            return
        seen.add(key)
        if isinstance(obj, np.ndarray):
            held[path] = obj
        elif isinstance(obj, (list, tuple)):
            for i, v in enumerate(obj):
                walk(f"{path}[{i}]", v)
        elif isinstance(obj, dict):
            for k, v in obj.items():
                walk(f"{path}[{k!r}]", v)
        elif type(obj).__module__.startswith("gamma_forge"):
            for k, v in vars(obj).items():
                walk(f"{path}.{k}", v)

    walk("ctx", ctx)
    return held


@pytest.mark.parametrize("spec", ["ut:4:3", "sd:127:3:19"])
def test_held_arrays_are_narrow_and_flat_indices_intp(spec, monkeypatch):
    # every element array a verify holds is in the element dtype, uint16 at
    # orders 729 and 381, and the only n^2 ones are the three product tables:
    # no commutator or division table is kept, and no owner holds n^2 cells
    # in smaller arrays either, as the n coset representatives of a chain of
    # Mlt(Q) would be; every flat index handed to take() is intp, as n * a in
    # a narrow dtype wraps (381 * 173 > 65535); a take from a single row may
    # have narrow indices, which are below n and cannot wrap
    g = construct(spec)
    g.tbl = g.tbl.view(_TakeSpy)
    ctx = CheckContext(g, force_exhaustive=True)
    _spy_on_loop(ctx.circ), _spy_on_loop(ctx.oplus)
    walk = constructions._gamma_by_orbit_walk
    monkeypatch.setattr(constructions, "_gamma_by_orbit_walk", lambda q: walk(_spy_on_loop(q)))
    monkeypatch.setattr(_TakeSpy, "calls", [])
    verdicts = {cid: run_check(ctx, cid).verdict for cid in CHECK_IDS}
    assert "fail" not in verdicts.values() and verdicts["correspondence-roundtrip"] == "pass"
    dtype = core.element_dtype(g.order)
    assert dtype == np.uint16
    held = _held_arrays(ctx)
    tables = {f"ctx.{o}.table.table" for o in ("g", "circ", "oplus")}
    assert tables | {"ctx.g.right_inverses", "ctx.g.commutators", "ctx.g.generators", "ctx.g.squares", "ctx.g.sqrt_table",
                     "ctx.circ.right_inverses", "ctx.circ.left_inverses", "ctx.circ.generators",
                     "ctx.oplus.right_inverses"} <= set(held)
    assert {name: a.dtype for name, a in held.items() if a.dtype != dtype and ".sd_spec." not in name} == {}
    if g.sd_spec is not None:  # H, F and the action: in the element dtype of H or of F
        sd = {a.dtype for name, a in held.items() if ".sd_spec." in name}
        assert g.sd_spec.action.dtype == core.element_dtype(g.sd_spec.nH)
        assert sd <= {core.element_dtype(g.sd_spec.nH), core.element_dtype(g.sd_spec.nF)}
    square = {name for name, a in held.items() if a.size >= g.order ** 2}
    assert square == tables
    owners = {}
    for name, a in held.items():
        if name not in square:
            owner = name.split(".")[1].split("[")[0]
            owners[owner] = owners.get(owner, 0) + a.size
    assert {o: cells for o, cells in owners.items() if cells >= g.order ** 2} == {}
    flat_takes = [(name, d) for name, d, cells in _TakeSpy.calls if cells > g.order]
    row_takes = [(name, d) for name, d, cells in _TakeSpy.calls if cells <= g.order]
    assert {"left_power_walk", "_inner_maps", "_gamma_by_orbit_walk", "take_rows", "rule"} <= {
        name for name, _ in flat_takes}
    assert {d for _, d in flat_takes} == {np.dtype(np.intp)}
    assert row_takes and {d for _, d in row_takes} <= {dtype, np.dtype(np.int32), np.dtype(np.intp)}
