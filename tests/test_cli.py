"""Front-end behavior: exit codes, formats, determinism, file commands."""

import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gamma_forge
from gamma_forge import checks, constructions, groups, loops, tableio
from gamma_forge.cli import main
from gamma_forge.core import CayleyTable
from gamma_forge.groups import construct
from gamma_forge.constructions import circ_loop


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_consistent_exit_zero(capsys):
    code, out, err = run_cli(capsys, "verify", "sd:7:3:2")
    assert code == 0
    assert "consistent" in out
    assert "automorphic-inner-mappings" in out


def test_verify_even_order_errors(capsys):
    code, out, err = run_cli(capsys, "verify", "cyclic:2")
    assert code == 2
    assert "not uniquely 2-divisible" in err


def test_verify_parse_error(capsys):
    code, out, err = run_cli(capsys, "verify", "nosuch:5")
    assert code == 2
    assert "nosuch" in err


def test_verify_unknown_check(capsys):
    code, out, err = run_cli(capsys, "verify", "cyclic:3", "--checks", "bogus")
    assert code == 2
    assert "bogus" in err


def test_verify_check_subset(capsys):
    code, out, err = run_cli(capsys, "verify", "heis:3",
                             "--checks", "baer-class2-associativity")
    assert code == 0
    assert "baer-class2-associativity" in out
    assert "moufang" not in out


def test_verify_json_format_and_seed_stability(capsys):
    code, out1, _ = run_cli(capsys, "verify", "sd:7:3:2", "--format", "json", "--seed", "5")
    assert code == 0
    payload = json.loads(out1)
    assert payload["format_version"] == "1"
    assert payload["consistent"] is True
    code, out2, _ = run_cli(capsys, "verify", "sd:7:3:2", "--format", "json", "--seed", "5")
    strip = lambda s: re.sub(r'"timing_ms": [0-9.]+', '"timing_ms": 0', s)
    assert strip(out1) == strip(out2)


def test_verify_accepts_the_trivial_normal_factor(capsys):
    # Z_1 x| Z_3: every action is trivial mod 1, as 1 % 1 = 0 = a^p % 1
    code, out, err = run_cli(capsys, "verify", "sd:1:3:0", "--format", "json")
    report = json.loads(out)
    assert code == 0 and err == "" and report["consistent"] and report["order"] == 3
    assert {c["id"]: c["verdict"] for c in report["checks"]}["closed-form-agreement"] == "pass"


@pytest.mark.parametrize("spec", ["heis:-3", "ut:4:0", "sd:0:3:1", "ut:4:-3"])
def test_verify_nonpositive_parameters_are_usage_errors(spec):
    # run as a separate process, so an uncaught exception shows as a traceback
    env = dict(os.environ, PYTHONPATH=str(Path(gamma_forge.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "gamma_forge.cli", "verify", spec],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and spec in proc.stderr
    assert "Traceback" not in proc.stderr


# exit code and SHA-256 of `verify SPEC --format json` with timings zeroed
# (ut:5:3 is above the table cap, so it exits 2 with empty stdout, like
# cyclic:4): a changed verdict, witness or label changes an entry
PINNED_VERIFY = [
    ("cyclic:3", 0, "1a191905b5ef09a120ec01ade3f8f1be0a89d44b5ed2aeaefbecf6df742cfffe"),
    ("cyclic:27", 0, "dcf92ea9581ab2d57c3bb070639ba41dde8bf1ab1febfef040085da28bb85d45"),
    ("dp:cyclic:3,cyclic:3", 0, "1367740a667a85f343da7d6fa9ff108ceec121835811ce81431246c659179d50"),
    ("dp:cyclic:3,cyclic:5", 0, "73d67a1b5681ad2f91ee1c1b34e4e39ed8323a1a8172e7dd0997de8992f88674"),
    ("dp:cyclic:3,cyclic:3,cyclic:3", 0,
     "9ce1bd9cc3a6b98f463c67663491fc2c5309e116a716a31f859e6755bc4caa33"),
    ("sd:7:3:2", 0, "93f77aa523c11f99bcbb65451aa8ae4ba0633fa39a021c380b03ab79eba94315"),
    ("sd:13:3:3", 0, "03bc2da5ba3bdea93423eb3c9186134bc00f8c6dd3a8a922b1c556ae6d84c176"),
    ("sd:11:5:3", 0, "88d6554c8d5faef5fd49aba2a77d1fecbec9d5fab6cb5e81e0d3cb053e168ccb"),
    ("heis:3", 0, "030843ad07287b48607227fe49fdcbf4c931996654cc1954056cf433a3c419d9"),
    ("heis:5", 0, "b2915a032630f194565c1670c386d9d17ebfae7c39ba35e3566763de24d68dff"),
    ("wr:3", 0, "1b7d6982d8a91009929f80086f8c45aa52aa8fcce903e1198327509aff5ebbd3"),
    ("ut:4:3", 0, "cebd7ff340063da41f89ae6fe54d38d938dc19015bcff54ae929207602766a97"),
    ("sd:31:5:2", 0, "c7015790b43625210e81a822df756004bb523d1cfc0f57a34f818410c55f739b"),
    ("cyclic:4", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("ut:5:3", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    # order 381, above the uint8 elements of order 256: every check runs, the roundtrip and closed forms too
    ("sd:127:3:19 --exhaustive", 0, "15e372994eaa020211ad3bc10935bfea8357a6fae59a084fd9b5f74517af6cfc"),
]


def test_verify_json_outputs_pinned(capsys, monkeypatch):
    monkeypatch.delenv("GAMMA_FORGE_TABLE_CAP", raising=False)
    got = []
    for spec, _, _ in PINNED_VERIFY:
        code, out, _ = run_cli(capsys, "verify", *spec.split(), "--format", "json")
        out = re.sub(r'"timing_ms": [0-9.]+', '"timing_ms": 0', out)
        got.append((spec, code, hashlib.sha256(out.encode()).hexdigest()))
    assert got == PINNED_VERIFY


def test_verify_large_functional_group_ends(capsys, monkeypatch):
    # an order above the table cap is refused before any table is built
    env = dict(os.environ, PYTHONPATH=str(Path(gamma_forge.__file__).parents[1]))
    env.pop("GAMMA_FORGE_TABLE_CAP", None)
    proc = subprocess.run([sys.executable, "-m", "gamma_forge.cli", "verify", "cyclic:20000001",
                           "--checks", "uniquely-2-divisible"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "error: order 20000001 of Z20000001 is above the table cap 3000; GAMMA_FORGE_TABLE_CAP raises the cap"]
    monkeypatch.delenv("GAMMA_FORGE_TABLE_CAP", raising=False)
    built = []
    monkeypatch.setattr(groups, "build_table", lambda *a, **k: built.append(a[0]))
    assert run_cli(capsys, "verify", "cyclic:20000001")[0] == 2
    assert built == []


def test_runs_leave_numpy_ma_unloaded(tmp_path):
    # np.unique imports numpy.ma, 12-38 ms per process; core.distinct_values does its work.
    # numpy.random loads about 20 modules, and no command draws random numbers
    env = dict(os.environ, PYTHONPATH=str(Path(gamma_forge.__file__).parents[1]))
    env.pop("GAMMA_FORGE_TABLE_CAP", None)
    code = ("import sys\nfrom gamma_forge.cli import main\ncode = main(sys.argv[1:])\n"
            "print(code, 'numpy.ma' in sys.modules, 'numpy.random' in sys.modules)")
    tbl = tmp_path / "g.tbl"
    tableio.export_table(construct("sd:7:3:2").table, tbl)
    for argv in (["verify", "sd:7:3:2"], ["verify", "sd:31:5:2"], ["survey", "--orders", "3..27"],
                 ["import", str(tbl)], ["convert", str(tbl), "--direction", "circ", "--out", str(tmp_path / "c.tbl")]):
        proc = subprocess.run([sys.executable, "-c", code, *argv],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 False False", argv


def test_verify_nothing_verified_is_not_consistent(capsys):
    # cyclic:27 was not built as a split extension, so its closed forms are skipped and this run has no verdict
    code, out, err = run_cli(capsys, "verify", "cyclic:27", "--checks", "closed-form-agreement")
    assert code == 1
    assert out.endswith("\nnothing verified: every selected check was skipped\n")
    assert "consistent" not in out
    code, out, err = run_cli(capsys, "verify", "cyclic:27", "--checks", "closed-form-agreement",
                             "--format", "json")
    assert code == 1
    assert json.loads(out)["consistent"] is False


def test_survey_deterministic_and_clean(capsys):
    code, out1, _ = run_cli(capsys, "survey", "--orders", "3..27", "--seed", "0")
    assert code == 0
    code, out2, _ = run_cli(capsys, "survey", "--orders", "3..27", "--seed", "0")
    assert out1 == out2  # byte-identical, no timing fields
    assert "CONJECTURE-COUNTEREXAMPLE" not in out1


def test_survey_json(capsys):
    code, out, _ = run_cli(capsys, "survey", "--orders", "21..21", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    rows = [r for r in payload["rows"] if r["spec"].startswith("sd:")]
    assert len(rows) == 2
    for r in rows:
        assert r["metabelian"] is True
        assert r["circ"]["automorphic"] == "true"
        assert r["circ"]["moufang"] is False


def test_survey_reversed_orders_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "survey", "--orders", "81..3")
    assert code == 2
    assert out == ""
    assert "81..3" in err


def test_survey_source_dir(tmp_path, capsys):
    g = construct("sd:7:3:2")
    tableio.export_table(g.table, tmp_path / "g21.tbl")
    even = construct("cyclic:4")
    tableio.export_table(even.table, tmp_path / "z4.tbl")
    (tmp_path / "junk.tbl").write_text("2\n0 0\n1 1\n")
    code, out, _ = run_cli(capsys, "survey", "--orders", "3..81",
                           "--source", str(tmp_path))
    assert code == 0
    assert "not uniquely 2-divisible" in out
    assert "unreadable" in out
    assert "g21.tbl" in out


# bytes that are no UTF-8 text, as at the start of an executable file
NOT_TEXT = b"\x7fELF\x02\x01\x01\x00" + bytes(range(128, 256))

# each command on a path it cannot read or write, as arguments under a scratch directory D
BAD_PATHS = [
    ["import", "D/missing.tbl"],
    ["verify", "file:D/missing.tbl"],
    ["verify", "D"],
    ["export", "cyclic:3", "D/missing/x.tbl"],
    ["convert", "D/z3.tbl", "--direction", "circ", "--out", "D/missing/x.tbl"],
    ["import", "D/bin.tbl"],
    ["verify", "D/bin.tbl"],
    ["convert", "D/bin.tbl", "--direction", "circ", "--out", "D/x.tbl"],
    ["survey", "--source", "D/missing"],
    ["survey", "--source", "D/z3.tbl"],
]


@pytest.mark.parametrize("argv", BAD_PATHS, ids=" ".join)
def test_bad_paths_and_non_text_tables_exit_2(argv, tmp_path):
    # run as a separate process, so an uncaught exception shows as a traceback
    tableio.export_table(construct("cyclic:3").table, tmp_path / "z3.tbl")
    (tmp_path / "bin.tbl").write_bytes(NOT_TEXT)
    env = dict(os.environ, PYTHONPATH=str(Path(gamma_forge.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "gamma_forge.cli", *(a.replace("D", str(tmp_path), 1) for a in argv)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


BAD_TABLES = {  # rows of a table refused as a group, and its one error line
    "nonlatin": ("0 1 2/1 1 0/2 0 1", "not a loop: row 1 is not a permutation"),
    "noidentity": ("0 2 1/2 1 0/1 0 2", "not a loop: no two-sided identity"),
    "nonassociative": ("0 1 2 3 4/1 0 3 4 2/2 4 0 1 3/3 2 4 0 1/4 3 1 2 0", "not associative: (1*1)*2 != 1*(1*2)"),
}


def _write_bad_tables(directory):
    for name, (rows, _) in BAD_TABLES.items():
        (directory / f"{name}.tbl").write_text(f"{rows.count('/') + 1}\n" + rows.replace("/", "\n") + "\n")


@pytest.mark.parametrize("command", [["verify"], ["convert", "--direction", "circ", "--out", "x.tbl"]], ids=" ".join)
@pytest.mark.parametrize("name", BAD_TABLES)
def test_tables_that_are_no_group_exit_2_with_one_line(name, command, tmp_path):
    # the group build refuses through the Loop's refusals, then Light's test
    _write_bad_tables(tmp_path)
    env = dict(os.environ, PYTHONPATH=str(Path(gamma_forge.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "gamma_forge.cli", command[0], f"{name}.tbl", *command[1:]],
                          capture_output=True, text=True, env=env, cwd=tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {BAD_TABLES[name][1]}\n")
    assert not (tmp_path / "x.tbl").exists()


def test_survey_reads_tables_that_are_no_group_as_unreadable_rows(tmp_path, capsys):
    _write_bad_tables(tmp_path)
    code, out, err = run_cli(capsys, "survey", "--source", str(tmp_path), "--format", "json")
    assert code == 0 and err == ""
    assert {r["spec"]: r["skipped"] for r in json.loads(out)["rows"]} == {
        f"file:{name}.tbl": f"unreadable: {text}" for name, (_, text) in BAD_TABLES.items()}


def test_survey_reads_a_non_text_table_as_one_unreadable_row(tmp_path, capsys):
    tableio.export_table(construct("sd:7:3:2").table, tmp_path / "g21.tbl")
    tableio.export_table(construct("cyclic:3").table, tmp_path / "z3.tbl")
    (tmp_path / "bin.tbl").write_bytes(NOT_TEXT)
    code, out, err = run_cli(capsys, "survey", "--source", str(tmp_path), "--format", "json")
    assert code == 0 and err == ""
    rows = {r["spec"]: r for r in json.loads(out)["rows"]}
    assert sorted(rows) == ["file:bin.tbl", "file:g21.tbl", "file:z3.tbl"]
    assert rows["file:bin.tbl"]["skipped"].startswith(f"unreadable: cannot read {tmp_path / 'bin.tbl'}: ")
    assert rows["file:g21.tbl"]["skipped"] is None and rows["file:z3.tbl"]["skipped"] is None


def test_export_import_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "z3.tbl"
    code, out, _ = run_cli(capsys, "export", "cyclic:3", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[1:] == ["3", "0 1 2", "1 2 0", "2 0 1"]
    code, out, _ = run_cli(capsys, "import", str(out_path))
    assert code == 0
    assert "the table is a group" in out


def test_import_nonassociative_loop(tmp_path, capsys):
    q = circ_loop(construct("sd:7:3:2"))
    tableio.export_table(
        tableio.CayleyTable(q.tbl, name="c21"), tmp_path / "c21.tbl")
    code, out, _ = run_cli(capsys, "import", str(tmp_path / "c21.tbl"))
    assert code == 0
    assert "not associative" in out
    assert "loop=True" in out


def test_convert_circ_matches_library(tmp_path, capsys):
    out_path = tmp_path / "c21.tbl"
    code, _, _ = run_cli(capsys, "convert", "sd:7:3:2", "--direction", "circ",
                         "--out", str(out_path))
    assert code == 0
    res = tableio.import_table(out_path)
    q = circ_loop(construct("sd:7:3:2"))
    assert (res.table.table == q.tbl).all()
    assert any("construction: circ" in c for c in res.comments)


def test_convert_roundtrip_table_identical(tmp_path, capsys):
    a = tmp_path / "a.tbl"
    b = tmp_path / "b.tbl"
    c = tmp_path / "c.tbl"
    run_cli(capsys, "convert", "sd:7:3:2", "--direction", "circ", "--out", str(a))
    run_cli(capsys, "convert", str(a), "--direction", "gamma-to-bruck", "--out", str(b))
    run_cli(capsys, "convert", str(b), "--direction", "bruck-to-gamma", "--out", str(c))
    ta = tableio.import_table(a).table.table
    tc = tableio.import_table(c).table.table
    assert (ta == tc).all()
    # data body is byte-identical once headers are stripped
    body = lambda p: "\n".join(l for l in p.read_text().splitlines()
                               if not l.startswith("#"))
    assert body(a) == body(c)


def test_convert_rejects_bad_precondition(tmp_path, capsys):
    code, out, err = run_cli(capsys, "convert", "cyclic:4", "--direction", "circ",
                             "--out", str(tmp_path / "x.tbl"))
    assert code == 2
    assert "2-divisible" in err


@pytest.mark.parametrize("direction,axioms", [("gamma-to-bruck", ("commutativity", "automorphic-inverse")),
                                              ("bruck-to-gamma", ("automorphic inverse property",))])
def test_translation_refusals_name_axioms_and_labels(tmp_path, capsys, direction, axioms):
    # the group sd:7:3:2 is in neither variety: each failing axiom is named,
    # with its witness (1, 7) in the labels (1,0) and (0,1), and no repr is printed
    code, out, err = run_cli(capsys, "convert", "sd:7:3:2", "--direction", direction,
                             "--out", str(tmp_path / "x.tbl"))
    assert code == 2 and out == ""
    assert "Verdict(" not in err and "((1,0),(0,1))" in err
    assert all(axiom in err for axiom in axioms)
    assert not (tmp_path / "x.tbl").exists()


def test_convert_rejects_a_latin_table_without_identity(tmp_path, capsys):
    # rows are cyclic shifts, 0 is a left identity only: the loop is refused before any axiom is read
    path = tmp_path / "shifts.tbl"
    path.write_text(tableio.format_tbl(CayleyTable([[(2 * x + y) % 5 for y in range(5)] for x in range(5)])))
    code, out, err = run_cli(capsys, "convert", str(path), "--direction", "gamma-to-bruck",
                             "--out", str(tmp_path / "x.tbl"))
    assert code == 2 and out == ""
    assert "not a loop" in err
    assert not (tmp_path / "x.tbl").exists()


def test_verify_reads_a_bare_table_path_as_a_file_spec(tmp_path, capsys):
    path = tmp_path / "g21.tbl"
    assert run_cli(capsys, "export", "sd:7:3:2", str(path))[0] == 0
    reports = []
    for spec in (str(path), f"file:{path}"):
        code, out, err = run_cli(capsys, "verify", spec, "--format", "json")
        assert code == 0 and err == ""
        report = json.loads(out)
        reports.append((report["subject"], [{k: v for k, v in c.items() if k != "timing_ms"} for c in report["checks"]]))
    assert reports[0] == reports[1] and len(reports[0][1]) == len(checks.CHECK_IDS)


@pytest.mark.parametrize("scan,check", [("is_left_bruck", "oplus-left-bruck"),
                                        ("check_gamma_axioms", "circ-loop-gamma-axioms")])
def test_a_failed_variety_verdict_fails_the_roundtrip_without_a_traceback(capsys, monkeypatch, scan, check):
    # each translation refuses a loop outside its variety: the roundtrip
    # reports the failed verdict the loop keeps as its witness, and translates nothing
    real = getattr(loops, scan)
    failing = {"is_left_bruck": lambda q: (False, (1, 2, 3)),
               "check_gamma_axioms": lambda q: dataclasses.replace(
                   real(q), p_map_identity=loops.AxiomVerdict(False, (1, 2, 3)))}
    monkeypatch.setattr(loops, scan, failing[scan])
    monkeypatch.setattr(constructions, "_gamma_by_orbit_walk", None)
    code, out, err = run_cli(capsys, "verify", "sd:7:3:2", "--format", "json",
                             "--checks", f"{check},correspondence-roundtrip")
    assert code == 1 and err == ""
    first, roundtrip = json.loads(out)["checks"]
    assert [first["verdict"], roundtrip["verdict"]] == ["fail", "fail"]
    assert first["witness"] and roundtrip["witness"] == f"{check} fails: {first['witness']}"


def test_table_cap_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GAMMA_FORGE_TABLE_CAP", "100")
    code, out, err = run_cli(capsys, "verify", "ut:4:3")  # order 729 > 100 is refused
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "729" in err and "100" in err and len(err.splitlines()) == 1
    monkeypatch.setenv("GAMMA_FORGE_TABLE_CAP", "3001")  # a raised cap builds the group
    code, out, err = run_cli(capsys, "verify", "cyclic:3001", "--checks", "uniquely-2-divisible")
    assert code == 0 and out.endswith("\nconsistent\n")
    monkeypatch.delenv("GAMMA_FORGE_TABLE_CAP")
    for bad in ("-1", "0"):
        monkeypatch.setenv("GAMMA_FORGE_TABLE_CAP", bad)
        code, out, err = run_cli(capsys, "verify", "cyclic:3")
        assert code == 2
        assert "consistent" not in out
        assert "GAMMA_FORGE_TABLE_CAP" in err
