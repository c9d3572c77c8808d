"""Front-end behavior: exit codes, formats, determinism, file commands."""

import json
import re

from gamma_forge import tableio
from gamma_forge.cli import main
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


def test_verify_functional_group_skips_loop_checks(capsys):
    code, out, err = run_cli(capsys, "verify", "ut:5:3",
                             "--checks", "uniquely-2-divisible,circ-loop-gamma-axioms")
    assert code == 0
    assert "functional" in out


def test_verify_nothing_verified_is_not_consistent(capsys):
    # a functional group skips every loop check, so this run has no verdict
    code, out, err = run_cli(capsys, "verify", "ut:5:3", "--checks", "circ-loop-gamma-axioms")
    assert code == 1
    assert out.endswith("\nnothing verified: every selected check was skipped\n")
    assert "consistent" not in out
    code, out, err = run_cli(capsys, "verify", "ut:5:3", "--checks", "circ-loop-gamma-axioms",
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


def test_table_cap_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GAMMA_FORGE_TABLE_CAP", "100")
    import gamma_forge.groups as groups_mod
    u = groups_mod.unitriangular(4, 3)  # order 729 > 100 now stays functional
    from gamma_forge.groups import FunctionalGroup
    assert isinstance(u, FunctionalGroup)
    monkeypatch.delenv("GAMMA_FORGE_TABLE_CAP")
    for bad in ("-1", "0"):
        monkeypatch.setenv("GAMMA_FORGE_TABLE_CAP", bad)
        code, out, err = run_cli(capsys, "verify", "cyclic:3")
        assert code == 2
        assert "consistent" not in out
        assert "GAMMA_FORGE_TABLE_CAP" in err
