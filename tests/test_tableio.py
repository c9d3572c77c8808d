"""The .tbl reader and writer: the per-row numpy path, the in-place identity
relabeling and the block-written export against the per-line and per-cell
code they replace.

``parse_tbl`` reads each clean row line with numpy (``_clean_row``) and hands
every other row to its line parser (``_parsed_row``).  Forcing the line
parser (by making ``_clean_row`` decline) gives the reference: on every text
the two must return the same array and name, or raise the same
error text.  ``format_tbl`` must write the bytes of the per-cell formatter
kept in ``oracles``.
"""

import sys
import tracemalloc

import numpy as np
import pytest

import oracles
from gamma_forge import cli, core, tableio
from gamma_forge.catalog import CATALOG_SPECS
from gamma_forge.core import CayleyTable, ConstructionError, classify
from gamma_forge.groups import construct, from_file

SPECS = [s for s, order in CATALOG_SPECS.items() if order <= 155] + ["ut:4:3"]


def relabel(t, seed):
    """The table under a seeded permutation of all elements, 0 included."""
    pi = np.random.default_rng(seed).permutation(len(t))
    out = np.empty_like(t)
    out[pi[:, None], pi[None, :]] = pi[t]
    return out


def outcome(text, line_parser=False):
    """parse_tbl's (array, name) or ("error", message), with the
    line parser forced for every row when line_parser is set."""
    with pytest.MonkeyPatch.context() as mp:
        if line_parser:
            mp.setattr(tableio, "_clean_row", lambda line, n: None)
        try:
            arr, name = tableio.parse_tbl(text)
        except ConstructionError as err:
            return "error", str(err)
    assert arr.dtype == core.element_dtype(len(arr))
    return arr.tolist(), name


def row_paths(text):
    """(rows numpy read, line numbers of the rows the line parser got) when
    parse_tbl reads text."""
    read, parsed = [], []
    real_clean, real_parsed = tableio._clean_row, tableio._parsed_row

    def clean(line, n):
        row = real_clean(line, n)
        read.append(row is not None)
        return row

    def line_parser(line, n, lineno):
        parsed.append(lineno)
        return real_parsed(line, n, lineno)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tableio, "_clean_row", clean)
        mp.setattr(tableio, "_parsed_row", line_parser)
        try:
            tableio.parse_tbl(text)
        except ConstructionError:
            pass
    return sum(read), parsed


def whole_read(text, n):
    """Whether numpy read all n rows of text."""
    return row_paths(text) == (n, [])


def assert_same_as_line_parser(text):
    fast = outcome(text)
    assert fast == outcome(text, line_parser=True)
    return fast


@pytest.mark.parametrize("spec", SPECS)
def test_relabeled_catalog_tables_read_whole(spec):
    t = relabel(construct(spec).tbl, len(spec))
    text = oracles.format_tbl_per_cell(CayleyTable(t, name=spec), ["relabeled", "seeded"])
    arr, name = assert_same_as_line_parser(text)
    assert (np.array(arr) == t).all() and name == spec
    assert whole_read(text, len(t))


Z4 = [[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]]
Z11 = [[(x + y) % 11 for y in range(11)] for x in range(11)]


def z4_text(rows, head="4", tail=""):
    return head + "\n" + "\n".join(rows) + "\n" + tail


CLEAN = {  # texts whose rows numpy reads, with the array they hold
    "tabs": (z4_text(["0\t1\t2\t3", "\t1 2\t3 0 ", "2  3\t\t0 1", "3 0 1 2\t"]), Z4),
    "crlf": ("# name: z4\r\n4\r\n0 1 2 3\r\n1 2 3 0\r\n2 3 0 1\r\n3 0 1 2\r\n", Z4),
    "trailing comment and blanks": (z4_text(["0 1 2 3", "1 2 3 0", "2 3 0 1", "3 0 1 2"],
                                            tail="\n  \n# done\n\t\n"), Z4),
    "leading zeros": (z4_text(["00 1 2 3", "1 2 3 0", "2 3 0 01", "3 0 1 0000000000000000000002"]), Z4),
}

LINE_PARSED = {  # texts with the line numbers of the rows the line parser must read:
    # accepted by int(), or errors; blank and '#' lines are not rows, so the rows
    # around them are clean, and a text may end before its rows do
    "plus sign": (z4_text(["0 1 2 3", "1 2 +3 0", "2 3 0 1", "3 0 1 2"]), [3]),
    "underscore": ("11\n" + "\n".join(" ".join("1_0" if v == 10 else str(v) for v in row) for row in Z11) + "\n",
                   list(range(2, 13))),
    "arabic-indic digit": (z4_text(["0 1 2 ٣", "1 2 3 0", "2 3 0 1", "3 0 1 2"]), [2]),
    "blank row line": ("1\n   \n0\n", []),
    "blank between rows": (z4_text(["0 1 2 3", "1 2 3 0", " \t ", "2 3 0 1", "3 0 1 2"]), []),
    "comment between rows": (z4_text(["0 1 2 3", "# name: mid", "1 2 3 0", "2 3 0 1", "3 0 1 2"]), []),
    "1+2": (z4_text(["0 1 2 3", "1 2 3 0", "2 3 0 1+2", "3 0 1 2"]), [4]),
    "1-2": (z4_text(["0 1 2 3", "1 2 3 0", "2 3 0 1-2", "3 0 1 2"]), [4]),
    "hex": (z4_text(["0 1 2 3", "1 2 3 0x1", "2 3 0 1", "3 0 1 2"]), [3]),
    "float": (z4_text(["0 1 2 3", "1 2 3 0", "2 3 0 1.0", "3 0 1 2"]), [4]),
    "negative": (z4_text(["0 1 2 3", "1 2 3 0", "2 3 0 -1", "3 0 1 2"]), [4]),
    "2^63": (z4_text(["0 1 2 3", "1 2 3 9223372036854775808", "2 3 0 1", "3 0 1 2"]), [3]),
    "2^64 + 1": (z4_text(["0 1 2 3", "1 2 3 18446744073709551617", "2 3 0 1", "3 0 1 2"]), [3]),
    "out of range": (z4_text(["0 1 2 3", "1 2 3 4", "2 3 0 1", "3 0 1 2"]), [3]),
    "short row": (z4_text(["0 1 2 3", "1 2 3", "2 3 0 1", "3 0 1 2"]), [3]),
    "long row": (z4_text(["0 1 2 3", "1 2 3 0 1", "2 3 0 1", "3 0 1 2"]), [3]),
    "too few rows": (z4_text(["0 1 2 3", "1 2 3 0"]), []),
    "no count": ("# only a comment\n\n", []),
    "bad count": ("four\n0 1 2 3\n", []),
    "zero count": ("0\n", []),
    "no-break space": (z4_text(["0 1 2 3", "1\xa02 3 0", "2 3 0 1", "3 0 1 2"]), [3]),
}


@pytest.mark.parametrize("case", sorted(CLEAN))
def test_clean_rows_read_whole(case):
    text, table = CLEAN[case]
    assert assert_same_as_line_parser(text)[0] == table
    assert whole_read(text, len(table))


@pytest.mark.parametrize("case", sorted(LINE_PARSED))
def test_other_texts_keep_the_line_parser(case):
    text, lines = LINE_PARSED[case]
    assert_same_as_line_parser(text)
    assert row_paths(text)[1] == lines


def test_line_parser_outcomes_are_pinned():
    got = {case: outcome(text) for case, (text, _) in LINE_PARSED.items()}
    assert got["plus sign"][0] == got["arabic-indic digit"][0] == got["no-break space"][0] == Z4
    assert got["underscore"][0] == Z11
    assert got["blank row line"][0] == [[0]]
    assert got["comment between rows"][1] == "mid"
    assert got["1+2"] == got["1-2"] == got["float"] == ("error", "line 4: non-integer entry")
    assert got["hex"] == ("error", "line 3: non-integer entry")
    assert got["negative"] == ("error", "line 4: entry -1 at column 3 outside 0..3")
    assert got["2^63"] == ("error", "line 3: entry 9223372036854775808 at column 3 outside 0..3")
    assert got["short row"] == ("error", "line 3: expected 4 entries, got 3")
    assert got["long row"] == ("error", "line 3: expected 4 entries, got 5")
    assert got["too few rows"] == ("error", "expected 4 rows, found 2")
    assert got["no count"] == ("error", "no element count found")
    assert got["zero count"] == ("error", "line 1: element count must be >= 1")


def test_content_after_whole_rows_is_an_error():
    text = z4_text(["0 1 2 3", "1 2 3 0", "2 3 0 1", "3 0 1 2"], tail="# fine\n\n0 1\n")
    assert whole_read(text, 4)
    assert assert_same_as_line_parser(text) == ("error", "line 8: unexpected content after the 4 table rows")


@pytest.mark.parametrize("spec", SPECS)
def test_format_matches_per_cell_formatter(spec):
    g = construct(spec)
    for table in (g.table, CayleyTable(relabel(g.tbl, 7))):
        for extra in (None, [], ["from a test", "second line"]):
            assert tableio.format_tbl(table, extra) == oracles.format_tbl_per_cell(table, extra)


def test_export_writes_per_cell_bytes(tmp_path):
    t = CayleyTable(relabel(construct("sd:31:5:2").tbl, 3), name="relabeled")
    tableio.export_table(t, tmp_path / "t.tbl", ["x"])
    norm = CayleyTable(tableio.normalize_identity(t.table.copy(), t.classification.identity_index)[0], name="relabeled")
    assert (tmp_path / "t.tbl").read_bytes() == oracles.format_tbl_per_cell(norm, ["x"]).encode()


def test_file_lines_split_as_the_text_does(tmp_path):
    # parse_tbl splits the lines of a file as str.splitlines splits the whole
    # text, so line numbers in errors do not depend on the separators
    rows = ["0 1 2 3", "1 2 3 0", "2 3 0 1", "3 0 1 2"]
    texts = ["# name: z4\r4\r\n" + "\x0c".join(rows) + "\x85# end\u2028",
             "4\x1c" + "\v".join(rows[:2] + ["2 3 0 9"] + rows[3:]) + "\n",
             "4\n" + "\r".join(rows) + "\x1e\x1d0 1\n"]
    for i, text in enumerate(texts):
        path = tmp_path / f"{i}.tbl"
        path.write_text(text, newline="")
        with open(path) as fh:
            try:
                got = tableio.parse_tbl(fh)
                got = got[0].tolist(), got[1]
            except ConstructionError as err:
                got = "error", str(err)
        assert got == outcome(text)
    assert outcome(texts[0])[0] == Z4
    assert outcome(texts[1]) == ("error", "line 4: entry 9 at column 3 outside 0..3")
    assert outcome(texts[2]) == ("error", "line 7: unexpected content after the 4 table rows")


def relabeled_file(tmp_path, spec):
    t = relabel(construct(spec).tbl, 1)
    assert t[0, 0] != 0  # the identity is moved on import
    path = tmp_path / "moved.tbl"
    path.write_text(oracles.format_tbl_per_cell(CayleyTable(t, name=spec)))
    return path, t


def test_import_relabels_the_parsed_array_in_place(tmp_path, monkeypatch):
    path, t = relabeled_file(tmp_path, "sd:31:5:2")
    parsed = []
    real = tableio.parse_tbl
    monkeypatch.setattr(tableio, "parse_tbl", lambda src: parsed.append(real(src)) or parsed[-1])
    res = tableio.import_table(path)
    arr = res.table.table
    assert arr is parsed[0][0] and arr.flags.owndata and not arr.flags.writeable
    ref, sigma = oracles.normalize_identity_scan(t)
    assert (arr == ref).all() and res.relabeling == sigma


def test_reading_and_writing_keep_scratch_to_a_row_block(tmp_path):
    # at order 729 a table is 2.1 MB; reading one (parse, relabel and, for
    # from_file, the group-law check) and writing one may hold at most 1 MB
    # above it, so no step builds a copy of the table or a table-sized mask
    path, _ = relabeled_file(tmp_path, "ut:4:3")
    table = construct("ut:4:3").table
    steps = [("import_table", lambda: tableio.import_table(path)), ("from_file", lambda: from_file(path)),
             ("export_table", lambda: tableio.export_table(table, tmp_path / "out.tbl"))]
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
    assert {name: round(b / 1e6, 2) for name, b in excess.items() if b > 1e6} == {}
    assert (tmp_path / "out.tbl").read_text() == oracles.format_tbl_per_cell(table)


def test_a_table_too_large_for_memory_is_an_error(monkeypatch):
    real = np.empty

    def empty(shape, dtype=float):
        if shape == (5, 5):
            raise MemoryError
        return real(shape, dtype)

    monkeypatch.setattr(tableio.np, "empty", empty)
    assert outcome("5\n# a first row\n0 1 2 3 4\n") == ("error", "line 3: a table of 5 rows does not fit in memory")


def test_an_element_count_above_the_table_cap_is_refused_at_its_line(monkeypatch):
    # before any row is read or the n x n array is allocated: a count of 10^6
    # would ask for 2 TB of uint16 cells
    allocated, real = [], np.empty
    monkeypatch.setattr(tableio.np, "empty", lambda shape, dtype=float: allocated.append(shape) or real(shape, dtype))
    monkeypatch.delenv(core.TABLE_CAP_ENV, raising=False)
    assert outcome("# name: big\n1000000\n0\n") == (
        "error", "line 2: order 1000000 is above the table cap 3000; GAMMA_FORGE_TABLE_CAP raises the cap")
    rows = [" ".join(map(str, row)) for row in Z4]
    monkeypatch.setenv(core.TABLE_CAP_ENV, "3")
    assert outcome(z4_text(rows)) == (
        "error", "line 1: order 4 is above the table cap 3; GAMMA_FORGE_TABLE_CAP raises the cap")
    monkeypatch.setenv(core.TABLE_CAP_ENV, "4")
    assert outcome(z4_text(rows)) == (Z4, None)
    assert allocated == [(4, 4)]


def spy_classify(monkeypatch):
    """The arrays classify is called on, through every module binding it."""
    calls, real = [], core.classify

    def spy(t):
        calls.append(t)
        return real(t)

    for name, mod in list(sys.modules.items()):
        if name.startswith("gamma_forge") and vars(mod).get("classify") is real:
            monkeypatch.setattr(mod, "classify", spy)
    return calls


def test_import_classifies_each_table_once(tmp_path, monkeypatch, capsys):
    # the relabeled table takes the classification of the parsed array
    path, _ = relabeled_file(tmp_path, "sd:7:3:2")
    calls = spy_classify(monkeypatch)
    res = tableio.import_table(path)
    assert res.table.classification.is_loop and len(calls) == 1
    from_file(path)
    assert len(calls) == 2
    assert cli.main(["import", str(path)]) == 0
    assert "associative: the table is a group" in capsys.readouterr().out
    assert len(calls) == 3


def test_handed_over_classification_is_that_of_the_table(tmp_path):
    rng = np.random.default_rng(7)
    tables = [relabel(construct(spec).tbl, seed) for spec in SPECS for seed in (1, 2)]
    tables += [(np.arange(n)[:, None] - np.arange(n)[None, :]) % n for n in (1, 4, 9)]  # Latin, no identity for n > 1
    tables += [relabel(construct("sd:7:3:2").tbl, 3)[:, ::-1]]  # Latin, no identity
    tables += [rng.integers(0, n, (n, n)) for n in (2, 5, 21)]  # not Latin
    bad = relabel(construct("heis:3").tbl, 4)
    bad[5, 6] = bad[5, 7]
    tables += [bad]  # not Latin at row 5
    kinds = set()
    for k, t in enumerate(tables):
        path = tmp_path / f"{k}.tbl"
        path.write_text(oracles.format_tbl_per_cell(CayleyTable(t)))
        table = tableio.import_table(path).table
        cls = table.classification
        assert cls == classify(table.table), k
        kinds.add((cls.is_latin, cls.is_loop))
    assert kinds == {(True, True), (True, False), (False, False)}


@pytest.mark.parametrize("n,value", [(3, -1), (3, 3), (3, 70000), (21, 257), (300, 65541)])
def test_out_of_range_rows_are_errors_before_narrowing(tmp_path, capsys, n, value):
    # a row is range-checked as read, before it is stored in the narrow
    # element dtype (uint8 up to order 256, uint16 above), where 257 and
    # 65541 would wrap into 0..n-1; the CLI exits 2 with the same message
    r = np.arange(n)
    rows = ((r[:, None] + r) % n).tolist()
    rows[n - 1][n // 2] = value
    path = tmp_path / "bad.tbl"
    path.write_text(f"{n}\n" + "".join(" ".join(map(str, row)) + "\n" for row in rows))
    message = f"line {n + 1}: entry {value} at column {n // 2} outside 0..{n - 1}"
    with pytest.raises(ConstructionError) as err:
        tableio.import_table(path)
    assert str(err.value) == message
    assert cli.main(["import", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
