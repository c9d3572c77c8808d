"""The .tbl reader and writer: whole-array paths against the per-line and
per-cell code they replace.

``parse_tbl`` reads clean row lines with numpy and hands every other text to
its line parser.  Forcing the line parser (by making ``_clean_rows`` decline)
gives the reference: on every text the two must return the same array, name
and comments, or raise the same error text.  ``format_tbl`` must write the
bytes of the per-cell formatter kept in ``oracles``.
"""

import numpy as np
import pytest

import oracles
from gamma_forge import tableio
from gamma_forge.catalog import CATALOG_SPECS
from gamma_forge.core import CayleyTable, ConstructionError
from gamma_forge.groups import construct

SPECS = [s for s, order in CATALOG_SPECS.items() if order <= 155] + ["ut:4:3"]


def relabel(t, seed):
    """The table under a seeded permutation of all elements, 0 included."""
    pi = np.random.default_rng(seed).permutation(len(t))
    out = np.empty_like(t)
    out[pi[:, None], pi[None, :]] = pi[t]
    return out


def outcome(text, line_parser=False):
    """parse_tbl's (array, name, comments) or ("error", message), with the
    line parser forced for every text when line_parser is set."""
    with pytest.MonkeyPatch.context() as mp:
        if line_parser:
            mp.setattr(tableio, "_clean_rows", lambda lines, n: None)
        try:
            arr, name, comments = tableio.parse_tbl(text)
        except ConstructionError as err:
            return "error", str(err)
    assert arr.dtype == np.int32
    return arr.tolist(), name, comments


def whole_read(text):
    """Whether parse_tbl read the rows of text with numpy."""
    calls = []
    real = tableio._clean_rows

    def spy(lines, n):
        calls.append(real(lines, n))
        return calls[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tableio, "_clean_rows", spy)
        try:
            tableio.parse_tbl(text)
        except ConstructionError:
            pass
    return any(c is not None for c in calls)


def assert_same_as_line_parser(text):
    fast = outcome(text)
    assert fast == outcome(text, line_parser=True)
    return fast


@pytest.mark.parametrize("spec", SPECS)
def test_relabeled_catalog_tables_read_whole(spec):
    t = relabel(construct(spec).tbl, len(spec))
    text = oracles.format_tbl_per_cell(CayleyTable(t, name=spec), ["relabeled", "seeded"])
    arr, name, comments = assert_same_as_line_parser(text)
    assert (np.array(arr) == t).all() and name == spec
    assert comments == [f"# name: {spec}", "# relabeled", "# seeded"]
    assert whole_read(text)


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

LINE_PARSED = {  # texts the line parser must read: accepted by int(), or errors
    "plus sign": z4_text(["0 1 2 3", "1 2 +3 0", "2 3 0 1", "3 0 1 2"]),
    "underscore": "11\n" + "\n".join(" ".join("1_0" if v == 10 else str(v) for v in row) for row in Z11) + "\n",
    "arabic-indic digit": z4_text(["0 1 2 ٣", "1 2 3 0", "2 3 0 1", "3 0 1 2"]),
    "blank row line": "1\n   \n0\n",
    "blank between rows": z4_text(["0 1 2 3", "1 2 3 0", " \t ", "2 3 0 1", "3 0 1 2"]),
    "comment between rows": z4_text(["0 1 2 3", "# name: mid", "1 2 3 0", "2 3 0 1", "3 0 1 2"]),
    "1+2": z4_text(["0 1 2 3", "1 2 3 0", "2 3 0 1+2", "3 0 1 2"]),
    "1-2": z4_text(["0 1 2 3", "1 2 3 0", "2 3 0 1-2", "3 0 1 2"]),
    "hex": z4_text(["0 1 2 3", "1 2 3 0x1", "2 3 0 1", "3 0 1 2"]),
    "float": z4_text(["0 1 2 3", "1 2 3 0", "2 3 0 1.0", "3 0 1 2"]),
    "negative": z4_text(["0 1 2 3", "1 2 3 0", "2 3 0 -1", "3 0 1 2"]),
    "2^63": z4_text(["0 1 2 3", "1 2 3 9223372036854775808", "2 3 0 1", "3 0 1 2"]),
    "2^64 + 1": z4_text(["0 1 2 3", "1 2 3 18446744073709551617", "2 3 0 1", "3 0 1 2"]),
    "out of range": z4_text(["0 1 2 3", "1 2 3 4", "2 3 0 1", "3 0 1 2"]),
    "short row": z4_text(["0 1 2 3", "1 2 3", "2 3 0 1", "3 0 1 2"]),
    "long row": z4_text(["0 1 2 3", "1 2 3 0 1", "2 3 0 1", "3 0 1 2"]),
    "too few rows": z4_text(["0 1 2 3", "1 2 3 0"]),
    "no count": "# only a comment\n\n",
    "bad count": "four\n0 1 2 3\n",
    "zero count": "0\n",
    "no-break space": z4_text(["0 1 2 3", "1\xa02 3 0", "2 3 0 1", "3 0 1 2"]),
}


@pytest.mark.parametrize("case", sorted(CLEAN))
def test_clean_rows_read_whole(case):
    text, table = CLEAN[case]
    assert assert_same_as_line_parser(text)[0] == table
    assert whole_read(text)


@pytest.mark.parametrize("case", sorted(LINE_PARSED))
def test_other_texts_keep_the_line_parser(case):
    text = LINE_PARSED[case]
    assert_same_as_line_parser(text)
    assert not whole_read(text)


def test_line_parser_outcomes_are_pinned():
    got = {case: outcome(text) for case, text in LINE_PARSED.items()}
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
    assert whole_read(text)
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
    norm = CayleyTable(tableio.normalize_identity(t.table)[0], name="relabeled")
    assert (tmp_path / "t.tbl").read_bytes() == oracles.format_tbl_per_cell(norm, ["x"]).encode()
