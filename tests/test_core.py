"""Tables, permutations, closure, and the .tbl format."""

import ast
import itertools
import math
import random
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from gamma_forge.core import (CayleyTable, ConstructionError, EvenOrderError, StabilizerChain, build_table, classify,
                              row_blocks, take_rows)
from gamma_forge import core, tableio
from oracles import (
    CapExceededError,
    Permutation,
    close,
    left_divide,
    perm_sqrt_odd,
    right_divide,
    stabilizer_of,
    translation,
)


def test_build_table_trivial_and_cyclic():
    # rules are evaluated on broadcast index arrays; a constant broadcasts too
    t1 = build_table(1, lambda x, y: 0)
    assert t1.n == 1 and t1.table[0, 0] == 0
    z7 = build_table(7, lambda x, y: (x + y) % 7)
    assert classify(z7).is_loop
    assert classify(z7).identity_index == 0


def test_build_table_group21_rule():
    # pairs (h, k) indexed k-major; product (h1 + 2^k1 h2 mod 7, k1 + k2 mod 3)
    pow2 = np.array([1, 2, 4])

    def enc(h, k):
        return k * 7 + h

    def rule(x, y):
        h1, k1 = x % 7, x // 7
        h2, k2 = y % 7, y // 7
        return enc((h1 + pow2[k1] * h2) % 7, (k1 + k2) % 3)

    t = build_table(21, rule)
    assert classify(t).is_loop
    # spot: (1,0)*(0,1) = (1,1)
    assert t.table[1, 7] == 7 + 1
    # the table is the rule evaluated cell by cell
    assert all(t.table[x, y] == rule(x, y) for x in range(21) for y in range(21))


def test_build_table_rejects_out_of_range():
    with pytest.raises(ConstructionError, match=r"entry at \(1,2\) is 5, outside 0\.\.2"):
        build_table(3, lambda x, y: 5 * ((x == 1) & (y == 2)))
    # the least bad cell is reported, also for a value that would wrap into
    # 0..n-1 as an int32
    with pytest.raises(ConstructionError, match=r"entry at \(1,0\)"):
        build_table(3, lambda x, y: (x + y) % 3 + 2 ** 32 * ((x == 1) & (y == 0) | (x == 2)))


def test_range_checks_run_before_narrowing():
    # entries are checked in the dtype they come in, then stored in the
    # element dtype (uint8 at order 21, uint16 at 300), so -1, n and values
    # that would wrap into 0..n-1 there (257, 65541) are named at their least cell
    def rule(n, bad):
        return lambda x, y: (x + y) % n + sum(v * ((x == r) & (y == c)) for (r, c), v in bad.items())

    cases = [(21, {(1, 2): -1 - 3}, "entry at (1,2) is -1, outside 0..20"),
             (21, {(4, 0): 21 - 4, (4, 5): -1 - 9}, "entry at (4,0) is 21, outside 0..20"),
             (21, {(2, 9): 257 - 11, (3, 0): 21 - 3}, "entry at (2,9) is 257, outside 0..20"),
             (300, {(250, 0): -1 - 250, (200, 7): 65541 - 207}, "entry at (200,7) is 65541, outside 0..299")]
    for n, bad, message in cases:
        with pytest.raises(ConstructionError) as err:
            build_table(n, rule(n, bad))
        assert str(err.value) == message
        r = np.arange(n)
        arr = (r[:, None] + r) % n
        for (x, y), v in bad.items():
            arr[x, y] += v
        for given in (arr.tolist(), arr.astype(np.int64)):
            with pytest.raises(ConstructionError) as err:
                CayleyTable(given)
            assert str(err.value) == message
    # 2^31 no longer wraps to -2^31 (int64 input) or overflows (list input)
    for given in ([[0, 1, 2 ** 31], [1, 2, 0], [2, 0, 1]], np.array([[0, 1, 2 ** 31], [1, 2, 0], [2, 0, 1]])):
        with pytest.raises(ConstructionError, match=r"^entry at \(0,2\) is 2147483648, outside 0\.\.2$"):
            CayleyTable(given)


def test_build_table_row_blocks():
    # orders across several row blocks give the same table as a direct evaluation
    n = 300
    t = build_table(n, lambda x, y: (x * 7 + y) % n)
    r = np.arange(n)
    assert (t.table == (r[:, None] * 7 + r[None, :]) % n).all()


def test_build_table_hands_rules_int32_indices():
    seen = []
    build_table(300, lambda x, y: seen.append((x.dtype, y.dtype, x.shape[1], y.shape[0])) or (x + y) % 300)
    assert {s[:2] for s in seen} == {(np.dtype(np.int32), np.dtype(np.int32))} and {s[2:] for s in seen} == {(1, 1)}


def test_take_rows_is_take_along_axis():
    rng = np.random.default_rng(5)
    for rows, n in ((1, 1), (3, 7), (22, 729)):
        a = rng.integers(0, n, (rows, n)).astype(core.element_dtype(n))
        cols = rng.integers(0, n, (rows, n)).astype(core.element_dtype(n))
        assert (take_rows(a, cols) == np.take_along_axis(a, cols.astype(np.intp), 1)).all()


def test_src_calls_no_along_axis_gather():
    # the gather rule: a scan reads cells with 1-D takes, never take_along_axis
    # or put_along_axis, which cost about twice as much per cell
    src = Path(core.__file__).parent
    calls = [(path.name, node.lineno) for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None))
             in ("take_along_axis", "put_along_axis")]
    assert len(list(src.glob("*.py"))) > 5 and calls == []


def test_row_blocks_cover_every_row_once_within_the_budget():
    # ascending slices of at least one row each, covering 0..n-1 once, with
    # rows x width within the budget unless one row exceeds it (then one row
    # per block), and every block but the last as large as the budget allows
    for n in range(1, 3001):
        widths = (n, 3) + ((2 * n, 20000) if n % 97 == 0 or n in (1, 2, 155, 2991, 3000) else ())
        for width in widths:
            blocks = list(row_blocks(n, width))
            assert all(r.step is None for r in blocks)
            starts, stops = np.array([r.start for r in blocks]), np.array([r.stop for r in blocks])
            assert starts[0] == 0 and stops[-1] == n and (starts[1:] == stops[:-1]).all()
            rows = stops - starts
            assert rows.min() >= 1 and rows.max() * width <= max(core._BLOCK_CELLS, width)
            assert (rows[:-1] == max(1, core._BLOCK_CELLS // width)).all()
        assert list(row_blocks(n)) == list(row_blocks(n, n))
    # a table of up to 128 rows is one block, of 155 rows two; 22 rows at order 729, 5 at 2991
    assert [len(list(row_blocks(n))) for n in (128, 129, 155)] == [1, 2, 2]
    assert [next(row_blocks(n)).stop for n in (729, 2991, 3000)] == [22, 5, 5]


def test_classify_witnesses():
    bad = CayleyTable([[0, 0], [1, 1]])
    res = classify(bad)
    assert not res.is_latin and "row 0" in res.witness

    col_bad = CayleyTable([[0, 1], [0, 1]])
    res = classify(col_bad)
    assert not res.is_latin and "column" in res.witness

    # Latin but no two-sided identity
    no_id = CayleyTable([[1, 0, 2], [2, 1, 0], [0, 2, 1]])
    res = classify(no_id)
    assert res.is_latin and not res.is_loop and "identity" in res.witness


def test_translation_examples():
    z3 = build_table(3, lambda x, y: (x + y) % 3)
    l1 = translation(z3, 1, "left")
    assert l1.images == (1, 2, 0)
    assert translation(z3, 0, "left").is_identity()
    assert translation(z3, 0, "right").is_identity()
    r2 = translation(z3, 2, "right")
    assert r2.images == (2, 0, 1)


def test_divisions():
    z7 = build_table(7, lambda x, y: (x + y) % 7)
    assert left_divide(z7, 3, 5) == 2
    for x, y in product(range(7), repeat=2):
        assert z7.table[x, left_divide(z7, x, y)] == y
        assert z7.table[right_divide(z7, y, x), x] == y
    assert left_divide(z7, 0, 4) == 4  # identity\y = y


def test_division_requires_loop():
    bad = CayleyTable([[0, 0], [1, 1]])
    with pytest.raises(ConstructionError):
        left_divide(bad, 0, 1)


def test_permutation_basics():
    p = Permutation((1, 2, 0))
    assert p.order() == 3
    assert (p * p.inverse()).is_identity()
    assert p.power(3).is_identity()
    assert p.power(-1) == p.inverse()
    q = Permutation((0, 2, 1))
    # right-action order: apply p first, then q
    assert (p * q).images == tuple(q.images[i] for i in p.images)
    with pytest.raises(ConstructionError):
        Permutation((0, 0, 1))


def test_perm_sqrt_identity_and_3cycle():
    ident = Permutation.identity(4)
    assert perm_sqrt_odd(ident) == ident
    c = Permutation((1, 2, 0))       # (0 1 2)
    s = perm_sqrt_odd(c)
    assert s == Permutation((2, 0, 1))  # (0 2 1)
    assert s * s == c


def test_perm_sqrt_5cycle_is_cube():
    c = Permutation((1, 2, 3, 4, 0))
    s = perm_sqrt_odd(c)
    assert s == c.power(3)
    assert s * s == c


def _partitions(n, largest=None):
    if n == 0:
        yield ()
        return
    largest = largest or n
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _perm_from_cycle_type(parts):
    images = []
    start = 0
    for ln in parts:
        images.extend(list(range(start + 1, start + ln)) + [start])
        start += ln
    return Permutation(images)


def test_perm_sqrt_all_cycle_types_up_to_degree_7():
    for n in range(1, 8):
        for parts in _partitions(n):
            p = _perm_from_cycle_type(parts)
            if p.order() % 2 == 1:
                s = perm_sqrt_odd(p)
                assert s * s == p
                # result is a power of p
                assert any(p.power(k) == s for k in range(p.order()))
            else:
                with pytest.raises(EvenOrderError):
                    perm_sqrt_odd(p)


def test_perm_sqrt_random_degrees_up_to_50():
    rng = random.Random(7)
    odd_seen = 0
    for _ in range(200):
        n = rng.randrange(2, 51)
        images = list(range(n))
        rng.shuffle(images)
        p = Permutation(images)
        if p.order() % 2 == 1:
            odd_seen += 1
            s = perm_sqrt_odd(p)
            assert s * s == p
        else:
            with pytest.raises(EvenOrderError):
                perm_sqrt_odd(p)
    assert odd_seen > 10


def test_close_trivial_and_cyclic():
    ident = Permutation.identity(4)
    g = close([ident])
    assert len(g) == 1
    c3 = close([Permutation((1, 2, 0))])
    assert len(c3) == 3


def test_close_regular_representation_of_z7():
    z7 = build_table(7, lambda x, y: (x + y) % 7)
    gens = [translation(z7, x, "left") for x in range(7)]
    g = close(gens)
    assert len(g) == 7


def test_close_idempotent():
    gens = [Permutation((1, 2, 0, 3)), Permutation((0, 1, 3, 2))]
    g = close(gens)
    again = close(sorted(g.elements, key=lambda p: p.images))
    assert again.elements == g.elements


def test_close_cap():
    # S_5 has order 120; cap below that must trip
    gens = [Permutation((1, 2, 3, 4, 0)), Permutation((1, 0, 2, 3, 4))]
    with pytest.raises(CapExceededError) as exc:
        close(gens, cap=50)
    assert exc.value.partial_size > 50
    assert len(close(gens)) == 120


def test_stabilizer_regular_action_is_trivial():
    z7 = build_table(7, lambda x, y: (x + y) % 7)
    g = close([translation(z7, x, "left") for x in range(7)])
    st = stabilizer_of(g, 0)
    assert len(st) == 1


def test_stabilizer_abelian_group_mlt():
    z9 = build_table(9, lambda x, y: (x + y) % 9)
    gens = [translation(z9, x, "left") for x in range(9)] + \
           [translation(z9, x, "right") for x in range(9)]
    mlt = close(gens)
    assert len(mlt) == 9
    assert len(stabilizer_of(mlt, 0)) == 1


def test_stabilizer_chain_matches_closure():
    # random groups of degree up to 6, so that chains of several levels and
    # base points added on the way occur; every permutation is tested
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 6)
        gens = [Permutation(rng.sample(range(n), n)) for _ in range(rng.randint(1, 3))]
        group = close(gens)
        chain = StabilizerChain(n)
        for g in gens:
            chain.add(g.images)
        assert math.prod(len(level.orbit) for level in chain.levels) == len(group)
        for i, level in enumerate(chain.levels):
            stab = group
            for level_above in chain.levels[:i]:
                stab = stabilizer_of(stab, level_above.point)
            assert close([Permutation(g) for g in level.gens] or [Permutation.identity(n)]) == stab
        for images in itertools.permutations(range(n)):
            h, stop = chain.sift(np.array(images, dtype=chain.identity.dtype))
            member = stop == len(chain.levels) and (h == chain.identity).all()
            assert member == (Permutation(images) in group)


# --- .tbl format


def test_tbl_roundtrip(tmp_path):
    z3 = build_table(3, lambda x, y: (x + y) % 3, name="Z3")
    path = tmp_path / "z3.tbl"
    tableio.export_table(z3, path)
    text = path.read_text()
    assert text.splitlines()[0] == "# name: Z3"
    assert text.splitlines()[1] == "3"
    res = tableio.import_table(path)
    assert (res.table.table == z3.table).all()
    assert res.relabeling is None
    assert res.name == "Z3"


def test_tbl_import_normalizes_identity(tmp_path):
    # Z3 with elements relabeled so the identity is index 2
    sigma = [2, 0, 1]  # old -> new
    arr = np.zeros((3, 3), dtype=int)
    for x in range(3):
        for y in range(3):
            arr[sigma[x], sigma[y]] = sigma[(x + y) % 3]
    path = tmp_path / "shifted.tbl"
    path.write_text("3\n" + "\n".join(" ".join(str(v) for v in row) for row in arr) + "\n")
    res = tableio.import_table(path)
    assert res.relabeling is not None
    assert classify(res.table).identity_index == 0


def test_tbl_parse_errors(tmp_path):
    path = tmp_path / "bad.tbl"
    path.write_text("2\n0 1\n1 9\n")
    with pytest.raises(ConstructionError, match="line 3"):
        tableio.import_table(path)
    path.write_text("2\n0 1\n")
    with pytest.raises(ConstructionError, match="expected 2 rows"):
        tableio.import_table(path)
    path.write_text("x\n")
    with pytest.raises(ConstructionError, match="element count"):
        tableio.import_table(path)
    path.write_text("3\n0 1 2\n1 2 0\n2 0 1\n9 9 9 garbage\n")
    with pytest.raises(ConstructionError, match="line 5"):
        tableio.import_table(path)
    path.write_text("3\n0 1 2\n1 2 0\n2 0 1\n\n# trailing comment\n")
    assert (tableio.import_table(path).table.table == [[0, 1, 2], [1, 2, 0], [2, 0, 1]]).all()


def test_only_integer_tables_are_taken():
    # a float, bool, string or missing entry is named at its least cell; a
    # float or bool array offends at (0, 0), as every entry of it is no integer
    cases = [([[0, 1.5], [1, 0]], "entry at (0,1) is 1.5, not an integer"),
             ([[0, 1], [1.0, 0]], "entry at (1,0) is 1.0, not an integer"),
             ([[0, 1], [1, None]], "entry at (1,1) is None, not an integer"),
             ([[0, "1"], [1, 0]], "entry at (0,1) is '1', not an integer"),
             (np.array([[0, 1], [1, 0]], dtype=float), "entry at (0,0) is 0.0, not an integer"),
             (np.array([[0, 1], [1, 0]], dtype=np.float32), "entry at (0,0) is 0.0, not an integer"),
             (np.array([[False, True], [True, False]]), "entry at (0,0) is False, not an integer")]
    for given, message in cases:
        with pytest.raises(ConstructionError) as err:
            CayleyTable(given)
        assert str(err.value) == message
    for given in ([[0, 1], [1, 0]], np.array([[0, 1], [1, 0]], dtype=np.int8), np.array([[0, 1], [1, 0]], dtype=np.uint64)):
        assert CayleyTable(given).table.tolist() == [[0, 1], [1, 0]]
    # integers too large for int64 are range-checked as Python ints
    with pytest.raises(ConstructionError, match=r"^entry at \(1,1\) is 1180591620717411303424, outside 0\.\.1$"):
        CayleyTable([[0, 1], [1, 2 ** 70]])
