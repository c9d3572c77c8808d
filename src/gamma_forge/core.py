"""Finite magmas as Cayley tables, and permutation groups as stabilizer chains.

Elements are dense indices 0..n-1 throughout.  Tables are materialized numpy
arrays up to a configurable cap; permutation groups are stabilizer chains
(a base and strong generating set), which decide membership exactly without
listing the elements.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Sequence

import numpy as np

DEFAULT_TABLE_CAP = 3000

TABLE_CAP_ENV = "GAMMA_FORGE_TABLE_CAP"

_BLOCK_CELLS = 1 << 14  # cells per numpy step of table builds and n^2 scans: 128 KiB per intp temporary


def table_cap() -> int:
    """Largest order for which multiplication tables are materialized."""
    raw = os.environ.get(TABLE_CAP_ENV)
    if raw is None:
        return DEFAULT_TABLE_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ConstructionError(f"bad {TABLE_CAP_ENV} value: {raw!r}")
    if cap < 1:
        raise ConstructionError(f"bad {TABLE_CAP_ENV} value: {raw!r}, must be at least 1")
    return cap


class GammaForgeError(Exception):
    """Base class for errors raised by this package."""


class ConstructionError(GammaForgeError):
    """A table, group, or loop could not be built from the given data."""


class EvenOrderError(GammaForgeError):
    """A square root was requested of an element or permutation of even order."""


def first_false(mask: np.ndarray) -> tuple[int, ...] | None:
    """Lexicographically least index where a boolean array is False, or None."""
    flat = np.asarray(mask).reshape(-1)
    if flat.all():
        return None
    # argmin of a bool array returns the first False in C order
    idx = int(np.argmin(flat))
    return tuple(int(i) for i in np.unravel_index(idx, np.shape(mask)))


def element_dtype(n: int) -> np.dtype:
    """The dtype of arrays of elements 0..n-1: the least unsigned one holding n - 1."""
    return np.min_scalar_type(max(n - 1, 0))


def flat(n: int, a, b) -> np.ndarray:
    """The flat index n a + b of cell (a, b) of an n x n table, formed in intp:
    numpy keeps n * a in a's narrow unsigned dtype, where it wraps."""
    return np.multiply(a, n, dtype=np.intp) + b


def distinct_values(values) -> np.ndarray:
    """The distinct values of a non-negative int array, ascending, as np.unique
    gives them; np.unique would import numpy.ma (12-38 ms) in every process,
    and np.bincount copies a narrow array to intp."""
    seen = np.zeros(int(np.max(values, initial=0)) + 1, dtype=bool)
    seen[values] = True
    return np.flatnonzero(seen)


def row_blocks(n: int, width: int | None = None) -> Iterator[slice]:
    """Slices of the rows 0..n-1, ascending, of at least one row each, so that
    rows x width (default: n) cells stay within _BLOCK_CELLS unless one row
    exceeds it: a block's temporaries stay within one size at every order."""
    step = max(1, _BLOCK_CELLS // max(1, n if width is None else width))
    return (slice(lo, min(lo + step, n)) for lo in range(0, n, step))


def row_zeros(t: np.ndarray) -> np.ndarray:
    """The column of the first 0 in each row of t (0 for a row without one),
    a block of rows per step."""
    return np.concatenate([np.argmin(t[r] != 0, axis=1) for r in row_blocks(len(t))]).astype(element_dtype(len(t)))


def first_false_rows(n: int, block: Callable[[slice], np.ndarray], width: int | None = None) -> tuple[int, ...] | None:
    """first_false of an n-row mask whose rows r are block(r), for a block r of
    rows of `width` cells each (default: n) per step; so the mask is never held whole."""
    for r in row_blocks(n, width):
        w = first_false(block(r))
        if w is not None:
            return (r.start + w[0], *w[1:])
    return None


def subgroup_closure(t: np.ndarray, seed: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(members ascending, generators) of the subgroup generated by ``seed`` in
    the table t of a group, or of a loop whose seed is central (the center is
    an abelian group); each seed element outside the subgroup of those before
    is a generator.  A finite subgroup is the closure of {0} under right
    products with its generators: the old members are closed under the
    earlier ones, so they take only the new one, and each newly reached
    element all of them."""
    reached, gens = np.arange(len(t)) == 0, []
    for a in seed:
        if reached[a]:
            continue
        gens.append(int(a))
        cs, right = np.flatnonzero(reached), gens[-1:]
        while cs.size:
            was = reached.copy()
            for r in row_blocks(cs.size, len(right)):
                reached[t[cs[r, None], right]] = True
            cs, right = np.flatnonzero(reached & ~was), gens
    return tuple(np.flatnonzero(reached).tolist()), tuple(gens)


# ---------------------------------------------------------------------------
# Cayley tables


@dataclass(frozen=True)
class ClassifyResult:
    is_latin: bool
    has_identity: bool
    is_loop: bool
    identity_index: int | None
    witness: str | None


class CayleyTable:
    """An n x n multiplication table over elements 0..n-1.

    Immutable after construction; ``table[x, y]`` is the product x*y.  A
    ``classification`` handed in is taken as the table's own, unchecked.
    """

    def __init__(self, table, name: str = "", element_names: Sequence[str] | None = None,
                 classification: ClassifyResult | None = None):
        raw = np.asarray(table)
        if raw.ndim != 2 or raw.shape[0] != raw.shape[1]:
            raise ConstructionError(f"table must be square, got shape {raw.shape}")
        n = raw.shape[0]
        if n < 1:
            raise ConstructionError("table must have at least one element")
        if raw.dtype.kind not in "iu":
            _check_integers(raw if isinstance(table, np.ndarray) else np.asarray(table, dtype=object))
        _check_range(raw, n)  # in the input's own dtype, before narrowing
        # a read-only array of the element dtype that owns its data is taken as is, anything else copied
        owned = raw is table and raw.base is None and not raw.flags.writeable
        arr = raw if owned and raw.dtype == element_dtype(n) else raw.astype(element_dtype(n))
        arr.setflags(write=False)
        self.n = n
        self.table = arr
        self.name = name
        self.element_names = list(element_names) if element_names is not None else None
        if classification is not None:
            self.classification = classification

    def label(self, x: int) -> str:
        if self.element_names is not None:
            return self.element_names[x]
        return str(x)

    def __repr__(self):
        name = f" {self.name!r}" if self.name else ""
        return f"<CayleyTable{name} n={self.n}>"

    @cached_property
    def classification(self) -> ClassifyResult:
        return classify(self)


def divide_rows(t: np.ndarray, cs) -> np.ndarray:
    """Rows c\\. of the left division of a Latin table t for each c in cs, a
    block of rows per step: D[i, t[c_i, z]] = z.  The rows of t.T give the
    right division columns: divide_rows(t.T, cs)[i, y] = y / c_i."""
    div, z = np.empty((len(cs), len(t)), dtype=t.dtype), np.arange(len(t), dtype=t.dtype)[None, :]
    for r in row_blocks(len(cs), len(t)):
        np.put_along_axis(div[r], t[cs[r]], z, axis=1)
    return div


def _check_integers(cells: np.ndarray) -> None:
    """Raise on the least cell that holds no integer: a float, a bool or
    anything else; a float array offends at (0, 0) already."""
    for (x, y), v in np.ndenumerate(cells):
        v = v.item() if isinstance(v, np.generic) else v
        if isinstance(v, bool) or not isinstance(v, int):
            raise ConstructionError(f"entry at ({x},{y}) is {v!r}, not an integer")


def _check_range(block: np.ndarray, n: int, lo: int = 0) -> None:
    """Raise on the least cell of a block of rows lo, lo + 1, ... of a table
    whose entry is outside 0..n-1, compared in the block's own dtype."""
    if block.min() < 0 or block.max() >= n:
        x, y = first_false((block >= 0) & (block < n))
        raise ConstructionError(f"entry at ({lo + x},{y}) is {block[x, y]}, outside 0..{n - 1}")


def build_table(
    n: int,
    rule: Callable,
    name: str = "",
    element_names: Sequence[str] | None = None,
) -> CayleyTable:
    """Materialize the table of a product rule that accepts broadcast index
    arrays: rule(X, Y) for a column X of row indices and the row Y of all
    indices, a block of rows per step (row_blocks).

    Each block is range-checked in the rule's own dtype before it is stored
    in the element dtype, so the least out-of-range cell is reported.
    """
    if n < 1:
        raise ConstructionError(f"element count must be >= 1, got {n}")
    arr, xs = np.empty((n, n), dtype=element_dtype(n)), np.arange(n)
    for r in row_blocks(n):
        block = np.broadcast_to(rule(xs[r, None], xs[None, :]), (r.stop - r.start, n))
        _check_range(block, n, r.start)
        arr[r] = block
    arr.setflags(write=False)  # so CayleyTable takes it without a copy
    return CayleyTable(arr, name=name, element_names=element_names)


def classify(t: CayleyTable | np.ndarray) -> ClassifyResult:
    """Decide Latin-ness and loop-ness of a table (or of a square array with
    entries in 0..n-1), with a witness for any failure.  A row is a
    permutation when its entries mark every cell of a bool row; a block of
    rows (then of columns, through the transpose) per step."""
    arr = t.table if isinstance(t, CayleyTable) else t
    n = len(arr)
    ref = np.arange(n, dtype=arr.dtype)
    for what, side in (("row", arr), ("column", arr.T)):
        for r in row_blocks(n):
            block = side[r]
            marks = np.zeros(block.shape, dtype=bool)
            marks.ravel()[np.arange(0, block.size, n)[:, None] + block] = True
            if not marks.all():
                bad = r.start + int(np.argmin(marks.all(axis=1)))
                return ClassifyResult(False, False, False, None, f"{what} {bad} is not a permutation")
    # two-sided identity: a row equal to 0..n-1 whose matching column also is;
    # it maps 0 to 0, and in a Latin table only one row e has e * 0 = 0
    e = int(np.argmin(arr[:, 0] != 0))
    if (arr[e] == ref).all() and (arr[:, e] == ref).all():
        return ClassifyResult(True, True, True, e, None)
    return ClassifyResult(True, False, False, None, "no two-sided identity")


def left_power_walk(t: np.ndarray, u: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Left powers x^k = x^(k-1) x of every x at once in a Latin table t with
    identity 0, and side by side in the table u if given.  R_x permutes the
    elements, so the powers of x first return to 0 at its order m_x <= n.  A
    second pointer steps on odd steps only, so it holds x^ceil(k/2).  Returns
    (orders, halves, differ): m_x, x^ceil(m_x/2), and the least k at which
    the powers in u and t differ (0 if none).  Closed x leave the arrays, and
    so does x at its first difference, keeping 0 in orders and halves.
    """
    n = len(t)
    orders, halves, differ = (np.zeros(n, dtype=d) for d in (np.int32, t.dtype, np.int32))
    tf, uf = t.ravel(), (t if u is None else u).ravel()
    xs = np.arange(n)
    cur = half = other = xs  # x^1 = 0 x
    for k in range(1, n + 1):
        gone = other != cur
        differ[xs[gone]] = k
        closed = (cur == 0) & ~gone
        orders[xs[closed]], halves[xs[closed]] = k, half[closed]
        gone |= closed
        if gone.any():
            keep = ~gone
            xs, cur, half, other = xs[keep], cur[keep], half[keep], other[keep]
            if not xs.size:
                return orders, halves, differ
        cur = tf.take(flat(n, cur, xs))
        other = cur if u is None else uf.take(flat(n, other, xs))
        if k % 2 == 0:
            half = tf.take(flat(n, half, xs))
    raise ConstructionError(f"element {int(xs[0])} has no power equal to the identity within {n} steps")


# ---------------------------------------------------------------------------
# Permutation groups as stabilizer chains


@dataclass
class _Level:
    point: int                # the base point
    gens: list                # strong generators: they fix every earlier base point
    invs: list                # their inverses
    orbit: list               # orbit of point under gens, in the order reached
    where: np.ndarray         # point -> index in orbit, or -1
    reps: list                # reps[k] maps orbit[k] to point (an inverse coset representative)
    done: list                # done[k]: how many gens have their Schreier generator at orbit[k] sifted


class StabilizerChain:
    """A permutation group on 0..n-1 as a base and strong generating set,
    completed by deterministic Schreier-Sims (Sims 1970; Seress 2003, ch. 4).

    Level i holds base point b_i, strong generators of G_i, the pointwise
    stabilizer of b_0..b_(i-1), and the orbit of b_i under them.  ``add``
    sifts every Schreier generator of every level before it returns, so each
    level's generators generate the stabilizer in the level above, and a
    permutation is a member exactly when it sifts to the identity.
    Permutations are image arrays (p[i] is the image of i) of the smallest
    unsigned dtype that holds n - 1; "p then q" is q[p].
    """

    def __init__(self, n: int):
        self.n = n
        self.identity = np.arange(n, dtype=element_dtype(n))
        self.levels: list[_Level] = []

    def _new_level(self, b: int) -> None:
        where = np.full(self.n, -1, dtype=np.int32)
        where[b] = 0
        self.levels.append(_Level(b, [], [], [b], where, [self.identity], [0]))

    def generators(self, i: int) -> list[np.ndarray]:
        """Strong generators of level i; they generate the pointwise stabilizer of b_0..b_(i-1)."""
        return self.levels[i].gens if i < len(self.levels) else []

    def sift(self, g: np.ndarray, start: int = 0) -> tuple[np.ndarray, int]:
        """(residue, level): g followed by the inverse coset representatives of
        levels start, start + 1, ..., up to the first level whose orbit lacks
        the residue's image of the base point (len(levels) if none does)."""
        for i in range(start, len(self.levels)):
            lvl = self.levels[i]
            k = lvl.where[g[lvl.point]]
            if k < 0:
                return g, i
            if k:
                g = lvl.reps[k][g]
        return g, len(self.levels)

    def add(self, g) -> None:
        """Extend the group by the permutation g, unless g sifts to the identity."""
        h, j = self.sift(np.asarray(g, dtype=self.identity.dtype))
        if (h == self.identity).all():
            return
        self._insert(h, 0, j)
        while j >= 0:  # complete the levels from j up; a new residue restarts below
            j = self._check(j)

    def _insert(self, h: np.ndarray, lo: int, hi: int) -> None:
        """Make h, which fixes b_0..b_(hi-1), a strong generator of levels lo..hi."""
        if hi == len(self.levels):
            self._new_level(int(np.argmax(h != self.identity)))
        inv = np.empty_like(h)
        inv[h] = self.identity
        for lvl in self.levels[lo:hi + 1]:
            lvl.gens.append(h)
            lvl.invs.append(inv)
            old, k = len(lvl.orbit), 0
            while k < len(lvl.orbit):  # the new generator on old points, every one on new points
                for s in range(len(lvl.gens) - 1 if k < old else 0, len(lvl.gens)):
                    q = int(lvl.gens[s][lvl.orbit[k]])
                    if lvl.where[q] < 0:
                        lvl.where[q] = len(lvl.orbit)
                        lvl.orbit.append(q)
                        lvl.reps.append(lvl.reps[k][lvl.invs[s]])
                        lvl.done.append(0)
                k += 1

    def _check(self, i: int) -> int:
        """Sift the Schreier generators u_q^-1 s u_p (s(p) = q) of level i not
        sifted yet through the levels below.  A nontrivial residue becomes a
        strong generator of the levels it reached, and the deepest of them is
        returned to be completed first; i - 1 once every one sifts."""
        lvl = self.levels[i]
        for k, p in enumerate(lvl.orbit):
            if lvl.done[k] == len(lvl.gens):
                continue
            u = np.empty_like(self.identity)
            u[lvl.reps[k]] = self.identity  # u maps b_i to p
            while lvl.done[k] < len(lvl.gens):
                s = lvl.gens[lvl.done[k]]
                lvl.done[k] += 1
                h, j = self.sift(lvl.reps[lvl.where[s[p]]][s[u]], i + 1)
                if not (h == self.identity).all():
                    self._insert(h, i + 1, j)
                    return j
        return i - 1
