"""Loop-theoretic predicates and structure.

Covers the commutative-loop axiom block (commutativity, automorphic inverses,
commuting inverse translations, the P-map identity), Moufang and left Bruck
identities, the group generated by the left translations as a stabilizer
chain, and, for commutative loops, automorphicity of the inner mappings, the
loop center, central quotients and loop nilpotency.  All scans are
exhaustive with lexicographically least witnesses.  Associativity, the P-map
and left Bol identities are tested only on a generating set from
core.closure: the elements that pass each hold 0 and are closed under an
operation.  A Loop keeps one generating set of its product, which Light's
test, the center sieve and the closed-form L maps read.  It scans
commutativity, automorphic inverses, power associativity, the axiom block,
the left Bruck identities and automorphicity once each and keeps the
verdicts, its inverses and its square roots; central quotients are read off
the center's cosets.  A group is the Loop subclass groups.Group.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    DEFAULT_TABLE_CAP,
    CayleyTable,
    ConstructionError,
    EvenOrderError,
    GammaForgeError,
    StabilizerChain,
    build_table,
    closure,
    divide_rows,
    element_dtype,
    first_false,
    first_false_rows,
    flat,
    left_power_walk,
    row_blocks,
    row_zeros,
)


class Loop:
    """A loop table (Latin, two-sided identity at 0) with cached structure.

    Its law verdicts (commutativity, automorphic inverses, power
    associativity, the circ-variety axioms, left Bruck, automorphicity), its
    inverses, generators, square roots and center are each decided on first
    read and kept: group and loop construction, the variety translations and
    every check read them here."""

    def __init__(self, table: CayleyTable, source: dict | None = None):
        cls = table.classification
        if not cls.is_loop:
            raise ConstructionError(f"not a loop: {cls.witness}")
        if cls.identity_index != 0:
            raise ConstructionError(f"identity must be at index 0, found {cls.identity_index}")
        self.table = table
        self.tbl = table.table
        self.n = table.n
        self.name = table.name
        self.source = source or {}

    def label(self, x: int) -> str:
        return self.table.label(x)

    def mul(self, x: int, y: int) -> int:
        return int(self.tbl[x, y])

    @cached_property
    def right_inverses(self) -> np.ndarray:
        """The y with x y = 0 for each x: the one 0 of row x of the Latin table; read-only."""
        r = row_zeros(self.tbl)
        r.setflags(write=False)
        return r

    @cached_property
    def left_inverses(self) -> np.ndarray:
        """The x with x y = 0 for each y."""
        left = np.empty_like(self.right_inverses)
        left[self.right_inverses] = np.arange(self.n)
        return left

    @cached_property
    def inverse(self) -> np.ndarray | None:
        """Two-sided inverse array, or None if some element lacks one."""
        if (self.right_inverses == self.left_inverses).all():
            return self.right_inverses
        return None

    @cached_property
    def commutativity(self) -> tuple[int, int] | None:
        """Least (x, y) with xy != yx, or None."""
        return commutativity_witness(self.tbl)

    @cached_property
    def aip(self) -> tuple[int, int] | None:
        """Least (x, y) with (xy)^-1 != x^-1 y^-1, or None; needs two-sided inverses."""
        return aip_witness(self)

    @cached_property
    def power_associativity(self) -> tuple[bool, int | None]:
        """(True, None), or (False, x) for the least x generating a nonassociative submagma."""
        return is_power_associative(self)

    @cached_property
    def gamma_axioms(self) -> GammaVerdict:
        """The verdict of check_gamma_axioms: the four axioms of the circ variety."""
        return check_gamma_axioms(self)

    @cached_property
    def left_bruck(self) -> tuple[bool, object | None]:
        """The verdict of is_left_bruck: (True, None), or (False, witness)."""
        return is_left_bruck(self)

    @cached_property
    def generators(self) -> np.ndarray:
        """The generators of closure(n, product, 0..n-1), in the element dtype."""
        return np.array(closure(self.n, lambda a, b: self.tbl[a, b], range(self.n))[1], dtype=self.tbl.dtype)

    def is_associative(self) -> tuple[bool, tuple[int, int, int] | None]:
        """Exhaustive associativity test with least witness triple."""
        w = associativity_witness(self.tbl, self.generators)
        return w is None, w

    @cached_property
    def sqrt_table(self) -> np.ndarray:
        """s[x] = x^((m+1)/2), so s[x]^2 = x, in a power-associative loop whose
        every element order m is odd; read-only."""
        ok, bad = self.power_associativity
        if not ok:
            raise ConstructionError(f"loop is not power-associative at element {self.label(bad)}")
        orders, s, _ = left_power_walk(self.tbl)
        if (orders % 2 == 0).any():
            x = int(np.argmax(orders % 2 == 0))
            raise EvenOrderError(f"element {self.label(x)} has even order {int(orders[x])}")
        s.setflags(write=False)
        return s

    @cached_property
    def inner_generators(self) -> list[np.ndarray]:
        """Generators of Inn(Q) from mlt_chain(Q) for a commutative Q; the chain
        is dropped, with the n coset representatives of n cells each that its
        level 0 holds."""
        return mlt_chain(self).generators(1)

    @cached_property
    def center(self) -> tuple[int, ...]:
        return loop_center(self)

    @cached_property
    def automorphic(self) -> AutomorphicVerdict:
        return is_automorphic(self)

    def __repr__(self):
        return f"<{type(self).__name__} {self.name!r} n={self.n}>"


def mlt_chain(q: Loop) -> StabilizerChain:
    """The group generated by the L_x as a stabilizer chain: Mlt(Q) if Q is
    commutative, as then R_x = L_x, and LMlt(Q) otherwise.  The least
    translation that does not sift joins the generators, until all of them
    sift.  L_1 moves 0 (1 * 0 = 1), so b_0 = 0 and the level-1 strong
    generators of Mlt(Q) generate Stab(0) = Inn(Q), which is what its one
    caller, Loop.inner_generators, keeps of a commutative loop."""
    chain = StabilizerChain(q.n)
    for perm in q.tbl:
        chain.add(perm)
    return chain


def associativity_witness(t: np.ndarray, gens: np.ndarray) -> tuple[int, int, int] | None:
    """Least (x, y, z) with (xy)z != x(yz) in the Latin table t with identity
    0, or None; gens are the generators of closure(n, product, 0..n-1).

    Light's test: the middle nucleus {a : (xa)z = x(az) for all x, z} of any
    magma is closed under products.  If a and b are in it, then
    (x(ab))z = ((xa)b)z = (xa)(bz) = x(a(bz)) = x((ab)z).  It holds the
    identity 0.  So it is the whole table once the n^2 pairs (x, z) pass for
    each a in gens; a failing one runs the per-x scan for the least witness.
    """
    n = len(t)
    passes = _least_block_witness(n, lambda a, xs: (t[t[xs, a]], t[xs][:, t[a]]), gens) is None  # (xa)z, x(az)
    return None if passes else _least_block_witness(n, lambda x, ys: (t[t[x, ys]], t[x][t[ys]]))  # (xy)z, x(yz)


def commutativity_witness(t: np.ndarray) -> tuple[int, int] | None:
    """Least (x, y) with xy != yx in the table t, or None."""
    return first_false_rows(len(t), lambda r: t[r] == t[:, r].T)


def aip_witness(q: Loop) -> tuple[int, int] | None:
    """Least (x, y) with (xy)^-1 != x^-1 y^-1 in a loop with two-sided inverses, or None."""
    t, inv = q.tbl, q.inverse
    return first_false_rows(q.n, lambda r: inv[t[r]] == t[inv[r, None], inv])


def _least_block_witness(n: int, sides, xs=None) -> tuple[int, int, int] | None:
    """Least (x, y, u), x in xs (default: all), where the arrays sides(x, rows y)
    differ, a block of rows y per step."""
    for x in range(n) if xs is None else xs:
        w = first_false_rows(n, lambda r: np.equal(*sides(x, r)))  # sides held one block at a time
        if w is not None:
            return x, *w
    return None


def _closure_witness(n: int, op, sides, witness_sides=None) -> tuple[int, int, int] | None:
    """Least witness of an identity whose passing x, those where the arrays
    sides(x, rows y) agree, hold 0 and are closed under the operation op(X, Y)
    on broadcast index arrays (the caller proves both).  So the generators of
    closure(n, op, 0..n-1) decide; on a failure the per-x scan of
    witness_sides (default: sides) gives the least."""
    passes = _least_block_witness(n, sides, closure(n, op, range(n))[1]) is None
    return None if passes else _least_block_witness(n, witness_sides or sides)


# ---------------------------------------------------------------------------
# Axiom block for the commutative-loop variety


@dataclass(frozen=True)
class AxiomVerdict:
    holds: bool | None  # None = inapplicable
    witness: object | None = None


@dataclass(frozen=True)
class GammaVerdict:
    commutative: AxiomVerdict
    automorphic_inverse: AxiomVerdict
    inverse_translations_commute: AxiomVerdict
    p_map_identity: AxiomVerdict

    @property
    def all_hold(self) -> bool:
        return all(v.holds is True for v in (
            self.commutative, self.automorphic_inverse,
            self.inverse_translations_commute, self.p_map_identity))


def check_gamma_axioms(q: Loop) -> GammaVerdict:
    """Exhaustively check the four defining axioms of the target loop variety.

    Axioms: commutativity; automorphic inverse property (xy)^-1 = x^-1 y^-1;
    L_x and L_{x^-1} commute; and P_x P_y P_x = P_{yP_x} for the permutation
    P_x = R_x L_{x^-1}^{-1}.  When commutativity holds, P is read in the equal
    form P_x = L_x L_{x^-1}^{-1}.  The first two are the loop's cached verdicts.
    """
    t = q.tbl
    gamma1 = AxiomVerdict(q.commutativity is None, q.commutativity)

    inv = q.inverse
    if inv is None:
        bad = first_false(q.right_inverses == q.left_inverses)
        witness = f"element {q.label(bad[0])} has no two-sided inverse"
        na = AxiomVerdict(None, witness)
        return GammaVerdict(gamma1, na, na, na)

    gamma2 = AxiomVerdict(q.aip is None, q.aip)

    # [x, u] -> x^-1 (x u) against x (x^-1 u)
    w = first_false_rows(q.n, lambda r: t[inv[r, None], t[r]] == np.take_along_axis(t[r], t[inv[r]], 1))
    gamma3 = AxiomVerdict(w is None, w)

    # P_x = R_x L_{x^-1}^{-1}: P(x, u) = x^-1 \ (u x), held as a table during the closure (one
    # gather per read), built as x^-1 \ (x u) in a commutative loop (rows read faster than columns)
    ux = t if gamma1.holds else t.T
    P = build_table(q.n, lambda x, u: np.take_along_axis(divide_rows(t, inv[x[:, 0]]), ux[x, u], 1)).table
    # P_x P_y P_x against P_{y P_x}.  The passing x are closed under (a, b) -> P_a(b): maps s
    # with s P_y s = P_{s(y)} for all y are closed under s, r -> s r s; P_a P_b P_a = P_{P_a(b)}.
    # 0 passes: P_0 is the identity map
    def p_sides(x, ys):  # rows ys of P_x P_y P_x and of P_{y P_x}
        px = P[x]
        return px.take(P[ys][:, px]), P[px[ys]]

    w = _closure_witness(q.n, lambda x, u: P[x, u], p_sides)
    gamma4 = AxiomVerdict(w is None, w)
    return GammaVerdict(gamma1, gamma2, gamma3, gamma4)


def is_moufang(q: Loop) -> tuple[bool, tuple[int, int, int] | None]:
    """xy . zx == x(yz . x) for all triples of the commutative loop q; least
    witness on failure.  In a commutative loop left Bol is right Bol, and a
    loop both left and right Bol is Moufang, while a Moufang loop is left Bol
    (Bruck 1958; Pflugfelder 1990): so the left Bol closure decides, and only
    a failure is scanned."""
    _require_commutative(q, "the Moufang identity")
    t = q.tbl  # [y, z] -> (xy)(zx) against x((yz)x)
    w = _left_bol_witness(t, lambda x, ys: (t[t[x, ys]][:, t[:, x]], t[x][t[t[ys], x]]))
    return w is None, w


def is_left_bruck(q: Loop) -> tuple[bool, object | None]:
    """x(y . xz) == (x . yx)z together with the automorphic inverse property."""
    inv = q.inverse
    if inv is None:
        bad = first_false(q.right_inverses == q.left_inverses)
        return False, f"element {q.label(bad[0])} has no two-sided inverse"
    if q.aip is not None:
        return False, ("aip", *q.aip)
    w = _left_bol_witness(q.tbl)
    return w is None, w


def _left_bol_witness(t: np.ndarray, witness_sides=None) -> tuple[int, int, int] | None:
    """Least (x, y, z) with x(y(xz)) != (x(yx))z in a loop table (on a failure,
    the least where witness_sides differ if given), or None.  The x with
    L_x L_y L_x = L_{x(yx)} for all y are closed under (a, b) -> c = a(ba):
    L_c = L_a L_b L_a, so L_c L_y L_c = L_a L_{b((a(ya))b)} L_a is L_{c(yc)}.
    0 passes left Bol, as L_0 is the identity map."""
    return _closure_witness(len(t), lambda x, y: t[x, t[y, x]],
                            lambda x, ys: (t[x][t[ys][:, t[x]]], t[t[x, t[ys, x]]]), witness_sides)


def is_power_associative(q: Loop) -> tuple[bool, int | None]:
    """Each single-generated submagma is associative; witness element if not.
    The members of an associative one generate associative ones: not retested."""
    covered = np.zeros(q.n, dtype=bool)
    for x in range(q.n):
        if not covered[x]:
            members = cyclic_powers(q.tbl, x)
            if members is None:
                return False, x
            covered[members] = True
    return True, None


def cyclic_powers(t: np.ndarray, x: int) -> np.ndarray | None:
    """The left powers x^0, ..., x^(m-1) of x in a loop table t, returning to
    0 first at x^m, if the submagma <x> is associative; else None.  If
    x^i x^j = x^((i+j) mod m) for all i, j < m (a block of rows i per step),
    the powers are closed, hold x and form Z_m, so they are <x>.  Conversely
    an associative <x> is a finite cancellative semigroup, so a group, whose
    idempotent is the loop's 0: it is cyclic on these powers and passes.
    """
    powers, p = [0], t.item(0, x)
    while p:  # x^k = x^(k-1) x, a step of the cycle of 0 under R_x
        powers.append(p)
        p = t.item(p, x)
    pw, m = np.array(powers), len(powers)
    shifted = np.lib.stride_tricks.sliding_window_view(np.concatenate((pw, pw[:-1])), m)  # row i: x^(i+j)
    return pw if first_false_rows(m, lambda r: t[pw[r, None], pw] == shifted[r]) is None else None


def powers_coincide(g, q: Loop) -> tuple[bool, tuple[int, int] | None]:
    """Group powers equal loop powers for every element and exponent.

    Witness is (element, k) at the first disagreement: the least x, then its
    least k up to the order of x in g, from one walk of both tables.  Also
    insists the loop side is power-associative so its powers are unambiguous.
    """
    if g.order != q.n:
        raise ValueError("group and loop must share one element set")
    ok, bad = q.power_associativity
    if not ok:
        return False, (bad, -1)
    differ = left_power_walk(g.tbl, q.tbl)[2]
    x = int(np.argmax(differ > 0))  # the least x whose powers differ, if any
    return (False, (x, int(differ[x]))) if differ[x] else (True, None)


# ---------------------------------------------------------------------------
# Inner mappings and automorphicity


def _inner_maps(q: Loop, x: int, rows: np.ndarray, div: np.ndarray | None = None) -> np.ndarray:
    """The inner maps L_{x,y}: u -> (yx) \\ (y(xu)) for each y in rows, as the
    rows of an array.  The divisions are read from div, the whole left
    division table, else formed for these rows."""
    t, n = q.tbl, q.n  # flat .take gathers: about twice as fast as [] with 2-D indices
    cs, vals = t[rows, x], t.take(flat(n, rows[:, None], t[x]))
    if div is None:
        div, cs = divide_rows(t, cs), np.arange(len(cs))
    return div.take(flat(n, cs[:, None], vals))


# Fixed random weights of the row hash that finds repeated inner maps, drawn with
# `random` (numpy.random adds ~20 ms to start-up).  A collision costs one more test.
_MAP_HASH_WEIGHTS = np.frombuffer(random.Random(2014).randbytes(8 * DEFAULT_TABLE_CAP), "<i8")


def _unseen_rows(maps: np.ndarray, seen: dict[int, np.ndarray]) -> np.ndarray:
    """Ascending indices of the rows of maps equal to no earlier map: seen maps
    a hash to the first map that had it, and a row counts as seen only when
    it is exactly equal to that map.  The first row of a new hash joins seen."""
    hashes = (maps @ np.resize(_MAP_HASH_WEIGHTS, maps.shape[1])).tolist()
    new = []
    for y, h in enumerate(hashes):
        if h not in seen:
            seen[h] = maps[y].copy()
            new.append(y)
    unseen = ~(maps == np.stack([seen[h] for h in hashes])).all(axis=1)
    unseen[new] = True
    return np.flatnonzero(unseen)


@dataclass(frozen=True)
class AutomorphicVerdict:
    status: str  # "true" | "false"
    witness: tuple | None = None  # ("L", x, y, u, v)

    @property
    def is_true(self) -> bool:
        return self.status == "true"


def _require_commutative(q: Loop, what: str) -> None:
    if q.commutativity is not None:
        raise GammaForgeError(f"{what} is decided for commutative loops only; {q.name} is not commutative")


def is_automorphic(q: Loop) -> AutomorphicVerdict:
    """Whether every inner mapping of the commutative loop q is an
    automorphism of q; exhaustive.

    Inn(Q) is the stabilizer of the identity in Mlt(Q) (Bruck, A Survey of
    Binary Systems, 1958), so the level-1 strong generators of mlt_chain(q)
    generate it.  Aut(Q) is a group, so when each of them passes the n^2
    automorphism test, every inner mapping does.  In a commutative loop
    R_{x,y} = L_{x,y} and T_x = 1, so the L_{x,y} are the standard inner
    generators.  On a failure the distinct-map scan gives the least witness.
    The chain's cost grows with Mlt(Q) (0.12 s for circ(ut:4:3), 5.6 s for a
    random loop of order 64, whose Mlt is S_64), so L_{x,1}, L_{x,2}, L_{x,3}
    for the last x come first: such a loop fails one and needs no chain.
    """
    _require_commutative(q, "automorphicity")
    t = q.tbl
    passes = lambda gens: _least_block_witness(
        q.n, lambda k, us: (t[gens[k][us]][:, gens[k]], gens[k][t[us]]), range(len(gens))) is None
    if passes(_inner_maps(q, q.n - 1, np.arange(1, min(4, q.n)))) and passes(q.inner_generators):
        return AutomorphicVerdict("true")
    w = _least_inner_witness(q)
    if w is None:
        raise GammaForgeError("internal inconsistency: an inner mapping is no automorphism "
                              "but every standard inner generator is one")
    return AutomorphicVerdict("false", w)


def _least_inner_witness(q: Loop) -> tuple | None:
    """Least ("L", x, y, u, v) at which an L_{x,y} is no automorphism, or None.

    The scan builds the n maps of one x at once and runs the n^2
    automorphism test only on maps not met before, in (x, y) order.  Whether
    a map is an automorphism, and its least failing (u, v), depend only on
    the map.  So the least failing (x, y) is the first occurrence of its
    map: an earlier one would fail too.  Every first occurrence is tested,
    so the witness is that of the full scan.
    """
    t, n = q.tbl, q.n
    seen: dict[int, np.ndarray] = {}
    rows = np.arange(n)
    div = divide_rows(t, rows)  # held for this call only
    for x in range(n):
        maps = _inner_maps(q, x, rows, div)
        for y in _unseen_rows(maps, seen).tolist():
            phi = maps[y]
            ok = t[phi[:, None], phi[None, :]] == phi[t]
            if not ok.all():
                return ("L", x, y, *first_false(ok))
    return None


# ---------------------------------------------------------------------------
# Center and quotients


def loop_center(q: Loop) -> tuple[int, ...]:
    """The center Z(Q) of a commutative loop Q, ascending, by closure.

    Here Z(Q) = N_lambda = {a : (ax)y = a(xy) for all x, y}.  Q is its own
    opposite, so N_lambda = N_rho; for a in both, (xa)y = (ax)y = a(xy) =
    a(yx) = (ay)x = x(ay), so a lies in N_mu too, and it commutes.  N_lambda
    is closed under products: for a, b in it, ((ab)x)y = (a(bx))y =
    a((bx)y) = a(b(xy)) = (ab)(xy).  So it is a subloop, an abelian group.
    1. Sieve: a candidate a != 0 is dropped on a failing pair (x, y), for x
       in q.generators, all candidates at once, a block per step.  Only
       failing candidates go, so Z(Q) survives.
    2. The least survivor not known to be central takes the full n^2 test.
    3. One that passes joins the generators of the known central subgroup
       K, the closure of 0 under right products with them (0 is central).
       One that fails takes its coset aK with it: ak central for a k in K
       would make a = (ak)/k central.
    Steps 2 and 3 repeat until every survivor is in K, so K = Z(Q), and
    each generator of Z(Q) costs one n^2 scan.
    """
    _require_commutative(q, "the center")
    t, n = q.tbl, q.n
    alive = np.ones(n, dtype=bool)
    for x in q.generators:
        cand = np.flatnonzero(alive[1:]) + 1
        for r in row_blocks(cand.size, n):
            a = cand[r]
            alive[a] = (t[t[a, x]] == t[a][:, t[x]]).all(axis=1)
        if not alive[1:].any():
            break
    central, gens = np.arange(n) == 0, []
    while (rest := np.flatnonzero(alive & ~central)).size:
        a = int(rest[0])
        if first_false_rows(n, lambda r: t[t[a, r]] == t[a][t[r]]) is None:  # (ax)y = a(xy), rows x
            gens.append(a)
            central[list(closure(n, lambda x, y: t[x, y], gens)[0])] = True
        else:
            alive[t[a, central]] = False
    return tuple(np.flatnonzero(central).tolist())


def quotient_loop(q: Loop) -> tuple[Loop, np.ndarray]:
    """The quotient of q by its center Z; returns (quotient, element -> coset map).

    loop_center proves Z a central subgroup, so the cosets xZ partition Q
    and (xZ)(yZ) = (xy)Z.  Each coset is named by its least element, the
    minimum of xZ (a block of rows x per step): the representatives r_i are
    the x with min xZ = x, ascending, and cell (i, j) is the coset of
    r_i r_j.  One cross-assert on every cell, that the coset of xy is the
    cell of the cosets of x and y, and that each coset holds |Z| elements,
    catches an inconsistency.
    """
    t, n, z = q.tbl, q.n, np.array(q.center)
    least = np.concatenate([t[r][:, z].min(axis=1) for r in row_blocks(n, len(z))])
    reps = np.flatnonzero(least == np.arange(n))
    m = len(reps)
    if m * len(z) != n or (np.bincount(least)[reps] != len(z)).any():
        raise GammaForgeError("internal inconsistency: the cosets of the center do not partition the loop")
    block_of = np.searchsorted(reps, least).astype(np.int32)
    qt = block_of[t[reps[:, None], reps]].astype(element_dtype(m))
    w = first_false_rows(n, lambda r: block_of[t[r]] == qt[block_of[r, None], block_of])
    if w is not None:
        raise GammaForgeError(f"internal inconsistency: the quotient by the center is not "
                              f"well defined at ({q.label(w[0])},{q.label(w[1])})")
    table = CayleyTable(qt, name=f"{q.name}/S", element_names=[q.label(a) + "*S" for a in reps.tolist()])
    return Loop(table, source={"construction": "quotient", "of": q.name}), block_of


def loop_nilpotency_class(q: Loop) -> int | None:
    """Length of the iterated center-quotient chain, or None when it stalls."""
    depth = 0
    current = q
    while current.n > 1:
        if len(current.center) == 1:
            return None
        current, _ = quotient_loop(current)
        depth += 1
    return depth
