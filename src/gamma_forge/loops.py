"""Loop-theoretic predicates and structure.

Covers the commutative-loop axiom block (commutativity, automorphic inverses,
commuting inverse translations, the P-map identity), Moufang and left Bruck
identities, inner mapping generators and automorphicity, loop center and
nucleus, central quotients, loop nilpotency, and desk-scale isomorphism
search.  All scans are exhaustive with lexicographically least witnesses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .core import (
    CayleyTable,
    ConstructionError,
    GammaForgeError,
    Permutation,
    first_false,
)


class Loop:
    """A loop table (Latin, two-sided identity at 0) with cached structure."""

    def __init__(self, table: CayleyTable, source: dict | None = None, check: bool = True):
        cls = table.classification
        if check:
            if not cls.is_loop:
                raise ConstructionError(f"not a loop: {cls.witness}")
            if cls.identity_index != 0:
                raise ConstructionError(
                    f"identity must be at index 0, found {cls.identity_index}")
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
    def ldiv(self) -> np.ndarray:
        return self.table.left_division

    @cached_property
    def rdiv(self) -> np.ndarray:
        return self.table.right_division

    def left_divide(self, x: int, y: int) -> int:
        return int(self.ldiv[x, y])

    def right_divide(self, y: int, x: int) -> int:
        return int(self.rdiv[y, x])

    @cached_property
    def right_inverses(self) -> np.ndarray:
        return self.ldiv[:, 0]

    @cached_property
    def left_inverses(self) -> np.ndarray:
        return self.rdiv[0, :]

    @cached_property
    def inverse(self) -> np.ndarray | None:
        """Two-sided inverse array, or None if some element lacks one."""
        if (self.right_inverses == self.left_inverses).all():
            return self.right_inverses
        return None

    def is_commutative(self) -> bool:
        return bool((self.tbl == self.tbl.T).all())

    def is_associative(self) -> tuple[bool, tuple[int, int, int] | None]:
        """Exhaustive associativity scan with least witness triple."""
        t = self.tbl
        for x in range(self.n):
            left = t[t[x], :]
            right = t[x][t]
            if not (left == right).all():
                y, z = first_false(left == right)
                return False, (x, int(y), int(z))
        return True, None

    def left_power(self, x: int, k: int) -> int:
        """k-fold left-bracketed power (((x*x)*x)...)*x; k >= 0."""
        acc = 0
        for _ in range(k):
            acc = int(self.tbl[acc, x])
        return acc

    def order_of(self, x: int) -> int:
        """Least k >= 1 with the k-th left power equal to the identity.

        Returns 0 when the left powers never reach the identity (possible in
        loops that are not power-associative).
        """
        k, acc = 1, x
        while acc != 0:
            acc = int(self.tbl[acc, x])
            k += 1
            if k > self.n + 1:
                return 0
        return k

    @cached_property
    def element_orders(self) -> np.ndarray:
        return np.array([self.order_of(x) for x in range(self.n)], dtype=np.int32)

    def __repr__(self):
        return f"<Loop {self.name!r} n={self.n}>"


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


def check_gamma_axioms(q: Loop | CayleyTable) -> GammaVerdict:
    """Exhaustively check the four defining axioms of the target loop variety.

    Axioms: commutativity; automorphic inverse property (xy)^-1 = x^-1 y^-1;
    L_x and L_{x^-1} commute; and P_x P_y P_x = P_{yP_x} for the permutation
    P_x = R_x L_{x^-1}^{-1}.  When commutativity holds, the alternative form
    P_x = L_x L_{x^-1}^{-1} is cross-asserted.

    A Latin table without a two-sided identity still gets a commutativity
    verdict; the inverse-dependent axioms come back inapplicable.
    """
    if isinstance(q, CayleyTable):
        cls = q.classification
        if not cls.is_latin:
            raise ConstructionError(f"not a quasigroup: {cls.witness}")
        if not cls.is_loop:
            w = first_false(q.table == q.table.T)
            gamma1 = AxiomVerdict(w is None, w)
            na = AxiomVerdict(None, cls.witness)
            return GammaVerdict(gamma1, na, na, na)
        q = Loop(q)
    t = q.tbl
    n = q.n
    w = first_false(t == t.T)
    gamma1 = AxiomVerdict(w is None, w)

    inv = q.inverse
    if inv is None:
        bad = first_false(q.right_inverses == q.left_inverses)
        witness = f"element {q.label(bad[0])} has no two-sided inverse"
        na = AxiomVerdict(None, witness)
        return GammaVerdict(gamma1, na, na, na)

    # AIP: inv[x*y] == inv[x]*inv[y]
    w = first_false(inv[t] == t[inv[:, None], inv[None, :]])
    gamma2 = AxiomVerdict(w is None, w)

    # L_x L_{x^-1} == L_{x^-1} L_x, rowwise
    gamma3 = AxiomVerdict(True, None)
    for x in range(n):
        a = t[inv[x]][t[x]]   # apply L_x then L_{x^-1}
        b = t[x][t[inv[x]]]
        if not (a == b).all():
            u = first_false(a == b)[0]
            gamma3 = AxiomVerdict(False, (x, int(u)))
            break

    # P_x = R_x L_{x^-1}^{-1}: u -> x^-1 \ (u x)
    P = np.empty((n, n), dtype=np.int32)
    for x in range(n):
        P[x] = q.ldiv[inv[x]][t[:, x]]
    if gamma1.holds:
        for x in range(n):
            alt = q.ldiv[inv[x]][t[x]]
            if not (P[x] == alt).all():
                raise GammaForgeError(
                    f"internal inconsistency: P-map forms disagree at {q.label(x)}")
    gamma4 = AxiomVerdict(True, None)
    for x in range(n):
        px = P[x]
        for y in range(n):
            lhs = P[x][P[y][px]]
            rhs = P[px[y]]
            if not (lhs == rhs).all():
                u = first_false(lhs == rhs)[0]
                gamma4 = AxiomVerdict(False, (x, y, int(u)))
                break
        if gamma4.holds is False:
            break
    return GammaVerdict(gamma1, gamma2, gamma3, gamma4)


def is_moufang(q: Loop) -> tuple[bool, tuple[int, int, int] | None]:
    """xy . zx == x(yz . x) for all triples; least witness on failure."""
    t = q.tbl
    for x in range(q.n):
        lhs = t[np.ix_(t[x], t[:, x])]        # [y, z] -> (xy)(zx)
        rhs = t[x][t[t, x]]                   # [y, z] -> x((yz)x)
        if not (lhs == rhs).all():
            y, z = first_false(lhs == rhs)
            return False, (x, int(y), int(z))
    return True, None


def is_left_bruck(q: Loop) -> tuple[bool, object | None]:
    """x(y . xz) == (x . yx)z together with the automorphic inverse property."""
    inv = q.inverse
    if inv is None:
        bad = first_false(q.right_inverses == q.left_inverses)
        return False, f"element {q.label(bad[0])} has no two-sided inverse"
    t = q.tbl
    w = first_false(inv[t] == t[inv[:, None], inv[None, :]])
    if w is not None:
        return False, ("aip", w[0], w[1])
    for x in range(q.n):
        for y in range(q.n):
            lhs = t[x][t[y][t[x]]]            # z -> x(y(xz))
            c = int(t[x, t[y, x]])
            rhs = t[c]                        # z -> ((x(yx))z
            if not (lhs == rhs).all():
                z = first_false(lhs == rhs)[0]
                return False, (x, y, int(z))
    return True, None


def is_power_associative(q: Loop) -> tuple[bool, int | None]:
    """Each single-generated submagma is associative; witness element if not."""
    for x in range(q.n):
        if not _submagma_associative(q, x):
            return False, x
    return True, None


def _submagma_associative(q: Loop, x: int) -> bool:
    """Whether the submagma generated by x is associative, which makes the
    powers of x independent of their bracketing."""
    members = _generated_submagma(q, x)
    idx = {v: i for i, v in enumerate(members)}
    sub = np.array([[idx[q.mul(a, b)] for b in members] for a in members], dtype=np.int32)
    return all((sub[sub[i], :] == sub[i][sub]).all() for i in range(len(members)))


def _generated_submagma(q: Loop, x: int) -> list[int]:
    members = {x}
    frontier = [x]
    while frontier:
        new = []
        for a in frontier:
            for b in list(members):
                for c in (q.mul(a, b), q.mul(b, a)):
                    if c not in members:
                        members.add(c)
                        new.append(c)
        frontier = new
    return sorted(members)


def powers_coincide(g, q: Loop) -> tuple[bool, tuple[int, int] | None]:
    """Group powers equal loop powers for every element and exponent.

    Witness is (element, k) at the first disagreement.  Also insists the loop
    side is power-associative so its powers are unambiguous.
    """
    if g.order != q.n:
        raise ValueError("group and loop must share one element set")
    ok, bad = is_power_associative(q)
    if not ok:
        return False, (bad, -1)
    for x in range(g.order):
        m = g.order_of(x)
        pg, pl = 0, 0
        for k in range(1, m + 1):
            pg = g.mul(pg, x)
            pl = q.mul(pl, x)
            if pg != pl:
                return False, (x, k)
    return True, None


# ---------------------------------------------------------------------------
# Inner mappings and automorphicity


@dataclass
class InnerGenerators:
    """Standard inner-mapping generators, all verified to fix the identity.

    Ls[x, y] is the permutation u -> (yx) \\ (y(xu)); Rs[x, y] is
    u -> ((ux)y) / (xy); Ts[x] is u -> x \\ (ux).
    """

    Ls: np.ndarray  # (n, n, n)
    Rs: np.ndarray  # (n, n, n)
    Ts: np.ndarray  # (n, n)


def _l_generator(q: Loop, x: int, y: int) -> np.ndarray:
    return q.ldiv[q.tbl[y, x]][q.tbl[y][q.tbl[x]]]


def _r_generator(q: Loop, x: int, y: int) -> np.ndarray:
    return q.rdiv[:, q.tbl[x, y]][q.tbl[:, y][q.tbl[:, x]]]


def _t_generator(q: Loop, x: int) -> np.ndarray:
    return q.ldiv[x][q.tbl[:, x]]


def inner_generators(q: Loop) -> InnerGenerators:
    n = q.n
    Ls = np.array([[_l_generator(q, x, y) for y in range(n)] for x in range(n)], dtype=np.int32)
    Rs = np.array([[_r_generator(q, x, y) for y in range(n)] for x in range(n)], dtype=np.int32)
    Ts = np.array([_t_generator(q, x) for x in range(n)], dtype=np.int32)
    if (Ls[:, :, 0] != 0).any() or (Rs[:, :, 0] != 0).any() or (Ts[:, 0] != 0).any():
        raise GammaForgeError("internal inconsistency: an inner generator moves the identity")
    return InnerGenerators(Ls, Rs, Ts)


@dataclass(frozen=True)
class AutomorphicVerdict:
    status: str  # "true" | "false" | "inconclusive"
    witness: tuple | None = None  # (kind, x, y, u, v); T witnesses use y = -1
    exhaustive: bool = False

    @property
    def is_true(self) -> bool:
        return self.status == "true"


def is_automorphic(q: Loop, exhaustive: bool = True, probes: int = 64,
                   seed: int = 0) -> AutomorphicVerdict:
    """Whether every standard inner generator is a loop homomorphism.

    That suffices for the full inner mapping group, since inner mappings are
    generated by the standard family and automorphisms compose.  For
    commutative loops only the L family is scanned (the R maps coincide and
    the T maps are trivial; both facts are cross-asserted on a sample).  A
    seeded random prescreen fails fast; the exhaustive scan is authoritative
    and reports the least witness (kind, x, y, u, v).
    """
    t = q.tbl
    n = q.n
    commutative = q.is_commutative()
    kinds = ("L",) if commutative else ("L", "R", "T")

    rng = random.Random(seed)
    for _ in range(probes):
        kind = rng.choice(kinds)
        x, y, u, v = (rng.randrange(n) for _ in range(4))
        if kind == "L":
            phi = _l_generator(q, x, y)
        elif kind == "R":
            phi = _r_generator(q, x, y)
        else:
            phi = _t_generator(q, x)
            y = -1
        if phi[t[u, v]] != t[phi[u], phi[v]]:
            return AutomorphicVerdict("false", (kind, x, y, int(u), int(v)), exhaustive=False)

    if not exhaustive:
        return AutomorphicVerdict("inconclusive", None, exhaustive=False)

    if commutative:
        # spot-check the commutative reductions before relying on them
        rng = random.Random(seed + 1)
        for _ in range(min(16, n * n)):
            x, y = rng.randrange(n), rng.randrange(n)
            if not (_l_generator(q, x, y) == _r_generator(q, x, y)).all():
                raise GammaForgeError("internal inconsistency: L and R generators differ "
                                      "in a commutative loop")
            if not (_t_generator(q, x) == np.arange(n)).all():
                raise GammaForgeError("internal inconsistency: nontrivial T generator "
                                      "in a commutative loop")

    for x in range(n):
        for y in range(n):
            phi = _l_generator(q, x, y)
            ok = t[phi[:, None], phi[None, :]] == phi[t]
            if not ok.all():
                u, v = first_false(ok)
                return AutomorphicVerdict("false", ("L", x, y, int(u), int(v)), exhaustive=True)
    if not commutative:
        for x in range(n):
            for y in range(n):
                phi = _r_generator(q, x, y)
                ok = t[phi[:, None], phi[None, :]] == phi[t]
                if not ok.all():
                    u, v = first_false(ok)
                    return AutomorphicVerdict("false", ("R", x, y, int(u), int(v)),
                                              exhaustive=True)
        for x in range(n):
            phi = _t_generator(q, x)
            ok = t[phi[:, None], phi[None, :]] == phi[t]
            if not ok.all():
                u, v = first_false(ok)
                return AutomorphicVerdict("false", ("T", x, -1, int(u), int(v)),
                                          exhaustive=True)
    return AutomorphicVerdict("true", None, exhaustive=True)


# ---------------------------------------------------------------------------
# Center, nucleus, quotients


@dataclass(frozen=True)
class LoopCenterData:
    commutant: tuple[int, ...]
    nucleus: tuple[int, ...]
    center: tuple[int, ...]


def loop_center(q: Loop) -> LoopCenterData:
    """Commutant, nucleus (all three associator placements), and their meet.

    For commutative loops the left and right placements coincide; the scan
    keeps all three anyway, with that coincidence as a cross-check.
    """
    t = q.tbl
    n = q.n
    comm_mask = (t == t.T).all(axis=1)
    left = np.empty(n, dtype=bool)
    mid = np.empty(n, dtype=bool)
    right = np.empty(n, dtype=bool)
    for a in range(n):
        left[a] = bool((t[t[a], :] == t[a][t]).all())
        mid[a] = bool((t[t[:, a], :] == t[:, t[a]]).all())
        right[a] = bool((t[t, a] == t[:, t[:, a]]).all())
    nucleus_mask = left & mid & right
    if q.is_commutative() and not (left == right).all():
        raise GammaForgeError("internal inconsistency: left and right nucleus "
                              "placements differ in a commutative loop")
    center_mask = comm_mask & nucleus_mask
    as_tuple = lambda m: tuple(int(i) for i in np.nonzero(m)[0])
    return LoopCenterData(as_tuple(comm_mask), as_tuple(nucleus_mask), as_tuple(center_mask))


def quotient_loop(q: Loop, members: Sequence[int]) -> tuple[Loop, np.ndarray]:
    """Quotient by a central subloop; returns (quotient, element -> block map).

    Verifies the subloop is central, closed under product and inverses, that
    its cosets partition the loop, and that the quotient cell values are
    well-defined; any failure carries a witness.
    """
    s = sorted(set(int(m) for m in members))
    if 0 not in s:
        raise ConstructionError("central subloop must contain the identity")
    cdata = loop_center(q)
    for a in s:
        if a not in cdata.center:
            raise ConstructionError(f"element {q.label(a)} is not central")
    inv = q.inverse
    if inv is None:
        raise ConstructionError("quotient needs two-sided inverses")
    sset = set(s)
    for a in s:
        if int(inv[a]) not in sset:
            raise ConstructionError(f"subloop not closed under inverse at {q.label(a)}")
        for b in s:
            if q.mul(a, b) not in sset:
                raise ConstructionError(
                    f"subloop not closed under product at ({q.label(a)},{q.label(b)})")
    n = q.n
    block_of = -np.ones(n, dtype=np.int32)
    reps = []
    for a in range(n):
        if block_of[a] >= 0:
            continue
        blk = q.tbl[a, s]
        if (block_of[blk] >= 0).any():
            c = int(blk[int(np.argmax(block_of[blk] >= 0))])
            raise ConstructionError(
                f"cosets do not partition: {q.label(c)} lies in two blocks")
        block_of[blk] = len(reps)
        reps.append(a)
    m = len(reps)
    qt = np.empty((m, m), dtype=np.int32)
    for i, a in enumerate(reps):
        for j, b in enumerate(reps):
            blk_vals = block_of[q.tbl[np.ix_(q.tbl[a, s], q.tbl[b, s])]]
            if not (blk_vals == blk_vals.reshape(-1)[0]).all():
                raise ConstructionError(
                    f"quotient cell ({i},{j}) is not well-defined")
            qt[i, j] = blk_vals.reshape(-1)[0]
    names = [q.label(a) + "*S" for a in reps]
    table = CayleyTable(qt, name=f"{q.name}/S", element_names=names)
    return Loop(table, source={"construction": "quotient", "of": q.name}), block_of


def loop_nilpotency_class(q: Loop) -> int | None:
    """Length of the iterated center-quotient chain, or None when it stalls."""
    depth = 0
    current = q
    while current.n > 1:
        z = loop_center(current).center
        if len(z) == 1:
            return None
        current, _ = quotient_loop(current, z)
        depth += 1
    return depth


# ---------------------------------------------------------------------------
# Isomorphism search


@dataclass(frozen=True)
class IsoResult:
    verdict: str  # "yes" | "no" | "indeterminate"
    mapping: tuple[int, ...] | None = None
    certificate: str | None = None


def _signatures(q: Loop) -> list[tuple]:
    sigs = []
    for x in range(q.n):
        row = q.tbl[x]
        fixed = int((row == np.arange(q.n)).sum())
        cyc = tuple(sorted(len(c) for c in Permutation(row).cycles()))
        sigs.append((q.order_of(x), fixed, cyc))
    return sigs


def is_isomorphic(q1: Loop, q2: Loop, budget: int = 2_000_000) -> IsoResult:
    """Search for a loop isomorphism by signature-pruned backtracking.

    Candidate images are restricted by per-element invariants (left-power
    order, translation fixed points, translation cycle type).  The search is
    budgeted: exceeding it yields an explicit "indeterminate" verdict, which
    is distinct from a refutation.
    """
    if q1.n != q2.n:
        return IsoResult("no", certificate=f"orders differ: {q1.n} vs {q2.n}")
    n = q1.n
    sig1, sig2 = _signatures(q1), _signatures(q2)
    if sorted(sig1) != sorted(sig2):
        return IsoResult("no", certificate="element signature profiles differ")
    c1, c2 = loop_center(q1), loop_center(q2)
    if len(c1.center) != len(c2.center):
        return IsoResult("no", certificate="center sizes differ")

    candidates = [[b for b in range(n) if sig2[b] == sig1[a]] for a in range(n)]
    order = sorted(range(1, n), key=lambda a: (len(candidates[a]), a))
    order = [0] + order
    t1, t2 = q1.tbl, q2.tbl
    ld1, rd1 = q1.ldiv, q1.rdiv
    phi = np.full(n, -1, dtype=np.int64)
    used = np.zeros(n, dtype=bool)
    assigned: list[int] = []
    steps = 0

    def consistent(a: int, b: int) -> bool:
        # called with phi[a] = b already placed; every constraint touching a
        # is checked: a as left/right factor, and a as a product value (the
        # factor pairs multiplying to a are recovered through the divisions)
        for u in assigned:
            pu = phi[u]
            for (s, v) in ((t1[u, a], t2[pu, b]), (t1[a, u], t2[b, pu])):
                img = phi[s]
                if img >= 0:
                    if img != v:
                        return False
                elif used[v]:
                    return False
            w = int(ld1[u, a])
            if phi[w] >= 0 and t2[pu, phi[w]] != b:
                return False
            w = int(rd1[a, u])
            if phi[w] >= 0 and t2[phi[w], pu] != b:
                return False
        return True

    def dfs(depth: int) -> str:
        nonlocal steps
        if depth == n:
            return "yes"
        a = order[depth]
        for b in candidates[a]:
            if used[b]:
                continue
            steps += 1
            if steps > budget:
                return "indeterminate"
            phi[a] = b
            used[b] = True
            assigned.append(a)
            if consistent(a, b):
                res = dfs(depth + 1)
                if res != "no":
                    return res
            assigned.pop()
            used[b] = False
            phi[a] = -1
        return "no"

    verdict = dfs(0)
    if verdict == "yes":
        mapping = tuple(int(v) for v in phi)
        tm = np.array(mapping)
        if not (tm[t1] == t2[tm[:, None], tm[None, :]]).all():
            raise GammaForgeError("internal inconsistency: search returned a non-isomorphism")
        return IsoResult("yes", mapping=mapping)
    if verdict == "indeterminate":
        return IsoResult("indeterminate", certificate=f"search budget {budget} exhausted")
    return IsoResult("no", certificate="pruned search space exhausted")
