"""Independent desk oracles used to freeze expected values.

Everything here works on labeled pairs/tuples with direct modular arithmetic
and brute-force searches, never through the library's group or loop engines,
so the two sides of every comparison stay independent.  The exception is a
section of former library API that only tests used (permutations,
translations, divisions, loop powers, the power-associativity scan one
element at a time, inverses and nested commutators, the frontier subgroup
closure, the normal-closure series of a group read one product at a time,
the isomorphism search, the sorting Latin test and the stabilizer chain of
the left translations), kept to test against; and rule_group, which holds a
family's product rule without its table, so groups above the table cap such
as ut:5:3 can be tested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterable, Sequence

import numpy as np

from gamma_forge import groups
from gamma_forge.core import ConstructionError, EvenOrderError, GammaForgeError, StabilizerChain, first_false_rows

# --- the order-21 split extension: pairs (h, k), h mod 7, k mod 3,
#     generator of the cyclic part acting by h -> 2h

P21 = [(h, k) for k in range(3) for h in range(7)]  # index order used by the library


def mul21(a, b):
    (h1, k1), (h2, k2) = a, b
    return ((h1 + pow(2, k1, 7) * h2) % 7, (k1 + k2) % 3)


def inv21(a):
    for b in P21:
        if mul21(a, b) == (0, 0) and mul21(b, a) == (0, 0):
            return b
    raise AssertionError(f"no inverse for {a}")


def sqrt21(a):
    roots = [b for b in P21 if mul21(b, b) == a]
    assert len(roots) == 1, f"square root of {a} not unique: {roots}"
    return roots[0]


def comm21(x, y):
    return mul21(mul21(mul21(inv21(x), inv21(y)), x), y)


def circ21(x, y):
    return mul21(mul21(x, y), sqrt21(comm21(y, x)))


def oplus21(x, y):
    return sqrt21(mul21(mul21(x, mul21(y, y)), x))


def idx21(a):
    return P21.index(a)


def least_nonassoc_triple_circ21():
    for x, y, z in product(P21, repeat=3):
        if circ21(circ21(x, y), z) != circ21(x, circ21(y, z)):
            return (x, y, z, circ21(circ21(x, y), z), circ21(x, circ21(y, z)))
    return None


# --- the order-81 wreath-style extension: pairs (v, k) with v in (Z3)^3 and
#     k mod 3 acting by cyclic coordinate shift

V3 = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]
P81 = [(v, k) for k in range(3) for v in V3]


def shift(v, k):
    return tuple(v[(i - k) % 3] for i in range(3))


def mul81(a, b):
    (v, k), (w, m) = a, b
    wv = shift(w, k)
    return (tuple((v[i] + wv[i]) % 3 for i in range(3)), (k + m) % 3)


def inv81(a):
    for b in P81:
        if mul81(a, b) == ((0, 0, 0), 0) and mul81(b, a) == ((0, 0, 0), 0):
            return b
    raise AssertionError(f"no inverse for {a}")


def comm81(x, y):
    return mul81(mul81(mul81(inv81(x), inv81(y)), x), y)


def idx81(a):
    return P81.index(a)


def center81():
    e = ((0, 0, 0), 0)
    out = []
    for a in P81:
        if all(mul81(a, x) == mul81(x, a) for x in P81):
            out.append(a)
    return out


def second_center81():
    z1 = set(center81())
    out = []
    for a in P81:
        if all(comm81(a, x) in z1 for x in P81):
            out.append(a)
    return out


def semidirect_table(spec):
    """Table and labels of H x| F from a SemidirectSpec by the closed formula
    (h1, f1)(h2, f2) = (h1 * h2^f1, f1 * f2), the element (h, f) at index f*|H|+h."""
    nH, nF = spec.nH, spec.nF
    h = np.arange(nH * nF) % nH
    f = np.arange(nH * nF) // nH
    acted = spec.action[f[:, None], h[None, :]]
    table = spec.F.tbl[f[:, None], f[None, :]] * nH + spec.H.tbl[h[:, None], acted]
    labels = [f"({spec.H.label(i)},{spec.F.label(j)})" for j in range(nF) for i in range(nH)]
    return table, labels


# --- slow reference scans on raw loop tables (numpy arrays with the identity
#     at index 0).  These are the per-x, per-(x, y) and per-a scans the library
#     ran before its fast paths; each returns the lexicographically least
#     witness, so a fast path must match it exactly.


def assoc_scan(t):
    """Least (x, y, z) with (xy)z != x(yz), or None."""
    for x in range(len(t)):
        ok = t[t[x], :] == t[x][t]
        if not ok.all():
            y, z = np.argwhere(~ok)[0]
            return (x, int(y), int(z))
    return None


def _ldiv(t):
    n = len(t)
    d = np.empty_like(t)
    d[np.arange(n)[:, None], t] = np.arange(n)[None, :]
    return d


def _two_sided_inverse(t):
    right = _ldiv(t)[:, 0]
    left = _ldiv(t.T.copy())[:, 0]
    return right if (right == left).all() else None


def left_bruck_scan(t):
    """(ok, witness) of x(y(xz)) = (x(yx))z plus the automorphic inverse
    property: ("aip", x, y) or (x, y, z) on failure, None when an element
    has no two-sided inverse."""
    inv = _two_sided_inverse(t)
    if inv is None:
        return False, None
    for x in range(len(t)):
        for y in range(len(t)):
            if inv[t[x, y]] != t[inv[x], inv[y]]:
                return False, ("aip", x, y)
    w = left_bol_scan(t)
    return w is None, w


def left_bol_scan(t):
    """Least (x, y, z) with x(y(xz)) != (x(yx))z, or None."""
    for x in range(len(t)):
        for y in range(len(t)):
            lhs = t[x][t[y][t[x]]]
            rhs = t[t[x, t[y, x]]]
            if not (lhs == rhs).all():
                return (x, y, int(np.argmin(lhs == rhs)))
    return None


def moufang_scan(t):
    """Least (x, y, z) with (xy)(zx) != x((yz)x), or None: the n^2 products
    of each x at once."""
    for x in range(len(t)):
        lhs = t[t[x][:, None], t[:, x][None, :]]  # [y, z] -> (xy)(zx)
        rhs = t[x][t[t, x]]                       # [y, z] -> x((yz)x)
        if not (lhs == rhs).all():
            y, z = divmod(int(np.argmin(lhs == rhs)), len(t))
            return x, y, z
    return None


def gamma_axioms_scan(t):
    """(holds, witness) for the inverse-translation and P-map axioms, or
    None when an element has no two-sided inverse."""
    inv = _two_sided_inverse(t)
    if inv is None:
        return None
    n = len(t)
    ldiv = _ldiv(t)
    gamma3 = (True, None)
    for x in range(n):
        a = t[inv[x]][t[x]]
        b = t[x][t[inv[x]]]
        if not (a == b).all():
            gamma3 = (False, (x, int(np.argmin(a == b))))
            break
    P = np.array([ldiv[inv[x]][t[:, x]] for x in range(n)])
    for x in range(n):
        for y in range(n):
            lhs = P[x][P[y][P[x]]]
            rhs = P[P[x][y]]
            if not (lhs == rhs).all():
                return gamma3, (False, (x, y, int(np.argmin(lhs == rhs))))
    return gamma3, (True, None)


def submagma_is_associative(t, x):
    """Whether the submagma generated by x, closed one product at a time, is associative."""
    members, grew = {x}, True
    while grew:
        new = {int(t[a, b]) for a in members for b in members} - members
        members |= new
        grew = bool(new)
    s = sorted(members)
    sub = np.array([[s.index(int(t[a, b])) for b in s] for a in s])
    return assoc_scan(sub) is None


def power_associative_scan(t):
    """(True, None), or (False, x) for the least x whose generated submagma is not associative."""
    for x in range(len(t)):
        if not submagma_is_associative(t, x):
            return False, x
    return True, None


def center_scan(t):
    """(commutant, nucleus, center) as tuples, each a tested per element a."""
    n = len(t)
    comm, nuc = [], []
    for a in range(n):
        if (t[a] == t[:, a]).all():
            comm.append(a)
        left = (t[t[a], :] == t[a][t]).all()
        mid = (t[t[:, a], :] == t[:, t[a]]).all()
        right = (t[t, a] == t[:, t[:, a]]).all()
        if left and mid and right:
            nuc.append(a)
    return tuple(comm), tuple(nuc), tuple(a for a in comm if a in nuc)


def central_quotient_scan(t, z):
    """(table, block_of, representatives) of the quotient of a loop table t by
    its central subloop z, by definition: the cosets {a c : c in z}, each
    formed from the least element a not yet in a coset, and the cell of two
    cosets the one coset holding every product of their members (asserted)."""
    n = len(t)
    block_of, cosets = [-1] * n, []
    for a in range(n):
        if block_of[a] < 0:
            coset = {int(t[a, c]) for c in z}
            assert len(coset) == len(z) and all(block_of[b] < 0 for b in coset), f"coset of {a} overlaps"
            for b in coset:
                block_of[b] = len(cosets)
            cosets.append(coset)
    table = np.empty((len(cosets), len(cosets)), dtype=int)
    for i, ci in enumerate(cosets):
        for j, cj in enumerate(cosets):
            cells = {block_of[int(t[a, b])] for a in ci for b in cj}
            assert len(cells) == 1, f"quotient cell ({i},{j}) is not well defined"
            table[i, j] = cells.pop()
    return table, np.array(block_of), [min(c) for c in cosets]


def _rdiv(t):
    n = len(t)
    d = np.empty_like(t)
    d[t, np.arange(n)[None, :]] = np.arange(n)[:, None]
    return d


def _inner_generator_maps(t):
    """The standard inner generators of a raw loop table as functions of (x, y)."""
    ld, rd = _ldiv(t), _rdiv(t)
    return {
        "L": lambda x, y: ld[t[y, x]][t[y][t[x]]],       # u -> (yx) \ (y(xu))
        "R": lambda x, y: rd[:, t[x, y]][t[:, y][t[:, x]]],  # u -> ((ux)y) / (xy)
        "T": lambda x, y: ld[x][t[:, x]],                # u -> x \ (ux)
    }


@dataclass
class InnerGenerators:
    """Standard inner-mapping generators, all checked to fix the identity.

    Ls[x, y] is the permutation u -> (yx) \\ (y(xu)); Rs[x, y] is
    u -> ((ux)y) / (xy); Ts[x] is u -> x \\ (ux).
    """

    Ls: np.ndarray  # (n, n, n)
    Rs: np.ndarray  # (n, n, n)
    Ts: np.ndarray  # (n, n)


def inner_generators(t):
    """Every L_{x,y}, R_{x,y} and T_x of a raw loop table, as arrays."""
    t = t.astype(np.intp)
    n = len(t)
    maps = _inner_generator_maps(t)
    Ls, Rs = (np.array([[maps[k](x, y) for y in range(n)] for x in range(n)]) for k in "LR")
    Ts = np.array([maps["T"](x, -1) for x in range(n)])
    assert (Ls[:, :, 0] == 0).all() and (Rs[:, :, 0] == 0).all() and (Ts[:, 0] == 0).all()
    return InnerGenerators(Ls, Rs, Ts)


def automorphic_scan(t):
    """Least (kind, x, y, u, v) at which a standard inner generator fails to
    be an automorphism, one map per (x, y), or None.  Commutative tables
    scan only the L maps; T witnesses carry y = -1."""
    t = t.astype(np.intp)
    n = len(t)
    generators = _inner_generator_maps(t)
    kinds = ("L",) if (t == t.T).all() else ("L", "R", "T")
    for kind in kinds:
        for x in range(n):
            for y in ((-1,) if kind == "T" else range(n)):
                phi = generators[kind](x, y)
                ok = t[phi][:, phi] == phi[t]  # [u, v] -> phi(u) phi(v) against phi(uv)
                if not ok.all():
                    u, v = np.argwhere(~ok)[0]
                    return (kind, x, y, int(u), int(v))
    return None


def _perm_order(a):
    """Least common multiple of the cycle lengths, walking each cycle."""
    a = a.tolist()
    lengths, seen = set(), [False] * len(a)
    for start in range(len(a)):
        length, j = 0, start
        while not seen[j]:
            seen[j] = True
            j = a[j]
            length += 1
        if length:
            lengths.add(length)
    return math.lcm(*lengths)


def _perm_power(a, k):
    out, base = np.arange(len(a)), a
    while k:
        if k & 1:
            out = base[out]
        base = base[base]
        k >>= 1
    return out


def gamma_from_bruck_scan(t):
    """The Bruck -> Gamma translation of a raw odd-order table, one pair at a
    time: (table, None), or (None, message) at the first (x, y) whose
    commutator L_x L_y L_x^-1 L_y^-1 has even order."""
    n = len(t)
    ld = _ldiv(t)
    out = np.empty_like(t)
    for x in range(n):
        for y in range(n):
            a = t[x][t[y][ld[x][ld[y]]]]
            m = _perm_order(a)
            if m % 2 == 0:
                return None, f"translation commutator at ({x},{y}) has even order {m}"
            out[x, y] = _perm_power(a, (m + 1) // 2)[t[y, x]]
    return out, None


def gamma_by_full_orbit_walk(q):
    """The Bruck -> Gamma table of a loop whose commutators A_(x,y) all have
    odd order, walking the cycle of yx under A_(x,y) for every pair (x, y),
    a block of 128 rows x at a time, with a second pointer that steps on odd
    steps: after c steps it holds A^((c+1)/2)(yx)."""
    n = q.n
    t, ld = q.tbl.ravel(), _ldiv(q.tbl).ravel()
    out = np.empty(n * n, dtype=q.tbl.dtype)
    ys = np.arange(n)
    for lo in range(0, n, 128):
        xs = np.arange(lo, min(lo + 128, n))
        fx, fy = np.repeat(xs * n, n), np.tile(ys * n, len(xs))
        cell = fx + np.tile(ys, len(xs))
        p = t.take(fy + np.repeat(xs, n))
        cur = half = p
        steps = 0
        while cell.size:
            steps += 1
            cur = t.take(fx + t.take(fy + ld.take(fx + ld.take(fy + cur))))
            if steps % 2:
                half = t.take(fx + t.take(fy + ld.take(fx + ld.take(fy + half))))
            closed = cur == p
            assert not closed.any() or steps % 2, "a cycle of even length"
            out[cell[closed]] = half[closed]
            fx, fy, cell, p, cur, half = (a[~closed] for a in (fx, fy, cell, p, cur, half))
    return out.reshape(n, n)


def normalize_identity_scan(arr):
    """(table, relabeling) with a two-sided identity e moved to 0 by the
    transposition (0 e), relabeled cell by cell; (arr, None) if e is 0 or
    there is none."""
    n = len(arr)
    ids = [e for e in range(n) if (arr[e] == np.arange(n)).all() and (arr[:, e] == np.arange(n)).all()]
    if not ids or ids[0] == 0:
        return arr, None
    sigma = list(range(n))
    sigma[0], sigma[ids[0]] = ids[0], 0
    out = np.empty_like(arr)
    for x in range(n):
        for y in range(n):
            out[sigma[x], sigma[y]] = sigma[arr[x, y]]
    return out, sigma


def uniquely_2_divisible_scan(g):
    """Whether squaring is injective on a group, one product at a time."""
    return len({g.mul(x, x) for x in range(g.order)}) == g.order


def powers_coincide_scan(gt, qt):
    """(True, None), or (False, (x, k)) for the least x and then the least
    k <= m at which the k-th left powers of x in the group table gt and the
    loop table qt differ, m the order of x in gt; one product at a time."""
    for x in range(len(gt)):
        pg, pl, k = 0, 0, 0
        while k == 0 or pg != 0:
            pg, pl, k = int(gt[pg, x]), int(qt[pl, x]), k + 1
            if pg != pl:
                return False, (x, k)
    return True, None


def classify_by_sort(arr):
    """(is_latin, identity index or None, witness) of a table, deciding each
    row and column a permutation by sorting it."""
    arr = np.asarray(arr)
    ref = np.arange(len(arr))
    rows_ok = (np.sort(arr, axis=1) == ref).all(axis=1)
    cols_ok = (np.sort(arr, axis=0) == ref[:, None]).all(axis=0)
    if not rows_ok.all():
        return False, None, f"row {int(np.argmin(rows_ok))} is not a permutation"
    if not cols_ok.all():
        return False, None, f"column {int(np.argmin(cols_ok))} is not a permutation"
    for e in np.nonzero((arr == ref).all(axis=1))[0]:
        if (arr[:, e] == ref).all():
            return True, int(e), None
    return True, None, "no two-sided identity"


def format_tbl_per_cell(table, extra_comments=None):
    """.tbl text of a CayleyTable, formatted one cell at a time."""
    lines = [f"# name: {table.name}"] if table.name else []
    lines += [f"# {c}" for c in extra_comments or []]
    lines.append(str(table.n))
    for row in table.table:
        lines.append(" ".join(str(int(v)) for v in row))
    return "\n".join(lines) + "\n"


# --- permutations, translations, divisions, powers, nested commutators and
#     the isomorphism search: API of the library that only tests used, kept
#     here to test against


def inverse(g, x: int) -> int:
    """x^(m-1) for the order m of x, by walking the powers of x with g.mul."""
    prev, acc = 0, x
    while acc != 0:
        prev, acc = acc, g.mul(acc, x)
    return prev


def commutator(g, x: int, y: int) -> int:
    """[x, y] = x^-1 y^-1 x y, one product at a time."""
    return g.mul(g.mul(g.mul(inverse(g, x), inverse(g, y)), x), y)


def commutator_table(g) -> np.ndarray:
    """C[x, y] = [x, y], one commutator at a time."""
    return np.array([[commutator(g, x, y) for y in range(g.order)] for x in range(g.order)])


def commutator_identities_scan(g, metabelian: bool = False) -> str | None:
    """The witness of the commutator identities (metabelian: the root and
    rotation identities instead) with g.commutator as the bracket and
    g.sqrt_table as the root, or None: the definition [x, y] = x^-1 y^-1 x y
    at every pair first (least pair), then each identity at all n^3 triples
    (least triple), all evaluated whole with inverses from the table."""
    t, C = np.asarray(g.tbl), g.commutator
    n, inv = len(t), _ldiv(t)[:, 0]
    label = lambda *w: "(" + ",".join(g.label(int(v)) for v in w) + ")"
    x, y = np.indices((n, n))
    ok = C(x, y) == t[t[t[inv[x], inv[y]], x], y]
    if not ok.all():
        return f"commutator definition fails at {label(*np.argwhere(~ok)[0])}"
    X, Y, Z = np.indices((n, n, n)).reshape(3, -1)
    conj = lambda a, b: t[t[inv[b], a], b]

    def sides():  # each built only once those before it hold
        if metabelian:
            s = g.sqrt_table
            yield "root-of-commutator identity", C(s[C(X, Y)], Z), s[C(C(X, Y), Z)]
            yield "rotation product", t[t[C(C(X, Y), Z), C(C(Z, X), Y)], C(C(Y, Z), X)], 0
            return
        yield "product-in-first-slot expansion", C(t[X, Y], Z), t[conj(C(X, Z), Y), C(Y, Z)]
        yield "product-in-second-slot expansion", C(X, t[Y, Z]), t[C(X, Z), conj(C(X, Y), Z)]
        yield "inverse-commutator identity", C(X, inv[Y]), conj(C(Y, X), inv[Y])
        yield "inverse-commutator identity", C(inv[X], Y), conj(C(Y, X), inv[X])
        t1, t2 = conj(C(C(X, inv[Y]), Z), Y), conj(C(C(Y, inv[Z]), X), Z)
        yield "three-term conjugated product", t[t[t1, t2], conj(C(C(Z, inv[X]), Y), X)], 0

    for what, lhs, rhs in sides():
        ok = lhs == rhs
        if not ok.all():
            i = int(np.argmin(ok))
            return f"{what} fails at {label(X[i], Y[i], Z[i])}"
    return None


def whole_table(rows, nF: int) -> np.ndarray:
    """The n x n closed-form table whose rows for the x of F-part f are rows(f)."""
    return np.concatenate([rows(f) for f in range(nF)])


def upper_central_series_scan(t) -> list[tuple[int, ...]]:
    """The members of zeta^0, zeta^1, ... of a group table until stable, each
    zeta^(i+1) = {x : [x, y] in zeta^i for every y}, from the n^2 commutators."""
    n = len(t)
    inv, xs = _ldiv(t)[:, 0], np.arange(n)
    C = t[t[t[inv[:, None], inv[None, :]], xs[:, None]], xs[None, :]]
    current, series = xs == 0, [(0,)]
    while True:
        nxt = current[C].all(axis=1)
        if (nxt == current).all():
            return series
        series.append(tuple(np.flatnonzero(nxt).tolist()))
        current = nxt


def subgroup_closure(mul, seed) -> tuple[int, ...]:
    """Members of the closure of 0 and seed under right products c -> mul(c, a)
    with a in seed, for a scalar product mul, frontier by frontier: each new
    element times every seed element.  In a group it is the subgroup seed
    generates."""
    gens = sorted(set(int(s) for s in seed))
    members = set(gens) | {0}
    frontier = sorted(members)
    while frontier:
        new = []
        for b in frontier:
            for a in gens:
                c = mul(b, a)
                if c not in members:
                    members.add(c)
                    new.append(c)
        frontier = new
    return tuple(sorted(members))


def nested_commutator(g, xs: Sequence[int]) -> int:
    """[x0, x1, ..., xk] folded left: [[x0,x1],...,xk]."""
    if not xs:
        raise ValueError("need at least one element")
    acc = xs[0]
    for x in xs[1:]:
        acc = commutator(g, acc, x)
    return acc


def normal_closure(g, seed, conj_by):
    """(members, generators) of the smallest subgroup holding seed and closed
    under conjugation by conj_by, one product at a time."""
    gens = sorted(set(seed) | {0})
    while True:
        members = subgroup_closure(g.mul, gens)
        have = set(members)
        conj = [(inverse(g, y), y) for y in conj_by]
        extra = {c for a in members for yi, y in conj if (c := g.mul(g.mul(yi, a), y)) not in have}
        if not extra:
            return members, tuple(gens)
        gens = sorted(set(gens) | extra)


@dataclass(frozen=True)
class RuleGroup:
    """A group family's product rule as groups._from_rule receives it, with no table."""
    order: int
    rule: Callable
    name: str
    gens: tuple[int, ...]

    def mul(self, x: int, y: int) -> int:
        return int(self.rule(x, y))

    @property
    def generators(self) -> np.ndarray:
        """The declared generators, as groups.direct reads them off a factor."""
        return np.array(self.gens, dtype=np.int64)


def rule_group(family: str, *args) -> RuleGroup:
    """What groups.<family>(*args) would build, as its rule: groups._from_rule
    is replaced, for the call, by a capture of (n, rule, name, gens), so no
    table is built and the table cap does not apply.  A dp spec's factors are
    captured too, and its rule calls theirs."""
    built = groups._from_rule
    groups._from_rule = lambda n, rule, name, gens=(), **_: RuleGroup(n, rule, name, tuple(gens))
    try:
        return getattr(groups, family)(*args)
    finally:
        groups._from_rule = built


def functional_series(g, derived: bool):
    """Member tuples of the derived (else the lower central) series of a group
    from its declared generators: the next term is the normal closure of the
    commutators of the last term's generators with themselves (else with the
    group's generators) under conjugation by those."""
    series, gens = [tuple(range(g.order))], tuple(g.gens)
    while True:
        others = gens if derived else g.gens
        nxt, gens = normal_closure(g, {commutator(g, a, b) for a in gens for b in others}, others)
        if nxt == series[-1]:
            return series
        series.append(nxt)


def left_power(q: Loop, x: int, k: int) -> int:
    """k-fold left-bracketed power (((x*x)*x)...)*x in a loop; k >= 0."""
    acc = 0
    for _ in range(k):
        acc = int(q.tbl[acc, x])
    return acc


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


def power_associative_by_element(t: np.ndarray) -> tuple[bool, int | None]:
    """is_power_associative one x at a time: cyclic_powers of each x that is
    no power of an associative <x> before it."""
    covered = np.zeros(len(t), dtype=bool)
    for x in range(len(t)):
        if not covered[x]:
            members = cyclic_powers(t, x)
            if members is None:
                return False, x
            covered[members] = True
    return True, None


def loop_order_of(q: Loop, x: int) -> int:
    """Least k >= 1 with the k-th left power equal to the identity.

    Returns 0 when the left powers never reach the identity (possible in
    loops that are not power-associative).
    """
    k, acc = 1, x
    while acc != 0:
        acc = int(q.tbl[acc, x])
        k += 1
        if k > q.n + 1:
            return 0
    return k


class Permutation:
    """A bijection of 0..n-1, stored as the image tuple.

    Composition follows right-action order: ``p * q`` applies p first, then q,
    so translation chains read in the same order they act.
    """

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        imgs = tuple(int(i) for i in images)
        n = len(imgs)
        seen = [False] * n
        for i in imgs:
            if not 0 <= i < n or seen[i]:
                raise ConstructionError(f"not a permutation of 0..{n - 1}: {imgs}")
            seen[i] = True
        object.__setattr__(self, "images", imgs)

    def __setattr__(self, *a):
        raise AttributeError("Permutation is immutable")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(n))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        o = other.images
        return Permutation(tuple(o[i] for i in self.images))

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(inv)

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def cycles(self) -> list[list[int]]:
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            j = self.images[start]
            while j != start:
                cyc.append(j)
                seen[j] = True
                j = self.images[j]
            out.append(cyc)
        return out

    def order(self) -> int:
        return math.lcm(*(len(c) for c in self.cycles()))

    def power(self, k: int) -> "Permutation":
        n = self.degree
        out = [0] * n
        for cyc in self.cycles():
            m = len(cyc)
            for i, v in enumerate(cyc):
                out[v] = cyc[(i + k) % m]
        return Permutation(out)

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        cyc = [c for c in self.cycles() if len(c) > 1]
        if not cyc:
            return f"Permutation(id, n={self.degree})"
        body = "".join("(" + " ".join(map(str, c)) + ")" for c in cyc)
        return f"Permutation({body}, n={self.degree})"


def translation(t: CayleyTable, x: int, side: str) -> "Permutation":
    """Left translation y -> x*y (row x) or right translation y -> y*x (column x)."""
    if side == "left":
        images, where = t.table[x, :], f"row {x}"
    elif side == "right":
        images, where = t.table[:, x], f"column {x}"
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if len(set(images.tolist())) != t.n:
        raise ConstructionError(f"{side} translation by {x} is not a bijection ({where} has repeats)")
    return Permutation(images)


def left_divide(t: CayleyTable, x: int, y: int) -> int:
    """The unique z with x*z = y (requires a loop)."""
    if not t.classification.is_loop:
        raise ConstructionError(f"division requires a loop: {t.classification.witness}")
    return int(_ldiv(t.table)[x, y])


def right_divide(t: CayleyTable, y: int, x: int) -> int:
    """The unique z with z*x = y (requires a loop)."""
    if not t.classification.is_loop:
        raise ConstructionError(f"division requires a loop: {t.classification.witness}")
    return int(_rdiv(t.table)[y, x])


def perm_sqrt_odd(p: Permutation) -> Permutation:
    """The square root p^((m+1)/2) of an odd-order permutation.

    Squaring the result gives back p, and the result is a power of p, hence
    lies in any group containing p.  Even order is an error: the root would
    not be unique in the intended setting.
    """
    m = p.order()
    if m % 2 == 0:
        raise EvenOrderError(f"permutation has even order {m}")
    return p.power((m + 1) // 2)


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
        sigs.append((loop_order_of(q, x), fixed, cyc))
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
    if len(q1.center) != len(q2.center):
        return IsoResult("no", certificate="center sizes differ")

    candidates = [[b for b in range(n) if sig2[b] == sig1[a]] for a in range(n)]
    order = sorted(range(1, n), key=lambda a: (len(candidates[a]), a))
    order = [0] + order
    t1, t2 = q1.tbl, q2.tbl
    ld1, rd1 = _ldiv(t1), _rdiv(t1)
    phi = np.full(n, -1, dtype=np.int64)
    used = np.zeros(n, dtype=bool)
    assigned: list[int] = []

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

    def search() -> str:
        # depth-first, with the next candidate of each depth on an explicit
        # stack instead of one recursion level per element
        steps, depth, pos = 0, 0, [0] * n
        while depth >= 0:
            if depth == n:
                return "yes"
            a, cands = order[depth], candidates[order[depth]]
            if phi[a] >= 0:  # back from depth + 1: undo this depth's placement
                used[phi[a]] = False
                phi[a] = -1
                assigned.pop()
            while pos[depth] < len(cands):
                b = cands[pos[depth]]
                pos[depth] += 1
                if used[b]:
                    continue
                steps += 1
                if steps > budget:
                    return "indeterminate"
                phi[a] = b
                used[b] = True
                assigned.append(a)
                if consistent(a, b):
                    depth += 1
                    break
                assigned.pop()
                used[b] = False
                phi[a] = -1
            else:
                pos[depth] = 0
                depth -= 1
        return "no"

    verdict = search()
    if verdict == "yes":
        mapping = tuple(int(v) for v in phi)
        tm = np.array(mapping)
        if not (tm[t1] == t2[tm[:, None], tm[None, :]]).all():
            raise GammaForgeError("internal inconsistency: search returned a non-isomorphism")
        return IsoResult("yes", mapping=mapping)
    if verdict == "indeterminate":
        return IsoResult("indeterminate", certificate=f"search budget {budget} exhausted")
    return IsoResult("no", certificate="pruned search space exhausted")


# --- extensional permutation groups: every element listed, so group orders
#     and stabilizers come from brute-force closure


class CapExceededError(Exception):
    """A closure grew past its size cap."""

    def __init__(self, message, partial_size=None):
        super().__init__(message)
        self.partial_size = partial_size


class PermGroup:
    """A permutation group stored extensionally (all elements present)."""

    def __init__(self, degree: int, elements: Iterable[Permutation],
                 generators: Sequence[Permutation] = ()):
        self.degree = degree
        self.elements = frozenset(elements)
        self.generators = tuple(generators)
        assert Permutation.identity(degree) in self.elements

    def __len__(self):
        return len(self.elements)

    def __contains__(self, p):
        return p in self.elements

    def __eq__(self, other):
        return (isinstance(other, PermGroup) and self.degree == other.degree
                and self.elements == other.elements)

    def __hash__(self):
        return hash((self.degree, self.elements))


def close(generators, cap=2_000_000):
    """Extensional closure of permutations under composition, frontier by
    frontier; CapExceededError with the partial size past cap elements."""
    gens = list(generators)
    assert gens and all(g.degree == gens[0].degree for g in gens)
    degree = gens[0].degree
    ident = tuple(range(degree))
    elements = {ident}
    frontier = [ident]
    while frontier:  # on image tuples; c is b followed by a, as Permutation's b * a
        new = []
        for b in frontier:
            for a in (g.images for g in gens):
                c = tuple([a[i] for i in b])
                if c not in elements:
                    elements.add(c)
                    new.append(c)
                    if len(elements) > cap:
                        raise CapExceededError(
                            f"closure exceeded cap {cap} (partial size {len(elements)})",
                            partial_size=len(elements))
        frontier = new
    return PermGroup(degree, map(Permutation, elements), gens)


def stabilizer_of(g, point):
    """Subgroup of elements fixing the given point."""
    fixed = [p for p in g.elements if p.images[point] == point]
    return PermGroup(g.degree, fixed, tuple(fixed))


def multiplication_group(t):
    """Mlt of a raw loop table, extensionally: close the least translation
    (rows, then columns) not yet in the closure, until every one is in it."""
    n = len(t)
    translations = [Permutation(t[x]) for x in range(n)] + [Permutation(t[:, x]) for x in range(n)]
    gens, group = [Permutation.identity(n)], close([Permutation.identity(n)])
    for p in translations:
        if p not in group:
            gens.append(p)
            group = close(gens)
    return group


def mlt_chain(t) -> StabilizerChain:
    """The group generated by the rows L_x of a loop table as a stabilizer
    chain: Mlt(Q) if Q is commutative, as then R_x = L_x, and LMlt(Q)
    otherwise.  The least translation that does not sift joins the
    generators, until all of them sift; L_1 moves 0, so b_0 = 0."""
    chain = StabilizerChain(len(t))
    for perm in t:
        chain.add(perm)
    return chain
