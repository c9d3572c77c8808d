"""Finite group construction and structural analysis.

Groups live on dense indices 0..n-1 with identity 0.  Each family has one
product rule that runs on ints and on broadcast index arrays alike, and a
group is that rule's Cayley table, evaluated over blocks of rows: a
loops.Loop whose build passes Light's test, keeping only its commutators and
squares.  The family's declared generators head the seed of the closure that
gives the group's one generating set, which Light's test, the upper central
series and the rotation witness scan read; a table read from a file declares
none.  An order above the table cap is refused when the group is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .core import (
    CayleyTable,
    ConstructionError,
    GammaForgeError,
    TABLE_CAP_ENV,
    build_table,
    closure,
    distinct_values,
    element_dtype,
    first_false_rows,
    row_blocks,
    table_cap,
)
from . import tableio
from .loops import Loop


class SpecParseError(GammaForgeError):
    """A group-spec string could not be parsed."""


# ---------------------------------------------------------------------------
# Groups


class Group(Loop):
    """A finite group: a loop table with identity 0 that passes Light's test.

    A group is exactly an associative loop (Bruck 1958), so the table, its
    labels, inverses, commutativity verdict and square roots are the Loop's,
    and its generators the Loop's closure with the declared gens at the head
    of the seed; a group is power-associative, so its power cycles are walked
    for its roots only, and never tested."""

    power_associativity = (True, None)

    def __init__(self, table: CayleyTable, source_spec: str | None = None, gens: Sequence[int] = ()):
        super().__init__(table)
        self.order = self.n
        self.source_spec = source_spec
        self.sd_spec: "SemidirectSpec | None" = None
        # the family's declared generators head the seed of the one generating set, then 0..n-1
        self.generators = np.array(closure(self.n, self.rule, [*gens, *range(self.n)])[1], dtype=self.tbl.dtype)
        self._verify()

    def _verify(self):
        # an associative loop is a group: inverses are two-sided.  Light's test reads generators
        ok, w = self.is_associative()
        if not ok:
            x, y, z = (self.label(v) for v in w)
            raise ConstructionError(f"not associative: ({x}*{y})*{z} != {x}*({y}*{z})")

    def commutator(self, x, y):
        """[x, y] = x^-1 y^-1 x y = (yx)^-1 (xy), on ints or broadcast index arrays."""
        return self.rule(self.inverse.take(self.rule(y, x)), self.rule(x, y))

    @cached_property
    def commutators(self) -> np.ndarray:
        """The distinct commutators, ascending: they generate G'."""
        return _commutator_seed(self, range(self.order), None)

    @cached_property
    def squares(self) -> np.ndarray:
        return self.tbl.diagonal().copy()


# ---------------------------------------------------------------------------
# Subgroups


@dataclass(frozen=True)
class Subgroup:
    parent: Group
    members: tuple[int, ...]

    def __post_init__(self):
        if 0 not in self.members:
            raise ConstructionError("subgroup must contain the identity")
        g = self.parent
        idx = np.asarray(self.members)
        mask = np.zeros(g.order, dtype=bool)
        mask[idx] = True
        if not mask[g.inverse[idx]].all():
            a = int(idx[np.argmin(mask[g.inverse[idx]])])
            raise ConstructionError(f"subgroup not closed under inverse at {g.label(a)}")
        w = first_false_rows(len(idx), lambda r: mask.take(g.rule(idx[r, None], idx)))
        if w is not None:
            i, j = w
            raise ConstructionError(
                f"subgroup not closed under product at "
                f"({g.label(int(idx[i]))},{g.label(int(idx[j]))})")

    @property
    def order(self) -> int:
        return len(self.members)


# ---------------------------------------------------------------------------
# Commutators and predicates


def is_uniquely_2_divisible(g: Group) -> bool:
    """True iff squaring is a bijection; cross-asserted against odd order."""
    odd = g.order % 2 == 1
    injective = len(distinct_values(g.squares)) == g.order
    if injective != odd:
        raise GammaForgeError(
            f"internal inconsistency: squaring injective={injective} but order parity says {odd}")
    return injective


def center(g: Group) -> Subgroup:
    series = upper_central_series(g)
    return series[min(1, len(series) - 1)]


def upper_central_series(g: Group) -> list[Subgroup]:
    """[zeta^0, zeta^1, ...] ascending until stable.

    zeta^{i+1} = {x : [x,y] in zeta^i for all y}, which matches the
    quotient-center definition without quotient bookkeeping.  Only the y of
    g.generators are tested: for fixed x the y with [x, y] in the normal
    zeta^i form a subgroup, as [x, yz] = [x, z] [x, y]^z.
    """
    xs, gens = np.arange(g.order), g.generators
    series, current = [Subgroup(g, (0,))], xs == 0
    while True:
        nxt = np.concatenate([current.take(g.commutator(xs[r, None], gens)).all(axis=1)
                              for r in row_blocks(g.order, len(gens))])
        if (nxt == current).all():
            return series
        series.append(Subgroup(g, tuple(np.flatnonzero(nxt).tolist())))
        current = nxt


def _commutator_seed(g: Group, members_a: Sequence[int], members_b: Sequence[int] | None) -> np.ndarray:
    """The distinct [a, b] for a in members_a and b in members_b (default: all of G)."""
    a, b = np.asarray(members_a), np.arange(g.order) if members_b is None else np.asarray(members_b)
    seen = np.zeros(g.order, dtype=bool)
    for r in row_blocks(len(a), len(b)):
        seen[g.commutator(a[r, None], b)] = True
    return np.flatnonzero(seen).astype(g.tbl.dtype)


def _descending_series(g: Group, seed: Callable) -> list[Subgroup]:
    """[G, G', ...] until stable, each later term generated by seed(members of
    the last); the second is G' in both series, from the shared commutators."""
    series = [Subgroup(g, tuple(range(g.order)))]
    nxt = closure(g.order, g.rule, g.commutators)[0]
    while nxt != series[-1].members:
        series.append(Subgroup(g, nxt))
        nxt = closure(g.order, g.rule, seed(nxt))[0]
    return series


def lower_central_series(g: Group) -> list[Subgroup]:
    """[gamma_1, gamma_2, ...] descending until stable."""
    return _descending_series(g, lambda h: _commutator_seed(g, h, None))


def nilpotency_class(g: Group) -> int | None:
    """Nilpotency class, or None when the lower series stabilizes above 1."""
    series = lower_central_series(g)
    if series[-1].order != 1:
        return None
    return len(series) - 1


def derived_series(g: Group) -> list[Subgroup]:
    """[G, G', G'', ...] until stable."""
    return _descending_series(g, lambda h: _commutator_seed(g, h, h))


def derived_subgroup(g: Group) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(members, generating set) of G'."""
    return closure(g.order, g.rule, g.commutators)


def is_metabelian(g: Group) -> bool:
    """G'' = 1, cross-asserted against 'all commutators commute pairwise'."""
    commute = lambda s: first_false_rows(len(s), lambda r: g.rule(s[r, None], s) == g.rule(s, s[r, None])) is None
    abelian = commute(np.asarray(derived_subgroup(g)[0]))
    if abelian != commute(g.commutators):  # cross-check on the raw commutator set, which generates G'
        raise GammaForgeError("internal inconsistency in metabelian check")
    return abelian


def is_two_engel(g: Group) -> tuple[bool, tuple[int, int] | None]:
    """[x,y,y] = 1 for all pairs; on failure the lexicographically least witness.
    A nested commutator holds about twice the scratch of one gather, so each
    row counts as 2n cells of a block."""
    C, xs = g.commutator, np.arange(g.order)
    w = first_false_rows(g.order, lambda r: C(C(xs[r, None], xs), xs) == 0, 2 * g.order)
    return (w is None), w


# ---------------------------------------------------------------------------
# Semidirect products


@dataclass
class SemidirectSpec:
    """A normal abelian H acted on by an abelian F through automorphisms.

    ``action[f]`` is the image array of the automorphism attached to the
    F-element f; the product convention is (h1,f1)(h2,f2) = (h1*h2^f1, f1*f2).
    """

    H: Group
    F: Group
    action: np.ndarray  # (|F|, |H|)
    name: str = ""

    def __post_init__(self):
        H, F = self.H, self.F
        self.nH, self.nF = H.order, F.order
        act = np.asarray(self.action)  # validated as given, then narrowed
        if act.shape != (F.order, H.order):
            raise ConstructionError(f"action must be ({F.order},{H.order}), got {act.shape}")
        if H.order % 2 == 0 or F.order % 2 == 0:
            raise ConstructionError("both factors must have odd order")
        if H.commutativity is not None or F.commutativity is not None:
            raise ConstructionError("both factors must be abelian")
        ref = np.arange(H.order)
        for f in range(F.order):
            a = act[f]
            if not (np.sort(a) == ref).all():
                raise ConstructionError(f"action of F-element {f} is not a bijection")
            if first_false_rows(H.order, lambda r: a.take(H.tbl[r]) == H.rule(a[r, None], a)) is not None:
                raise ConstructionError(f"action of F-element {f} is not a homomorphism of H")
        # F -> Aut(H) must be a homomorphism: h^(f1 f2) = (h^f1)^f2
        for f1 in range(F.order):
            for f2 in range(F.order):
                if not (act[F.mul(f1, f2)] == act[f2][act[f1]]).all():
                    raise ConstructionError(f"action is not a homomorphism at ({f1},{f2})")
        self.action = act.astype(element_dtype(H.order))


# ---------------------------------------------------------------------------
# Constructors: one product rule per family.  A rule uses only integer
# arithmetic and indexing into small arrays, so it runs on ints and on
# broadcast index arrays (build_table) alike.


def _positive(spec: str, *params: int) -> None:
    if min(params) < 1:
        raise ConstructionError(f"parameters of {spec} must be positive")


def _from_rule(n: int, rule: Callable, name: str, gens: Sequence[int] = (),
               label: Callable[[int], str] | None = None, split: Callable | None = None,
               source_spec: str | None = None) -> Group:
    """The group of a product rule: its table, verified, or a ConstructionError
    for an order above the table cap, which no table is built for.

    ``split()`` gives (H, F) of a split extension whose element (h, f) is
    index f*|H|+h; its action is read off the rule, as (0, f)(h, 0) = (h^f, f).
    """
    if n >= 2 ** 31:  # rules compute in int32 and int64 numpy arithmetic
        raise ConstructionError(f"order {n} of {name} is too large: indices must stay below 2^31")
    if n > (cap := table_cap()):
        raise ConstructionError(f"order {n} of {name} is above the table cap {cap}; "
                                f"{TABLE_CAP_ENV} raises the cap")
    spec = None
    if split is not None:
        H, F = split()
        f, h = np.ogrid[:F.order, :H.order]
        spec = SemidirectSpec(H, F, rule(f * H.order, h) % H.order, name=name)
    names = None if label is None else map(label, range(n))  # made only once the table is built
    # a declared generator of a factor of order 1 (p = 1) is at index n, which is 0
    g = Group(build_table(n, rule, name=name, element_names=names), source_spec=source_spec,
              gens=[a % n for a in gens])
    g.sd_spec = spec
    return g


def cyclic(m: int, source_spec: str | None = None) -> Group:
    if m < 1:
        raise ConstructionError(f"cyclic order must be >= 1, got {m}")
    return _from_rule(m, lambda x, y: (x + y) % m, f"Z{m}", gens=(1,), source_spec=source_spec)


def direct(factors: Sequence[Group], source_spec: str | None = None) -> Group:
    """Direct product, folding pairwise; index of (a, b) is a*|B|+b."""
    if not factors:
        raise ConstructionError("direct product needs at least one factor")
    strides = [math.prod(f.order for f in factors[i + 1:]) for i in range(len(factors))]

    def rule(x, y):  # a table factor's product is in its narrow element dtype: widened before * s
        return sum(np.multiply(f.rule(x // s % f.order, y // s % f.order), s, dtype=np.int64)
                   for f, s in zip(factors, strides))

    def label(x):
        out = factors[0].label(x // strides[0])
        for f, s in zip(factors[1:], strides[1:]):
            out = f"({out},{f.label(x // s % f.order)})"
        return out

    return _from_rule(strides[0] * factors[0].order, rule, "x".join(f.name for f in factors),
                      gens=[a * s for f, s in zip(factors, strides) for a in f.generators.tolist()],
                      label=label, source_spec=source_spec)


def sd(q: int, p: int, a: int, source_spec: str | None = None) -> Group:
    """Z_q x| Z_p where the generator of Z_p acts by h -> a*h mod q; the element
    (h, f) is index f*q+h."""
    _positive(source_spec or f"sd:{q}:{p}:{a}", q, p)
    if pow(a, p, q) != 1 % q:  # every residue mod 1 is 0
        raise ConstructionError(f"invalid action: {a}^{p} = {pow(a, p, q)} != 1 (mod {q})")
    if q % 2 == 0 or p % 2 == 0:
        raise ConstructionError("both factors must have odd order")
    apow = np.array([pow(a, k, q) for k in range(p)], dtype=np.int64)

    def rule(x, y):  # (h1, f1)(h2, f2) = (h1 + a^f1 h2, f1 + f2)
        return (x // q + y // q) % p * q + (x % q + apow[x // q] * (y % q)) % q

    return _from_rule(q * p, rule, f"Z{q}:|Z{p}(a={a})", gens=(1, q),
                      label=lambda x: f"({x % q},{x // q})",
                      split=lambda: (cyclic(q), cyclic(p)), source_spec=source_spec)


def heisenberg(p: int, source_spec: str | None = None) -> Group:
    """Order p^3 with triples (a,b,c) at index (a*p+b)*p+c: the product adds
    coordinates plus a1*b2 into c."""
    _positive(source_spec or f"heis:{p}", p)

    def rule(x, y):
        a1, b1, c1 = x // (p * p), x // p % p, x % p
        a2, b2, c2 = y // (p * p), y // p % p, y % p
        return ((a1 + a2) % p * p + (b1 + b2) % p) * p + (c1 + c2 + a1 * b2) % p

    return _from_rule(p ** 3, rule, f"Heis{p}", gens=(p * p, p),
                      label=lambda x: f"({x // (p * p)},{x // p % p},{x % p})",
                      source_spec=source_spec)


def unitriangular(k: int, p: int, source_spec: str | None = None) -> Group:
    """k x k upper unitriangular matrices over the p-element field.

    Indices pack the strictly-upper entries base p in row-major position
    order, so the identity matrix is index 0.
    """
    _positive(source_spec or f"ut:{k}:{p}", k, p)
    pos = [(i, j) for i in range(k) for j in range(i + 1, k)]
    at = {ij: t for t, ij in enumerate(pos)}
    weights = [p ** t for t in range(len(pos))]
    # (AB)_{ij} = A_ij + B_ij + sum over i<m<j of A_im * B_mj
    middle = [[(at[i, m], at[m, j]) for m in range(i + 1, j)] for (i, j) in pos]

    def rule(x, y):
        a = [x // w % p for w in weights]
        b = [y // w % p for w in weights]
        out = 0
        for t, w in enumerate(weights):
            v = a[t] + b[t]
            for u, m in middle[t]:
                v += a[u] * b[m]
            out += v % p * w
        return out

    return _from_rule(p ** len(pos), rule, f"UT({k},{p})",
                      gens=[weights[at[i, i + 1]] for i in range(k - 1)], source_spec=source_spec)


def wreath_cyclic(p: int, source_spec: str | None = None) -> Group:
    """Z_p wr Z_p: the p-fold direct power of Z_p acted on by coordinate shift.

    The element (v, k) is index k*p^p+v, with the coordinates of v packed
    big-endian base p; k shifts them k places to the right, which moves the
    last k digits of v to the front (the only power in a rule, as the shift
    amount varies per element).
    """
    _positive(source_spec or f"wr:{p}", p)
    nH = p ** p
    digits = [p ** (p - 1 - i) for i in range(p)]

    def add(u, v):  # coordinatewise sum in Z_p^p
        return sum((u // w + v // w) % p * w for w in digits)

    def rule(x, y):
        k, v, r = x // nH, y % nH, p ** (x // nH)
        return (k + y // nH) % p * nH + add(x % nH, v % r * (nH // r) + v // r)

    def coords(v):
        return "(" + ",".join(str(v // w % p) for w in digits) + ")"

    def split():
        names = [coords(v) for v in range(nH)]
        return Group(build_table(nH, add, name=f"Z{p}^{p}", element_names=names)), cyclic(p)

    return _from_rule(p ** (p + 1), rule, f"Z{p}wrZ{p}", gens=(p ** (p - 1), nH),
                      label=lambda x: f"({coords(x % nH)},{x // nH})", split=split,
                      source_spec=source_spec)


def from_file(path: str | Path, source_spec: str | None = None) -> Group:
    """Import a .tbl file as a group (identity normalized, laws verified); it
    declares no generators, so its generating set is the greedy one."""
    return Group(tableio.import_table(path).table, source_spec=source_spec or f"file:{path}")


# ---------------------------------------------------------------------------
# Group-spec mini-language:
#   cyclic:m | dp:spec,spec | sd:q:p:a | heis:p | ut:k:p | wr:p | file:PATH


def _int_token(tok: str, spec: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise SpecParseError(f"bad token {tok!r} in group spec {spec!r}")


def construct(spec: str) -> Group:
    """Build a group from its spec string."""
    spec = spec.strip()
    head, _, rest = spec.partition(":")
    if head == "cyclic":
        return cyclic(_int_token(rest, spec), source_spec=spec)
    if head == "dp":
        if not rest:
            raise SpecParseError(f"dp needs factors in {spec!r}")
        parts = rest.split(",")
        if any(p.startswith("dp:") for p in parts):
            raise SpecParseError(f"nested dp not supported in {spec!r}")
        return direct([construct(part) for part in parts], source_spec=spec)
    if head == "sd":
        toks = rest.split(":")
        if len(toks) != 3:
            raise SpecParseError(f"sd takes q:p:a, got {rest!r} in {spec!r}")
        q, p, a = (_int_token(t, spec) for t in toks)
        return sd(q, p, a, source_spec=spec)
    if head == "heis":
        return heisenberg(_int_token(rest, spec), source_spec=spec)
    if head == "ut":
        toks = rest.split(":")
        if len(toks) != 2:
            raise SpecParseError(f"ut takes k:p, got {rest!r} in {spec!r}")
        k, p = (_int_token(t, spec) for t in toks)
        return unitriangular(k, p, source_spec=spec)
    if head == "wr":
        return wreath_cyclic(_int_token(rest, spec), source_spec=spec)
    if head == "file":
        if not rest:
            raise SpecParseError(f"file needs a path in {spec!r}")
        return from_file(rest, source_spec=spec)
    raise SpecParseError(f"unknown group family {head!r} in {spec!r}")
