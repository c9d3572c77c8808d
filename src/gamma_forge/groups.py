"""Finite group construction and structural analysis.

Groups live on dense indices 0..n-1 with identity 0.  Orders within the table
cap get a fully materialized, associativity-verified Cayley table; larger
constructions are held functionally (product computed from a rule) and refuse
table-only operations with a clear error.
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
    EvenOrderError,
    GammaForgeError,
    classify,
    first_false,
    table_cap,
)
from . import tableio
from .loops import associativity_witness


class TableRequiredError(GammaForgeError):
    """Operation needs a materialized table but the group is functional."""


class SpecParseError(GammaForgeError):
    """A group-spec string could not be parsed."""


class _Powers:
    """Element orders and powers from mul, shared by both kinds of group."""

    def order_of(self, x: int) -> int:
        k, acc = 1, x
        while acc != 0:
            acc = self.mul(acc, x)
            k += 1
        return k

    def power(self, x: int, k: int) -> int:
        if k < 0:
            return self.power(self.inv(x), -k)
        acc, base = 0, x
        while k:
            if k & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            k >>= 1
        return acc


# ---------------------------------------------------------------------------
# Table-backed groups


class Group(_Powers):
    """A finite group given by a verified Cayley table with identity 0."""

    def __init__(self, table: CayleyTable, check: bool = True,
                 source_spec: str | None = None, notes: Sequence[str] = ()):
        self.table = table
        self.tbl = table.table
        self.order = table.n
        self.name = table.name
        self.source_spec = source_spec
        self.notes = tuple(notes)
        self.sd_spec: "SemidirectSpec | None" = None
        if check:
            self._verify()
        # inverse of x is the unique y with x*y = 0; rows are permutations
        self.inverse = np.argmin(self.tbl != 0, axis=1).astype(np.int32)
        self.inverse.setflags(write=False)

    def _verify(self):
        cls = classify(self.table)
        if not cls.is_latin:
            raise ConstructionError(f"not a group table: {cls.witness}")
        if cls.identity_index != 0:
            raise ConstructionError(
                f"identity must be at index 0, found {cls.identity_index} "
                f"(normalize on import)")
        # an associative Latin table with an identity is a group: inverses are two-sided
        w = associativity_witness(self.tbl)
        if w is not None:
            x, y, z = (self.label(v) for v in w)
            raise ConstructionError(f"not associative: ({x}*{y})*{z} != {x}*({y}*{z})")

    def label(self, x: int) -> str:
        return self.table.label(x)

    @property
    def labels(self) -> list[str]:
        return [self.label(x) for x in range(self.order)]

    def mul(self, x: int, y: int) -> int:
        return int(self.tbl[x, y])

    def inv(self, x: int) -> int:
        return int(self.inverse[x])

    def conj(self, x: int, y: int) -> int:
        """x conjugated by y, i.e. y^-1 * x * y."""
        t = self.tbl
        return int(t[t[self.inverse[y], x], y])

    @cached_property
    def element_orders(self) -> np.ndarray:
        return np.array([self.order_of(x) for x in range(self.order)], dtype=np.int32)

    @cached_property
    def exponent(self) -> int:
        return math.lcm(*self.element_orders.tolist())

    @cached_property
    def comm_table(self) -> np.ndarray:
        """C[x, y] = [x, y] = x^-1 y^-1 x y."""
        t, inv = self.tbl, self.inverse
        n = self.order
        X = np.arange(n)[:, None]
        Y = np.arange(n)[None, :]
        t1 = t[inv[:, None], inv[None, :]]
        t2 = t[t1, X]
        c = t[t2, Y]
        c.setflags(write=False)
        return c

    @cached_property
    def squares(self) -> np.ndarray:
        return self.tbl[np.arange(self.order), np.arange(self.order)]

    @cached_property
    def sqrt_table(self) -> np.ndarray:
        """s[x] with s[x]^2 = x; requires every element order odd."""
        orders = self.element_orders
        if (orders % 2 == 0).any():
            x = int(np.argmax(orders % 2 == 0))
            raise EvenOrderError(f"element {self.label(x)} has even order {int(orders[x])}")
        s = np.array([self.power(x, (int(orders[x]) + 1) // 2) for x in range(self.order)],
                     dtype=np.int32)
        s.setflags(write=False)
        return s

    def is_abelian(self) -> bool:
        return bool((self.tbl == self.tbl.T).all())

    def __repr__(self):
        return f"<Group {self.name!r} order={self.order}>"


class FunctionalGroup(_Powers):
    """A finite group held as a product rule instead of a table.

    Permits streamed scans (element enumeration, rule products) but refuses
    operations that need the full table.
    """

    def __init__(self, order: int, mul: Callable[[int, int], int], name: str,
                 gens: Sequence[int] = (), source_spec: str | None = None,
                 notes: Sequence[str] = ()):
        self.order = order
        self._mul = mul
        self.name = name
        self.gens = tuple(gens)
        self.source_spec = source_spec
        self.notes = tuple(notes)
        self.sd_spec = None
        self._inv_cache: dict[int, int] = {}
        if mul(0, 0) != 0:
            raise ConstructionError("identity must be index 0")

    def label(self, x: int) -> str:
        return str(x)

    def mul(self, x: int, y: int) -> int:
        return self._mul(x, y)

    def inv(self, x: int) -> int:
        cached = self._inv_cache.get(x)
        if cached is None:
            cached = self.power(x, self.order_of(x) - 1)
            self._inv_cache[x] = cached
        return cached

    def conj(self, x: int, y: int) -> int:
        return self._mul(self._mul(self.inv(y), x), y)

    def __repr__(self):
        return f"<FunctionalGroup {self.name!r} order={self.order}>"


AnyGroup = Group | FunctionalGroup


def _require_table(g: AnyGroup, what: str) -> Group:
    if isinstance(g, Group):
        return g
    raise TableRequiredError(
        f"{what} needs a materialized table; {g.name} (order {g.order}) is functional")


# ---------------------------------------------------------------------------
# Subgroups


@dataclass(frozen=True)
class Subgroup:
    parent: AnyGroup
    members: tuple[int, ...]

    def __post_init__(self):
        mem = set(self.members)
        if 0 not in mem:
            raise ConstructionError("subgroup must contain the identity")
        g = self.parent
        if isinstance(g, Group):
            idx = np.asarray(self.members)
            mask = np.zeros(g.order, dtype=bool)
            mask[idx] = True
            if not mask[g.inverse[idx]].all():
                a = int(idx[np.argmin(mask[g.inverse[idx]])])
                raise ConstructionError(f"subgroup not closed under inverse at {g.label(a)}")
            closed = mask[g.tbl[np.ix_(idx, idx)]]
            if not closed.all():
                i, j = first_false(closed)
                raise ConstructionError(
                    f"subgroup not closed under product at "
                    f"({g.label(int(idx[i]))},{g.label(int(idx[j]))})")
            return
        if len(self.members) ** 2 > 1_000_000:
            return  # desk-scale brute validation only; big closures are trusted
        for a in self.members:
            if g.inv(a) not in mem:
                raise ConstructionError(f"subgroup not closed under inverse at {g.label(a)}")
            for b in self.members:
                if g.mul(a, b) not in mem:
                    raise ConstructionError(
                        f"subgroup not closed under product at ({g.label(a)},{g.label(b)})")

    @property
    def order(self) -> int:
        return len(self.members)

    def __contains__(self, x: int) -> bool:
        return x in set(self.members)


def subgroup_closure(g: AnyGroup, seed: Sequence[int]) -> tuple[int, ...]:
    """Members of the subgroup generated by ``seed`` (frontier fixpoint)."""
    gens = sorted(set(int(s) for s in seed) | {0})
    members = set(gens)
    frontier = list(gens)
    while frontier:
        new = []
        for b in frontier:
            for a in gens:
                c = g.mul(b, a)
                if c not in members:
                    members.add(c)
                    new.append(c)
        frontier = new
    return tuple(sorted(members))


def normal_closure(g: AnyGroup, seed: Sequence[int],
                   conj_by: Sequence[int] | None = None) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Smallest subgroup containing seed, closed under conjugation by
    ``conj_by`` (default: the group's generators).

    Returns (members, generating set); the generating set stays small, which
    keeps later scans over the subgroup cheap.
    """
    if conj_by is None:
        conj_by = list(getattr(g, "gens", ()) or [])
        if isinstance(g, Group) and not conj_by:
            conj_by = list(range(g.order))
    gens_sub = sorted(set(int(s) for s in seed) | {0})
    members = set(subgroup_closure(g, gens_sub))
    while True:
        extra = set()
        for a in members:
            for t in conj_by:
                c = g.conj(a, t)
                if c not in members:
                    extra.add(c)
        if not extra:
            return tuple(sorted(members)), tuple(gens_sub)
        gens_sub = sorted(set(gens_sub) | extra)
        members = set(subgroup_closure(g, gens_sub))


# ---------------------------------------------------------------------------
# Commutators and predicates


def commutator(g: AnyGroup, x: int, y: int) -> int:
    """[x, y] = x^-1 y^-1 x y."""
    if isinstance(g, Group):
        return int(g.comm_table[x, y])
    return g.mul(g.mul(g.mul(g.inv(x), g.inv(y)), x), y)


def nested_commutator(g: AnyGroup, xs: Sequence[int]) -> int:
    """[x0, x1, ..., xk] folded left: [[x0,x1],...,xk]."""
    if not xs:
        raise ValueError("need at least one element")
    acc = xs[0]
    for x in xs[1:]:
        acc = commutator(g, acc, x)
    return acc


def is_uniquely_2_divisible(g: AnyGroup) -> bool:
    """True iff squaring is a bijection; cross-asserted against odd order."""
    odd = g.order % 2 == 1
    if isinstance(g, Group):
        injective = len(np.unique(g.squares)) == g.order
    else:
        seen = set()
        for x in range(g.order):
            seen.add(g.mul(x, x))
        injective = len(seen) == g.order
    if injective != odd:
        raise GammaForgeError(
            f"internal inconsistency: squaring injective={injective} but order parity says {odd}")
    return injective


def sqrt_element(g: AnyGroup, a: int) -> int:
    """The unique b with b*b = a inside <a>; element order must be odd."""
    m = g.order_of(a)
    if m % 2 == 0:
        raise EvenOrderError(f"element {g.label(a)} has even order {m}")
    return g.power(a, (m + 1) // 2)


def center(g: AnyGroup) -> Subgroup:
    g = _require_table(g, "center")
    mask = (g.tbl == g.tbl.T).all(axis=1)
    return Subgroup(g, tuple(int(i) for i in np.nonzero(mask)[0]))


def upper_central_series(g: AnyGroup) -> list[Subgroup]:
    """[zeta^0, zeta^1, ...] ascending until stable.

    zeta^{i+1} is computed directly as {x : [x,y] in zeta^i for all y}, which
    matches the quotient-center definition without quotient bookkeeping.
    """
    g = _require_table(g, "upper central series")
    n = g.order
    C = g.comm_table
    series = [Subgroup(g, (0,))]
    current = np.zeros(n, dtype=bool)
    current[0] = True
    while True:
        nxt = current[C].all(axis=1)
        if (nxt == current).all():
            return series
        series.append(Subgroup(g, tuple(int(i) for i in np.nonzero(nxt)[0])))
        current = nxt


def _commutator_seed(g: AnyGroup, members_a: Sequence[int], members_b: Sequence[int] | None) -> list[int]:
    if isinstance(g, Group):
        C = g.comm_table
        a = np.asarray(members_a)
        block = C[np.ix_(a, np.asarray(members_b) if members_b is not None else np.arange(g.order))]
        return [int(v) for v in np.unique(block)]
    bs = members_b if members_b is not None else list(g.gens)
    return sorted({commutator(g, a, b) for a in members_a for b in bs})


def lower_central_series(g: AnyGroup) -> list[Subgroup]:
    """[gamma_1, gamma_2, ...] descending until stable."""
    if isinstance(g, Group):
        series = [Subgroup(g, tuple(range(g.order)))]
        current = tuple(range(g.order))
        while True:
            seed = _commutator_seed(g, current, None)
            nxt = subgroup_closure(g, seed)
            if nxt == current:
                return series
            series.append(Subgroup(g, nxt))
            current = nxt
    # functional: [H, G] is the normal closure of commutators of H-generators
    # with group generators; the declared generators are assumed to generate
    if not g.gens:
        raise TableRequiredError(f"lower central series of functional {g.name} needs generators")
    series = [Subgroup(g, tuple(range(g.order)))]
    gens_sub = tuple(g.gens)
    while True:
        seed = sorted({commutator(g, a, t) for a in gens_sub for t in g.gens})
        nxt, nxt_gens = normal_closure(g, seed)
        if nxt == series[-1].members:
            return series
        series.append(Subgroup(g, nxt))
        gens_sub = nxt_gens


def nilpotency_class(g: AnyGroup) -> int | None:
    """Nilpotency class, or None when the lower series stabilizes above 1."""
    series = lower_central_series(g)
    if series[-1].order != 1:
        return None
    return len(series) - 1


def derived_series(g: AnyGroup) -> list[Subgroup]:
    """[G, G', G'', ...] until stable."""
    if isinstance(g, Group):
        series = [Subgroup(g, tuple(range(g.order)))]
        current = series[0].members
        while True:
            seed = _commutator_seed(g, current, current)
            nxt = subgroup_closure(g, seed)
            if nxt == current:
                return series
            series.append(Subgroup(g, nxt))
            current = nxt
    if not g.gens:
        raise TableRequiredError(f"derived series of functional {g.name} needs generators")
    series = [Subgroup(g, tuple(range(g.order)))]
    gens_sub = tuple(g.gens)
    while True:
        # the derived subgroup of <S> is the closure of pairwise S-commutators
        # under conjugation by S
        seed = sorted({commutator(g, a, b) for a in gens_sub for b in gens_sub})
        nxt, nxt_gens = normal_closure(g, seed, conj_by=gens_sub)
        if nxt == series[-1].members:
            return series
        series.append(Subgroup(g, nxt))
        gens_sub = nxt_gens


def derived_subgroup(g: AnyGroup) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(members, generating set) of G'."""
    if isinstance(g, Group):
        members = subgroup_closure(g, _commutator_seed(g, range(g.order), range(g.order)))
        return members, members
    if not g.gens:
        raise TableRequiredError(f"derived subgroup of functional {g.name} needs generators")
    seed = sorted({commutator(g, a, b) for a in g.gens for b in g.gens})
    return normal_closure(g, seed)


def is_metabelian(g: AnyGroup) -> bool:
    """G'' = 1, cross-asserted against 'all commutators commute pairwise'."""
    dprime_members, dprime_gens = derived_subgroup(g)
    if isinstance(g, Group):
        idx = np.asarray(dprime_members)
        sub = g.tbl[np.ix_(idx, idx)]
        abelian = bool((sub == sub.T).all())
        # cross-check on the raw commutator set, which generates G'
        comms = np.unique(g.comm_table)
        sub2 = g.tbl[np.ix_(comms, comms)]
        if abelian != bool((sub2 == sub2.T).all()):
            raise GammaForgeError("internal inconsistency in metabelian check")
        return abelian
    # a generated subgroup is abelian exactly when its generators commute
    gens = list(dprime_gens)
    abelian = True
    for i, a in enumerate(gens):
        for b in gens[i + 1:]:
            if g.mul(a, b) != g.mul(b, a):
                abelian = False
                break
        if not abelian:
            break
    if len(dprime_members) <= 1024:
        full = True
        mem = list(dprime_members)
        for i, a in enumerate(mem):
            for b in mem[i + 1:]:
                if g.mul(a, b) != g.mul(b, a):
                    full = False
                    break
            if not full:
                break
        if full != abelian:
            raise GammaForgeError("internal inconsistency in metabelian check")
    return abelian


def is_two_engel(g: AnyGroup) -> tuple[bool, tuple[int, int] | None]:
    """[x,y,y] = 1 for all pairs; on failure the lexicographically least witness."""
    if isinstance(g, Group):
        C = g.comm_table
        n = g.order
        E = C[C, np.arange(n)[None, :]]
        w = first_false(E == 0)
        return (w is None), w
    for x in range(g.order):
        for y in range(g.order):
            if commutator(g, commutator(g, x, y), y) != 0:
                return False, (x, y)
    return True, None


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
        act = np.asarray(self.action, dtype=np.int32)
        self.action = act
        if act.shape != (F.order, H.order):
            raise ConstructionError(f"action must be ({F.order},{H.order}), got {act.shape}")
        if H.order % 2 == 0 or F.order % 2 == 0:
            raise ConstructionError("both factors must have odd order")
        if not H.is_abelian() or not F.is_abelian():
            raise ConstructionError("both factors must be abelian")
        ref = np.arange(H.order)
        for f in range(F.order):
            a = act[f]
            if not (np.sort(a) == ref).all():
                raise ConstructionError(f"action of F-element {f} is not a bijection")
            if not (a[H.tbl] == H.tbl[np.ix_(a, a)]).all():
                raise ConstructionError(f"action of F-element {f} is not a homomorphism of H")
        # F -> Aut(H) must be a homomorphism: h^(f1 f2) = (h^f1)^f2
        for f1 in range(F.order):
            for f2 in range(F.order):
                if not (act[F.mul(f1, f2)] == act[f2][act[f1]]).all():
                    raise ConstructionError(f"action is not a homomorphism at ({f1},{f2})")

    @property
    def nH(self) -> int:
        return self.H.order

    @property
    def nF(self) -> int:
        return self.F.order

    def encode(self, h: int, f: int) -> int:
        return f * self.nH + h

    def decode(self, u: int) -> tuple[int, int]:
        f, h = divmod(u, self.nH)
        return h, f


def semidirect(spec: SemidirectSpec, source_spec: str | None = None) -> Group:
    """Materialize H x| F; element (h, f) sits at index f*|H|+h, so the H-cosets
    of each F-element form contiguous index blocks."""
    nH, nF = spec.nH, spec.nF
    TH, TF, act = spec.H.tbl, spec.F.tbl, spec.action
    n = nH * nF
    h = np.arange(n) % nH
    f = np.arange(n) // nH
    acted = act[f[:, None], h[None, :]]
    T = TF[f[:, None], f[None, :]] * nH + TH[h[:, None], acted]
    names = [f"({spec.H.label(i)},{spec.F.label(j)})" for j in range(nF) for i in range(nH)]
    ct = CayleyTable(T, name=spec.name or f"{spec.H.name}:|{spec.F.name}", element_names=names)
    g = Group(ct, source_spec=source_spec)
    g.sd_spec = spec
    return g


# ---------------------------------------------------------------------------
# Constructors


def cyclic(m: int, source_spec: str | None = None) -> AnyGroup:
    if m < 1:
        raise ConstructionError(f"cyclic order must be >= 1, got {m}")
    notes = ("even order",) if m % 2 == 0 else ()
    if m > table_cap():
        return FunctionalGroup(m, lambda x, y: (x + y) % m, name=f"Z{m}",
                               gens=(1,), source_spec=source_spec, notes=notes)
    r = np.arange(m)
    T = (r[:, None] + r[None, :]) % m
    return Group(CayleyTable(T, name=f"Z{m}"), source_spec=source_spec, notes=notes)


def direct(factors: Sequence[AnyGroup], source_spec: str | None = None) -> AnyGroup:
    """Direct product, folding pairwise; index of (a, b) is a*|B|+b."""
    if not factors:
        raise ConstructionError("direct product needs at least one factor")
    total = math.prod(f.order for f in factors)
    if total > table_cap() or any(not isinstance(f, Group) for f in factors):
        fs = list(factors)
        sizes = [f.order for f in fs]

        def mul(x: int, y: int) -> int:
            xs, ys = [], []
            for size in reversed(sizes):
                x, a = divmod(x, size)
                y, b = divmod(y, size)
                xs.append(a)
                ys.append(b)
            out = 0
            for f, size, a, b in zip(fs, sizes, reversed(xs), reversed(ys)):
                out = out * size + f.mul(a, b)
            return out

        name = "x".join(f.name for f in fs)
        notes = ("even order",) if total % 2 == 0 else ()
        return FunctionalGroup(total, mul, name=name,
                               source_spec=source_spec, notes=notes)
    acc = factors[0]
    for nxt in factors[1:]:
        n1, n2 = acc.order, nxt.order
        T = (acc.tbl[:, None, :, None] * n2 + nxt.tbl[None, :, None, :]).reshape(n1 * n2, n1 * n2)
        names = [f"({acc.label(a)},{nxt.label(b)})" for a in range(n1) for b in range(n2)]
        name = f"{acc.name}x{nxt.name}"
        acc = Group(CayleyTable(T, name=name, element_names=names), check=False)
    notes = ("even order",) if acc.order % 2 == 0 else ()
    return Group(acc.table, source_spec=source_spec, notes=notes)


def sd(q: int, p: int, a: int, source_spec: str | None = None) -> AnyGroup:
    """Z_q x| Z_p where the generator of Z_p acts by h -> a*h mod q."""
    if pow(a, p, q) != 1:
        raise ConstructionError(f"invalid action: {a}^{p} = {pow(a, p, q)} != 1 (mod {q})")
    name = f"Z{q}:|Z{p}(a={a})"
    if q * p > table_cap():
        if q % 2 == 0 or p % 2 == 0:
            raise ConstructionError("both factors must have odd order")
        apow = [pow(a, k, q) for k in range(p)]

        def mul(x: int, y: int) -> int:
            f1, h1 = divmod(x, q)
            f2, h2 = divmod(y, q)
            return ((f1 + f2) % p) * q + (h1 + apow[f1] * h2) % q

        return FunctionalGroup(q * p, mul, name=name, gens=(1, q),
                               source_spec=source_spec)
    H = cyclic(q)
    F = cyclic(p)
    r = np.arange(q)
    action = np.stack([(pow(a, k, q) * r) % q for k in range(p)]).astype(np.int32)
    spec = SemidirectSpec(H, F, action, name=name)
    return semidirect(spec, source_spec=source_spec)


def heisenberg(p: int, source_spec: str | None = None) -> AnyGroup:
    """Order p^3 with triples (a,b,c): product adds coordinates plus a1*b2 into c."""
    n = p * p * p

    def enc(a, b, c):
        return (a * p + b) * p + c

    if n > table_cap():
        def mul(x: int, y: int) -> int:
            a1, r1 = divmod(x, p * p)
            b1, c1 = divmod(r1, p)
            a2, r2 = divmod(y, p * p)
            b2, c2 = divmod(r2, p)
            return enc((a1 + a2) % p, (b1 + b2) % p, (c1 + c2 + a1 * b2) % p)

        return FunctionalGroup(n, mul, name=f"Heis{p}", gens=(enc(1, 0, 0), enc(0, 1, 0)),
                               source_spec=source_spec,
                               notes=("even order",) if p % 2 == 0 else ())

    T = np.empty((n, n), dtype=np.int32)
    names = []
    for a1 in range(p):
        for b1 in range(p):
            for c1 in range(p):
                names.append(f"({a1},{b1},{c1})")
    for x in range(n):
        a1, r = divmod(x, p * p)
        b1, c1 = divmod(r, p)
        for y in range(n):
            a2, r = divmod(y, p * p)
            b2, c2 = divmod(r, p)
            T[x, y] = enc((a1 + a2) % p, (b1 + b2) % p, (c1 + c2 + a1 * b2) % p)
    notes = ("even order",) if p % 2 == 0 else ()
    return Group(CayleyTable(T, name=f"Heis{p}", element_names=names),
                 source_spec=source_spec, notes=notes)


def _ut_positions(k: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(k) for j in range(i + 1, k)]


def unitriangular(k: int, p: int, source_spec: str | None = None) -> AnyGroup:
    """k x k upper unitriangular matrices over the p-element field.

    Materialized when the order fits the table cap, functional otherwise.
    Indices pack the strictly-upper entries base p in row-major position
    order, so the identity matrix is index 0.
    """
    pos = _ut_positions(k)
    npos = len(pos)
    n = p ** npos
    weights = [p ** t for t in range(npos)]
    pos_index = {ij: t for t, ij in enumerate(pos)}
    # (AB)_{ij} = A_ij + B_ij + sum over i<m<j of A_im * B_mj
    middle = [
        [(pos_index[(i, m)], pos_index[(m, j)]) for m in range(i + 1, j)]
        for (i, j) in pos
    ]

    def entries(idx: int) -> list[int]:
        return [(idx // w) % p for w in weights]

    def mul(x: int, y: int) -> int:
        a, b = entries(x), entries(y)
        out = 0
        for t in range(npos):
            v = a[t] + b[t]
            for (u, w) in middle[t]:
                v += a[u] * b[w]
            out += (v % p) * weights[t]
        return out

    name = f"UT({k},{p})"
    gens = [weights[pos_index[(i, i + 1)]] for i in range(k - 1)]
    notes = ("even order",) if p % 2 == 0 else ()
    if n <= table_cap():
        mats = np.stack([_ut_matrix(entries(i), pos, k) for i in range(n)])
        T = np.empty((n, n), dtype=np.int32)
        wcol = np.array(weights, dtype=np.int64)
        for x in range(n):
            prods = (mats[x] @ mats) % p
            enc = np.zeros(n, dtype=np.int64)
            for t, (i, j) in enumerate(pos):
                enc += prods[:, i, j] * wcol[t]
            T[x] = enc
        g = Group(CayleyTable(T, name=name), source_spec=source_spec, notes=notes)
        g.gens = tuple(gens)
        return g
    return FunctionalGroup(n, mul, name=name, gens=gens, source_spec=source_spec,
                           notes=notes)


def _ut_matrix(entry_list: list[int], pos: list[tuple[int, int]], k: int) -> np.ndarray:
    m = np.eye(k, dtype=np.int64)
    for t, (i, j) in enumerate(pos):
        m[i, j] = entry_list[t]
    return m


def wreath_cyclic(p: int, source_spec: str | None = None) -> AnyGroup:
    """Z_p wr Z_p: the p-fold direct power of Z_p acted on by coordinate shift."""
    n = p ** (p + 1)
    if n > table_cap():
        nH = p ** p

        def unpack(v: int) -> list[int]:
            out = []
            for _ in range(p):
                v, d = divmod(v, p)
                out.append(d)
            return out[::-1]

        def pack(vec: list[int]) -> int:
            v = 0
            for d in vec:
                v = v * p + d
            return v

        def mul(x: int, y: int) -> int:
            k1, v1 = divmod(x, nH)
            k2, v2 = divmod(y, nH)
            a, b = unpack(v1), unpack(v2)
            shifted = [b[(i - k1) % p] for i in range(p)]
            return ((k1 + k2) % p) * nH + pack([(a[i] + shifted[i]) % p for i in range(p)])

        return FunctionalGroup(n, mul, name=f"Z{p}wrZ{p}",
                               gens=(p ** (p - 1), nH), source_spec=source_spec,
                               notes=("even order",) if p % 2 == 0 else ())
    base = direct([cyclic(p)] * p)
    nH = base.order

    def vec(idx):
        out = []
        for _ in range(p):
            idx, v = divmod(idx, p)
            out.append(v)
        return out[::-1]  # big-endian to match direct() packing

    def enc(v):
        idx = 0
        for x in v:
            idx = idx * p + x
        return idx

    base_names = ["(" + ",".join(str(d) for d in vec(i)) + ")" for i in range(nH)]
    base = Group(CayleyTable(base.tbl, name=f"Z{p}^{p}", element_names=base_names), check=False)
    action = np.empty((p, nH), dtype=np.int32)
    for k in range(p):
        for i in range(nH):
            v = vec(i)
            action[k, i] = enc([v[(t - k) % p] for t in range(p)])
    spec = SemidirectSpec(base, cyclic(p), action, name=f"Z{p}wrZ{p}")
    return semidirect(spec, source_spec=source_spec)


def from_file(path: str | Path, source_spec: str | None = None) -> Group:
    """Import a .tbl file as a group (identity normalized, laws verified)."""
    res = tableio.import_table(path)
    notes = []
    if res.relabeling is not None:
        notes.append("identity relabeled to index 0 on import")
    if res.table.n % 2 == 0:
        notes.append("even order")
    return Group(res.table, source_spec=source_spec or f"file:{path}", notes=notes)


# ---------------------------------------------------------------------------
# Group-spec mini-language:
#   cyclic:m | dp:spec,spec | sd:q:p:a | heis:p | ut:k:p | wr:p | file:PATH


def _int_token(tok: str, spec: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise SpecParseError(f"bad token {tok!r} in group spec {spec!r}")


def construct(spec: str) -> AnyGroup:
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
