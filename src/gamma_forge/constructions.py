"""Loop constructions on uniquely 2-divisible groups.

Two ways to deform a group product into a commutative loop:

  circ:   x o y = x y [y,x]^(1/2)        (square root of the commutator)
  oplus:  x (+) y = (x y^2 x)^(1/2)      (square root of a palindrome)

plus the translation between the two loop varieties in both directions.
Everything is validated at construction: loop-ness, commutativity, the
automorphic inverse property, and power coincidence with the source group.
The loop keeps each law verdict it scans, so the checks that read one later
(the axiom block, Moufang, left Bruck, the center) do not scan it again.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (CayleyTable, ConstructionError, EvenOrderError, GammaForgeError,
                   build_table, divide_rows, left_power_walk, row_blocks)
from .groups import AnyGroup, Group, is_uniquely_2_divisible, _require_table
from .loops import Loop, check_gamma_axioms, is_left_bruck, mlt_chain, powers_coincide


def _provenance(g: AnyGroup, construction: str) -> dict:
    return {"source": g.source_spec or g.name, "construction": construction}


def circ_loop(g: AnyGroup) -> Loop:
    """The commutative loop with product x*y*sqrt([y,x]) on a uniquely
    2-divisible group.

    Validates on construction: the table is a loop with the group's identity,
    it is commutative, it has the automorphic inverse property, and powers
    coincide with group powers.
    """
    g = _require_table(g, "circ construction")
    if not is_uniquely_2_divisible(g):
        raise ConstructionError(f"{g.name} is not uniquely 2-divisible")
    t, s = g.tbl, g.sqrt_table
    table = build_table(g.order, lambda x, y: t[t[x, y], s[g.commutator(y, x)]],
                        name=f"circ({g.name})", element_names=g.table.element_names)
    q = Loop(table, source=_provenance(g, "circ"))
    _validate_constructed(g, q, require_commutative=True)
    return q


def oplus_loop(g: AnyGroup) -> Loop:
    """The loop with product sqrt(x*y^2*x) on a uniquely 2-divisible group.

    The left Bruck identity is a property check left to callers; construction
    validates loop-ness and power coincidence.
    """
    g = _require_table(g, "oplus construction")
    if not is_uniquely_2_divisible(g):
        raise ConstructionError(f"{g.name} is not uniquely 2-divisible")
    t, s, sq = g.tbl, g.sqrt_table, g.squares
    table = build_table(g.order, lambda x, y: s[t[t[x, sq[y]], x]],  # sqrt((x y^2) x)
                        name=f"oplus({g.name})", element_names=g.table.element_names)
    q = Loop(table, source=_provenance(g, "oplus"))
    _validate_constructed(g, q, require_commutative=False)
    return q


def _validate_constructed(g: Group, q: Loop, require_commutative: bool):
    if q.mul(0, 0) != 0:
        raise ConstructionError("constructed loop lost the source identity")
    if require_commutative:
        if q.commutativity is not None:
            raise ConstructionError(f"constructed table not commutative at {q.commutativity}")
        if q.inverse is None:
            raise ConstructionError("constructed loop lacks two-sided inverses")
        if q.aip is not None:
            raise ConstructionError(f"automorphic inverse property fails at {q.aip}")
    ok, w = powers_coincide(g, q)
    if not ok:
        raise ConstructionError(f"powers disagree with the source group at {w}")


def loop_sqrt_table(q: Loop) -> np.ndarray:
    """Elementwise square roots x^((m+1)/2) in an odd-order power-associative loop."""
    ok, bad = q.power_associativity
    if not ok:
        raise ConstructionError(f"loop is not power-associative at element {q.label(bad)}")
    orders, roots, _ = left_power_walk(q.tbl)
    if (orders % 2 == 0).any():
        x = int(np.argmax(orders % 2 == 0))
        raise EvenOrderError(f"element {q.label(x)} has no odd order (got {int(orders[x])})")
    return roots


def bruck_from_gamma(q: Loop, verify: bool = True) -> Loop:
    """Translate a commutative loop in the source variety to its left Bruck
    partner: x (+) y = (x^-1 \\ (y^2 x))^(1/2), everything computed in q.

    With ``verify`` the four variety axioms are checked first.
    """
    if q.n % 2 == 0:
        raise ConstructionError("translation requires odd order")
    if verify:
        verdict = check_gamma_axioms(q)
        if not verdict.all_hold:
            raise ConstructionError(f"input fails the variety axioms: {verdict}")
    inv = q.inverse
    if inv is None:
        raise ConstructionError("input lacks two-sided inverses")
    lsqrt, t = loop_sqrt_table(q), q.tbl
    sq = t.diagonal()
    # [x, y] -> (x^-1 \ (y^2 x))^(1/2), with the division rows of a block of x^-1 at a time
    table = build_table(q.n, lambda x, y: lsqrt[np.take_along_axis(divide_rows(t, inv[x[:, 0]]), t[sq[y], x], 1)],
                        name=f"bruck({q.name})", element_names=q.table.element_names)
    return Loop(table, source={**q.source, "construction": "gamma->bruck"})


def gamma_from_bruck(q: Loop, verify: bool = True) -> Loop:
    """Translate a left Bruck loop of odd order back: the product of x and y is
    the image of the identity under L_x L_y [L_y, L_x]^(1/2).

    The commutator A = L_x L_y L_x^-1 L_y^-1, u -> x(y(x\\(y\\u))), must have
    odd order m for every pair.  The entry at (x, y) is its root A^((m+1)/2)
    at p = yx, which is A^((c+1)/2)(p) for the length c of the cycle of p,
    as both exponents invert 2 modulo c.  Every A lies in LMlt(Q) = <L_x>,
    so if |LMlt| is odd, every A has odd order and one walk over the orbits
    gives the table; otherwise pointer doubling names the first even order.
    """
    if q.n % 2 == 0:
        raise ConstructionError("translation requires odd order")
    if verify:
        ok, w = is_left_bruck(q)
        if not ok:
            raise ConstructionError(f"input is not a left Bruck loop, witness {w}")
    out = _gamma_by_orbit_walk(q) if _lmlt_order_is_odd(q) else _gamma_by_doubling(q)
    table = CayleyTable(out, name=f"gamma({q.name})", element_names=q.table.element_names)
    return Loop(table, source={**q.source, "construction": "bruck->gamma"})


def _lmlt_order_is_odd(q: Loop) -> bool:
    """Whether |LMlt(Q)|, the product of the orbit lengths of its chain, is odd."""
    return all(len(level.orbit) % 2 for level in mlt_chain(q).levels)


def _gamma_by_orbit_walk(q: Loop) -> np.ndarray:
    """The translated table when every A_(x,y) has odd order.

    A block of rows x walks every p = yx with y >= x at once, 4 flat gathers
    per step; a second pointer takes a step on every odd step, so when the
    walk first returns to p after c (odd) steps it holds A^((c+1)/2)(p).
    Closed orbits leave the arrays after each step.

    The entry at (y, x) is the one at (x, y): in any loop A_(y,x) = A^-1 for
    A = A_(x,y), and A(yx) = x(y(x\\(y\\(yx)))) = xy; so (y, x) walks the cycle
    of p backwards from A(p), to A^-((c+1)/2)(A(p)) = A^((c+1)/2)(p) (A^c p = p).
    """
    n, xs = q.n, np.arange(q.n)
    t, ld = q.tbl.ravel(), divide_rows(q.tbl, xs).ravel()  # flat index of (x, u): x n + u, in intp
    out = np.empty((n, n), dtype=q.tbl.dtype)
    for r in row_blocks(n):
        x, y = np.nonzero(xs[r, None] <= xs)
        x += r.start
        fx, fy = n * x, n * y
        p = t.take(fy + x)                        # yx
        cur = half = p
        steps = 0
        while fx.size:
            steps += 1
            cur = t.take(fx + t.take(fy + ld.take(fx + ld.take(fy + cur))))
            if steps % 2:
                half = t.take(fx + t.take(fy + ld.take(fx + ld.take(fy + half))))
            closed = cur == p
            if closed.any():
                if steps % 2 == 0:
                    raise GammaForgeError(f"internal inconsistency: |LMlt| odd but a cycle of length {steps}")
                x, y = fx[closed] // n, fy[closed] // n
                out[x, y] = out[y, x] = half[closed]
                open_ = ~closed
                fx, fy, p, cur, half = (a[open_] for a in (fx, fy, p, cur, half))
    return out


def _gamma_by_doubling(q: Loop) -> np.ndarray:
    """The translated table by cycle lengths per x, raising EvenOrderError at
    the first pair whose commutator has even order.

    Each step takes one x and all n commutators A_y as the rows of an array.
    Pointer doubling gives A^(2^j) and least_(j+1)(p) = min(least_j(p),
    least_j(A^(2^j) p)), the least label of the first 2^(j+1) points from p,
    until 2^j >= n or least_(j+1) = least_j.  In the latter case, on a cycle
    of length c, least_j(p) <= least_j(A^(2^j) p) <= ... <= least_j(A^(c 2^j)
    p) = least_j(p): these windows cover the cycle, so each window of 2^j
    points holds its least label, c <= 2^j, and no higher power is needed.
    The least labels give each cycle length c.
    """
    t, n = q.tbl, q.n
    ld = divide_rows(t, np.arange(n))
    base = n * np.arange(n, dtype=np.int32)  # flat index of (y, 0); int32 keeps the n^2 powers small
    out = np.empty((n, n), dtype=t.dtype)
    for x in range(n):   # flat gathers: .take is about twice as fast as [] here
        # flat index of (y, A_y(u)) for the commutator A_y = L_x L_y L_x^-1 L_y^-1
        a = t[x].take(t.take(ld[x].take(ld) + base[:, None])) + base[:, None]
        powers = [a]                          # A^(2^j), as flat indices
        least = np.arange(n * n, dtype=np.int32).reshape(n, n)  # least point of each cycle
        while True:
            step = np.minimum(least, least.take(powers[-1]))
            done = 2 ** len(powers) >= n or (step == least).all()
            least = step
            if done:
                break
            powers.append(powers[-1].take(powers[-1]))
        sizes = np.bincount(least.ravel(), minlength=n * n).reshape(n, n)  # [y, least] -> length
        even = (sizes % 2 == 0) & (sizes > 0)
        if even.any():
            y = int(np.argmax(even.any(axis=1)))
            m = math.lcm(*sizes[y][sizes[y] > 0].tolist())
            raise EvenOrderError(
                f"translation commutator at ({q.label(x)},{q.label(y)}) has even order {m}")
        point = t[:, x] + base                # p = yx
        k = (sizes.take(least.take(point)) + 1) // 2
        for j, aj in enumerate(powers):
            point = np.where(k >> j & 1, aj.take(point), point)
        out[x] = point - base
    return out

