"""Loop constructions on uniquely 2-divisible groups.

Two ways to deform a group product into a commutative loop:

  circ:   x o y = x y [y,x]^(1/2)        (square root of the commutator)
  oplus:  x (+) y = (x y^2 x)^(1/2)      (square root of a palindrome)

plus the translation between the two loop varieties in both directions.
Everything is validated at construction: loop-ness, commutativity, the
automorphic inverse property, and power coincidence with the source group.
The loop keeps each law verdict it scans, so the checks that read one later
(the axiom block, Moufang, left Bruck, the center) do not scan it again.

Each translation takes only loops of its variety, by the verdict the Loop keeps, has
one path and returns the table; Bruck -> Gamma is one walk over cycles.  Square roots,
of the group and of a loop alike, are the Loop's sqrt_table.
"""

from __future__ import annotations

import numpy as np

from .core import ConstructionError, GammaForgeError, build_table, divide_rows, row_blocks, take_rows
from .groups import Group, is_uniquely_2_divisible
from .loops import Loop, powers_coincide, witness_str


def _provenance(g: Group, construction: str) -> dict:
    return {"source": g.source_spec or g.name, "construction": construction}


def circ_loop(g: Group) -> Loop:
    """The commutative loop with product x*y*sqrt([y,x]) on a uniquely
    2-divisible group.

    Validates on construction: the table is a loop with the group's identity,
    it is commutative, it has the automorphic inverse property, and powers
    coincide with group powers.
    """
    if not is_uniquely_2_divisible(g):
        raise ConstructionError(f"{g.name} is not uniquely 2-divisible")
    t, s = g.rule, g.sqrt_table
    table = build_table(g.order, lambda x, y: t(t(x, y), s.take(g.commutator(y, x))),
                        name=f"circ({g.name})", element_names=g.table.element_names)
    q = Loop(table, source=_provenance(g, "circ"))
    _validate_constructed(g, q, require_commutative=True)
    return q


def oplus_loop(g: Group) -> Loop:
    """The loop with product sqrt(x*y^2*x) on a uniquely 2-divisible group.

    The left Bruck identity is a property check left to callers; construction
    validates loop-ness and power coincidence.
    """
    if not is_uniquely_2_divisible(g):
        raise ConstructionError(f"{g.name} is not uniquely 2-divisible")
    t, s, sq = g.rule, g.sqrt_table, g.squares
    table = build_table(g.order, lambda x, y: s.take(t(t(x, sq.take(y)), x)),  # sqrt((x y^2) x)
                        name=f"oplus({g.name})", element_names=g.table.element_names)
    q = Loop(table, source=_provenance(g, "oplus"))
    _validate_constructed(g, q, require_commutative=False)
    return q


def _validate_constructed(g: Group, q: Loop, require_commutative: bool):
    # Loop.__init__ refused any identity but 0, the group's; and in a commutative Latin
    # table x r = 0 gives r x = 0, so the inverses that the aip test reads are two-sided
    if require_commutative:
        if q.commutativity is not None:
            raise ConstructionError(f"constructed table not commutative at {q.commutativity}")
        if q.aip is not None:
            raise ConstructionError(f"automorphic inverse property fails at {q.aip}")
    ok, w = powers_coincide(g, q)
    if not ok:
        raise ConstructionError(f"powers disagree with the source group at {w}")


def bruck_from_gamma(q: Loop) -> np.ndarray:
    """Translate a loop of odd order in the source variety (the four axioms of
    check_gamma_axioms) to the table of its left Bruck partner:
    x (+) y = (x^-1 \\ (y^2 x))^(1/2), everything computed in q.  Any other
    loop is refused."""
    if q.n % 2 == 0:
        raise ConstructionError("translation requires odd order")
    if not q.gamma_axioms.all_hold:
        raise ConstructionError(f"input fails the variety axioms: {q.gamma_axioms.failures(q)}")
    inv, lsqrt, t, n = q.inverse, q.sqrt_table, q.tbl, q.n  # inverses are two-sided under the axioms
    sq = t.diagonal()
    # [x, y] -> (x^-1 \ (y^2 x))^(1/2), with the division rows of a block of x^-1 at a time
    return build_table(n, lambda x, y: lsqrt.take(take_rows(divide_rows(t, inv[x[:, 0]]),
                                                            q.rule(sq.take(y), x)))).table


def gamma_from_bruck(q: Loop) -> np.ndarray:
    """Translate a left Bruck loop of odd order back to a table: the product of x and y is
    the image of the identity under L_x L_y [L_y, L_x]^(1/2).  Any other loop
    is refused.

    The commutator A = L_x L_y L_x^-1 L_y^-1, u -> x(y(x\\(y\\u))), lies in
    LMlt(Q) = <L_x>, and a Bruck loop of odd order has a left multiplication
    group of odd order (Glauberman, On loops of odd order, J. Algebra 1,
    1964).  So every A has odd order m, and the entry at (x, y) is its root
    A^((m+1)/2) at p = yx, which is A^((c+1)/2)(p) for the length c of the
    cycle of p, as both exponents invert 2 modulo c: one walk over the cycles
    gives the table.
    """
    if q.n % 2 == 0:
        raise ConstructionError("translation requires odd order")
    ok, w = q.left_bruck
    if not ok:
        if isinstance(w, tuple):  # else w names an element without a two-sided inverse
            w = (f"automorphic inverse property fails at {witness_str(q, w[1:])}" if w[0] == "aip"
                 else f"left Bol identity x(y(xz)) = (x(yx))z fails at {witness_str(q, w)}")
        raise ConstructionError(f"input is not a left Bruck loop: {w}")
    return _gamma_by_orbit_walk(q)


def _gamma_by_orbit_walk(q: Loop) -> np.ndarray:
    """The translated table when every A_(x,y) has odd order.

    A block of rows x walks every p = yx with y >= x at once, 4 flat gathers
    per step; a second pointer takes a step on every odd step, so when the
    walk first returns to p after c (odd) steps it holds A^((c+1)/2)(p).
    Closed orbits leave the arrays after each step.  A cycle of even length,
    which Glauberman's theorem rules out in a left Bruck loop of odd order,
    raises with its pair.

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
                x, y = fx[closed] // n, fy[closed] // n
                if steps % 2 == 0:
                    raise GammaForgeError(f"internal inconsistency: the cycle of yx under L_x L_y L_x^-1 L_y^-1 "
                                          f"at ({q.label(x[0])},{q.label(y[0])}) has even length {steps}")
                out[x, y] = out[y, x] = half[closed]
                open_ = ~closed
                fx, fy, p, cur, half = (a[open_] for a in (fx, fy, p, cur, half))
    return out
