"""Per-theorem verification suites over a single group.

Each check runs an exhaustive scan, or an exact reduction of one proved in
its docstring, compares the verdict against the predicted outcome for that
class of group when a theorem predicts one, and reports the least witness on
failure.  A ``CheckContext`` computes each fact about the subject once;
survey rows read the same facts and encode the metabelian <=> automorphic
biconditional the search is after.
"""

from __future__ import annotations

import time
from functools import cached_property

import numpy as np

from .core import GammaForgeError, first_false_rows, row_blocks
from .groups import (
    Group,
    is_metabelian,
    is_two_engel,
    is_uniquely_2_divisible,
    nilpotency_class,
    upper_central_series,
)
from .loops import Loop, is_moufang, loop_nilpotency_class, quotient_loop, witness_str
from .constructions import bruck_from_gamma, circ_loop, gamma_from_bruck, oplus_loop
from .sdforms import SdForms
from .report import CheckResult, Report

HEAVY_CHECK_LIMIT = 250             # correspondence roundtrips above this are opt-in


def commutator_identities_hold(g: Group) -> tuple[bool, str | None]:
    """(ok, witness) of the commutator identities [xy, z] = [x,z]^y [y,z],
    [x, yz] = [x,z] [x,y]^z, [x, y^-1] = [y,x]^(y^-1), [x^-1, y] = [y,x]^(x^-1),
    [x,y^-1,z]^y [y,z^-1,x]^z [z,x^-1,y]^x = 1 (a^y = y^-1 a y) and the
    definition [x, y] = x^-1 y^-1 x y.  Only the definition is scanned, on all
    n^2 pairs: a Group is verified to be a group when it is built, and in a
    group each other identity, with [x, y] read as x^-1 y^-1 x y, expands on
    both sides to the same word in x, y, z.  So all hold at every triple once
    g.commutator agrees with the definition at every pair; else the least
    pair where it does not is the witness."""
    times, inv, n, xs = g.rule, g.inverse, g.order, np.arange(g.order)
    w = first_false_rows(n, lambda r: g.commutator(xs[r, None], xs)
                         == times(times(times(inv[r, None], inv), xs[r, None]), xs))
    return w is None, None if w is None else f"commutator definition fails at {witness_str(g, w)}"


def metabelian_identities_hold(g: Group) -> tuple[bool, str | None]:
    """(ok, witness) of [sqrt([x,y]), z] = sqrt([[x,y], z]), then [x,y,z][z,x,y][y,z,x] = 1,
    at every triple of a metabelian group whose g.commutator passes
    commutator_identities_hold; the first that fails names its least triple."""
    for what, witness in (("root-of-commutator identity", _root_witness), ("rotation product", _rotation_witness)):
        if (w := witness(g)) is not None:
            return False, f"{what} fails at {witness_str(g, w)}"
    return True, None


def _root_witness(g: Group) -> tuple[int, int, int] | None:
    """The least (x, y, z) with [s(c), z] != s([c, z]) for c = [x, y] and
    s = g.sqrt_table, or None.  Both sides read (x, y) only through c, one of
    g.commutators, so the pairs (c, z) are tested: |G'| n, not n^3.  The least
    failing triple is the least (x, y) whose c fails, with that c's least z."""
    C, s, cs, xs = g.commutator, g.sqrt_table, g.commutators, np.arange(g.order)
    fails, least_z = np.zeros(g.order, dtype=bool), np.zeros(g.order, dtype=np.intp)
    for r in row_blocks(len(cs), g.order):
        ok = C(s.take(cs[r, None]), xs) == s.take(C(cs[r, None], xs))
        fails[cs[r]], least_z[cs[r]] = ~ok.all(axis=1), np.argmin(ok, axis=1)
    w = fails.any() and first_false_rows(g.order, lambda r: ~fails.take(C(xs[r, None], xs)))
    return (*w, int(least_z[C(*w)])) if w else None


def _rotation_witness(g: Group) -> tuple[int, int, int] | None:
    """The least (x, y, z) with J(x, y, z) = [[x,y],z][[z,x],y][[y,z],x] != 1,
    or None, in a metabelian group whose g.commutator is its bracket.

    The factors of J lie in the abelian G', so they commute and J(x, y, z) =
    J(z, x, y).  By [a, bc] = [a,c][a,b]^c, [ab, c] = [a,c]^b [b,c] and
    [u^w, y] = [u, y]^w for u in G' (as y = y^w [w, y]), J(x, y, z1 z2) =
    J(x, y, z1)^z2 J(x, y, z2): for fixed (x, y) the z with J = 1 form a
    subgroup.  So J = 1 everywhere iff J(x, y, g) = 1 for all x, y and
    generators g, iff (rotating) J(g, x, h) = 1 for all x and generators g, h:
    n k^2 triples.  If one fails, the triples are scanned in order, a block of
    pairs (x, y) at a time, up to the first failure.
    """
    t, C, n, xs, gens = g.rule, g.commutator, g.order, np.arange(g.order), g.generators
    J = lambda x, y, z: t(t(C(C(x, y), z), C(C(z, x), y)), C(C(y, z), x))
    if first_false_rows(n, lambda r: J(gens[:, None], xs[r, None, None], gens) == 0, len(gens) ** 2) is None:
        return None
    p, z = first_false_rows(n * n, lambda r: J(*np.divmod(np.arange(r.start, r.stop)[:, None], n), xs) == 0, n)
    return p // n, p % n, z


class CheckContext:
    """The facts about one subject group and its two loops, each computed on
    first use and kept; each loop keeps its own verdicts.

    Survey rows and verify checks both read their facts here, so the two
    cannot disagree on a verdict such as the inner-mapping one.
    """

    def __init__(self, g: Group, force_exhaustive: bool = False):
        self.g = g
        self.force_exhaustive = force_exhaustive

    @cached_property
    def skip_reason(self) -> str | None:
        """Why no circ loop can be built on the subject, or None if it can."""
        return None if self.uniquely_2_divisible else "not uniquely 2-divisible"

    @cached_property
    def uniquely_2_divisible(self) -> bool:
        return is_uniquely_2_divisible(self.g)

    @cached_property
    def nilpotency_class(self) -> int | None:
        return nilpotency_class(self.g)

    @cached_property
    def metabelian(self) -> bool:
        return is_metabelian(self.g)

    @cached_property
    def two_engel(self) -> tuple[bool, tuple[int, int] | None]:
        return is_two_engel(self.g)

    @cached_property
    def upper_centers(self) -> list[tuple[int, ...]]:  # zeta^0, zeta^1, zeta^2 from one series
        series = upper_central_series(self.g)
        return [series[min(i, len(series) - 1)].members for i in range(3)]

    @cached_property
    def commutator_identities(self) -> tuple[bool, str | None]:
        return commutator_identities_hold(self.g)

    @cached_property
    def circ(self) -> Loop:
        return circ_loop(self.g)

    @cached_property
    def oplus(self) -> Loop:
        return oplus_loop(self.g)


# A check returns (verdict, expected, witness); run_check adds its id and claim.
Outcome = tuple[str, str | None, str | None]


def _predicted(ok: bool, witness: str | None = None) -> Outcome:
    """The verdict of a check whose theorem predicts a pass."""
    return ("pass" if ok else "fail"), "pass", witness


def _skipped(reason: str) -> Outcome:
    return "skipped", None, reason


def run_check(ctx: CheckContext, check_id: str) -> CheckResult:
    start = time.perf_counter()
    verdict, expected, witness = _CHECK_FUNCS[check_id](ctx)
    return CheckResult(check_id, CLAIMS[check_id], verdict, expected=expected,
                       witness=witness, timing_ms=(time.perf_counter() - start) * 1000.0)


def _check_group_laws(ctx: CheckContext) -> Outcome:
    # verified at construction: a Group's build runs Light's test
    return _predicted(True)


def _check_u2d(ctx: CheckContext) -> Outcome:
    return ("pass" if ctx.uniquely_2_divisible else "fail"), None, None


def _check_commutator_identities(ctx: CheckContext) -> Outcome:
    return _predicted(*ctx.commutator_identities)


def _check_metabelian_identities(ctx: CheckContext) -> Outcome:
    if not ctx.uniquely_2_divisible or not ctx.metabelian:
        return _skipped("only applies to uniquely 2-divisible metabelian groups")
    # both reductions assume the group's own bracket: a wrong one fails here with its witness
    ok, w = ctx.commutator_identities
    return _predicted(*(metabelian_identities_hold(ctx.g) if ok else (ok, w)))


def _check_gamma_axioms(ctx: CheckContext) -> Outcome:
    v = ctx.circ.gamma_axioms
    return _predicted(v.all_hold, v.failures(ctx.circ))


def _check_power_coincidence(ctx: CheckContext) -> Outcome:
    # verified at construction: circ_loop and oplus_loop raise if powers differ
    ctx.circ, ctx.oplus
    return _predicted(True)


def _check_baer(ctx: CheckContext) -> Outcome:
    cls = ctx.nilpotency_class
    assoc, w = ctx.circ.is_associative()
    ok = assoc == (cls is not None and cls <= 2)
    witness = None if assoc else f"nonassociative at {witness_str(ctx.circ, w)}"
    if not ok:
        witness = (f"class={cls if cls is not None else 'not nilpotent'} but "
                   f"associative={assoc}; " + (witness or ""))
    return _predicted(ok, witness)


def _check_moufang(ctx: CheckContext) -> Outcome:
    engel, ew = ctx.two_engel
    moufang, mw = is_moufang(ctx.circ)
    same_tables = first_false_rows(ctx.g.order, lambda r: ctx.circ.tbl[r] == ctx.oplus.tbl[r]) is None
    parts = []
    if moufang != engel:
        parts.append(f"2-Engel={engel} (witness {witness_str(ctx.g, ew)}) but "
                     f"Moufang={moufang} (witness {witness_str(ctx.circ, mw)})")
    if same_tables != engel:
        parts.append(f"2-Engel={engel} but tables equal={same_tables}")
    return _predicted(not parts, "; ".join(parts) or None)


def _check_oplus_bruck(ctx: CheckContext) -> Outcome:
    ok, w = ctx.oplus.left_bruck
    return _predicted(ok, witness_str(ctx.oplus, w))


def _check_correspondence(ctx: CheckContext) -> Outcome:
    if not ctx.force_exhaustive and ctx.g.order > HEAVY_CHECK_LIMIT:
        return _skipped(f"order {ctx.g.order} above roundtrip limit "
                        f"{HEAVY_CHECK_LIMIT}; rerun with --exhaustive")
    # each translation refuses a loop outside its variety: a failed verdict is this check's witness
    refused = [f"{cid} fails: {w}" for cid, (verdict, _, w) in (("circ-loop-gamma-axioms", _check_gamma_axioms(ctx)),
                                                                ("oplus-left-bruck", _check_oplus_bruck(ctx)))
               if verdict == "fail"]
    if refused:
        return _predicted(False, "; ".join(refused))
    # oplus equals the forward image, so it goes back; a table equal to a validated loop's is that loop
    for translate, q, target, what in ((bruck_from_gamma, ctx.circ, ctx.oplus, "forward image differs from oplus"),
                                       (gamma_from_bruck, ctx.oplus, ctx.circ, "roundtrip differs from circ")):
        image = translate(q)
        if (w := first_false_rows(q.n, lambda r: image[r] == target.tbl[r])) is not None:
            return _predicted(False, f"{what} at {w}")
    return _predicted(True)


def _check_center_containment(ctx: CheckContext, i: int = 1, what: str = "group-central") -> Outcome:
    lc = set(ctx.circ.center)
    missing = [a for a in ctx.upper_centers[i] if a not in lc]
    return _predicted(not missing, f"{what} {ctx.g.label(missing[0])} not loop-central" if missing else None)


def _check_second_center(ctx: CheckContext) -> Outcome:
    if not ctx.metabelian:
        return _skipped("only predicted for metabelian groups")
    return _check_center_containment(ctx, 2, "second-center")


def _check_class3(ctx: CheckContext) -> Outcome:
    cls = ctx.nilpotency_class
    if cls != 3:
        return _skipped(f"nilpotency class is {cls if cls is not None else 'not nilpotent'}")
    zeta2, lc = ctx.upper_centers[2], ctx.circ.center
    if set(zeta2) != set(lc):
        return _predicted(False, f"|second center|={len(zeta2)} but |loop center|={len(lc)}")
    quotient, _ = quotient_loop(ctx.circ)
    assoc, w = quotient.is_associative()
    commutative = quotient.commutativity is None
    quotient_cls = loop_nilpotency_class(quotient)  # the circ loop's class is one more
    loop_cls = None if quotient_cls is None else quotient_cls + 1
    ok = assoc and commutative and loop_cls == 2
    return _predicted(ok, None if ok else (f"quotient associative={assoc} "
                                           f"commutative={commutative} loop-class={loop_cls}"))


def _check_automorphic(ctx: CheckContext) -> Outcome:
    g = ctx.g
    automorphic, w = ctx.circ.automorphic
    # predicted by the paper's theorem for split metabelian groups: an sd_spec
    # is one, as SemidirectSpec refuses a non-abelian H or F, so G' <= H is
    # abelian; and for class <= 2, where the loop is an abelian group.
    # Conjectural otherwise, whatever the subject's spec string says
    cls = ctx.nilpotency_class
    expected = "pass" if (g.sd_spec is not None or (cls is not None and cls <= 2)) else None
    return ("pass" if automorphic else "fail"), expected, witness_str(ctx.circ, w)


def _check_closed_forms(ctx: CheckContext) -> Outcome:
    g = ctx.g
    if g.sd_spec is None:
        return _skipped("subject was not built as a split extension")
    forms = SdForms(g.sd_spec)
    t, xs = ctx.circ.tbl, np.arange(g.order)
    for what, closed, engine in (("inverse", forms.inverse_table(), g.inverse),
                                 ("square root", forms.sqrt_table(), g.sqrt_table)):
        if not (closed == engine).all():
            return _predicted(False, f"{what} differs at {g.label(int(np.argmin(closed == engine)))}")
    # each table holds the rows of the x of one F-part f, from x = f nH on, and is dropped
    # before the next is built; a closed-form entry c at (x, y) is x \ y exactly when x o c = y
    for what, table, agrees in (("commutator", forms.commutator_table, lambda r, c: c == g.commutator(xs[r, None], xs)),
                                ("circ product", forms.circ_table, lambda r, c: c == t[r]),
                                ("circ division", forms.ldiv_table, lambda r, c: ctx.circ.rule(xs[r, None], c) == xs)):
        for f in range(forms.nF):
            lo, closed = f * forms.nH, table(f)
            w = first_false_rows(forms.nH, lambda r: agrees(slice(lo + r.start, lo + r.stop), closed[r]), g.order)
            if w is not None:
                return _predicted(False, f"{what} differs at {witness_str(g, (lo + w[0], w[1]))}")
            del closed
    w = _lmap_witness(ctx.circ, forms.lxy_table, forms.nH, ctx.circ.automorphic[0])
    if w is not None:
        return _predicted(False, f"inner L-map differs at {witness_str(g, w[:2])} on {g.label(w[2])}")
    return _predicted(True)


def _lmap_witness(q: Loop, lxy, nH: int, automorphic: bool) -> tuple[int, int, int] | None:
    """Least (x, y, u) with lxy(x // nH, y // nH)[y % nH, u] != L_{x,y}(u) in q, or None.

    If every inner mapping of q is an automorphism, two L maps that agree on
    q.generators are equal: the points where two automorphisms agree are
    closed under products and hold 0, which automorphisms fix, so they hold
    the closure of 0 under right products with the generators, all of q.
    So the maps of the first x of each block of nH are compared whole, and
    those of every other x only on q.generators.  Any difference, or a q
    that is not automorphic, runs the comparison of every x whole, which
    gives the least witness.
    """
    if automorphic and _lmap_scan(q, lxy, nH, q.generators) is None:
        return None
    return _lmap_scan(q, lxy, nH)


def _lmap_scan(q: Loop, lxy, nH: int, gens: np.ndarray | None = None) -> tuple[int, int, int] | None:
    """The first (x, y, u) with lxy(x // nH, y // nH)[y % nH, u] != L_{x,y}(u),
    comparing every u for the first x of each block, and for every x if gens
    is None; else only the u in gens (then u indexes gens).  The first x reads
    one block of rows of y at a time, the other x their columns us.  An image
    v is L_{x,y}(u) exactly when (yx) v = y (xu), so no division is formed."""
    t, xs = q.tbl, np.arange(q.n)
    agrees = lambda x, r, images, us: q.rule(t[r, x, None], images) == q.rule(xs[r, None], t[x].take(us))
    for f in range(q.n // nH):
        x0, us = f * nH, xs if gens is None else gens
        table = np.empty((q.n, len(us)), dtype=t.dtype)  # columns us of every row
        for lo in range(0, q.n, nH):
            rows = lxy(f, lo // nH)
            w = first_false_rows(nH, lambda r: agrees(x0, slice(lo + r.start, lo + r.stop), rows[r], xs), q.n)
            if w is not None:
                return x0, lo + w[0], w[1]
            table[lo:lo + nH] = rows[:, us]
            del rows  # before the next rows are built
        for x in range(x0 + 1, x0 + nH):
            w = first_false_rows(q.n, lambda r: agrees(x, r, table[r], us), len(us))
            if w is not None:
                return x, *w
        del table  # before the next block's table is built
    return None


# The check registry, in report order: (id, claim, group-only, function).
_CHECKS = (
    ("group-laws",
     "multiplication table satisfies associativity, identity, and inverse laws",
     True, _check_group_laws),
    ("uniquely-2-divisible",
     "squaring is a bijection (equivalently, the order is odd)",
     True, _check_u2d),
    ("commutator-identities",
     "commutator expansion identities and the telescoping triple product hold",
     True, _check_commutator_identities),
    ("metabelian-commutator-identities",
     "commutator roots slide out of brackets and rotated triples cancel",
     True, _check_metabelian_identities),
    ("circ-loop-gamma-axioms",
     "circ table is a commutative loop with automorphic inverses, "
     "commuting inverse translations, and the P-map identity",
     False, _check_gamma_axioms),
    ("power-coincidence",
     "powers in the group coincide with powers in both constructed loops",
     False, _check_power_coincidence),
    ("baer-class2-associativity",
     "circ table is associative exactly when the nilpotency class is at most 2",
     False, _check_baer),
    ("moufang-iff-2-engel",
     "circ table is Moufang exactly when the group is 2-Engel, "
     "and equals the oplus table exactly then",
     False, _check_moufang),
    ("oplus-left-bruck",
     "oplus table is a left Bruck loop",
     False, _check_oplus_bruck),
    ("correspondence-roundtrip",
     "variety translations are mutual inverses on the constructed loops "
     "and carry circ onto oplus",
     False, _check_correspondence),
    ("center-containment",
     "every central group element is central in the circ loop",
     False, _check_center_containment),
    ("second-center-containment",
     "second upper-center elements are central in the circ loop",
     False, _check_second_center),
    ("class3-center-equality",
     "for class-3 groups, the circ-loop center equals the second upper "
     "center and the central quotient is an abelian group (loop class 2)",
     False, _check_class3),
    ("automorphic-inner-mappings",
     "every inner mapping of the circ loop is an automorphism of it",
     False, _check_automorphic),
    ("closed-form-agreement",
     "split-extension closed forms for inverse, square root, commutator, "
     "circ product, circ division, and inner L-maps agree with the table "
     "engine pointwise",
     False, _check_closed_forms),
)

CHECK_IDS = [cid for cid, _, _, _ in _CHECKS]
CLAIMS = {cid: claim for cid, claim, _, _ in _CHECKS}
GROUP_ONLY_CHECKS = tuple(cid for cid, _, group_only, _ in _CHECKS if group_only)
# looked up by run_check at call time, so its entries can be wrapped from outside
_CHECK_FUNCS = {cid: fn for cid, _, _, fn in _CHECKS}


def run_checks(g: Group, selected: list[str] | None = None,
               force_exhaustive: bool = False, env: dict | None = None) -> Report:
    """Run the selected (default: all applicable) checks and build a report."""
    ids = selected or CHECK_IDS
    for cid in ids:
        if cid not in _CHECK_FUNCS:
            raise GammaForgeError(f"unknown check id {cid!r} (known: {', '.join(CHECK_IDS)})")
    ctx = CheckContext(g, force_exhaustive=force_exhaustive)
    report = Report(
        subject=g.source_spec or g.name,
        order=g.order,
        environment={"exhaustive": force_exhaustive, **(env or {})},
    )
    for cid in ids:
        if cid not in GROUP_ONLY_CHECKS and ctx.skip_reason:
            report.checks.append(CheckResult(cid, CLAIMS[cid], "skipped",
                                             witness=ctx.skip_reason))
        else:
            report.checks.append(run_check(ctx, cid))
    return report
