"""The pinned builtin group catalog and the conjecture survey.

The catalog covers abelian groups, class-2 and class-3 p-groups, nonnilpotent
metabelian split extensions, and one order-729 metabelian specimen of class 3.
The survey walks a catalog slice (or a directory of .tbl files), computes one
row per group, and raises a flag on any row violating the metabelian <=>
automorphic biconditional in either direction; every verdict behind a flag
is exhaustive.
"""

from __future__ import annotations

from pathlib import Path

from .core import GammaForgeError
from .groups import Group, construct, from_file
from .checks import CheckContext
from .loops import is_moufang, witness_str
from .report import SurveyRow

# each spec with its group order, so a survey slice builds only the groups it keeps
CATALOG_SPECS: dict[str, int] = {
    "cyclic:3": 3, "cyclic:5": 5, "cyclic:7": 7, "cyclic:9": 9, "cyclic:27": 27,
    "dp:cyclic:3,cyclic:3": 9,
    "dp:cyclic:3,cyclic:5": 15,
    "dp:cyclic:3,cyclic:7": 21,
    "dp:cyclic:5,cyclic:5": 25,
    "dp:cyclic:3,cyclic:9": 27,
    "dp:cyclic:3,cyclic:3,cyclic:3": 27,
    "dp:cyclic:3,cyclic:27": 81,
    "dp:cyclic:9,cyclic:9": 81,
    "dp:cyclic:3,cyclic:3,cyclic:9": 81,
    "sd:7:3:2": 21, "sd:7:3:4": 21, "sd:13:3:3": 39, "sd:11:5:3": 55, "sd:31:5:2": 155,
    "heis:3": 27, "heis:5": 125,
    "wr:3": 81,
    "ut:4:3": 729,
}


def survey_row(g: Group) -> SurveyRow:
    """One survey row; loop columns are filled only for odd-order groups."""
    ctx = CheckContext(g)
    row = SurveyRow(spec=g.source_spec or g.name, order=g.order, skipped=ctx.skip_reason)
    row.uniquely_2_divisible = ctx.uniquely_2_divisible
    if row.skipped:
        return row
    row.nilpotency_class = ctx.nilpotency_class
    row.metabelian = ctx.metabelian
    row.two_engel, ew = ctx.two_engel
    row.circ_is_loop = True  # validated at construction
    row.circ_gamma = ctx.circ.gamma_axioms.all_hold
    row.circ_associative, aw = ctx.circ.is_associative()
    row.circ_moufang, mw = is_moufang(ctx.circ)
    for key, subject, w in (("two-engel", g, ew), ("associativity", ctx.circ, aw),
                            ("moufang", ctx.circ, mw)):
        if w is not None:
            row.witnesses[key] = witness_str(subject, w)

    verdict = ctx.circ.automorphic
    row.circ_automorphic = verdict.status
    if not verdict.is_true:
        k, *args = verdict.witness
        labels = ",".join(ctx.circ.label(v) if v >= 0 else "-" for v in args)
        row.witnesses["automorphic"] = f"{k}({labels})"
    if row.metabelian != verdict.is_true:
        row.flag = "CONJECTURE-COUNTEREXAMPLE"
    return row


def run_survey(lo: int = 3, hi: int = 81,
               source_dir: str | Path | None = None) -> tuple[list[SurveyRow], dict]:
    """Survey rows over the builtin slice or a directory of .tbl files."""
    rows: list[SurveyRow] = []
    if source_dir is None:
        subjects: list[tuple[str, Group | None, str | None]] = [
            (spec, construct(spec), None) for spec, order in CATALOG_SPECS.items()
            if lo <= order <= hi]
    elif not Path(source_dir).is_dir():
        raise GammaForgeError(f"survey source {source_dir} is not a directory")
    else:
        subjects = []
        for path in sorted(Path(source_dir).glob("*.tbl")):
            try:
                g = from_file(path)
                if lo <= g.order <= hi:
                    subjects.append((f"file:{path.name}", g, None))
            except GammaForgeError as exc:
                subjects.append((f"file:{path.name}", None, str(exc)))
    for spec, g, err in subjects:
        if g is None:
            rows.append(SurveyRow(spec=spec, order=0, skipped=f"unreadable: {err}"))
            continue
        row = survey_row(g)
        row.spec = spec
        rows.append(row)
    rows.sort(key=lambda r: (r.order, r.spec))
    flags = sum(1 for r in rows if r.flag)
    summary = {
        "rows": len(rows),
        "skipped": sum(1 for r in rows if r.skipped),
        "metabelian": sum(1 for r in rows if r.metabelian),
        "automorphic-true": sum(1 for r in rows if r.circ_automorphic == "true"),
        "counterexample-flags": flags,
    }
    return rows, summary
