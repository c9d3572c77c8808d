"""Report and survey-row structures with text and JSON rendering.

Reports are deterministic: iteration orders are fixed and witnesses are
lexicographically least, so re-running reproduces the output byte-for-byte
apart from the timing fields.  Survey output carries no timing at all and is
fully byte-deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

FORMAT_VERSION = "1"


@dataclass
class CheckResult:
    check_id: str
    claim: str
    verdict: str  # "pass" | "fail" | "skipped"
    expected: str | None = None  # paper-predicted verdict, None when no prediction
    witness: str | None = None
    timing_ms: float = 0.0

    @property
    def inconsistent(self) -> bool:
        """A hard mismatch against a predicted outcome."""
        if self.expected is None or self.verdict == "skipped":
            return False
        return self.verdict != self.expected


@dataclass
class Report:
    subject: str
    order: int
    environment: dict
    checks: list[CheckResult] = field(default_factory=list)
    format_version: str = FORMAT_VERSION

    @property
    def verified(self) -> bool:  # some selected check ran rather than being skipped
        return any(c.verdict != "skipped" for c in self.checks)

    @property
    def consistent(self) -> bool:
        return self.verified and not any(c.inconsistent for c in self.checks)

    def to_json(self) -> str:
        payload = {
            "format_version": self.format_version,
            "subject": self.subject,
            "order": self.order,
            "environment": self.environment,
            "consistent": self.consistent,
            "checks": [
                {
                    "id": c.check_id,
                    "claim": c.claim,
                    "verdict": c.verdict,
                    "expected": c.expected,
                    "witness": c.witness,
                    "timing_ms": round(c.timing_ms, 3),
                }
                for c in self.checks
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def to_text(self) -> str:
        lines = [f"subject: {self.subject} (order {self.order})"]
        for k in sorted(self.environment):
            lines.append(f"  env {k}: {self.environment[k]}")
        for c in self.checks:
            mark = {"pass": "ok", "fail": "FAIL", "skipped": "--"}[c.verdict]
            exp = f" expected={c.expected}" if c.expected is not None and c.verdict != c.expected else ""
            wit = f" witness={c.witness}" if c.witness else ""
            lines.append(f"[{mark:4}] {c.check_id}: {c.claim}{exp}{wit} ({c.timing_ms:.0f} ms)")
        lines.append("nothing verified: every selected check was skipped" if not self.verified
                     else "consistent" if self.consistent
                     else "INCONSISTENT with predicted outcomes")
        return "\n".join(lines) + "\n"


@dataclass
class SurveyRow:
    spec: str
    order: int
    skipped: str | None = None
    uniquely_2_divisible: bool | None = None
    nilpotency_class: int | None = None  # None = not nilpotent (when not skipped)
    metabelian: bool | None = None
    two_engel: bool | None = None
    circ_is_loop: bool | None = None
    circ_gamma: bool | None = None
    circ_associative: bool | None = None
    circ_moufang: bool | None = None
    circ_automorphic: str | None = None  # "true" | "false"
    witnesses: dict = field(default_factory=dict)
    flag: str | None = None

    def as_dict(self) -> dict:
        cls = "skipped" if self.skipped else (
            "not nilpotent" if self.nilpotency_class is None else self.nilpotency_class)
        return {
            "spec": self.spec,
            "order": self.order,
            "skipped": self.skipped,
            "uniquely_2_divisible": self.uniquely_2_divisible,
            "nilpotency_class": cls,
            "metabelian": self.metabelian,
            "two_engel": self.two_engel,
            "circ": {
                "loop": self.circ_is_loop,
                "gamma": self.circ_gamma,
                "associative": self.circ_associative,
                "moufang": self.circ_moufang,
                "automorphic": self.circ_automorphic,
            },
            "witnesses": {k: str(v) for k, v in sorted(self.witnesses.items())},
            "flag": self.flag,
        }


def survey_to_json(rows: list[SurveyRow], summary: dict) -> str:
    payload = {
        "format_version": FORMAT_VERSION,
        "rows": [r.as_dict() for r in rows],
        "summary": summary,
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def survey_to_text(rows: list[SurveyRow], summary: dict) -> str:
    head = (f"{'spec':34} {'order':>5} {'u2d':>4} {'class':>6} {'metab':>5} "
            f"{'2En':>4} {'loop':>4} {'gam':>4} {'asc':>4} {'mou':>4} automorphic")
    lines = [head, "-" * len(head)]
    fmt_b = lambda v: "-" if v is None else ("y" if v else "n")
    for r in rows:
        if r.skipped:
            lines.append(f"{r.spec:34} {r.order:>5} skipped: {r.skipped}")
            continue
        cls = "notnil" if r.nilpotency_class is None else str(r.nilpotency_class)
        line = (f"{r.spec:34} {r.order:>5} {fmt_b(r.uniquely_2_divisible):>4} {cls:>6} "
                f"{fmt_b(r.metabelian):>5} {fmt_b(r.two_engel):>4} {fmt_b(r.circ_is_loop):>4} "
                f"{fmt_b(r.circ_gamma):>4} {fmt_b(r.circ_associative):>4} "
                f"{fmt_b(r.circ_moufang):>4} {r.circ_automorphic}")
        if r.flag:
            line += f"  << {r.flag}"
        lines.append(line)
    lines.append("")
    for k in sorted(summary):
        lines.append(f"{k}: {summary[k]}")
    return "\n".join(lines) + "\n"
