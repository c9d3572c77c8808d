"""The benchmark's workloads: inputs made from a seed, the operations of one
round, and the reduction of each operation's output to a summary that does
not depend on the seed, so it can be compared with a stored reference.

Every operation is one ``gamma-forge`` command in a fresh process.  A round is
the workload's fixed list of operations; the seed only chooses the verify
prescreen probes and the relabelings of the tables-io inputs.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# verify-class3-729 leaves out class3-center-equality: it alone takes about
# 21 s at order 729 (four loop_center scans), which would push one run of the
# workload past the run-time budget of the whole benchmark.
CLASS3_CHECKS = (
    "group-laws", "uniquely-2-divisible", "commutator-identities",
    "metabelian-commutator-identities", "circ-loop-gamma-axioms",
    "power-coincidence", "baer-class2-associativity", "moufang-iff-2-engel",
    "oplus-left-bruck", "correspondence-roundtrip", "center-containment",
    "second-center-containment", "automorphic-inner-mappings",
    "closed-form-agreement",
)


class Mismatch(Exception):
    """An operation's output differs from its reference."""


@dataclass(frozen=True)
class Op:
    key: str          # names the operation in the reference file
    kind: str         # verify | survey | import | convert
    args: tuple       # gamma-forge command-line arguments


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    full: dict        # size parameters of the measured inputs
    smoke: dict       # tiny inputs for the smoke mode


WORKLOADS = {w.name: w for w in (
    Workload("verify-split-155",
             "verify sd:31:5:2: the inner-mapping scan and the Bruck-Gamma "
             "roundtrip dominate; group construction is cheap",
             {"spec": "sd:31:5:2"}, {"spec": "sd:7:3:2"}),
    Workload("verify-class3-729",
             "verify ut:4:3: n^2 loop scans, loop centers and the order-729 "
             "build; the inner-mapping scan only prescreens",
             {"spec": "ut:4:3"}, {"spec": "wr:3"}),
    Workload("survey-desk-81",
             "survey 3..81: many small groups, so catalog start-up and "
             "per-row overhead dominate",
             {"orders": "3..81"}, {"orders": "3..27"}),
    Workload("tables-io",
             "import and convert of relabeled .tbl files: the only workload "
             "that reads and writes tables and verifies groups from files",
             {"ut": (4, 3), "sd": (31, 5, 2)}, {"ut": (3, 3), "sd": (7, 3, 2)}),
)}


# ---------------------------------------------------------------------------
# Inputs


def unitriangular_table(k: int, p: int) -> np.ndarray:
    """Product table of k x k upper unitriangular matrices over GF(p).

    Element index = sum of entry_t * p**t over the above-diagonal positions,
    so the identity matrix is index 0.
    """
    pos = [(i, j) for i in range(k) for j in range(i + 1, k)]
    n = p ** len(pos)
    digits = (np.arange(n)[:, None] // p ** np.arange(len(pos))) % p
    mats = np.tile(np.eye(k, dtype=np.int64), (n, 1, 1))
    for t, (i, j) in enumerate(pos):
        mats[:, i, j] = digits[:, t]
    weights = p ** np.arange(len(pos))
    rows, cols = zip(*pos)
    table = np.empty((n, n), dtype=np.int32)
    for x in range(n):
        prod = (mats[x] @ mats) % p
        table[x] = prod[:, rows, cols] @ weights
    return table


def semidirect_table(q: int, p: int, a: int) -> np.ndarray:
    """Product table of Z_q extended by Z_p, the generator acting as h -> a*h.

    Element (h, f) has index f*q + h; (h1,f1)(h2,f2) = (h1 + a^f1 h2, f1 + f2).
    """
    if pow(a, p, q) != 1:
        raise ValueError(f"a={a} does not have order dividing {p} modulo {q}")
    n = q * p
    u = np.arange(n)
    h, f = u % q, u // q
    act = np.array([pow(a, int(e), q) for e in range(p)])
    hh = (h[:, None] + act[f][:, None] * h[None, :]) % q
    ff = (f[:, None] + f[None, :]) % p
    return (ff * q + hh).astype(np.int32)


def relabeling(n: int, rng: np.random.Generator) -> np.ndarray:
    """A random permutation pi of 0..n-1 that moves the identity (pi[0] != 0)."""
    pi = rng.permutation(n)
    if pi[0] == 0:
        pi[[0, 1]] = pi[[1, 0]]
    return pi


def relabel(table: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """The table with element x renamed pi[x]."""
    out = np.empty_like(table)
    out[np.ix_(pi, pi)] = pi[table]
    return out


def write_tbl(path: Path, name: str, table: np.ndarray) -> None:
    lines = [f"# name: {name}", str(table.shape[0])]
    lines += [" ".join(map(str, row)) for row in table.tolist()]
    path.write_text("\n".join(lines) + "\n")


def read_tbl(text: str) -> tuple[list[str], np.ndarray]:
    """(comment lines, table) of .tbl text, parsed independently of the program."""
    header = [line for line in text.splitlines() if line.startswith("#")]
    body = [line for line in text.splitlines() if line.strip() and not line.startswith("#")]
    n = int(body[0])
    table = np.array([row.split() for row in body[1:n + 1]], dtype=np.int32)
    if table.shape != (n, n):
        raise Mismatch(f"table shape {table.shape}, expected {(n, n)}")
    return header, table


def table_digest(table: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(table, dtype="<i4").tobytes()).hexdigest()


# ---------------------------------------------------------------------------
# Rounds


def prepare(workload: Workload, seed: int, workdir: Path, smoke: bool) -> tuple[list[Op], dict]:
    """Write the inputs into workdir; return the round's ops and their context."""
    size = workload.smoke if smoke else workload.full
    seed_args = ("--seed", str(seed))
    if workload.name == "verify-split-155":
        return [Op("verify", "verify", ("verify", size["spec"], "--format", "json")
                   + seed_args)], {}
    if workload.name == "verify-class3-729":
        return [Op("verify", "verify", ("verify", size["spec"], "--format", "json",
                                        "--checks", ",".join(CLASS3_CHECKS)) + seed_args)], {}
    if workload.name == "survey-desk-81":
        return [Op("survey", "survey", ("survey", "--orders", size["orders"],
                                        "--format", "json") + seed_args)], {}
    rng = np.random.default_rng(seed)
    ctx = {"pi": {}}
    for stem, table in (("A", unitriangular_table(*size["ut"])),
                        ("B", semidirect_table(*size["sd"]))):
        pi = relabeling(table.shape[0], rng)
        ctx["pi"][f"{stem}.tbl"] = pi
        write_tbl(workdir / f"{stem}.tbl", stem, relabel(table, pi))
    ops = [
        Op("import:A", "import", ("import", "A.tbl")),
        Op("import:B", "import", ("import", "B.tbl")),
        Op("circ:A", "convert", ("convert", "A.tbl", "--direction", "circ",
                                 "--out", "A.circ.tbl")),
        Op("circ:B", "convert", ("convert", "B.tbl", "--direction", "circ",
                                 "--out", "B.circ.tbl")),
        Op("bruck:B", "convert", ("convert", "B.circ.tbl", "--direction", "gamma-to-bruck",
                                  "--out", "B.bruck.tbl")),
    ]
    return ops, ctx


def start_round(ops: list[Op], workdir: Path) -> None:
    """Remove the previous round's outputs, so every round must write its own."""
    for op in ops:
        if op.kind == "convert":
            (workdir / op.args[op.args.index("--out") + 1]).unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# Summaries: what of an output is compared, with the seed taken out


def summarize(op: Op, stdout: str, code: int, workdir: Path, ctx: dict) -> dict:
    """The seed-independent part of one op's result."""
    if op.kind == "verify":
        d = json.loads(stdout)
        return {"exit": code, "subject": d["subject"], "order": d["order"],
                "consistent": d["consistent"],
                "checks": [{k: c[k] for k in ("id", "verdict", "expected", "witness")}
                           for c in d["checks"]]}
    if op.kind == "survey":
        return {"exit": code, "stdout": stdout}
    if op.kind == "import":
        return {"exit": code, "stdout": _import_text(op.args[1], stdout, ctx)}
    return _convert_summary(op, stdout, code, workdir, ctx)


_RELABELING = re.compile(r"\(relabeling (\[[0-9, ]*\])\)")


def _import_text(path: str, stdout: str, ctx: dict) -> str:
    """Import output with the printed relabeling checked and replaced.

    The relabeling must move the file's identity, pi[0], to index 0; it is
    remembered so the convert ops can map their outputs back.
    """
    m = _RELABELING.search(stdout)
    if m is None:
        raise Mismatch(f"import {path}: no relabeling reported")
    sigma = np.array(json.loads(m.group(1)))
    pi = ctx["pi"][path]
    if sorted(sigma.tolist()) != list(range(len(pi))) or sigma[pi[0]] != 0:
        raise Mismatch(f"import {path}: relabeling does not move the identity to 0")
    ctx.setdefault("sigma", {})[path] = sigma
    return stdout[:m.start(1)] + "<identity to 0>" + stdout[m.end(1):]


def _labeling(path: str, ctx: dict) -> np.ndarray:
    """Map from canonical element to its index in the program's tables for a
    table read from ``path``: relabeled by pi on write, by sigma on import."""
    if path.endswith(".circ.tbl"):
        return ctx["rho"][path]
    if path not in ctx.get("sigma", {}):
        raise Mismatch(f"{path}: its import op did not report a relabeling")
    return ctx["sigma"][path][ctx["pi"][path]]


def _convert_summary(op: Op, stdout: str, code: int, workdir: Path, ctx: dict) -> dict:
    src, out = op.args[1], op.args[op.args.index("--out") + 1]
    rho = _labeling(src, ctx)
    header, table = read_tbl((workdir / out).read_text())
    if table.shape[0] != len(rho):
        raise Mismatch(f"{out}: order {table.shape[0]}, expected {len(rho)}")
    ctx.setdefault("rho", {})[out] = rho
    inverse = np.argsort(rho)
    canonical = inverse[table[np.ix_(rho, rho)]]
    return {"exit": code, "stdout": stdout, "header": header,
            "sha256": table_digest(canonical)}


# ---------------------------------------------------------------------------
# Comparison with the reference


def mismatch(summary: dict, ref: dict) -> str | None:
    """Why a summary differs from its reference, or None when it matches.

    A reference verdict that is not exhaustive (``inconclusive``, or a
    ``pass`` from sampled triples) also accepts an exhaustive ``pass``: that
    is a stronger verdict, not a changed one.  Any other difference fails.
    """
    if "checks" not in ref:
        for k in ref:
            if summary.get(k) != ref[k]:
                return f"{k} differs from the reference"
        return None
    for k in ("exit", "subject", "order", "consistent"):
        if summary[k] != ref[k]:
            return f"{k} is {summary[k]!r}, reference {ref[k]!r}"
    got = [c["id"] for c in summary["checks"]]
    want = [c["id"] for c in ref["checks"]]
    if got != want:
        return f"check ids {got} differ from the reference {want}"
    for c, r in zip(summary["checks"], ref["checks"]):
        if c["expected"] != r["expected"]:
            return f"{c['id']}: expected is {c['expected']!r}, reference {r['expected']!r}"
        if (c["verdict"], c["witness"]) == (r["verdict"], r["witness"]):
            continue
        if not exhaustive_verdict(r) and c["verdict"] == "pass" and exhaustive_verdict(c):
            continue
        if r["verdict"] == "inconclusive" and c["verdict"] == "inconclusive":
            continue
        return (f"{c['id']}: {c['verdict']} ({c['witness']}), reference "
                f"{r['verdict']} ({r['witness']})")
    return None


def exhaustive_verdict(check: dict) -> bool:
    """Whether a verify check's verdict came from an exhaustive scan."""
    return check["verdict"] != "inconclusive" and \
        not str(check["witness"] or "").startswith("sampled ")


def verdict_counts(op: Op, summary: dict) -> tuple[int, int]:
    """(exhaustive verdicts, non-skipped verdicts) in one op's summary."""
    if op.kind == "verify":
        done = [c for c in summary["checks"] if c["verdict"] != "skipped"]
        return sum(exhaustive_verdict(c) for c in done), len(done)
    if op.kind == "survey":
        rows = [r for r in json.loads(summary["stdout"])["rows"] if not r["skipped"]]
        verdicts = [v for r in rows for v in r["circ"].values()]
        inexact = sum(str(v).startswith("prescreen") for v in verdicts)
        return len(verdicts) - inexact, len(verdicts)
    if op.kind == "import":
        return 1, 1  # the exhaustive associativity scan
    return 0, 0


def load_reference(workload: Workload, smoke: bool) -> dict:
    suffix = ".smoke.json" if smoke else ".json"
    return json.loads((REFERENCE_DIR / f"{workload.name}{suffix}").read_text())
