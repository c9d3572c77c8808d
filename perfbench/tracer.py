"""Run one gamma-forge CLI command with timing spans around each layer.

Usage: python3 perfbench/tracer.py SPANS_JSON CLI_ARG...

The spans are recorded from outside the program: before the command runs,
the public functions of each module are replaced by timing wrappers in every
gamma_forge module that binds them (``from .loops import is_automorphic``
makes a copy of the name in ``checks`` and ``catalog``, so each copy is
replaced), methods are wrapped on their class, and the check registry is
wrapped entry by entry.  Nothing under ``src/`` changes.

Each span holds an id, its parent's id, a layer name, a start and an end.
The spans stay in memory and are written to SPANS_JSON when the command
ends, together with a few counters.  ``layer_metrics`` turns one such file
into per-layer self times and call counts.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

# (module, attribute or Class.method, layer).  A layer's self time is the time
# in its spans minus the time in their child spans.
TARGETS = (
    ("groups", "construct", "groups.construct"),
    ("groups", "from_file", "groups.construct"),
    ("groups", "Group._verify", "groups.laws"),
    ("groups", "center", "groups.predicates"),
    ("groups", "upper_central_series", "groups.predicates"),
    ("groups", "lower_central_series", "groups.predicates"),
    ("groups", "derived_series", "groups.predicates"),
    ("groups", "nilpotency_class", "groups.predicates"),
    ("groups", "is_metabelian", "groups.predicates"),
    ("groups", "is_two_engel", "groups.predicates"),
    ("groups", "is_uniquely_2_divisible", "groups.predicates"),
    ("constructions", "circ_loop", "constructions.circ"),
    ("constructions", "oplus_loop", "constructions.oplus"),
    ("constructions", "bruck_from_gamma", "constructions.translate"),
    ("constructions", "gamma_from_bruck", "constructions.translate"),
    ("loops", "is_automorphic", "loops.automorphic"),
    ("loops", "check_gamma_axioms", "loops.axioms"),
    ("loops", "is_left_bruck", "loops.bruck"),
    ("loops", "is_moufang", "loops.moufang"),
    ("loops", "Loop.is_associative", "loops.associative"),
    ("loops", "powers_coincide", "loops.powers"),
    ("loops", "is_power_associative", "loops.powers"),
    ("loops", "loop_center", "loops.center"),
    ("loops", "quotient_loop", "loops.quotient"),
    ("loops", "loop_nilpotency_class", "loops.quotient"),
    ("sdforms", "SdForms.__init__", "sdforms.forms"),
    ("sdforms", "SdForms.inverse_table", "sdforms.forms"),
    ("sdforms", "SdForms.sqrt_table", "sdforms.forms"),
    ("sdforms", "SdForms.commutator_table", "sdforms.forms"),
    ("sdforms", "SdForms.circ_table", "sdforms.forms"),
    ("sdforms", "SdForms.ldiv_table", "sdforms.forms"),
    ("sdforms", "SdForms.lxy_table", "sdforms.forms"),
    ("catalog", "survey_row", "catalog.row"),
    ("tableio", "import_table", "tableio.read"),
    ("tableio", "parse_tbl", "tableio.read"),
    ("tableio", "export_table", "tableio.write"),
    ("tableio", "format_tbl", "tableio.write"),
    ("core", "classify", "core.classify"),
    ("report", "Report.to_json", "report.render"),
    ("report", "Report.to_text", "report.render"),
    ("report", "survey_to_json", "report.render"),
    ("report", "survey_to_text", "report.render"),
)

ROOT_LAYER = "cli"

# layers reported as self seconds, and call counts reported per layer
_TIME_METRICS = [
    "groups.construct", "groups.laws", "groups.predicates",
    "constructions.circ", "constructions.oplus", "constructions.translate",
    "loops.automorphic", "loops.axioms", "loops.bruck", "loops.moufang",
    "loops.associative", "loops.powers", "loops.center", "loops.quotient",
    "sdforms.forms", "catalog.row", "tableio.read", "tableio.write",
    "core.classify", "report.render",
]
_CALL_METRICS = {"loops.automorphic_calls": "loops.automorphic",
                 "loops.center_calls": "loops.center",
                 "catalog.rows": "catalog.row"}

# the check registry of the program, in its order
CHECK_IDS = (
    "group-laws", "uniquely-2-divisible", "commutator-identities",
    "metabelian-commutator-identities", "circ-loop-gamma-axioms",
    "power-coincidence", "baer-class2-associativity", "moufang-iff-2-engel",
    "oplus-left-bruck", "correspondence-roundtrip", "center-containment",
    "second-center-containment", "class3-center-equality",
    "automorphic-inner-mappings", "closed-form-agreement",
)


class Recorder:
    """Spans of one process, kept in memory until the command ends."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.stack: list[int] = [-1]
        self.counters = {"tableio.bytes_read": 0, "tableio.bytes_written": 0}
        self._next = 0

    def wrap(self, fn, layer: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = self.stack[-1]
            self.stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans.append((sid, parent, layer, start, end))
        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def install(rec: Recorder) -> None:
    """Replace every binding of each target in the loaded gamma_forge modules."""
    modules = [m for name, m in sys.modules.items()
               if name == "gamma_forge" or name.startswith("gamma_forge.")]
    for modname, attr, layer in TARGETS:
        mod = importlib.import_module(f"gamma_forge.{modname}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, rec.wrap(vars(cls)[meth], layer))
            continue
        orig = getattr(mod, attr)
        wrapped = rec.wrap(orig, layer)
        if attr == "import_table":
            wrapped = _counting(wrapped, rec, "tableio.bytes_read", 0, after=False)
        elif attr == "export_table":
            wrapped = _counting(wrapped, rec, "tableio.bytes_written", 1, after=True)
        for m in modules:
            for name, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, name, wrapped)
    checks = importlib.import_module("gamma_forge.checks")
    for cid, fn in list(checks._CHECK_FUNCS.items()):
        checks._CHECK_FUNCS[cid] = rec.wrap(fn, f"checks.{cid}")


def _counting(fn, rec: Recorder, counter: str, path_arg: int, after: bool):
    """Add the size of the file named by argument ``path_arg`` to a counter."""
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        path = args[path_arg] if len(args) > path_arg else kwargs.get("path")
        if not after:
            rec.counters[counter] += _file_size(path)
        out = fn(*args, **kwargs)
        if after:
            rec.counters[counter] += _file_size(path)
        return out
    return counted


def span_metric_names() -> list[str]:
    """Every metric ``layer_metrics`` returns, in report order."""
    names = [f"{layer}_s" for layer in _TIME_METRICS]
    names += list(_CALL_METRICS)
    names += ["tableio.bytes_read", "tableio.bytes_written", "checks.self_s"]
    names += [f"checks.{cid}.self_s" for cid in CHECK_IDS]
    names += ["cli.self_s", "process.startup_s", "trace.spans"]
    return names


def layer_metrics(data: dict, wall_s: float) -> dict[str, float]:
    """Self time per layer, call counts and counters from one spans file of a
    process that ran for wall_s seconds."""
    spans = data["spans"]
    child_time: dict[int, float] = {}
    for _sid, parent, _layer, start, end in spans:
        child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for sid, _parent, layer, start, end in spans:
        self_s[layer] = self_s.get(layer, 0.0) + (end - start) - child_time.get(sid, 0.0)
        calls[layer] = calls.get(layer, 0) + 1
    out = {f"{layer}_s": self_s.get(layer, 0.0) for layer in _TIME_METRICS}
    for name, layer in _CALL_METRICS.items():
        out[name] = calls.get(layer, 0)
    out.update(data["counters"])
    per_check = {cid: self_s.get(f"checks.{cid}", 0.0) for cid in CHECK_IDS}
    out["checks.self_s"] = sum(per_check.values())
    for cid, value in per_check.items():
        out[f"checks.{cid}.self_s"] = value
    out["cli.self_s"] = self_s.get(ROOT_LAYER, 0.0)
    # interpreter start, imports and exit: the process outside the root span
    out["process.startup_s"] = wall_s - sum(
        end - start for _sid, parent, _layer, start, end in spans if parent == -1)
    out["trace.spans"] = len(spans)
    return out


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    cli = importlib.import_module("gamma_forge.cli")
    rec = Recorder()
    install(rec)
    try:
        return rec.wrap(cli.main, ROOT_LAYER)(cli_args)
    finally:
        rec.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
