"""Record the reference outputs the benchmark checks every operation against.

    python3 perfbench/make_reference.py

Runs one round of each workload at seed 0, full size and smoke size, and
writes the seed-independent summaries to perfbench/reference/.  The stored
references were taken from the program before any performance work; run this
again only for an output change that is intended and recorded, never to make
a failing benchmark pass.
"""

import json
import sys

import run
import workloads as wl


def record_reference(name: str, smoke: bool) -> dict:
    """One round at seed 0, with the summary of every op."""
    record: dict = {}
    with run.scratch_dir(f"ref-{name}") as workdir:
        ops, ctx = wl.prepare(wl.WORKLOADS[name], 0, workdir, smoke)
        r = run.run_round(ops, ctx, None, workdir, traced=False, record=record)
    if r.failed:
        raise SystemExit(f"{name}: an op failed while recording the reference")
    return record


def main() -> int:
    if not (run.ROOT / "src" / "gamma_forge" / "cli.py").is_file():
        print("error: run from the root of a gamma-forge checkout", file=sys.stderr)
        return 2
    wl.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in wl.WORKLOADS:
        for smoke in (False, True):
            record = record_reference(name, smoke)
            path = wl.REFERENCE_DIR / f"{name}{'.smoke' if smoke else ''}.json"
            path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
