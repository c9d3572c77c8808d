"""Self-tests of the benchmark: the reference checker, the relabeling map, the
metric lists against BENCHMARK.json, and a smoke run of every workload.

    python3 perfbench/selftest.py        # from the root of a checkout
"""

from __future__ import annotations

import copy
import json
import sys
import unittest

import numpy as np

import run
import workloads as wl


def _reference(name: str) -> dict:
    return wl.load_reference(wl.WORKLOADS[name], smoke=False)


def _check(summary: dict, check_id: str) -> dict:
    return next(c for c in summary["checks"] if c["id"] == check_id)


class CheckerTest(unittest.TestCase):
    def setUp(self):
        self.split = _reference("verify-split-155")["verify"]
        self.class3 = _reference("verify-class3-729")["verify"]

    def test_reference_matches_itself(self):
        self.assertIsNone(wl.mismatch(copy.deepcopy(self.split), self.split))

    def test_flipped_verdict_fails(self):
        got = copy.deepcopy(self.split)
        _check(got, "oplus-left-bruck")["verdict"] = "fail"
        self.assertIsNotNone(wl.mismatch(got, self.split))

    def test_changed_witness_fails(self):
        got = copy.deepcopy(self.split)
        _check(got, "baer-class2-associativity")["witness"] = \
            "nonassociative at ((1,0),(0,1),(0,2))"
        self.assertIsNotNone(wl.mismatch(got, self.split))

    def test_exit_code_and_missing_check_fail(self):
        got = copy.deepcopy(self.split)
        got["exit"] = 1
        self.assertIsNotNone(wl.mismatch(got, self.split))
        got = copy.deepcopy(self.split)
        got["checks"].pop()
        self.assertIsNotNone(wl.mismatch(got, self.split))

    def test_inconclusive_accepts_exhaustive_pass_only(self):
        got = copy.deepcopy(self.class3)
        c = _check(got, "automorphic-inner-mappings")
        c["verdict"], c["witness"] = "pass", None
        self.assertIsNone(wl.mismatch(got, self.class3))
        c["verdict"], c["witness"] = "fail", "('L', 1, 2, 3, 4)"
        self.assertIsNotNone(wl.mismatch(got, self.class3))

    def test_sampled_pass_accepts_exhaustive_pass(self):
        got = copy.deepcopy(self.split)
        _check(got, "commutator-identities")["witness"] = None
        self.assertIsNone(wl.mismatch(got, self.split))

    def test_one_byte_survey_change_fails(self):
        ref = _reference("survey-desk-81")["survey"]
        text = ref["stdout"]
        i = text.index('"automorphic": "true"') + len('"automorphic": "t')
        got = dict(ref, stdout=text[:i] + "R" + text[i + 1:])
        self.assertIsNotNone(wl.mismatch(got, ref))
        self.assertIsNone(wl.mismatch(dict(ref), ref))

    def test_exhaustive_share_counts(self):
        op = wl.Op("verify", "verify", ())
        self.assertEqual(wl.verdict_counts(op, self.split), (12, 14))
        self.assertEqual(wl.verdict_counts(op, self.class3), (9, 12))


class RelabelingTest(unittest.TestCase):
    def test_harness_tables_are_groups_with_identity_zero(self):
        for table in (wl.unitriangular_table(3, 3), wl.semidirect_table(7, 3, 2)):
            n = table.shape[0]
            self.assertTrue((table[0] == np.arange(n)).all())
            self.assertTrue((table[:, 0] == np.arange(n)).all())
            for x in range(n):
                self.assertTrue((table[table[x], :] == table[x][table]).all())

    def test_relabeling_moves_identity_and_round_trips(self):
        table = wl.semidirect_table(7, 3, 2)
        for seed in range(20):
            pi = wl.relabeling(21, np.random.default_rng(seed))
            self.assertNotEqual(pi[0], 0)
            moved = wl.relabel(table, pi)
            back = np.argsort(pi)[moved[np.ix_(pi, pi)]]
            self.assertTrue((back == table).all())

    def test_program_output_maps_back_through_both_relabelings(self):
        """A table written in the import's labeling hashes like the original."""
        table = wl.unitriangular_table(3, 3)
        pi = wl.relabeling(27, np.random.default_rng(5))
        e = int(pi[0])
        sigma = list(range(27))
        sigma[0], sigma[e] = e, 0
        ctx = {"pi": {"A.tbl": pi}}
        imp = wl.Op("import:A", "import", ("import", "A.tbl"))
        conv = wl.Op("circ:A", "convert", ("convert", "A.tbl", "--direction", "circ",
                                           "--out", "A.circ.tbl"))
        text = (f"imported A.tbl: n=27\nidentity relabeled to index 0 "
                f"(relabeling {sigma})\nlatin=True loop=True\n")
        with run.scratch_dir("selftest") as workdir:
            got = wl.summarize(imp, text, 0, workdir, ctx)
            self.assertIn("<identity to 0>", got["stdout"])
            rho = np.array(sigma)[pi]
            wl.write_tbl(workdir / "A.circ.tbl", "circ(A)", wl.relabel(table, rho))
            got = wl.summarize(conv, "wrote\n", 0, workdir, ctx)
        self.assertEqual(got["sha256"], wl.table_digest(table))

    def test_relabeling_that_misses_the_identity_fails(self):
        pi = wl.relabeling(27, np.random.default_rng(5))
        text = f"identity relabeled to index 0 (relabeling {list(range(27))})\n"
        with self.assertRaises(wl.Mismatch):
            wl._import_text("A.tbl", text, {"pi": {"A.tbl": pi}})


class MetricListTest(unittest.TestCase):
    def test_benchmark_json_matches_the_harness(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(wl.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.per_layer_units())


class SmokeTest(unittest.TestCase):
    def test_every_workload_once_on_tiny_inputs(self):
        self.assertEqual(run.run_smoke(), 0)


if __name__ == "__main__":
    if not (run.ROOT / "src" / "gamma_forge" / "cli.py").is_file():
        print("error: run from the root of a gamma-forge checkout", file=sys.stderr)
        sys.exit(2)
    unittest.main()
