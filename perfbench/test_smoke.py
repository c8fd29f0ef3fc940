"""Smoke test of the benchmark: every workload at tiny sizes, with its checks.

    python3 -m unittest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import sys
import tempfile
import unittest
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def units(metrics: list[dict]) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in metrics}


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.cli = run.import_program()

    def run_tiny(self, name: str, trace: bool) -> dict:
        result = run.run_workload(self.cli, name, 5, 1, trace,
                                  WORKLOADS[name].tiny)
        self.assertEqual(result["failed"], 0, result["notes"])
        self.assertTrue(result["correct"], result["notes"])
        self.assertGreater(result["attempted"], 0)
        return result

    def test_workloads_match_the_spec(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(WORKLOADS))

    def test_untraced_runs_report_every_end_to_end_metric(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                metrics = self.run_tiny(name, False)["metrics"]
                self.assertEqual({k: v["unit"] for k, v in metrics.items()},
                                 units(SPEC["end_to_end"]))
                self.assertTrue(all(v["value"] > 0 for v in metrics.values()))

    def test_traced_runs_report_every_per_layer_metric(self):
        seen = {}
        for name in WORKLOADS:
            with self.subTest(workload=name):
                metrics = self.run_tiny(name, True)["metrics"]
                self.assertEqual({k: v["unit"] for k, v in metrics.items()},
                                 units(SPEC["per_layer"]))
                seen[name] = {k: v["value"] for k, v in metrics.items()}
        # 3 source tokens onto 3 and 2 onto 2: 3^3 * 2^2 candidates, each
        # checked for naturality.
        self.assertEqual(seen["merge-search"]["mapping.search.candidates"], 108)
        self.assertEqual(seen["merge-search"]["mapping.check_naturality.calls"], 108)
        self.assertEqual(seen["path-equality"]["category.path_equal.calls"], 1)
        self.assertGreater(seen["instance-data"]["instance.evaluate_path.calls"], 0)
        self.assertGreater(seen["schema-scale"]["language.sentences"], 0)
        self.assertEqual(seen["schema-scale"]["instance.rows_loaded"], 0)

    def test_tracer_restores_the_program(self):
        from ologs import category, instance, mapping

        before = (mapping.evaluate_path, instance.Instance.function,
                  category.PathCategory.__init__)
        self.run_tiny("merge-search", True)
        self.assertEqual((mapping.evaluate_path, instance.Instance.function,
                          category.PathCategory.__init__), before)

    def test_checks_reject_wrong_output(self):
        with tempfile.TemporaryDirectory() as tmp:
            for name, workload in WORKLOADS.items():
                with self.subTest(workload=name):
                    ops = workload.generate(Path(tmp, name), 9, workload.tiny)
                    for op in ops:
                        results, _ = run.execute(self.cli, op)
                        self.assertEqual(run.verdict(op, results), (False, None))
                        last = results[-1]
                        cut = "\n".join(last.out.splitlines()[:-1])
                        failed, wrong = run.verdict(
                            op, results[:-1] + [replace(last, out=cut)])
                        self.assertTrue(failed and wrong, op.variant)
            op = WORKLOADS["instance-data"].generate(
                Path(tmp, "migrated"), 9, WORKLOADS["instance-data"].tiny)[0]
            results, _ = run.execute(self.cli, op)
            table = Path(op.steps[1][-1]) / "g.csv"
            rows = table.read_text(encoding="utf-8").splitlines()
            rows[1] = rows[1].split(",")[0] + ",t8-00000-none"
            table.write_text("\n".join(rows) + "\n", encoding="utf-8")
            self.assertEqual(run.verdict(op, results)[0], True)


if __name__ == "__main__":
    unittest.main()
