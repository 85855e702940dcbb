"""Tests of the benchmark's own gates: each output check and layer audit
accepts genuine output and flags one planted wrong answer.

    python3 -m pytest perfbench/test_gates.py
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import csikey  # noqa: E402
import csikey.attacks  # noqa: E402
import csikey.cli  # noqa: E402
import csikey.lattice  # noqa: E402
import csikey.wiretap  # noqa: E402
import run  # noqa: E402
from reference import audit_lll, audit_ml, brute_force_ml  # noqa: E402
from tracer import AUDIT_SAMPLES, Tracer, per_layer_metric_units  # noqa: E402
from workloads import ATTACK_N4_TRIALS, OUTSIDE_BENCHMARK, WORKLOADS  # noqa: E402


def real_op(name: str, seed: int = 3) -> run.Op:
    return run.run_op(csikey.cli, WORKLOADS[name].argv(seed), seed)


def planted(op: run.Op, edit) -> run.Op:
    doc = json.loads(op.stdout)
    edit(doc)
    return run.Op(op.seed, op.start_ns, op.end_ns, json.dumps(doc), None)


def check(name: str, ops) -> dict:
    return run.check_ops(WORKLOADS[name], ops)


class OutputChecks(unittest.TestCase):
    def test_genuine_outputs_pass(self):
        for name in ("attack-n4-ml", "protocol-n64", "reduction-n4"):
            self.assertEqual(check(name, [real_op(name)]), {}, name)

    def test_nonmatching_bdd_row_is_flagged(self):
        def edit(doc):
            doc["results"][0]["matches_enumeration"] = False
        failures = check("reduction-n4", [planted(real_op("reduction-n4"), edit)])
        self.assertIn("differs from enumeration", failures[0])

    def test_error_free_transcript_without_success_is_flagged(self):
        def edit(doc):
            t = doc["results"][0]
            t["message_errors"] = 0
            t["success"] = False
            t["bob_key"] = t["alice_key"][::-1]
        failures = check("protocol-n64", [planted(real_op("protocol-n64"), edit)])
        self.assertIn("error-free transcript reports success False", failures[0])

    def test_output_for_another_seed_is_flagged(self):
        op = real_op("reduction-n4")
        op.seed += 1
        self.assertIn("output is for seed", check("reduction-n4", [op])[0])

    def test_failed_op_is_flagged(self):
        op = run.run_op(csikey.cli, ["reduction-demo", "--n", "9"], 0)
        self.assertIn("rc=1", check("reduction-n4", [op])[0])

    def test_known_bdd_search_failure_is_flagged(self):
        # Why reduction-n4 is outside BENCHMARK.json: this reduction-demo op
        # fails in bdd_via_mimo.  If this test fails because the op now
        # passes, the defect is fixed; put the workload back in.
        failures = check("reduction-n4", [real_op("reduction-n4", 293287552)])
        self.assertIn("oracle answers never landed", failures.get(0, ""),
                      "bdd_via_mimo no longer fails here; see OUTSIDE_BENCHMARK")

    def test_overlapping_attack_intervals_fail_every_pooled_op(self):
        def overlap(doc):
            for r in doc["results"]:
                r["ser"], r["ser_ci_low"], r["ser_ci_high"] = 0.5, 0.0, 1.0
        ops = [planted(real_op("attack-n16", s), overlap) for s in (1, 2)]
        failures = check("attack-n16", ops)
        self.assertEqual(sorted(failures), [0, 1])
        self.assertIn("pooled check", failures[0])

    def test_ml_worse_than_zf_is_flagged(self):
        def worse(doc):
            for r in doc["results"]:
                r["ser"] = {"ml": 0.75, "zf": 0.25}.get(r["method"], r["ser"])
                r["ser_ci_low"], r["ser_ci_high"] = 0.0, 1.0
        failures = check("attack-n4-ml", [planted(real_op("attack-n4-ml"), worse)])
        self.assertIn("above ZF SER", failures[0])


class LayerAudits(unittest.TestCase):
    def setUp(self):
        self.rng = np.random.default_rng(5)

    def test_exact_ml_matches_brute_force(self):
        g = self.rng.normal(size=(4, 3))
        y = g @ np.array([1.0, 3.0, 0.0]) + 0.1 * self.rng.normal(size=4)
        est = csikey.attacks.exact_ml_decode(g, y, 4).estimate
        self.assertIsNone(audit_ml(g, y, 4, est))

    def test_wrong_ml_estimate_is_flagged(self):
        g = self.rng.normal(size=(4, 3))
        y = g @ np.array([1.0, 3.0, 0.0])
        ref, _ = brute_force_ml(g, y, 4)
        wrong = ref.copy()
        wrong[0] = (wrong[0] + 2) % 4
        self.assertIn("brute force", audit_ml(g, y, 4, wrong))

    def test_lll_output_passes(self):
        b = self.rng.normal(size=(6, 6)) * 1e-3
        res = csikey.lattice.lll_reduce(csikey.lattice.LatticeBasis(b))
        self.assertIsNone(audit_lll(b, res.reduced.matrix, res.transform,
                                    res.delta))

    def test_unreduced_basis_is_flagged(self):
        b = np.array([[1.0, 0.9], [0.0, 0.1]])
        self.assertIn("size-reduced", audit_lll(b, b, np.eye(2, dtype=int), 0.99))

    def test_non_unimodular_transform_is_flagged(self):
        b = np.eye(2)
        t = np.array([[2, 0], [0, 1]])
        self.assertIn("det", audit_lll(b, b @ t, t, 0.99))


class Tracing(unittest.TestCase):
    SITES = [(csikey.attacks, "lll_reduce"), (csikey.cli, "ber_experiment"),
             (csikey.wiretap, "psi_sample"), (csikey.attacks, "psi_sample"),
             (csikey.lattice, "gram_schmidt")]

    def test_wraps_every_binding_and_restores_them(self):
        originals = [getattr(m, a) for m, a in self.SITES]
        tracer = Tracer(csikey, sample_seed=0)
        tracer.install()
        try:
            for (mod, attr), orig in zip(self.SITES, originals):
                self.assertIsNot(getattr(mod, attr), orig, f"{mod.__name__}.{attr}")
            tracer.op = 0
            op = real_op("attack-n4-ml")
        finally:
            tracer.uninstall()
        for (mod, attr), orig in zip(self.SITES, originals):
            self.assertIs(getattr(mod, attr), orig)
        table = tracer.layer_table()
        self.assertEqual(table["attacks.ber_experiment"]["calls"], 1)
        self.assertEqual(table["attacks.exact_ml_decode"]["calls"], ATTACK_N4_TRIALS)
        self.assertTrue(all(row["self_ns"] >= 0 for row in table.values()))
        metrics = tracer.per_op_metrics([op.wall_ns])
        self.assertEqual(set(metrics) | {"trace.overhead_pct"},
                         set(per_layer_metric_units()))
        self.assertGreater(metrics["cli.overhead_ms"], 0)
        self.assertEqual(metrics["attacks.exact_ml_decode.grid_points"],
                         ATTACK_N4_TRIALS * 16**4)
        self.assertEqual(len(tracer.samples["attacks.exact_ml_decode"]),
                         min(ATTACK_N4_TRIALS, AUDIT_SAMPLES))

    def test_reduction_layers_are_counted_outside_the_metrics(self):
        tracer = Tracer(csikey, sample_seed=0)
        tracer.install()
        try:
            tracer.op = 0
            real_op("reduction-n4")
        finally:
            tracer.uninstall()
        table = tracer.layer_table()
        for name in ("distributions.sample_discrete_gaussian_int",
                     "lattice.successive_minima", "lattice.enumerate_cvp",
                     "attacks.bdd_via_mimo"):
            self.assertGreater(table[name]["calls"], 0, name)
        counts = tracer.held_out_counts(1)
        self.assertGreater(counts["distributions.discrete_gaussian_sample.samples"], 0)
        self.assertGreater(counts["attacks.bdd_via_mimo.success_per_oracle_call"], 0)


class Latency(unittest.TestCase):
    @staticmethod
    def ops(walls_ms):
        return [run.Op(0, 0, int(w * 1e6), "", None) for w in walls_ms]

    def test_tail_has_ten_samples_beyond_it(self):
        lat = run.latency_metrics(self.ops(range(1, 31)))
        self.assertEqual((lat["op_tail_ms"], lat["tail_samples_beyond"]), (20, 10))
        self.assertEqual(lat["op_p50_ms"], 15.5)

    def test_short_run_tail_is_not_below_the_median(self):
        lat = run.latency_metrics(self.ops(range(1, 13)))
        self.assertGreaterEqual(lat["op_tail_ms"], lat["op_p50_ms"])


class Contract(unittest.TestCase):
    def test_benchmark_json_names_the_reported_metrics(self):
        spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
        self.assertEqual({w["name"] for w in spec["workloads"]},
                         set(WORKLOADS) - set(OUTSIDE_BENCHMARK))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         per_layer_metric_units())

    def test_fails_without_sources(self):
        run.OUT_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
            shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH_DIR, Path(tmp) / BENCH_DIR.name,
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload",
                 "attack-n16", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=120)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
