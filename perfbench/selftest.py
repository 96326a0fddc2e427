"""Self-test of the benchmark: deterministic inputs, and corrupted outputs fail.

    python3 perfbench/selftest.py

Runs a few real operations of each workload (about half a minute). It is
not part of the repository's test suite.
"""
from __future__ import annotations

import json
import math
import os
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
from checks import ranks_agree, topsis_agrees, values_agree  # noqa: E402
from run import Tally, timed_op  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import CliCold, RankLarge, Sweep  # noqa: E402


def run_ops(workload, count=1):
    tally = Tally()
    for _ in range(count):
        timed_op(workload, tally)
    return tally.attempted, tally.failed


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for shape in (gen.RANK_LARGE_SHAPE, gen.STABILITY_SHAPE, gen.LEAVE_ONE_OUT_SHAPE):
            a = gen.matrix_lists(3, "x", *shape)
            self.assertEqual(a, gen.matrix_lists(3, "x", *shape))
            self.assertEqual(gen.matrix_csv(*a), gen.matrix_csv(*gen.matrix_lists(3, "x", *shape)))
            self.assertNotEqual(a[2], gen.matrix_lists(4, "x", *shape)[2])
        self.assertEqual(gen.survey_csv(gen.survey_responses(3)), gen.survey_csv(gen.survey_responses(3)))
        self.assertNotEqual(gen.survey_responses(3), gen.survey_responses(4))

    def test_csv_text_round_trips_values(self):
        labels, criteria, rows = gen.matrix_lists(5, "x", 50, 4)
        lines = gen.matrix_csv(labels, criteria, rows).splitlines()
        self.assertEqual([[float(v) for v in line.split(",")[1:]] for line in lines[2:]], rows)
        self.assertEqual({d for _, d in criteria}, {"benefit", "cost"})


class CheckTest(unittest.TestCase):
    def test_last_bit_difference_is_not_a_failure(self):
        ref = [0.5, 0.25, 0.75]
        got = [math.nextafter(v, 1.0) for v in ref]
        self.assertTrue(topsis_agrees(ref, got, [2, 3, 1]))

    def test_real_differences_fail(self):
        self.assertFalse(values_agree([0.5, 0.25], [0.5, 0.2501]))
        self.assertFalse(ranks_agree([0.5, 0.25, 0.75], [1, 3, 2]))
        self.assertFalse(ranks_agree([0.5, 0.25], [1, 1]))

    def test_ties_may_take_either_rank(self):
        tie = [0.5, math.nextafter(0.5, 0.0), 0.1]
        self.assertTrue(ranks_agree(tie, [1, 2, 3]))
        self.assertTrue(ranks_agree(tie, [2, 1, 3]))
        self.assertFalse(ranks_agree(tie, [1, 3, 2]))


class SpanTest(unittest.TestCase):
    def test_self_time_excludes_children(self):
        tracer = Tracer()
        tracer.next_op()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer, inner = tracer.spans
        self.assertEqual(inner["parent"], outer["id"])
        self.assertEqual(inner["op"], outer["op"])
        self_time = tracer.self_times()
        self.assertAlmostEqual(
            self_time[outer["id"]],
            (outer["end"] - outer["start"]) - (inner["end"] - inner["start"]),
        )


class CorruptedOutputTest(unittest.TestCase):
    """Each workload passes its real output and counts a corrupted one as failed."""

    def test_rank_large(self):
        w = RankLarge(ROOT, 7)
        w.load()
        w.prepare_checks()
        self.assertEqual(run_ops(w), (1, 0))
        weights, table, js = w.op()

        def edited_json(edit):
            rows = json.loads(js)
            edit(rows)
            return json.dumps(rows, sort_keys=True, separators=(",", ":")) + "\n"

        def bump_closeness(rows):
            rows[0]["closeness"] *= 1.001

        def swap_ranks(rows):
            a = next(r for r in rows if r["rank"] == 1)
            b = next(r for r in rows if r["rank"] == 2)
            a["rank"], b["rank"] = 2, 1

        corrupted = [
            (weights, table, edited_json(bump_closeness)),
            (weights, table, edited_json(swap_ranks)),
            (weights, table.replace("\t1\n", "\t2\n", 1), js),
            ((weights[1], weights[0]) + tuple(weights[2:]), table, js),
        ]
        for out in corrupted:
            w.op = lambda out=out: out
            self.assertEqual(run_ops(w), (1, 1))

    def test_sweep(self):
        w = Sweep(ROOT, 7)
        w.load()
        w.prepare_checks()
        self.assertEqual(run_ops(w, 2), (2, 0))
        fixture, stability, loo, repro = w.op()
        w.op = lambda: (stability, fixture, loo, repro)
        self.assertEqual(run_ops(w), (1, 1))

        fresh = Sweep(ROOT, 7)  # a wrong first operation is caught by the oracle
        fresh.load()
        fresh.prepare_checks()
        fresh.op = lambda: (fixture, fixture, loo, repro)
        self.assertEqual(run_ops(fresh, 2), (2, 2))

    def test_cli_cold(self):
        w = CliCold(ROOT, 7)
        w.prepare_checks()
        repro = next(i for i, (name, _) in enumerate(w.commands) if name == "repro")
        w.count = repro
        self.assertEqual(run_ops(w), (1, 0))
        stdout = w.first[repro][0]
        wrong = stdout.replace(b"ok", b"OK", 1)
        for out in ((repro, 0, wrong), (repro, 1, stdout)):
            w.op = lambda out=out: out
            self.assertEqual(run_ops(w), (1, 1))

        fresh = CliCold(ROOT, 7)  # a wrong first invocation is caught too
        fresh.prepare_checks()
        fresh.op = lambda: (repro, 0, wrong)
        self.assertEqual(run_ops(fresh, 2), (2, 2))


if __name__ == "__main__":
    os.chdir(ROOT)
    unittest.main()
