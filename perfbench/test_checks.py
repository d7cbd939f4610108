"""Negative controls for the benchmark's output checks.

Each test feeds a check the program's real answer, which must pass, and
then a perturbed one, which must be caught.  Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import contextlib
import io
import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from serrecalc import cli  # noqa: E402


def run_op(op):
    call, summarize = worker.prepare(op, None)
    return summarize(call())


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return [code, out.getvalue(), err.getvalue()]


def find_op(ops, kind, check=None):
    return next(op for op in ops if op[0] == kind and (check is None or op[2] == check))


class MatchingChecks(unittest.TestCase):
    def test_pairs_and_flags(self):
        op = ["match", 3, [0], 1]
        good = run_op(op)
        self.assertEqual(workloads.check_round([op], [good]), [])
        for bad in ([good[0], good[1], good[2] + 1], [False, good[1], good[2]], [good[0], False, good[2]]):
            self.assertNotEqual(workloads.check_round([op], [bad]), [])

    def test_window_tables(self):
        op = ["grsub", 2, [1], 0, 2]
        good = run_op(op)
        self.assertEqual(workloads.check_round([op], [good]), [])
        call, _ = worker.prepare(op, None)
        data = call()
        lam, table = data[-1]
        key = next(iter(table.entries))
        table.entries[key] += 1
        self.assertNotEqual(workloads.check_round([op], [worker._window_summary(data)]), [])


class OracleChecks(unittest.TestCase):
    def ops_for(self, label_prefix):
        ops = [op for op in workloads.oracle_ops(1) if op[1].startswith(label_prefix)][:2]
        return ops, [run_op(op) for op in ops]

    def test_profiles_agree_and_closed_form(self):
        ops, good = self.ops_for("pairing k=3")
        self.assertEqual(workloads.check_round(ops, good), [])
        tay, hoch = good
        perturbations = [
            [tay[:1] + [tay[1] + 1] + tay[2:], hoch],  # oracles disagree
            [[2] + tay[1:], [2] + hoch[1:]],  # beta_0
            [tay[:1] + [tay[1] + 1, tay[2] + 1] + tay[3:], hoch[:1] + [hoch[1] + 1, hoch[2] + 1] + hoch[3:]],  # beta_1
            [tay[:2] + [tay[2] + 2] + tay[3:], hoch[:2] + [hoch[2] + 2] + hoch[3:]],  # closed form, Euler sum
        ]
        for bad in perturbations:
            self.assertNotEqual(workloads.check_round(ops, bad), [], bad)

    def test_euler_sum(self):
        ops, good = self.ops_for("random 0")
        self.assertEqual(workloads.check_round(ops, good), [])
        tay, hoch = good
        bad = tay[:-1] + [tay[-1] + 1]
        self.assertNotEqual(checks.check_betti(bad, bad, len(ops[0][3])), [])


class RankChecks(unittest.TestCase):
    def test_tor1_closed_form_and_sides(self):
        ops = [["tor1", 2, [1], ["X0", "X0"], "right"], ["tor1", 2, [1], ["X0", "X0"], "left"]]
        good = [run_op(op) for op in ops]
        self.assertEqual(workloads.check_round(ops, good), [])
        bad_tor1 = [good[0][:3] + [good[0][3] + 1, True], good[1]]
        self.assertNotEqual(workloads.check_round(ops, bad_tor1), [])
        bad_side = [good[0], [good[1][0] + 1] + good[1][1:]]
        self.assertNotEqual(workloads.check_round(ops, bad_side), [])

    def test_pbw_dimension_and_suite(self):
        for op, bad in ((["pbw_basis", 3], lambda g: g + 1), (["suite_pbw"], lambda g: g[:-1] + [False])):
            good = run_op(op)
            self.assertEqual(workloads.check_round([op], [good]), [])
            self.assertNotEqual(workloads.check_round([op], [bad(good)]), [])


class CliChecks(unittest.TestCase):
    ops = workloads.cli_ops()

    def perturb_json(self, check, edit):
        op = find_op(self.ops, "cli", check)
        good = run_cli(op[1])
        self.assertEqual(workloads.check_round([op], [good]), [], op)
        self.assertFalse(workloads.op_failed(op, good))
        data = json.loads(good[1])
        edit(data)
        bad = [good[0], json.dumps(data), good[2]]
        self.assertNotEqual(workloads.check_round([op], [bad]), [], op)

    def test_enumerate_count(self):
        self.perturb_json("enumerate", lambda d: d.update(count=str(int(d["count"]) + 1)))

    def test_ideal_hilbert_numerator(self):
        self.perturb_json("ideal", lambda d: d["hilbert"]["num"].append("1"))

    def test_k1cycle(self):
        self.perturb_json("k1cycle", lambda d: d.update(value=str(int(d["value"]) + 1)))

    def test_xcounts(self):
        self.perturb_json("xcounts", lambda d: d.update(x2=str(int(d["x2"]) + 1)))

    def test_exit_codes(self):
        op = find_op(self.ops, "cli", "enumerate")
        good = run_cli(op[1])
        self.assertTrue(workloads.op_failed(op, [1] + good[1:]))
        fault = find_op(self.ops, "cli", "fault")
        self.assertFalse(workloads.op_failed(fault, [2, "", "error: bad input\n"]))
        self.assertTrue(workloads.op_failed(fault, [1, "", "Traceback (most recent call last):\nerror: x\n"]))
        self.assertTrue(workloads.op_failed(fault, [2, "", "usage: serrecalc\nerror: x\n"]))


if __name__ == "__main__":
    unittest.main()
