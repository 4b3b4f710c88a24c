"""Self-tests of the benchmark harness: ``python3 bench/selftest.py``.

Kept out of the repository's pytest collection on purpose (the file
name does not match ``test_*.py``); it imports rainbow_forge from this
checkout's ``src`` the way the benchmark does.
"""

from __future__ import annotations

import gc
import shutil
import unittest

import run
import spans
import workloads
from spans import Span, Tracer, covered, layer_metrics, self_times

rf = run._import_package()


def _bindings() -> dict[tuple[str, str], object]:
    """Every module-level name in the package that holds a traced function."""
    traced = {id(getattr(getattr(rf, layer), f)) for layer, fs in spans.TRACED.items() for f in fs}
    out = {}
    for site in spans.SITES:
        for attr, value in vars(getattr(rf, site)).items():
            if id(value) in traced:
                out[(site, attr)] = value
    return out


ORIGINAL = _bindings()


class SelfTime(unittest.TestCase):
    def test_union_of_overlapping_and_clipped_children(self):
        # [1,3] and [2,5] overlap -> [1,5]; [8,12] is clipped to [8,10]
        self.assertAlmostEqual(covered([(1, 3), (2, 5), (8, 12)], 0, 10), 6.0)
        self.assertEqual(covered([], 0, 10), 0.0)
        self.assertEqual(covered([(11, 12)], 0, 10), 0.0)

    def test_nested_spans(self):
        s = [
            Span("solvers.exact_max_rainbow", 0.0, 10.0, -1, 0),
            Span("solvers.local_search_rainbow", 1.0, 4.0, 0, 0),
            Span("solvers.find_swap", 1.5, 2.5, 1, 0),
            Span("solvers.find_swap", 2.5, 3.0, 1, 0),
            Span("core.is_rainbow_matching", 6.0, 7.0, 0, 0),
        ]
        self.assertEqual(self_times(s), [6.0, 1.5, 1.0, 0.5, 1.0])
        m = layer_metrics(s, self_times(s), 0, len(s), verify_checks=3)
        self.assertEqual(m["solvers.exact_s"], 6.0)
        self.assertEqual(m["solvers.exact_incumbent_s"], 3.0)
        self.assertEqual(m["solvers.local_s"], 1.5)
        self.assertEqual(m["solvers.find_swap_s"], 1.5)
        self.assertEqual(m["solvers.find_swap_calls"], 2)
        self.assertEqual(m["core.is_rainbow_s"], 1.0)
        self.assertEqual(m["cli.verify_checks"], 3)
        # self times partition the top span's duration
        self.assertAlmostEqual(sum(self_times(s)), 10.0)

    def test_window_keeps_global_parents(self):
        s = [
            Span("cli.main", 0.0, 1.0, -1, 0),
            Span("cli.main", 2.0, 5.0, -1, 1),
            Span("fileformat.parse_instance", 2.0, 3.0, 1, 1),
        ]
        m = layer_metrics(s, self_times(s), 1, 3, verify_checks=0)
        self.assertEqual(m["cli.verify_self_s"], 2.0)
        self.assertEqual(m["fileformat.parse_s"], 1.0)


class Reference(unittest.TestCase):
    def test_reference_starts_no_collection(self):
        before = gc.get_count()[0]
        run.reference()
        # the tuple get_count returned is the only tracked allocation
        self.assertLessEqual(gc.get_count()[0] - before, 1)


class Wrappers(unittest.TestCase):
    def setUp(self):
        self.work = run.ROOT / ".bench_work" / "selftest"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        paper = workloads.make("paper-exact", 1, rf).cells
        grid = workloads.make("sweep-grid", 1, rf).cells
        # the dummy-lift cell pair (own runner) and two run_sweep instances
        self.mini = workloads.Workload("mini", 1, paper[6:8] + paper[10:12] + grid[:4])
        self.assertEqual([c.via_sweep for c in self.mini.cells], [True] * 2 + [False] * 2 + [True] * 4)

    def tearDown(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def assert_originals(self):
        self.assertEqual(_bindings().keys(), ORIGINAL.keys())
        for key, value in _bindings().items():
            self.assertIs(value, ORIGINAL[key], key)

    def test_rebound_names_are_found(self):
        for key in [
            ("solvers", "exact_max_rainbow"),
            ("sweep", "serialize_instance"),
            ("sweep", "run_solver"),
            ("cli", "parse_instance"),
            ("cli", "validate_instance"),
            ("cli", "exact_max_rainbow"),
            ("setpairs", "good_edges"),
            ("constructions", "exact_max_rainbow"),
        ]:
            self.assertIn(key, ORIGINAL)

    def test_untraced_pass_installs_nothing(self):
        runner = run.Runner(rf, self.mini, self.work, run.Timer())
        runner.one_pass()
        self.assertEqual(runner.failed, 0, runner.failures)
        self.assertIs(rf.solvers.exact_max_rainbow, ORIGINAL[("solvers", "exact_max_rainbow")])
        self.assert_originals()

    def test_traced_pass_wraps_then_restores(self):
        runner = run.Runner(rf, self.mini, self.work, run.Timer())
        tracer = Tracer(rf)
        tracer.install()
        try:
            self.assertIsNot(rf.sweep.run_solver, ORIGINAL[("sweep", "run_solver")])
            self.assertIs(rf.cli.find_swap, rf.solvers.find_swap)
            runner.tracer = tracer
            runner.one_pass()
        finally:
            tracer.uninstall()
        self.assert_originals()
        self.assertEqual(runner.failed, 0, runner.failures)
        ops = len(self.mini.run_ops()) + len(self.mini.cells)
        self.assertEqual(len({s.op for s in tracer.spans}), ops)
        names = {s.name for s in tracer.spans}
        for name in (
            "sweep.run_sweep",
            "sweep.build_instance",
            "solvers.exact_max_rainbow",
            "solvers.local_search_rainbow",
            "fileformat.parse_instance",
            "core.validate_instance",
            "cli.main",
            "bounds.check_gibounds",
        ):
            self.assertIn(name, names)
        # the incumbent local search is a child of the exact solve
        parents = {
            tracer.spans[s.parent].name
            for s in tracer.spans
            if s.name == "solvers.local_search_rainbow" and s.parent >= 0
        }
        self.assertIn("solvers.exact_max_rainbow", parents)


if __name__ == "__main__":
    unittest.main()
