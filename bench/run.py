"""Benchmark for rainbow_forge: three workloads, checked outputs, per-layer trace.

Run from the repository root::

    python3 bench/run.py --workload paper-exact --seed 1 --seconds 30 --trace 0

Workloads and metrics are described in ``bench/README.md`` and
``BENCHMARK.json``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones.  The full result, with sample counts, is written to
``.bench_out/<workload>-seed<seed>-trace<t>.json``.

Timing.  The host's speed varies from moment to moment, so whole-pass
times are noisy.  Each operation (one ``run_sweep`` call or cell, one
verify, one input build) is therefore timed on its own and scaled to a
nominal host speed (see :class:`Timer`), passes are interleaved round
robin until ``--seconds`` have passed, and a timing is reported as the
sum over operations of each operation's median.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

MIN_ROUNDS = 4
MIN_SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 120

E2E_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "verify_s": "s",
    "peak_rss_mb": "MiB",
    "success_ratio": "ratio",
    "heuristic_size": "edges",
}


def _import_package():
    """Import rainbow_forge from this checkout's ``src``, never elsewhere."""
    if not (SRC / "rainbow_forge" / "__init__.py").is_file():
        raise SystemExit(f"bench: no rainbow_forge package under {SRC}")
    sys.path.insert(0, str(SRC))
    import rainbow_forge
    import rainbow_forge.cli  # noqa: F401  (also imports sweep)

    if Path(rainbow_forge.__file__).resolve().parent != SRC / "rainbow_forge":
        raise SystemExit(f"bench: imported rainbow_forge from {rainbow_forge.__file__}")
    return rainbow_forge


def _strip_timing(obj):
    if isinstance(obj, dict):
        return {k: _strip_timing(v) for k, v in obj.items() if k != "wall_time"}
    if isinstance(obj, list):
        return [_strip_timing(v) for v in obj]
    return obj


def _commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# set-up probe: a fresh interpreter that imports the package and builds
# and serializes the workload's inputs, timing each step


def setup_probe(workload: str, seed: int) -> None:
    timer = Timer()
    with timer.running():
        rf, imported = timer(_import_package)
        import workloads

        built = {
            name: timer(lambda b=build: rf.fileformat.serialize_instance(b()))[1]
            for name, build in workloads.make(workload, seed, rf).inputs().items()
        }
    parts = {"(import)": imported, **built}
    print(
        json.dumps(
            {
                "raw_s": sum(t1 - t0 for t0, t1 in parts.values()),
                "seconds": {name: timer.seconds(x) for name, x in parts.items()},
                "launch_scale": timer.scale(imported[0], imported[0]),
            }
        )
    )


# ---------------------------------------------------------------------------
# one pass through the cells, and one pass through their verifies


def run_own_cell(rf, cell, root: Path) -> dict:
    """The sweep cell (generate, solve, write, bound checks) for
    constructions ``run_sweep`` cannot generate (``dummy_lift``,
    ``blowup_compose``): the same calls and file writes as
    ``sweep._run_cell``, and a record with the fields it writes."""
    t0 = time.perf_counter()
    spec = cell.spec
    inst = cell.build()
    inst_rel = f"instances/{cell.instance}.rbf"
    report_rel = f"reports/{cell.name}.json"
    tmp = root / f"instances/.{cell.name}.tmp"
    tmp.write_text(rf.fileformat.serialize_instance(inst))
    os.replace(tmp, root / inst_rel)
    doc = rf.sweep.run_solver(
        inst,
        spec.solver,
        seed=spec.seed,
        node_budget=spec.node_budget,
        retries=spec.retries,
        instance_ref=f"../{inst_rel}",
    )
    (root / report_rel).write_text(rf.fileformat.serialize_report(doc))
    return {
        "cell": cell.name,
        "construction": spec.construction,
        "r": spec.r,
        "n": spec.n,
        "solver": spec.solver,
        "seed": spec.seed,
        "size": doc.size,
        "certificate": doc.certificate
        if doc.failure is None
        else f"failure-{doc.failure['stage']}",
        "min_matching_size": inst.min_matching_size(),
        "vertex_count": inst.vertex_count(),
        "bounds": rf.sweep.bound_checks(spec, inst, doc),
        "instance_file": inst_rel,
        "report_file": report_rel,
        "wall_time": time.perf_counter() - t0,
    }


_REF_TABLE = {i: i * 7919 % 1024 for i in range(1024)}
REF_STEPS = 1250


def reference() -> float:
    """Duration of a fixed computation that does not use the program.

    Dictionary lookups and integer arithmetic only: it creates no object
    the garbage collector tracks, so it never starts a collection.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_STEPS):
        acc = _REF_TABLE[(acc ^ i) & 1023] + (acc >> 3)
    if acc < 0:
        raise AssertionError("reference computation changed")
    return time.perf_counter() - t0


# median duration of reference() on a 2-core x86-64 VM with Python 3.11
# while the host runs at full speed (about 0.00025 s in its slow regime)
REF_NOMINAL_S = 0.00015
TICK_S = 0.02  # how often the reference runs while operations are timed
WINDOW_S = 0.1  # ticks this close to an operation set its speed


class Timer:
    """Times calls and reports them in seconds at a fixed host speed.

    The host alternates between a fast regime and one about 1.8 times
    slower, from under a second to 20 seconds at a time, so raw times
    depend on which regime a run meets.  While running, the timer
    interrupts the process every ``TICK_S`` to time the reference
    computation.  An operation's seconds are its duration, less the ticks
    inside it, times the mean of ``REF_NOMINAL_S / tick`` over the ticks
    within ``WINDOW_S`` of it: its duration on a host that runs the
    reference in ``REF_NOMINAL_S``.
    """

    def __init__(self):
        self.tick_at: list[float] = []
        self.tick_s: list[float] = []

    def _tick(self, signum, frame) -> None:
        # a collection the program's garbage is due for waits until the
        # tick ends, so that it is charged to the program
        enabled = gc.isenabled()
        gc.disable()
        try:
            self.tick_at.append(time.perf_counter())
            self.tick_s.append(reference())
        finally:
            if enabled:
                gc.enable()

    @contextlib.contextmanager
    def running(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @contextlib.contextmanager
    def paused(self):
        """No ticks, for waiting on a child process the ticks would not slow."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def __call__(self, fn, *args, **kwargs):
        """Return (result, sample); a sample is the call's (start, end)."""
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        return result, (t0, time.perf_counter())

    def scale(self, t0: float, t1: float) -> float:
        """Host speed over [t0, t1] relative to nominal: the mean of
        ``REF_NOMINAL_S / tick`` over the ticks within ``WINDOW_S`` of it.

        Ticks sample the host's slowness uniformly in wall time, so an
        operation's work in nominal seconds is its duration times this mean.
        """
        at = self.tick_at
        near = self.tick_s[bisect.bisect_left(at, t0 - WINDOW_S) : bisect.bisect_right(at, t1 + WINDOW_S)]
        return statistics.fmean(REF_NOMINAL_S / t for t in near) if near else 1.0

    def duration(self, sample: tuple[float, float]) -> float:
        """A sample's raw duration: its span less the ticks inside it."""
        t0, t1 = sample
        at = self.tick_at
        return t1 - t0 - sum(self.tick_s[bisect.bisect_left(at, t0) : bisect.bisect_right(at, t1)])

    def seconds(self, sample: tuple[float, float]) -> float:
        """A sample's duration in seconds at the nominal host speed."""
        return self.duration(sample) * self.scale(sample[0], sample[1])

    def median(self, samples) -> float:
        return statistics.median(self.seconds(x) for x in samples)

    def sum_of_medians(self, samples: dict) -> float:
        return sum(self.median(v) for v in samples.values())


class Runner:
    """Runs passes of one workload and keeps every sample and check."""

    def __init__(self, rf, workload, work: Path, timer: Timer):
        self.rf = rf
        self.workload = workload
        self.work = work
        self.timer = timer
        self.tracer = None  # set while a traced pass runs; gets one op id per operation
        # "run" / "verify" (+ ".traced") -> operation -> timer samples
        self.samples = defaultdict(lambda: defaultdict(list))
        self.first_records: dict[str, str] = {}  # cell -> timing-stripped record of pass 0
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.verify_checks = 0  # check lines printed by verify in the last pass
        self.sizes: dict[str, int] = {}
        self.passes = 0

    def _timed(self, key: str, op: str, fn, *args, **kwargs):
        if self.tracer is not None:
            self.tracer.op += 1
        result, sample = self.timer(fn, *args, **kwargs)
        self.samples[key][op].append(sample)
        return result

    def one_pass(self) -> None:
        rf, root = self.rf, self.work
        k = self.passes
        self.passes += 1
        suffix = "" if self.tracer is None else ".traced"
        for sub in ("instances", "reports", "sweeps"):
            (root / sub).mkdir(parents=True, exist_ok=True)

        lines: dict[str, list[str]] = defaultdict(list)  # cell -> its record lines
        own = []
        written = []
        gc.collect()
        for name, cells in self.workload.run_ops():
            if cells[0].via_sweep:
                sweep_dir, _ = self._timed(
                    "run" + suffix, name, rf.sweep.run_sweep, [c.spec for c in cells], root,
                    jobs=1, stamp=f"p{k}-{name}",
                )
                written.append(sweep_dir / "records.jsonl")
            else:
                own.append(self._timed("run" + suffix, name, run_own_cell, rf, cells[0], root))
        if own:
            path = root / "sweeps" / f"p{k}-own" / "records.jsonl"
            path.parent.mkdir(parents=True)
            path.write_text("".join(json.dumps(rec, sort_keys=True) + "\n" for rec in own))
            written.append(path)
        for path in written:
            for line in path.read_text().splitlines():
                lines[json.loads(line)["cell"]].append(line)

        checks = 0
        gc.collect()
        for cell in self.workload.cells:
            problems = []
            if len(lines[cell.name]) != 1:
                problems.append(f"records: expected one line, got {len(lines[cell.name])}")
                record = {}
            else:
                record = json.loads(lines[cell.name][0])
                stripped = json.dumps(_strip_timing(record), sort_keys=True)
                first = self.first_records.setdefault(cell.name, stripped)
                if stripped != first:
                    problems.append("records: differ from the first pass once wall_time is removed")
            problems += self._check_values(cell, record)

            argv = [
                "verify",
                "--in",
                str(root / f"instances/{cell.instance}.rbf"),
                "--report",
                str(root / f"reports/{cell.name}.json"),
            ]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = self._timed("verify" + suffix, cell.name, rf.cli.main, argv)
            text = out.getvalue()
            checks += sum(1 for line in text.splitlines() if line.startswith(("ok:", "FAIL:")))
            if code != 0:
                fails = [line for line in text.splitlines() if line.startswith("FAIL")]
                problems.append(f"verify: exit {code}: {'; '.join(fails)}")

            self.attempted += 1
            if problems:
                self.failed += 1
                for p in problems:
                    self.failures.append(f"pass {k} cell {cell.name}: {p}")
                    print(f"FAIL pass {k} cell {cell.name}: {p}", file=sys.stderr)
            elif k == 0 and cell.spec.solver != "exact":
                self.sizes[cell.name] = record["size"]
        self.verify_checks = checks

    def _check_values(self, cell, record) -> list[str]:
        if not record:
            return []
        problems = []
        if cell.spec.solver == "exact" and record["certificate"] != "exact-optimum":
            problems.append(f"construction value: certificate {record['certificate']}")
        if cell.limit is not None:
            value, exact = cell.limit
            size = record["size"]
            if size > value:
                problems.append(f"construction value: size {size} > {value}")
            elif exact and cell.spec.solver == "exact" and size != value:
                problems.append(f"construction value: exact size {size} != {value}")
        return problems


# ---------------------------------------------------------------------------
# the measured run


def probe_once(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--setup-probe", "--workload", workload,
         "--seed", str(seed)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SystemExit(f"bench: set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def probe_setup(timer: Timer, workload: str, seed: int, setup: dict) -> None:
    """One fresh-process set-up, split into launch, import and each input.

    The probe times its own parts with its own ticks; the launch (the
    wall time outside those parts) is scaled by the ticks of its import.
    """
    with timer.paused():
        t0 = time.perf_counter()
        data = probe_once(workload, seed)
        wall = time.perf_counter() - t0
    setup["(launch)"].append((wall - data["raw_s"]) * data["launch_scale"])
    for name, t in data["seconds"].items():
        setup[name].append(t)


def measure(args) -> int:
    rf = _import_package()
    import workloads
    from spans import Tracer, layer_metrics, self_times

    work = ROOT / ".bench_work" / args.workload
    out_dir = ROOT / ".bench_out"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out_dir.mkdir(exist_ok=True)

    workload = workloads.make(args.workload, args.seed, rf)
    timer = Timer()
    runner = Runner(rf, workload, work, timer)
    setup = defaultdict(list)
    tracer = Tracer(rf) if args.trace else None
    windows = []  # per traced pass: (span lo, span hi, start, end, verify checks)

    deadline = time.perf_counter() + args.seconds
    rounds = 0
    with timer.running():
        while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
            if tracer is None:
                probe_setup(timer, args.workload, args.seed, setup)
            runner.one_pass()
            if tracer is not None:
                lo, t0 = len(tracer.spans), time.perf_counter()
                tracer.install()
                runner.tracer = tracer
                try:
                    runner.one_pass()
                finally:
                    runner.tracer = None
                    tracer.uninstall()
                windows.append((lo, len(tracer.spans), t0, time.perf_counter(), runner.verify_checks))
            rounds += 1
        while tracer is None and len(setup["(launch)"]) < MIN_SETUP_SAMPLES:
            probe_setup(timer, args.workload, args.seed, setup)

    run_s = timer.sum_of_medians(runner.samples["run"])
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "commit": _commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "rounds": rounds,
        "ref_nominal_s": REF_NOMINAL_S,
        "ref_median_s": statistics.median(timer.tick_s),
        "failures": runner.failures,
    }
    if tracer is None:
        metrics = {
            "setup_s": sum(statistics.median(v) for v in setup.values()),
            "run_s": run_s,
            "verify_s": timer.sum_of_medians(runner.samples["verify"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "success_ratio": (runner.attempted - runner.failed) / runner.attempted,
            "heuristic_size": sum(runner.sizes.values()),
        }
        samples = {
            "setup_s": len(setup["(launch)"]),
            "run_s": runner.passes,
            "verify_s": runner.passes,
            "peak_rss_mb": 1,
            "success_ratio": runner.attempted,
            "heuristic_size": 1,
        }
        units = E2E_UNITS
        result["operations"] = {
            "setup": {k: statistics.median(v) for k, v in setup.items()},
            **{
                kind: {c: timer.median(v) for c, v in runner.samples[kind].items()}
                for kind in ("run", "verify")
            },
        }
        result["raw_s"] = {
            kind: sum(statistics.median(map(timer.duration, v)) for v in runner.samples[kind].values())
            for kind in ("run", "verify")
        }
    else:
        selfs = self_times(tracer.spans)
        per_pass = []
        for lo, hi, t0, t1, checks in windows:
            layer = layer_metrics(tracer.spans, selfs, lo, hi, checks)
            scale = timer.scale(t0, t1)
            per_pass.append({k: v * scale if _layer_unit(k) == "s" else v for k, v in layer.items()})
        metrics = {k: statistics.median([p[k] for p in per_pass]) for k in per_pass[0]}
        metrics["trace.overhead_s"] = timer.sum_of_medians(runner.samples["run.traced"]) - run_s
        samples = {k: len(per_pass) for k in metrics}
        units = {k: _layer_unit(k) for k in metrics}
        tracer.dump(out_dir / f"{args.workload}-seed{args.seed}-spans.jsonl")
    result["metrics"] = {
        k: {"value": v, "unit": units[k], "samples": samples[k]} for k, v in metrics.items()
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")

    for k, v in metrics.items():
        print(f"{args.workload:16s} {k:32s} {v:14.6f} {units[k]:6s} n={samples[k]}")
    print(
        json.dumps(
            {
                "correct": runner.failed == 0,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("paper-exact", "sweep-grid", "large-heuristic"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
