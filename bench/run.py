"""Run one benchmark workload against the entroflow sources in this checkout.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one closed-loop client: each operation is an in-process call
of ``entroflow.cli.run`` with stdout and stderr captured, and the next
starts when the previous one has been checked. The run repeats whole
rounds of its workload (see workloads.py) until ``--seconds`` have
passed, checks every output against an independent route (checks.py),
and prints one JSON object as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones from spans around the program's public functions
(tracing.py). Spans go to bench/out/trace-<workload>-seed<seed>.jsonl.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np

from tracing import Tracer
from workloads import WORKLOADS, Outcome

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

#: How many times set-up is repeated; ``setup_s`` is the median.
SETUP_REPEATS = 5

#: Operations are timed in stretches of at least this many seconds; each
#: stretch is followed by one reference-kernel timing per whole interval.
REFERENCE_INTERVAL_S = 0.1

_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import entroflow.cli; "
    "print(time.perf_counter() - t)"
)


def _child_import_seconds() -> float:
    """Import time of entroflow.cli in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip())


def set_up(workload: str, seed: int, workdir: Path) -> tuple[float, list]:
    """Median over SETUP_REPEATS of (import + input generation + file writing)."""
    samples = []
    for _ in range(SETUP_REPEATS):
        import_s = _child_import_seconds()
        start = perf_counter()
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        pool = WORKLOADS[workload](np.random.default_rng(seed), workdir)
        samples.append(import_s + perf_counter() - start)
    return statistics.median(samples), pool


def reference_seconds() -> float:
    """Wall time of a fixed piece of work that tracks the machine's speed.

    A shared host can change speed by 1.7x over seconds to minutes
    without the guest seeing it (see bench/README.md). Timing operations
    in units of this kernel, timed right after them, cancels most of that
    drift; the kernel mixes interpreter and allocation work with a numpy
    pass, like the program.
    """
    start = perf_counter()
    atoms = {i: frozenset(range(i % 7, i % 7 + 5)) for i in range(2000)}
    json.dumps({str(k): sorted(v) for k, v in atoms.items()}, sort_keys=True)
    (np.arange(1 << 16, dtype=float)[:, None] * np.array([0.25, 0.75])).ravel()
    return perf_counter() - start


class Timings:
    """Operation wall times, and each one in units of its stretch's reference time."""

    def __init__(self) -> None:
        self.seconds: list[float] = []
        self.in_reference: list[float] = []
        self.references: list[float] = []
        self._stretch: list[float] = []

    def add(self, elapsed: float) -> None:
        self.seconds.append(elapsed)
        self._stretch.append(elapsed)
        if sum(self._stretch) >= REFERENCE_INTERVAL_S:
            self.close_stretch()

    def close_stretch(self) -> None:
        if not self._stretch:
            return
        timings = max(1, int(sum(self._stretch) / REFERENCE_INTERVAL_S))
        samples = [reference_seconds() for _ in range(timings)]
        self.references += samples
        local = statistics.median(samples)
        self.in_reference += [t / local for t in self._stretch]
        self._stretch.clear()


def call(cli, op) -> tuple[float, Outcome]:
    """Run one operation in-process; returns its wall time and what it produced."""
    for path in op.outputs:
        path.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    error = None
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.run(list(op.argv))
        except Exception as exc:  # an uncaught program error is a failed operation
            code, error = None, exc
        elapsed = perf_counter() - start
    return elapsed, Outcome(code, out.getvalue(), err.getvalue(), error)


class Tally:
    """Attempted and failed operations, output checks, and the first few problems."""

    def __init__(self) -> None:
        self.attempted = self.failed = 0
        self.correct = True
        self.problems: list[str] = []

    def record(self, op, outcome: Outcome) -> None:
        """Count the operation; a failure is correct only for an op with a named fault."""
        self.attempted += 1
        if outcome.failed:
            self.failed += 1
            if op.fault is None:
                self.correct = False
                cause = outcome.error or outcome.stderr.strip() or f"exit {outcome.code}"
                self._note(f"unexpected failure of {' '.join(op.argv)[:120]}: {cause!r}")
            return
        self.check(op, outcome)

    def check(self, op, outcome: Outcome) -> None:
        try:
            op.check(outcome)
        except Exception as exc:  # malformed output can fail in any parser step
            self.correct = False
            self._note(f"wrong output of {' '.join(op.argv)[:120]}: {exc!r}")

    def _note(self, message: str) -> None:
        if len(self.problems) < 10:
            self.problems.append(message)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "entroflow" / "cli.py").is_file():
        print(f"error: no entroflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from entroflow import cli
    if Path(cli.__file__).resolve().parent != SRC / "entroflow":
        print(f"error: imported entroflow from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_s, pool = set_up(args.workload, args.seed, workdir)
        tally = Tally()
        # warm-up: one operation, checked but not counted
        warm_up = pool[0][0]
        _, outcome = call(cli, warm_up)
        if not outcome.failed:
            tally.check(warm_up, outcome)

        tracer = Tracer() if args.trace else None
        if tracer:
            tracer.install()
        timings = Timings()
        reference_seconds()  # warm-up
        deadline = perf_counter() + args.seconds
        rounds = 0
        while rounds == 0 or perf_counter() < deadline:
            for op in pool[rounds % len(pool)]:
                if tracer:
                    tracer.op = len(timings.seconds)
                elapsed, outcome = call(cli, op)
                timings.add(elapsed)
                if tracer:
                    tracer.counts["cli.bytes_out"] += len(outcome.stdout.encode())
                tally.record(op, outcome)
            rounds += 1
        timings.close_stretch()
        if tracer:
            tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in tally.problems:
        print(f"# {problem}", file=sys.stderr)
    completed = tally.attempted - tally.failed
    times = timings.seconds
    print(f"# {args.workload} seed={args.seed} trace={args.trace} rounds={rounds} "
          f"attempted={tally.attempted} failed={tally.failed} timed_s={sum(times):.3f} "
          f"op_p50_ms={1000 * statistics.median(times):.3f} "
          f"ops_per_s={completed / sum(times):.3f} "
          f"reference_ms={1000 * statistics.median(timings.references):.3f} "
          f"({len(timings.references)} timings)")
    if tracer:
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
        metrics = {name: {"value": value, "unit": "ms" if name.endswith("_ms") else "count"}
                   for name, value in tracer.per_operation(len(times)).items()}
    else:
        metrics = {
            "ops_per_ref": {"value": completed / sum(timings.in_reference), "unit": "1/ref"},
            "op_p50_ref": {"value": statistics.median(timings.in_reference), "unit": "ref"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    result = {"correct": tally.correct, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "op_times_s": times, "op_times_ref": timings.in_reference,
                    "reference_s": timings.references, "round_size": len(pool[0])}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
