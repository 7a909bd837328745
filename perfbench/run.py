#!/usr/bin/env python3
"""The rff-lab benchmark.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload sweep_default --seed 1 --seconds 25 --trace 0

It imports rff_lab from ``src/`` of the checkout, so nothing is installed.
One process drives a closed loop: it runs one *unit* of the workload's work
(one reduced sweep, or one ``validate-claims`` run), checks its output, and
starts the next, until ``--seconds`` have passed after a warm-up unit.

With ``--trace 0`` it reports the end-to-end metrics, medians over the units
at a fixed input size.  Every timed step runs next to a fixed numpy kernel,
and its times are scaled to the machine speed the kernel had
when its reference time was taken (see `calibration`), so that the drift of a
shared machine between runs cancels; the table also gives the raw medians.

* ``setup_s``: importing rff_lab plus the config round trip
  ``render_config(parse_config(text))``, timed inside a fresh interpreter
  after each unit;
* ``wall_s`` and ``cpu_s``: wall time, and user plus system CPU of the
  process and its reaped children (the pool workers), per unit;
* ``trials_per_s``: Monte-Carlo trials per wall second; on validate_claims a
  trial is one oracle evaluation of one (point, form);
* ``draws_per_s``: Gaussian normals drawn per wall second, computed from the
  array shapes;
* ``peak_rss_mb``: the larger of this process's peak RSS and that of its
  largest child (a pool worker or a set-up probe).

``error_rate`` (failed / attempted operations) is printed in the table and
carried by the ``attempted`` and ``failed`` fields of the result.

With ``--trace 1`` it alternates untraced and traced units (see `spans`),
checks that both give the same bytes, writes the spans to ``.perfbench/``
and reports the per-layer metrics.  ``trace.overhead_share`` is the traced
median unit wall over the untraced one, minus 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every metric with its unit, sample count and the tail percentile, and
the environment.  BLAS is pinned to one thread in this process and every
process it starts.
"""

from __future__ import annotations

import os

# OpenBLAS sizes its thread pool when numpy loads it, so pin before any import
# that loads numpy; forked pool workers and set-up probes inherit the pin.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"

PARSE_REPEATS = 200
MIN_UNITS = 3

#: Runs in a fresh interpreter: argv[1] is the source directory, stdin the
#: rendered config.  Prints the set-up seconds and whether the round trip held.
SETUP_PROBE = """
import sys, time
text = sys.stdin.read()
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import rff_lab
back = rff_lab.render_config(rff_lab.parse_config(text))
elapsed = time.perf_counter() - start
print(elapsed, back == text)
"""


@dataclass
class Sample:
    """One unit of work: wall and CPU seconds, and what it produced."""

    wall: float
    cpu: float
    result: object  # workloads.UnitResult, or None if the unit raised
    #: factors that take this unit's wall and CPU times to reference machine speed
    scale: float = 1.0
    cpu_scale: float = 1.0


@dataclass
class Ledger:
    """Operations attempted and failed over a run, and every problem seen."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    first_text: str | None = None

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        self.problems.append(why)

    def add(self, workload, result, label: str) -> None:
        self.attempted += workload.ops
        if result is None:
            self.fail(workload.ops, f"{label}: raised")
            return
        if result.failed:
            self.fail(result.failed, f"{label}: {result.failed} operations failed the output check")
        if self.first_text is None:
            self.first_text = result.text
        elif result.text != self.first_text:
            self.fail(workload.ops, f"{label}: output bytes differ from the first unit")


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_unit(workload, ledger: Ledger, label: str) -> Sample:
    cpu0 = _cpu_seconds()
    start = time.perf_counter()
    try:
        result = workload.run()
    except Exception:  # a raising unit is a failed unit, not a crashed benchmark
        traceback.print_exc()
        result = None
    wall = time.perf_counter() - start
    cpu = _cpu_seconds() - cpu0
    ledger.add(workload, result, label)
    return Sample(wall, cpu, result)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # Linux reports KiB


def setup_seconds(text: str, ledger: Ledger) -> float | None:
    """One set-up probe in a fresh interpreter; None if it failed."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(SRC)],
        input=text, capture_output=True, text=True, timeout=120, check=False,
    )
    fields = done.stdout.split()
    if done.returncode != 0 or len(fields) != 2 or fields[1] != "True":
        # Not an operation of the workload, but the run is not correct.
        ledger.fail(0, f"set-up probe: exit {done.returncode}: {done.stderr.strip()[-300:]}")
        return None
    return float(fields[0])


def environment(workload) -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except Exception:  # older numpy has no dict mode; the version is informative only
        blas_text = "unknown"
    from workloads import usable_cpus

    return (
        f"env: nproc={usable_cpus()} python={platform.python_version()} "
        f"numpy={np.__version__} blas={blas_text} blas_threads={BLAS_THREADS} "
        f"workers={workload.workers}"
    )


# ---------------------------------------------------------------- reporting


def print_report(header: list[str], metrics: dict, ledger: Ledger) -> None:
    for line in header:
        print(line)
    width = max(len(name) for name in metrics)
    print(f"{'metric':<{width}}  {'value':>14}  {'unit':<8} {'n':>6}  detail")
    for name, m in metrics.items():
        print(f"{name:<{width}}  {m.value:>14.6g}  {m.unit:<8} {m.samples:>6}  {m.detail}")
    rate = ledger.failed / ledger.attempted if ledger.attempted else 1.0
    print(f"{'error_rate':<{width}}  {rate:>14.6g}  {'ratio':<8} {ledger.attempted:>6}  "
          "failed / attempted operations")
    for problem in ledger.problems:
        print(f"problem: {problem}")


def end_to_end(workload, seconds: float, ledger: Ledger) -> dict:
    from calibration import REFERENCE_S, kernel_seconds, scale
    from metrics import Metric, median_rate, timing
    from rff_lab.config import render_config

    text = render_config(workload.config)
    run_unit(workload, ledger, "warm-up")
    samples: list[Sample] = []
    setup: list[tuple[float, float]] = []  # (raw seconds, scale)
    kernels = [kernel_seconds()]
    deadline = time.perf_counter() + seconds
    while len(samples) < MIN_UNITS or time.perf_counter() < deadline:
        sample = run_unit(workload, ledger, f"unit {len(samples)}")
        kernels.append(kernel_seconds())
        (wall0, cpu0), (wall1, cpu1) = kernels[-2:]
        sample.scale, sample.cpu_scale = scale(wall0, wall1), scale(cpu0, cpu1)
        samples.append(sample)
        # One probe per unit spreads the set-up samples over the whole run;
        # it is short, so the kernel just before it gives its scale.
        probe = setup_seconds(text, ledger)
        if probe is not None:
            setup.append((probe, scale(wall1)))
    rss = peak_rss_mb()
    if workload.serial_text is not None:
        ledger.attempted += workload.ops
        if workload.serial_text() != ledger.first_text:
            ledger.fail(workload.ops, "one-worker output differs from the pooled output")
    print(f"speed: calibration kernel median {statistics.median(w for w, _ in kernels):.6g} s "
          f"over {len(kernels)} runs; times are scaled to its reference {REFERENCE_S:g} s")

    def scaled(values: list[tuple[float, float]], unit: str) -> Metric:
        metric = timing([raw * factor for raw, factor in values], unit)
        if values:
            metric.detail += f"; raw median {statistics.median(raw for raw, _ in values):.6g}"
        return metric

    return {
        "setup_s": scaled(setup, "s"),
        "wall_s": scaled([(s.wall, s.scale) for s in samples], "s"),
        "cpu_s": scaled([(s.cpu, s.cpu_scale) for s in samples], "s"),
        "trials_per_s": median_rate(samples, lambda r: r.trials),
        "draws_per_s": median_rate(samples, lambda r: r.normals),
        "peak_rss_mb": Metric(rss, "MB", 1, "peak over the run"),
    }


def traced(workload, seconds: float, ledger: Ledger) -> dict:
    from metrics import per_layer
    from rff_lab.config import parse_config, render_config
    from spans import Tracer

    run_unit(workload, ledger, "warm-up")
    text = render_config(workload.config)
    parse_ms = []
    for _ in range(PARSE_REPEATS):
        start = time.perf_counter()
        parse_config(text)
        parse_ms.append((time.perf_counter() - start) * 1e3)

    tracer = Tracer()
    plain: list[Sample] = []
    with_spans: list[Sample] = []
    deadline = time.perf_counter() + seconds
    while len(with_spans) < MIN_UNITS or time.perf_counter() < deadline:
        plain.append(run_unit(workload, ledger, f"untraced unit {len(plain)}"))
        with tracer.unit():
            with_spans.append(run_unit(workload, ledger, f"traced unit {len(with_spans)}"))

    TRACE_DIR.mkdir(exist_ok=True)
    tracer.dump(TRACE_DIR / f"trace-{workload.name}-seed{workload.seed}.json")
    print(f"spans: {len(tracer.spans)} written to {TRACE_DIR.name}/", file=sys.stderr)
    return per_layer(workload, tracer, plain, with_spans, parse_ms)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "rff_lab" / "__init__.py").is_file():
        print(f"error: no rff_lab package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"--workload must be one of {', '.join(workloads.NAMES)}")
    workload = workloads.make(args.workload, args.seed)
    ledger = Ledger()
    if args.trace:
        metrics = traced(workload, args.seconds, ledger)
    else:
        metrics = end_to_end(workload, args.seconds, ledger)

    unit = "one unit: " + (
        f"{workload.ops} oracle evaluations" if workload.name == "validate_claims"
        else f"{workload.ops} cells x {workload.config.n_trials} trials"
    )
    header = [
        f"workload={workload.name} seed={workload.seed} seconds={args.seconds:g} "
        f"trace={args.trace}; {unit}",
        environment(workload),
    ]
    print_report(header, metrics, ledger)
    result = {
        "correct": not ledger.problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": m.value, "unit": m.unit} for name, m in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
