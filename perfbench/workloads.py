"""Workloads of the rff-lab benchmark.

Each workload turns the benchmark seed into a library input, runs one *unit*
of work through rff_lab's public API, and checks the unit's output.  The seed
becomes the sweep's ``master_seed`` (or the oracle's ``--seed``); the library
sees nothing else of the benchmark.

Output checks count *operations*: a grid cell for a sweep, a (grid point,
ratio form) pair for the oracle.  At every seed the checks are invariants.  At
the reference seed in ``reference.json`` the output bytes must also hash to the
recorded digest; a mismatch fails every operation of the unit.  Both sweep
workloads share one digest, which is the contract that sweep results do not
depend on the worker count.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, replace
from itertools import zip_longest
from pathlib import Path
from typing import Callable

from rff_lab import cli
from rff_lab.channel import ChannelScenario
from rff_lab.experiments import ExperimentConfig, SweepRecord, default_config, run_sweep
from rff_lab.gaussian_moments import RatioForm
from rff_lab.signal_model import Method

REFERENCE = json.loads(Path(__file__).with_name("reference.json").read_text())

#: trials per cell of the sweep workloads: the fewest with a finite standard error
SWEEP_TRIALS = 2
#: trials per cell of population_wide
POPULATION_TRIALS = 8
#: oracle draws per (point, form) of validate_claims; the CLI default is 1e6
ORACLE_DRAWS = 200_000

#: normals each ratio form draws per oracle draw (signal variables plus noises)
ORACLE_NORMALS_PER_DRAW = {
    RatioForm.DIRECT_RATIO: 2,
    RatioForm.PAIRED_PRODUCT: 3,
    RatioForm.CROSS_DIFFERENCE: 4,
    RatioForm.RECIPROCAL: 2,
}

NAMES = ("sweep_default", "sweep_pool", "population_wide", "validate_claims")

#: sweep_pool runs one worker per usable CPU, but at least two so the pool
#: path runs, and at most this many to bound the memory of forked workers
MAX_POOL_WORKERS = 8


@dataclass(frozen=True)
class UnitResult:
    """What one unit of work produced, after its output check."""

    #: output bytes that must not depend on the worker count or on tracing
    text: str
    failed: int
    #: sweep trials, or oracle evaluations for validate_claims
    trials: int
    #: Gaussian normals drawn, computed from array shapes
    normals: int
    #: sweep records (empty for validate_claims)
    records: tuple[SweepRecord, ...] = ()
    #: in-regime quantities the oracle put out of tolerance
    out_of_tolerance: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    #: the configuration a CLI run of this workload parses at set-up
    config: ExperimentConfig
    workers: int
    #: operations per unit
    ops: int
    run: Callable[[], UnitResult]
    #: the same output from one worker, where the workload uses several
    serial_text: Callable[[], str] | None = None


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def sweep_config(seed: int) -> ExperimentConfig:
    """The default sweep with only the trial count reduced."""
    return replace(default_config(), n_trials=SWEEP_TRIALS, master_seed=seed)


def population_config(seed: int) -> ExperimentConfig:
    """All 15 (scenario, method) pairs at 30 dB over a wide, shallow population."""
    return replace(
        default_config(),
        snr_db_grid=(30.0,),
        n_devices=40,
        n_train=10,
        n_test=10,
        n_trials=POPULATION_TRIALS,
        master_seed=seed,
    )


def make(name: str, seed: int) -> Workload:
    if name in ("sweep_default", "sweep_pool"):
        workers = min(max(2, usable_cpus()), MAX_POOL_WORKERS) if name == "sweep_pool" else 1
        return _sweep_workload(name, seed, sweep_config(seed), workers, "sweep")
    if name == "population_wide":
        return _sweep_workload(name, seed, population_config(seed), 1, "population_wide")
    if name == "validate_claims":
        return _oracle_workload(seed)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


def _reference_ok(kind: str, seed: int, text: str) -> bool:
    """False only when ``seed`` is the reference seed and the digest differs."""
    if seed != REFERENCE["seed"]:
        return True
    return hashlib.sha256(text.encode()).hexdigest() == REFERENCE["sha256"][kind]


# --------------------------------------------------------------------- sweeps


def expected_cells(cfg: ExperimentConfig) -> list[tuple[ChannelScenario, Method, float]]:
    cells = [(s, m, snr) for s in cfg.scenarios for m in cfg.methods for snr in cfg.snr_db_grid]
    return sorted(cells, key=lambda c: (c[0].value, c[1].value, c[2]))


def normals_per_trial(cfg: ExperimentConfig, scenario: ChannelScenario, method: Method) -> int:
    """Normals one trial draws, from the array shapes in the documented draw order.

    A deterministic trial draws its K-vector once and no per-sample CSI; every
    device draws both fingerprint vectors; each sample draws one noise block
    for RAW and two for the ratio methods.
    """
    p = cfg.params
    k = method.subcarriers(p)
    fixed = scenario is ChannelScenario.DETERMINISTIC
    blocks_per_sample = (0 if fixed else 1) + (1 if method is Method.RAW else 2)
    per_device = p.r_l + p.r_s + (cfg.n_train + cfg.n_test) * k * blocks_per_sample
    return (k if fixed else 0) + cfg.n_devices * per_device


def sweep_normals(cfg: ExperimentConfig) -> int:
    return sum(
        normals_per_trial(cfg, s, m) * cfg.n_trials for s, m, _ in expected_cells(cfg)
    )


def _record_ok(cell, record: SweepRecord | None) -> bool:
    if record is None or cell is None:
        return False
    if (record.scenario, record.method, record.snr_db) != cell:
        return False
    values = (
        record.silhouette_empirical,
        record.silhouette_empirical_stderr,
        record.silhouette_analytic,
        record.accuracy,
        record.accuracy_stderr,
        record.nonfinite_rate,
    )
    return (
        all(math.isfinite(v) for v in values)
        and -1.0 <= record.silhouette_empirical <= 1.0
        and -1.0 <= record.silhouette_analytic <= 1.0
        and 0.0 <= record.accuracy <= 1.0
        and 0.0 <= record.nonfinite_rate <= 1.0
        and record.silhouette_empirical_stderr >= 0.0
        and record.accuracy_stderr >= 0.0
    )


def _sweep_workload(
    name: str, seed: int, cfg: ExperimentConfig, workers: int, reference: str
) -> Workload:
    cells = expected_cells(cfg)
    n_cells = len(cells)
    normals = sweep_normals(cfg)

    def run() -> UnitResult:
        records = tuple(run_sweep(cfg, n_threads=workers))
        text = cli.format_records_csv(records)
        if _reference_ok(reference, seed, text):
            failed = min(n_cells, sum(not _record_ok(c, r) for c, r in zip_longest(cells, records)))
        else:
            failed = n_cells
        return UnitResult(
            text=text,
            failed=failed,
            trials=n_cells * cfg.n_trials,
            normals=normals,
            records=records,
        )

    def serial_text() -> str:
        return cli.format_records_csv(run_sweep(cfg, n_threads=1))

    return Workload(name, seed, cfg, workers, n_cells, run, serial_text if workers > 1 else None)


# --------------------------------------------------------------------- oracle


def _oracle_workload(seed: int) -> Workload:
    points = [
        (sigma_g, rho, sigma_w)
        for _mu_g in cli.VALIDATION_MU_G
        for sigma_g in cli.VALIDATION_SIGMA_G
        for rho in cli.VALIDATION_RHO
        for sigma_w in cli.VALIDATION_SIGMA_W
    ]
    # The table does not print mu_g, so operations are keyed by the rest.
    keys = {
        (form.value, f"{sg:g}", f"{rho:g}", f"{sw:g}") for form in RatioForm for sg, rho, sw in points
    }
    ops = len(points) * len(RatioForm)
    normals = len(points) * ORACLE_DRAWS * sum(ORACLE_NORMALS_PER_DRAW.values())
    argv = ["validate-claims", "--draws", str(ORACLE_DRAWS), "--seed", str(seed)]

    def run() -> UnitResult:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        # The timing line ("checked ... in X s") is the only line that varies.
        lines = [ln for ln in out.getvalue().splitlines() if not ln.startswith("checked ")]
        text = "\n".join(lines) + "\n"
        rows = _table_rows(lines)
        out_of_tolerance = sum(status == "FAIL" for _, _, status in rows)
        # Exit 1 is the known in-regime tolerance failure, which is data, not
        # a failed operation; any other non-zero exit means the command broke.
        if code not in (0, 1) or not _reference_ok("validate_claims", seed, text):
            failed = ops
        else:
            bad = {key for key, finite, _ in rows if not finite}
            good = {key for key, _, _ in rows} - bad
            failed = ops - len(good & keys)
        return UnitResult(
            text=text,
            failed=failed,
            trials=ops,
            normals=normals,
            out_of_tolerance=out_of_tolerance,
        )

    return Workload("validate_claims", seed, default_config(), 1, ops, run)


def _table_rows(lines: list[str]) -> list[tuple[tuple[str, ...], bool, str]]:
    """(key, analytic and oracle finite, status) for each row between the rules."""
    rules = [i for i, ln in enumerate(lines) if ln and set(ln) == {"-"}]
    if len(rules) < 2:
        return []
    rows = []
    for line in lines[rules[0] + 1 : rules[1]]:
        fields = line.split()
        if len(fields) < 9:
            continue
        form, _quantity, sigma_g, rho, sigma_w, analytic, oracle = fields[:7]
        try:
            finite = math.isfinite(float(analytic)) and math.isfinite(float(oracle))
        except ValueError:
            finite = False
        rows.append(((form, sigma_g, rho, sigma_w), finite, " ".join(fields[8:])))
    return rows
