"""Command-line interface: ``rff-lab <subcommand>``.

Subcommands
-----------
``sweep``
    Run the Monte-Carlo sweep for a configuration (default or ``--config``)
    and write the records as CSV or as a JSON bundle that also echoes the
    configuration, the tool version, and the wall time.
``validate-claims``
    Check every closed-form ratio moment against a fresh Monte-Carlo oracle
    on a fixed parameter grid and print one table row per quantity.  Exits 1
    if any in-regime quantity misses its tolerance (2% for means, 5% for
    second moments; the cross-difference mean must sit within 3 standard
    errors of 0).  When the process may use 2 CPUs, the 108 (point, form)
    evaluations wait in one queue in table order: the calling thread takes
    them from the front and a helper thread from the back, until the two
    meet; the table is the same bytes either way.  ``concurrent.futures``
    is imported only then, so no other command, nor a one-CPU run, loads it.
``correlate``
    Read a sweep CSV and report the Pearson correlation between the
    empirical silhouette score and the classification accuracy, with a
    permutation-test p-value.
``emit-config``
    Write the default configuration file.

Exit codes: 0 success, 1 validation failure, 2 input error, 3 runtime error.
All output files are UTF-8 with LF line endings; CSV floats carry 17
significant digits.
"""

from __future__ import annotations

import argparse
import collections
import csv
import enum
import io
import itertools
import json
import math
import os
import sys
import time
import traceback
from dataclasses import asdict, fields, replace
from typing import Sequence, get_type_hints

import numpy as np

from . import __version__, _scratch, gaussian_moments
from .channel import require_at_least
from .config import ConfigError, parse_config, render_config
from .experiments import (
    MIN_PERMUTATIONS,
    SweepRecord,
    correlate,
    default_config,
    run_sweep,
)
from .gaussian_moments import (
    GaussianSpec,
    RatioForm,
    RatioParams,
    cross_difference_moments,
    direct_ratio_moments,
    in_regime,
    mc_ratio_detail,
    paired_product_mean,
    reciprocal_moments,
)

__all__ = ["main", "CSV_HEADER", "format_records_csv", "parse_records_csv"]

ENV_THREADS = "RFF_LAB_THREADS"

#: each CSV column, in order, and the `SweepRecord` field it holds
CSV_COLUMNS = {
    "scenario": "scenario",
    "method": "method",
    "snr_db": "snr_db",
    "silhouette_emp": "silhouette_empirical",
    "silhouette_emp_se": "silhouette_empirical_stderr",
    "silhouette_ana": "silhouette_analytic",
    "accuracy": "accuracy",
    "accuracy_se": "accuracy_stderr",
    "nonfinite_rate": "nonfinite_rate",
}
CSV_HEADER = ",".join(CSV_COLUMNS)
#: what each `SweepRecord` field is read as: an enum or float
_FIELD_TYPES = get_type_hints(SweepRecord)

MEAN_TOLERANCE = 0.02
SECOND_MOMENT_TOLERANCE = 0.05

#: each ratio form's closed form, as the quantities it predicts in print order
CLOSED_FORMS = {
    RatioForm.DIRECT_RATIO: lambda g, p: asdict(direct_ratio_moments(g, p)),
    RatioForm.PAIRED_PRODUCT: lambda g, p: {"mean": paired_product_mean(g, p)},
    RatioForm.CROSS_DIFFERENCE: lambda g, p: asdict(cross_difference_moments(g, p)),
    RatioForm.RECIPROCAL: lambda g, p: asdict(reciprocal_moments(g, p)),
}
#: relative tolerance per quantity (a mean predicted as exactly 0 is gated on
#: the oracle's standard error instead)
QUANTITY_TOLERANCE = {"mean": MEAN_TOLERANCE, "second_moment": SECOND_MOMENT_TOLERANCE}

#: validation grid: every combination is exercised against the oracle
VALIDATION_MU_G = (1.0,)
VALIDATION_SIGMA_G = (0.0, 0.1, 0.15)
VALIDATION_RHO = (0.5, 1.0, 2.0)
VALIDATION_SIGMA_W = (0.001, 0.01, 0.05)


def _g17(value: float) -> str:
    return "%.17g" % value


def _csv_cell(value: enum.Enum | float) -> str:
    return value.value if isinstance(value, enum.Enum) else _g17(value)


def format_records_csv(records: Sequence[SweepRecord]) -> str:
    """Render sweep records with the fixed header and 17-digit floats."""
    lines = [CSV_HEADER]
    for r in records:
        lines.append(",".join(_csv_cell(getattr(r, field)) for field in CSV_COLUMNS.values()))
    return "\n".join(lines) + "\n"


def parse_records_csv(text: str) -> list[SweepRecord]:
    """Read records written by `format_records_csv` (column order free)."""
    reader = csv.DictReader(io.StringIO(text))
    missing = sorted(set(CSV_COLUMNS) - set(reader.fieldnames or ()))
    if missing:
        raise ValueError(f"records CSV is missing columns: {', '.join(missing)}")
    records = []
    for row_no, row in enumerate(reader, start=2):
        try:
            values = {
                field: _FIELD_TYPES[field](row[column]) for column, field in CSV_COLUMNS.items()
            }
        except (TypeError, ValueError) as exc:
            raise ValueError(f"records CSV line {row_no}: {exc}") from None
        records.append(SweepRecord(**values))
    return records


def _json_value(value: enum.Enum | float) -> str | float | None:
    if isinstance(value, enum.Enum):
        return value.value
    return value if math.isfinite(value) else None


def format_bundle_json(
    records: Sequence[SweepRecord], config_echo: str, wall_time_seconds: float
) -> str:
    """The JSON bundle: tool version, wall time, config echo and the records.

    JSON has no NaN: an undefined value (a one-trial cell's stderr) is null.
    """
    payload = {
        "tool_version": __version__,
        "wall_time_seconds": wall_time_seconds,
        "config_echo": config_echo,
        "records": [
            {f.name: _json_value(getattr(r, f.name)) for f in fields(r)} for r in records
        ],
    }
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _write_out(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def _read_file(path: str) -> str:
    with open(path, "r", encoding="utf-8-sig") as handle:
        return handle.read()


def _load_config(path: str | None):
    if path is None:
        return default_config()
    return parse_config(_read_file(path))


def _resolve_threads(cli_value: int | None) -> int:
    if cli_value is not None:
        return require_at_least("--threads", cli_value, 1)
    env = os.environ.get(ENV_THREADS)
    if env is None:
        return 1
    try:
        threads = int(env)
    except ValueError:
        raise ConfigError(f"{ENV_THREADS} must be an integer, got {env!r}") from None
    return require_at_least(ENV_THREADS, threads, 1)


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    if args.trials is not None:
        cfg = replace(cfg, n_trials=require_at_least("--trials", args.trials, 1))
    if args.seed is not None:
        cfg = replace(cfg, master_seed=require_at_least("--seed", args.seed, 0))
    n_threads = _resolve_threads(args.threads)

    start = time.perf_counter()
    records = run_sweep(cfg, n_threads=n_threads)
    wall = time.perf_counter() - start

    if args.format == "csv":
        text = format_records_csv(records)
    else:
        text = format_bundle_json(records, render_config(cfg), wall)
    _write_out(args.out, text)
    print(
        f"sweep: {len(records)} records, {cfg.n_trials} trials/cell, "
        f"{wall:.1f} s with {n_threads} worker process(es)",
        file=sys.stderr,
    )
    return 0


def _validation_seed(base_seed: int, point_index: int, form_index: int) -> int:
    return int(
        np.random.SeedSequence((base_seed, point_index, form_index)).generate_state(1)[0]
    )


def cmd_validate_claims(args: argparse.Namespace) -> int:
    require_at_least("--draws", args.draws, 10**4)
    require_at_least("--seed", args.seed, 0)
    start = time.perf_counter()
    header = (
        f"{'form':<18}{'quantity':<16}{'sigma_g':>8}{'rho':>6}{'sigma_w':>9}"
        f"{'analytic':>14}{'oracle':>14}{'rel_err':>10}  status"
    )
    print(header)
    print("-" * len(header))

    points = list(
        itertools.product(VALIDATION_MU_G, VALIDATION_SIGMA_G, VALIDATION_RHO, VALIDATION_SIGMA_W)
    )
    specs = [
        (GaussianSpec(mean=mu_g, variance=sigma_g**2),
         RatioParams(rho=rho, noise_variance=sigma_w**2))
        for mu_g, sigma_g, rho, sigma_w in points
    ]
    forms = list(RatioForm)

    def oracle_args(entry: tuple[int, int]) -> tuple:
        point_index, form_index = entry
        seed = _validation_seed(args.seed, point_index, form_index)
        return (forms[form_index], *specs[point_index], args.draws, seed)

    n_failures = 0
    n_rows = 0

    def print_rows(entry: tuple[int, int], mc) -> None:
        nonlocal n_failures, n_rows
        point_index, form_index = entry
        _, sigma_g, rho, sigma_w = points[point_index]
        g, p = specs[point_index]
        form = forms[form_index]
        gated = in_regime(g, p)
        for quantity, predicted in CLOSED_FORMS[form](g, p).items():
            n_rows += 1
            observed = getattr(mc.moments, quantity)
            if quantity == "mean" and predicted == 0.0:
                # zero-mean prediction: gate on the oracle's own standard error
                ok = abs(observed) <= 3.0 * mc.se_mean
                rel_text = "-"
            else:
                rel_err = abs(predicted - observed) / abs(observed)
                ok = rel_err <= QUANTITY_TOLERANCE[quantity]
                rel_text = f"{rel_err:.5f}"
            if gated and not ok:
                n_failures += 1
            status = ("ok" if ok else "FAIL") + ("" if gated else " (out-of-regime)")
            print(
                f"{form.value:<18}{quantity:<16}{sigma_g:>8g}{rho:>6g}{sigma_w:>9g}"
                f"{predicted:>14.6g}{observed:>14.6g}{rel_text:>10}  {status}"
            )

    # Every (point, form) in table order.  The calling lane takes entries from
    # the front and prints each as it goes; the helper takes them from the
    # back, so the two meet wherever their speeds put them.  deque's pop and
    # popleft are atomic, so each entry is evaluated exactly once.
    queue = collections.deque(itertools.product(range(len(points)), range(len(forms))))

    def drain_from_the_back() -> list:
        # The helper calls the oracle itself, not this module's attribute,
        # which a benchmark tracer replaces with one span stack for all
        # threads.  A failure ends the lane: the entries below it are left
        # to the calling lane, which prints exactly the rows before it.
        done = []
        while True:
            try:
                entry = queue.pop()
            except IndexError:
                return done
            done.append((entry, gaussian_moments.mc_ratio_detail(*oracle_args(entry))))

    # On one CPU, two lanes ran no faster than one and held 7% more peak RSS,
    # the helper's scratch rows (BENCH_18.json), so the calling lane runs alone.
    helper = None
    if _scratch.usable_cpus() >= 2:
        # imported here, so that a command without a helper does not load it
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(max_workers=1)
        helper = pool.submit(drain_from_the_back)
    try:
        while True:
            try:
                entry = queue.popleft()
            except IndexError:
                break
            print_rows(entry, mc_ratio_detail(*oracle_args(entry)))
        if helper is not None:
            # the helper's results, taken in descending order, follow in table order
            for entry, mc in reversed(helper.result()):
                print_rows(entry, mc)
    finally:
        if helper is not None:
            # After a failure on this lane the helper stops at its next pop,
            # and this lane's error, the earlier row, is the one reported.
            queue.clear()
            pool.shutdown()

    wall = time.perf_counter() - start
    print("-" * len(header))
    print(
        f"checked {len(points)} grid points ({n_rows} quantities) with "
        f"{args.draws} draws each in {wall:.1f} s"
    )
    if n_failures:
        print(f"validation FAILED: {n_failures} in-regime quantities out of tolerance")
        return 1
    print("validation passed: all in-regime quantities within tolerance")
    return 0


def cmd_correlate(args: argparse.Namespace) -> int:
    require_at_least("--permutations", args.permutations, MIN_PERMUTATIONS)
    require_at_least("--seed", args.seed, 0)
    records = parse_records_csv(_read_file(args.records))
    report = correlate(records, n_permutations=args.permutations, seed=args.seed)
    if args.format == "json":
        text = json.dumps(asdict(report), indent=2) + "\n"
    else:
        text = (
            f"n_points = {report.n_points}\n"
            f"pearson_r = {_g17(report.pearson_r)}\n"
            f"p_value = {_g17(report.p_value)}\n"
            f"ls_slope = {_g17(report.ls_slope)}\n"
            f"ls_intercept = {_g17(report.ls_intercept)}\n"
        )
    _write_out(args.out, text)
    return 0


def cmd_emit_config(args: argparse.Namespace) -> int:
    _write_out(args.out, render_config(default_config()))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rff-lab",
        description="Simulation laboratory for radio-frequency-fingerprint "
        "feature extraction.",
    )
    parser.add_argument("--version", action="version", version=f"rff-lab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run the Monte-Carlo sweep")
    sweep.add_argument("--config", default=None, help="configuration file path")
    sweep.add_argument("--out", default=None, help="output path (default: stdout)")
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    sweep.add_argument(
        "--seed", type=int, default=None,
        help="master seed override (default 42 via the configuration)",
    )
    sweep.add_argument(
        "--threads", type=int, default=None,
        help=f"worker processes (default: ${ENV_THREADS} or 1)",
    )
    sweep.add_argument("--trials", type=int, default=None, help="trials per cell override")
    sweep.set_defaults(func=cmd_sweep)

    validate = sub.add_parser(
        "validate-claims", help="compare closed-form moments against the oracle"
    )
    validate.add_argument("--draws", type=int, default=10**6, help="oracle draws per form")
    validate.add_argument("--seed", type=int, default=42)
    validate.set_defaults(func=cmd_validate_claims)

    corr = sub.add_parser(
        "correlate", help="correlate empirical silhouette with accuracy from a sweep CSV"
    )
    corr.add_argument("--records", required=True, help="CSV written by 'sweep'")
    corr.add_argument("--permutations", type=int, default=1000)
    corr.add_argument("--seed", type=int, default=42)
    corr.add_argument("--format", choices=("text", "json"), default="text")
    corr.add_argument("--out", default=None)
    corr.set_defaults(func=cmd_correlate)

    emit = sub.add_parser("emit-config", help="write the default configuration")
    emit.add_argument("--out", default=None)
    emit.set_defaults(func=cmd_emit_config)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # pragma: no cover - defensive
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
