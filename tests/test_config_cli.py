"""Tests for the configuration format, the CSV/JSON codecs, and the CLI."""

import contextlib
import hashlib
import io
import itertools
import json
import math
import re
import sys
import tempfile
import threading
import warnings
from dataclasses import fields, is_dataclass, replace
from pathlib import Path
from typing import get_type_hints

import pytest
from fresh_process import run_fresh
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rff_lab import _scratch, cli, config, experiments, gaussian_moments
from rff_lab.channel import ChannelScenario
from rff_lab.cli import (
    CSV_HEADER,
    format_bundle_json,
    format_records_csv,
    main,
    parse_records_csv,
)
from rff_lab.config import (
    CONFIG_KEYS,
    ConfigError,
    parse_config,
    render_config,
)
from rff_lab.experiments import SweepRecord, default_config
from rff_lab.gaussian_moments import GaussianSpec, RatioForm, RatioParams
from rff_lab.signal_model import Method

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

SMALL_CONFIG_TEXT = """
# small deterministic run for fast CLI tests
experiment.n_devices = 2
experiment.n_train = 8
experiment.n_test = 8
experiment.n_trials = 2
experiment.scenarios = deterministic
experiment.methods = raw,cr
experiment.snr_db_grid = 20
"""


#: every float constant of the model and the channel
FLOAT_CONSTANTS = [
    key
    for key, (section, _, parse, _) in CONFIG_KEYS.items()
    if section in ("model", "channel") and parse is float
]

#: finite values at the edges of the floats; None leaves the default
EXTREMES = (None, 1e300, -1e300, 1e-300, -1e-300, 1e200, -1e200, 1e-200, -1e-200, 5e-324, 0.0)

#: a subnormal channel: CR's features are non-finite in nearly every row
SUBNORMAL_CHANNEL = """
experiment.n_devices = 2
experiment.n_trials = 1
experiment.scenarios = iid
experiment.methods = cr
experiment.snr_db_grid = 30
channel.mu_h = 5e-324
channel.sigma_h = 5e-324
"""


def small_records() -> list[SweepRecord]:
    return [
        SweepRecord(
            scenario=ChannelScenario.IID_STOCHASTIC,
            method=method,
            snr_db=snr,
            silhouette_empirical=0.1 * i + 0.01,
            silhouette_empirical_stderr=0.001 * (i + 1),
            silhouette_analytic=0.1 * i + 0.015,
            accuracy=min(1.0, 0.5 + 0.07 * i),
            accuracy_stderr=0.002,
            nonfinite_rate=0.0,
        )
        for i, (method, snr) in enumerate(
            (m, s) for m in (Method.RAW, Method.SL, Method.RC) for s in (0.0, 20.0)
        )
    ]


class TestConfigRoundTrip:
    def test_default_round_trips_exactly(self):
        cfg = default_config()
        assert parse_config(render_config(cfg)) == cfg

    def test_modified_config_round_trips(self):
        base = default_config()
        cfg = replace(
            base,
            params=replace(
                base.params,
                sigma_u=0.17,
                channel=replace(base.params.channel, sigma_h=0.09),
            ),
            methods=(Method.RC, Method.RAW),
            snr_db_grid=(5.0, 12.5),
            master_seed=9,
        )
        assert parse_config(render_config(cfg)) == cfg

    def test_empty_text_gives_defaults(self):
        assert parse_config("") == default_config()

    def test_comments_and_blanks_are_ignored(self):
        text = "\n# a comment\n\nexperiment.n_trials = 7\n\n"
        assert parse_config(text) == replace(default_config(), n_trials=7)

    def test_rendered_text_covers_every_key(self):
        text = render_config(default_config())
        for key in CONFIG_KEYS:
            assert f"{key} = " in text

    def test_parsing_a_config_does_not_import_numpy_random(self):
        # Every process start pays for what `import rff_lab` pulls in, so the
        # random streams import numpy.random only when a trial first runs.
        script = (
            "import sys, rff_lab\n"
            "rff_lab.parse_config(rff_lab.render_config(rff_lab.default_config()))\n"
            "print('numpy.random' in sys.modules)\n"
        )
        assert run_fresh(script).strip() == "False"


def _records(cfg):
    """Each config section and the record that holds its settings in ``cfg``."""
    return {"model": cfg.params, "channel": cfg.params.channel, "experiment": cfg}


def _with_setting(cfg, section, attribute, value):
    """``cfg`` with one setting of one section's record replaced."""
    change = {attribute: value}
    if section == "channel":
        change = {"channel": replace(cfg.params.channel, **change)}
    if section in ("model", "channel"):
        return replace(cfg, params=replace(cfg.params, **change))
    return replace(cfg, **change)


def _non_default(value):
    """A valid value of ``value``'s type that differs from it."""
    if isinstance(value, tuple):
        return value[::-1]
    if isinstance(value, float):
        return value + 0.1  # e.g. 0.30000000000000004: every digit must survive
    return value + 1


class TestConfigKeysAreTheRecordsFields:
    def test_keys_are_every_non_record_field_in_declaration_order(self):
        expected = [
            f"{section}.{field.name}"
            for section, record in _records(default_config()).items()
            for field in fields(record)
            if not is_dataclass(getattr(record, field.name))
        ]
        assert list(CONFIG_KEYS) == expected

    def test_every_codec_is_the_type_of_a_field(self):
        # a codec left behind by a removed field fails here, as a field with
        # no codec fails at import
        hints = {
            hint
            for record in config._RECORDS.values()
            for hint in get_type_hints(record).values()
        }
        assert set(config._CODECS) <= hints

    @pytest.mark.parametrize("key", list(CONFIG_KEYS))
    def test_each_key_round_trips_a_non_default_value(self, key):
        section, attribute, _, _ = CONFIG_KEYS[key]
        base = default_config()
        default = getattr(_records(base)[section], attribute)
        value = _non_default(default)
        assert value != default
        cfg = _with_setting(base, section, attribute, value)
        assert getattr(_records(cfg)[section], attribute) == value
        assert parse_config(render_config(cfg)) == cfg


class TestPinnedBytes:
    """The config and JSON writers reproduce these exact bytes across commits."""

    def test_default_config_text_is_pinned(self):
        text = render_config(default_config())
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "d0323d272ae4ccfe55b2aa0d9fd32349032d4bd42bd7006c81807639708f1311"
        )

    def test_json_bundle_is_pinned(self):
        text = format_bundle_json(small_records(), "echo", 1.5)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "9a628ff8976dbea16c9f320f97e16b67edca37a58c0fccefde911425c0afbe4e"
        )


class TestConfigErrors:
    def test_unknown_key_names_the_line(self):
        with pytest.raises(ConfigError, match=r"line 2: unknown key 'model\.bogus'"):
            parse_config("\nmodel.bogus = 1\n")

    def test_duplicate_key_names_both_lines(self):
        text = "model.mu_u = 1.0\nmodel.mu_u = 2.0\n"
        with pytest.raises(ConfigError, match=r"line 2: duplicate key.*line 1"):
            parse_config(text)

    def test_missing_equals_sign(self):
        with pytest.raises(ConfigError, match=r"line 1: expected 'key = value'"):
            parse_config("model.mu_u 1.0\n")

    def test_bad_float_value(self):
        with pytest.raises(ConfigError, match=r"line 1: bad value for 'model\.mu_u'"):
            parse_config("model.mu_u = fast\n")

    def test_bad_enum_value(self):
        with pytest.raises(ConfigError, match=r"expected values from: raw"):
            parse_config("experiment.methods = raw,warp\n")

    def test_semantic_validation_is_reported(self):
        with pytest.raises(ConfigError, match="configuration invalid"):
            parse_config("experiment.n_devices = 1\n")

    @pytest.mark.parametrize(
        "key, least, value",
        [
            # per-sample normalization needs at least two subcarriers
            ("model.r_l", 2, "1"),
            ("model.r_s", 2, "1"),
            ("model.sigma_u", 0, "-0.5"),
            ("model.sigma_s", 0, "-0.5"),
            ("model.sigma_n", 0, "-0.5"),
            ("channel.sigma_h", 0, "-0.5"),
            ("channel.sigma_h_non", 0, "-0.5"),
            # the silhouette and the LDA need 2 devices and 2 samples per phase
            ("experiment.n_devices", 2, "1"),
            ("experiment.n_train", 2, "1"),
            ("experiment.n_test", 2, "1"),
            ("experiment.n_trials", 1, "0"),
            ("experiment.master_seed", 0, "-1"),
        ],
    )
    def test_a_value_below_its_least_is_rejected_naming_field_and_value(
        self, key, least, value
    ):
        attribute = key.partition(".")[2]
        with pytest.raises(ConfigError) as excinfo:
            parse_config(f"{key} = {value}\n")
        assert str(excinfo.value) == (
            f"configuration invalid: {attribute} must be >= {least}, got {value}"
        )

    @pytest.mark.parametrize("grid", ["inf", "0,-inf", "20,nan"])
    def test_a_non_finite_snr_is_rejected_naming_it(self, grid):
        value = grid.rpartition(",")[2]
        with pytest.raises(ConfigError) as excinfo:
            parse_config(f"experiment.snr_db_grid = {grid}\n")
        assert str(excinfo.value) == (
            f"configuration invalid: snr_db_grid must be finite, got {value}"
        )

    def test_snr_whose_noise_std_overflows_is_rejected_at_parse(self):
        # checked per grid point when the config is built, before any trial runs
        with pytest.raises(
            ConfigError, match=r"configuration invalid: snr_db=-7000\.0 is out of range"
        ):
            parse_config("experiment.snr_db_grid = -7000\n")

    def test_zero_reference_amplitude_is_rejected_at_parse(self):
        with pytest.raises(ConfigError, match="reference amplitude is 0"):
            parse_config("model.mu_u = 0\n")

    def test_config_error_is_a_value_error(self):
        assert issubclass(ConfigError, ValueError)


class TestRecordsCsv:
    def test_header_is_the_documented_string(self):
        assert CSV_HEADER == (
            "scenario,method,snr_db,silhouette_emp,silhouette_emp_se,"
            "silhouette_ana,accuracy,accuracy_se,nonfinite_rate"
        )

    def test_round_trip_is_exact(self):
        records = small_records()
        assert parse_records_csv(format_records_csv(records)) == records

    def test_17_digit_floats_survive(self):
        records = [
            replace(
                small_records()[0],
                silhouette_empirical=1.0 / 3.0,
                accuracy=2.0 / 3.0,
                snr_db=0.1,
            )
        ]
        (parsed,) = parse_records_csv(format_records_csv(records))
        assert parsed.silhouette_empirical == 1.0 / 3.0
        assert parsed.accuracy == 2.0 / 3.0
        assert parsed.snr_db == 0.1

    def test_column_order_is_free_on_input(self):
        records = small_records()[:2]
        text = format_records_csv(records)
        header, *rows = text.strip().split("\n")
        columns = header.split(",")
        order = list(reversed(range(len(columns))))
        shuffled_lines = [",".join(line.split(",")[i] for i in order)
                          for line in [header, *rows]]
        assert parse_records_csv("\n".join(shuffled_lines) + "\n") == records

    def test_missing_column_is_reported(self):
        text = "scenario,method\niid,raw\n"
        with pytest.raises(ValueError, match="missing columns: accuracy"):
            parse_records_csv(text)

    def test_bad_cell_names_the_line(self):
        text = format_records_csv(small_records()[:2])
        broken = text.replace("iid,raw,20", "iid,raw,fast")
        assert broken != text
        with pytest.raises(ValueError, match="line 3"):
            parse_records_csv(broken)


class TestCliSweep:
    def test_sweep_writes_csv_and_reruns_byte_identically(self, tmp_path):
        config_path = tmp_path / "small.cfg"
        config_path.write_text(SMALL_CONFIG_TEXT, encoding="utf-8")
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(["sweep", "--config", str(config_path), "--out", str(out_a)]) == 0
        assert main(["sweep", "--config", str(config_path), "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        records = parse_records_csv(out_a.read_text(encoding="utf-8"))
        assert [r.method for r in records] == [Method.CR, Method.RAW]

    def test_sweep_json_bundle_echoes_the_configuration(self, tmp_path):
        config_path = tmp_path / "small.cfg"
        config_path.write_text(SMALL_CONFIG_TEXT, encoding="utf-8")
        out = tmp_path / "bundle.json"
        code = main(
            ["sweep", "--config", str(config_path), "--format", "json",
             "--out", str(out), "--trials", "1"]
        )
        assert code == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert set(payload) == {
            "tool_version", "wall_time_seconds", "config_echo", "records"
        }
        echoed = parse_config(payload["config_echo"])
        assert echoed.n_trials == 1
        assert echoed.n_devices == 2
        assert payload["wall_time_seconds"] > 0.0
        assert len(payload["records"]) == 2
        assert payload["records"][0]["scenario"] == "deterministic"

    def test_one_trial_json_bundle_is_strict_json(self, tmp_path):
        # one trial leaves every standard error undefined; RFC 8259 has no NaN
        config_path = tmp_path / "small.cfg"
        config_path.write_text(SMALL_CONFIG_TEXT, encoding="utf-8")
        out = tmp_path / "bundle.json"
        argv = ["sweep", "--config", str(config_path), "--trials", "1", "--out", str(out)]
        assert main([*argv, "--format", "json"]) == 0

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        payload = json.loads(out.read_text(encoding="utf-8"), parse_constant=reject)
        for record in payload["records"]:
            assert record["silhouette_empirical_stderr"] is None
            assert record["accuracy_stderr"] is None
            assert isinstance(record["silhouette_empirical"], float)
        assert main([*argv, "--format", "csv"]) == 0
        for record in parse_records_csv(out.read_text(encoding="utf-8")):
            assert math.isnan(record.silhouette_empirical_stderr)
            assert math.isnan(record.accuracy_stderr)

    def test_seed_override_changes_the_numbers(self, tmp_path):
        config_path = tmp_path / "small.cfg"
        config_path.write_text(SMALL_CONFIG_TEXT, encoding="utf-8")
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        base = ["sweep", "--config", str(config_path)]
        assert main(base + ["--out", str(out_a)]) == 0
        assert main(base + ["--out", str(out_b), "--seed", "7"]) == 0
        assert out_a.read_bytes() != out_b.read_bytes()

    def test_thread_env_variable_is_honoured(self, tmp_path, monkeypatch):
        config_path = tmp_path / "small.cfg"
        config_path.write_text(SMALL_CONFIG_TEXT, encoding="utf-8")
        out_env = tmp_path / "env.csv"
        out_one = tmp_path / "one.csv"
        assert main(["sweep", "--config", str(config_path), "--out", str(out_one)]) == 0
        monkeypatch.setenv("RFF_LAB_THREADS", "2")
        assert main(["sweep", "--config", str(config_path), "--out", str(out_env)]) == 0
        assert out_env.read_bytes() == out_one.read_bytes()

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--config", "/nonexistent/path.cfg"],
            ["sweep", "--threads", "0", "--trials", "1"],
        ],
    )
    def test_input_errors_exit_2(self, argv, tmp_path):
        assert main(argv) == 2

    def test_config_saved_with_a_byte_order_mark_is_read(self, tmp_path):
        text = SMALL_CONFIG_TEXT.split("\n", 2)[2]  # the mark comes before a key
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        outputs = []
        for config_path in (plain, marked):
            out = tmp_path / f"{config_path.stem}.json"
            argv = ["sweep", "--config", str(config_path), "--format", "json", "--out", str(out)]
            assert main(argv) == 0
            bundle = json.loads(out.read_text(encoding="utf-8"))
            assert not out.read_bytes().startswith(b"\xef\xbb\xbf")
            outputs.append((bundle["config_echo"], bundle["records"]))
        assert outputs[0] == outputs[1]

    def test_a_singular_test_phase_exits_2_naming_method_and_phase(self, tmp_path, capsys):
        config_path = tmp_path / "singular.cfg"
        config_path.write_text(
            SMALL_CONFIG_TEXT.replace("deterministic", "non_iid") + "channel.mu_h_non = 0\n",
            encoding="utf-8",
        )
        assert main(["sweep", "--config", str(config_path), "--trials", "1"]) == 2
        assert capsys.readouterr().err == (
            "error: cr closed form is not finite in the test phase\n"
        )

    def test_the_removed_classify_normalized_key_exits_2(self, tmp_path, capsys):
        # the classifier always takes the normalized features the silhouette scores
        config_path = tmp_path / "old.cfg"
        config_path.write_text("experiment.classify_normalized = true\n", encoding="utf-8")
        assert main(["sweep", "--config", str(config_path)]) == 2
        assert "unknown key 'experiment.classify_normalized'" in capsys.readouterr().err

    def test_bad_config_file_exits_2(self, tmp_path, capsys):
        config_path = tmp_path / "bad.cfg"
        config_path.write_text("model.mu_u = fast\n", encoding="utf-8")
        assert main(["sweep", "--config", str(config_path)]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_closed_form_outside_its_validity_exits_2(self, tmp_path, capsys):
        # PC's truncated train-phase feature variance is negative at 0 dB here.
        config_path = tmp_path / "negative_variance.cfg"
        config_path.write_text(
            SMALL_CONFIG_TEXT.replace("deterministic", "non_iid")
            .replace("raw,cr", "pc")
            .replace("snr_db_grid = 20", "snr_db_grid = 0")
            + "model.x = 0.7\nmodel.f_ra = 1.3\nmodel.f_ta = 0.9\nmodel.f_ru = 1.1\n"
            "model.f_tu_l = 1.2\nchannel.mu_h = 0.8\nchannel.mu_h_non = 1.1\n",
            encoding="utf-8",
        )
        assert main(["sweep", "--config", str(config_path), "--trials", "1"]) == 2
        assert "feature variance" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize(
        "key",
        [
            key
            for key, (section, _, parse, _) in CONFIG_KEYS.items()
            if section in ("model", "channel") and parse is float
        ],
    )
    def test_non_finite_constant_exits_2_naming_it(self, key, value, tmp_path, capsys):
        config_path = tmp_path / "non_finite.cfg"
        config_path.write_text(f"{SMALL_CONFIG_TEXT}{key} = {value}\n", encoding="utf-8")
        assert main(["sweep", "--config", str(config_path), "--trials", "1"]) == 2
        attribute = key.partition(".")[2]
        assert f"{attribute} must be finite, got {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("method", [m.value for m in Method])
    @pytest.mark.parametrize(
        "setting",
        [
            "channel.sigma_h = 1e200",
            "model.sigma_u = 1e200",
            "model.mu_s = 1e300",
            "model.x = 1e-200",
            "channel.mu_h_non = 1e-300",
        ],
    )
    def test_extreme_finite_constant_never_exits_3(self, setting, method, tmp_path, capsys):
        config_path = tmp_path / "extreme.cfg"
        config_path.write_text(
            SMALL_CONFIG_TEXT.replace("deterministic", "deterministic,iid,non_iid")
            .replace("raw,cr", method)
            .replace("snr_db_grid = 20", "snr_db_grid = 30")
            + f"{setting}\n",
            encoding="utf-8",
        )
        code = main(["sweep", "--config", str(config_path), "--trials", "1",
                     "--out", str(tmp_path / "out.csv")])
        assert code in (0, 2)
        if code == 2:
            assert "error: " in capsys.readouterr().err

    def test_too_few_finite_samples_exits_2(self, tmp_path, capsys, monkeypatch):
        # This channel's closed form is not finite either, and the sweep
        # checks every closed form first; a finite stand-in lets the trials run.
        monkeypatch.setattr(experiments, "expected_silhouette", lambda *args: 0.0)
        config_path = tmp_path / "subnormal.cfg"
        config_path.write_text(SUBNORMAL_CHANNEL, encoding="utf-8")
        code = main(["sweep", "--config", str(config_path), "--out", str(tmp_path / "out.csv")])
        assert code == 2
        assert "error: device 0 train set has fewer than 2 finite samples" in (
            capsys.readouterr().err
        )

    def test_closed_forms_are_checked_before_any_trial(self, tmp_path, capsys, monkeypatch):
        def no_trials(*args, **kwargs):
            raise AssertionError("a trial ran before the closed forms were checked")

        monkeypatch.setattr(experiments, "_set_up", no_trials)
        config_path = tmp_path / "subnormal.cfg"
        config_path.write_text(
            SUBNORMAL_CHANNEL.replace("methods = cr", "methods = raw,cr"), encoding="utf-8"
        )
        code = main(["sweep", "--config", str(config_path), "--threads", "2",
                     "--out", str(tmp_path / "out.csv")])
        assert code == 2
        assert "error: cr closed form is not finite in the train phase" in (
            capsys.readouterr().err
        )

    def test_overflowing_channel_exits_2_before_any_warning(self, tmp_path, capsys):
        """The closed form fails first, so no trial overflows a feature and warns."""
        config_path = tmp_path / "overflow.cfg"
        config_path.write_text(
            "experiment.n_devices = 2\nexperiment.scenarios = iid\n"
            "experiment.methods = raw\nexperiment.snr_db_grid = 30\n"
            "channel.sigma_h = 1e200\n",
            encoding="utf-8",
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["sweep", "--config", str(config_path), "--trials", "2",
                         "--out", str(tmp_path / "out.csv")])
        err = capsys.readouterr().err
        assert code == 2, err
        assert err == "error: raw closed form is not finite in the train phase\n"

    @given(
        overrides=st.fixed_dictionaries(
            {key: st.sampled_from(EXTREMES) for key in FLOAT_CONSTANTS}
        ),
        scenario=st.sampled_from([s.value for s in ChannelScenario]),
        method=st.sampled_from([m.value for m in Method]),
    )
    @example(
        overrides={key: None for key in FLOAT_CONSTANTS}
        | {"channel.mu_h": 5e-324, "channel.sigma_h": 5e-324},
        scenario="iid",
        method="cr",
    )
    @settings(max_examples=500, deadline=None)
    def test_extreme_constants_all_at_once_never_exit_3(self, overrides, scenario, method):
        """A 2-device, 1-trial, 1-cell sweep exits 0, or 2 with an error line."""
        set_keys = {key: value for key, value in overrides.items() if value is not None}
        text = "".join(f"{key} = {value!r}\n" for key, value in set_keys.items())
        text += (
            "experiment.n_devices = 2\nexperiment.n_trials = 1\n"
            f"experiment.scenarios = {scenario}\nexperiment.methods = {method}\n"
            "experiment.snr_db_grid = 30\n"
        )
        stderr = io.StringIO()
        with tempfile.TemporaryDirectory() as scratch, contextlib.redirect_stderr(stderr):
            config_path = Path(scratch) / "extreme.cfg"
            config_path.write_text(text, encoding="utf-8")
            code = main(["sweep", "--config", str(config_path),
                         "--out", str(Path(scratch) / "out.csv")])
        assert code in (0, 2), stderr.getvalue()
        if code == 2:
            assert "error: " in stderr.getvalue()

    @pytest.mark.parametrize("snr_db", ["-7000", "1e306", "-1e306"])
    def test_snr_beyond_float_range_exits_2_naming_it(self, snr_db, tmp_path, capsys):
        # -7000 dB overflows the noise std; ±1e306 dB overflows the stream key
        config_path = tmp_path / "snr.cfg"
        config_path.write_text(
            SMALL_CONFIG_TEXT.replace("snr_db_grid = 20", f"snr_db_grid = {snr_db}"),
            encoding="utf-8",
        )
        assert main(["sweep", "--config", str(config_path), "--trials", "1"]) == 2
        assert f"snr_db={float(snr_db)} is out of range" in capsys.readouterr().err

    def test_bad_thread_env_exits_2(self, tmp_path, monkeypatch, capsys):
        config_path = tmp_path / "small.cfg"
        config_path.write_text(SMALL_CONFIG_TEXT, encoding="utf-8")
        monkeypatch.setenv("RFF_LAB_THREADS", "plenty")
        assert main(["sweep", "--config", str(config_path)]) == 2
        assert "RFF_LAB_THREADS" in capsys.readouterr().err

    def test_negative_seed_exits_2_naming_the_flag(self, tmp_path, capsys):
        config_path = tmp_path / "small.cfg"
        config_path.write_text(SMALL_CONFIG_TEXT, encoding="utf-8")
        assert main(["sweep", "--config", str(config_path), "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert "error: --seed must be >= 0, got -1" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv, env, message",
        [
            (["--trials", "0"], None, "--trials must be >= 1, got 0"),
            (["--threads", "0"], None, "--threads must be >= 1, got 0"),
            ([], "0", "RFF_LAB_THREADS must be >= 1, got 0"),
        ],
        ids=["trials", "threads", "env"],
    )
    def test_a_count_below_one_exits_2_naming_its_source(
        self, argv, env, message, tmp_path, monkeypatch, capsys
    ):
        config_path = tmp_path / "small.cfg"
        config_path.write_text(SMALL_CONFIG_TEXT, encoding="utf-8")
        if env is not None:
            monkeypatch.setenv("RFF_LAB_THREADS", env)
        assert main(["sweep", "--config", str(config_path), *argv]) == 2
        captured = capsys.readouterr()
        assert f"error: {message}" in captured.err
        assert captured.out == ""


class TestCliCorrelate:
    def test_text_report(self, tmp_path, capsys):
        records_path = tmp_path / "records.csv"
        records_path.write_text(format_records_csv(small_records()), encoding="utf-8")
        assert main(["correlate", "--records", str(records_path)]) == 0
        out = capsys.readouterr().out
        assert "pearson_r = " in out
        assert "p_value = " in out
        assert "n_points = 6" in out

    def test_json_report(self, tmp_path):
        records_path = tmp_path / "records.csv"
        records_path.write_text(format_records_csv(small_records()), encoding="utf-8")
        out_path = tmp_path / "report.json"
        code = main(
            ["correlate", "--records", str(records_path),
             "--format", "json", "--out", str(out_path)]
        )
        assert code == 0
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        assert set(payload) == {
            "pearson_r", "p_value", "ls_slope", "ls_intercept", "n_points"
        }
        assert payload["n_points"] == 6
        assert payload["pearson_r"] > 0.9  # accuracy rises with the score here

    def test_records_saved_with_a_byte_order_mark_are_read(self, tmp_path):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(format_records_csv(small_records()), encoding="utf-8")
        marked.write_text(format_records_csv(small_records()), encoding="utf-8-sig")
        reports = []
        for records_path in (plain, marked):
            out = tmp_path / f"{records_path.stem}.txt"
            assert main(["correlate", "--records", str(records_path), "--out", str(out)]) == 0
            assert not out.read_bytes().startswith(b"\xef\xbb\xbf")
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
        assert b"n_points = 6\n" in reports[0]

    def test_missing_file_exits_2(self):
        assert main(["correlate", "--records", "/nonexistent/records.csv"]) == 2

    def test_too_few_records_exit_2(self, tmp_path, capsys):
        records_path = tmp_path / "records.csv"
        records_path.write_text(format_records_csv(small_records()[:2]), encoding="utf-8")
        assert main(["correlate", "--records", str(records_path)]) == 2
        assert "at least 3" in capsys.readouterr().err

    def test_negative_seed_exits_2_naming_the_flag(self, tmp_path, capsys):
        records_path = tmp_path / "records.csv"
        records_path.write_text(format_records_csv(small_records()), encoding="utf-8")
        assert main(["correlate", "--records", str(records_path), "--seed", "-1"]) == 2
        assert "error: --seed must be >= 0, got -1" in capsys.readouterr().err

    def test_permutations_default_to_the_least_allowed(self):
        args = cli._build_parser().parse_args(["correlate", "--records", "records.csv"])
        assert args.permutations == experiments.MIN_PERMUTATIONS

    def test_too_few_permutations_exit_2_naming_the_flag(self, tmp_path, capsys):
        records_path = tmp_path / "records.csv"
        records_path.write_text(format_records_csv(small_records()), encoding="utf-8")
        argv = ["correlate", "--records", str(records_path), "--permutations", "999"]
        assert main(argv) == 2
        assert "error: --permutations must be >= 1000, got 999" in capsys.readouterr().err


class TestCliEmitConfigAndValidate:
    def test_emit_config_round_trips(self, tmp_path):
        out = tmp_path / "default.cfg"
        assert main(["emit-config", "--out", str(out)]) == 0
        assert parse_config(out.read_text(encoding="utf-8")) == default_config()

    def test_emit_config_to_stdout(self, capsys):
        assert main(["emit-config"]) == 0
        assert "experiment.n_trials = 200" in capsys.readouterr().out

    def test_validate_claims_rejects_tiny_draw_counts(self, capsys):
        assert main(["validate-claims", "--draws", "5000"]) == 2
        assert ">= 10000" in capsys.readouterr().err

    def test_validate_claims_rejects_a_negative_seed_naming_the_flag(self, capsys):
        assert main(["validate-claims", "--draws", "10000", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert "error: --seed must be >= 0, got -1" in captured.err
        assert captured.out == ""

    def test_validate_claims_small_run_reports_failures(self, capsys):
        # The second moment of the cross-difference form carries a known
        # truncation error of a few percent at the wide corner of the grid,
        # so a full run reports at least one in-regime miss and exits 1.
        assert main(["validate-claims", "--draws", "10000"]) == 1
        out = capsys.readouterr().out
        assert "validation FAILED" in out
        assert "cross_difference" in out

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "rff-lab 0.1.0" in capsys.readouterr().out


def run_validate_claims(*argv: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one ``validate-claims`` run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["validate-claims", *argv])
    return code, out.getvalue(), err.getvalue()


def table_digest(stdout: str) -> str:
    """sha256 of the validate-claims output without its timing line."""
    lines = [line for line in stdout.splitlines() if not line.startswith("checked ")]
    return hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()


def cpus(monkeypatch, n: int) -> None:
    monkeypatch.setattr(_scratch, "usable_cpus", lambda: n)


class TestValidateClaimsLanes:
    """With 2 usable CPUs the calling thread evaluates the (point, form)
    entries from the front of the table and a helper thread from the back,
    until they meet; the output must not show it."""

    @pytest.mark.parametrize(
        "seed, digest",
        [
            ("42", "ca019bcc0a78499502ba5b9ef26fdab27fadba09d91818d872f25cb902aef8de"),
            ("7", "dea765bfd6293e29abe1b90b4ae130382a31feca363c3569dcea4f39978990ee"),
        ],
        ids=["seed-42", "seed-7"],
    )
    @pytest.mark.parametrize("n_cpus", [1, 2], ids=["one-lane", "two-lanes"])
    def test_the_table_keeps_its_pinned_bytes(self, monkeypatch, seed, digest, n_cpus):
        # 30011 draws is not a multiple of the oracle's chunk of the last variable
        cpus(monkeypatch, n_cpus)
        baseline = threading.active_count()
        code, out, _ = run_validate_claims("--draws", "30011", "--seed", seed)
        assert code == 1
        assert table_digest(out) == digest
        assert threading.active_count() == baseline  # a helper was joined

    def test_a_fresh_process_imports_the_helper_pool_at_its_first_run(self, monkeypatch):
        """The helper lane imports `concurrent.futures` itself when it starts,
        and the table keeps the in-process bytes."""
        script = (
            "import sys\n"
            "from rff_lab import _scratch, cli\n"
            "_scratch.usable_cpus = lambda: 2\n"
            "assert 'concurrent.futures' not in sys.modules\n"
            "assert cli.main(['validate-claims', '--draws', '10000']) == 1\n"
            "assert 'concurrent.futures' in sys.modules\n"
        )
        cpus(monkeypatch, 2)
        code, out, _ = run_validate_claims("--draws", "10000")
        assert code == 1
        assert table_digest(run_fresh(script)) == table_digest(out)

    def test_each_evaluation_runs_exactly_once_on_one_of_the_lanes(self, monkeypatch):
        """Under a short switch interval, the calling lane evaluates a prefix
        of the table from its first entry, the helper the rest from its last
        entry down, and no entry is evaluated twice or skipped."""
        cpus(monkeypatch, 1)
        one_lane = run_validate_claims("--draws", "10000")[1]
        cpus(monkeypatch, 2)
        calls = []
        record = threading.Lock()

        def recording(real):
            def oracle(form, g, p, n_draws, seed):
                with record:
                    calls.append((form, seed, threading.get_ident()))
                return real(form, g, p, n_draws, seed)

            return oracle

        monkeypatch.setattr(cli, "mc_ratio_detail", recording(cli.mc_ratio_detail))
        monkeypatch.setattr(
            gaussian_moments, "mc_ratio_detail", recording(gaussian_moments.mc_ratio_detail)
        )
        baseline = threading.active_count()
        outcome = []
        runner = threading.Thread(
            target=lambda: outcome.append(run_validate_claims("--draws", "10000"))
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner.start()
            runner.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert threading.active_count() == baseline  # the helper was joined too
        (code, out, _), = outcome
        assert code == 1
        assert table_digest(out) == table_digest(one_lane)

        grid = (cli.VALIDATION_MU_G, cli.VALIDATION_SIGMA_G, cli.VALIDATION_RHO,
                cli.VALIDATION_SIGMA_W)
        table = [
            (form, cli._validation_seed(42, point_index, form_index))
            for point_index in range(math.prod(map(len, grid)))
            for form_index, form in enumerate(RatioForm)
        ]
        assert len(table) == 108
        assert sorted((form.value, seed) for form, seed, _ in calls) == sorted(
            (form.value, seed) for form, seed in table
        )
        calling = [(form, seed) for form, seed, thread in calls if thread == runner.ident]
        helper = [(form, seed) for form, seed, thread in calls if thread != runner.ident]
        # The helper starts before the calling lane's first pop, so either
        # may call first; the calling lane evaluates the table's first entry.
        assert calling and calling == table[: len(calling)]
        assert helper and helper == table[len(calling) :][::-1]

    @pytest.mark.parametrize(
        "point_index, form",
        [
            (0, RatioForm.DIRECT_RATIO),
            (0, RatioForm.PAIRED_PRODUCT),
            (5, RatioForm.CROSS_DIFFERENCE),
            (11, RatioForm.RECIPROCAL),
            (26, RatioForm.RECIPROCAL),
        ],
        ids=["entry-0-first", "entry-1", "entry-22", "entry-47", "entry-107-last"],
    )
    def test_a_failing_evaluation_stops_the_table_after_the_rows_before_it(
        self, monkeypatch, point_index, form
    ):
        """Entry 0 is the calling lane's first pop and entry 107 the helper's;
        an entry in between runs on whichever lane reaches it."""
        cpus(monkeypatch, 2)
        baseline = threading.active_count()
        argv = ("--draws", "10000", "--seed", "42")
        full = run_validate_claims(*argv)[1].splitlines()
        form_index = list(RatioForm).index(form)
        failing_seed = cli._validation_seed(42, point_index, form_index)
        real = gaussian_moments.mc_ratio_detail

        def failing(form_, g, p, n_draws, seed):
            if (form_, seed) == (form, failing_seed):
                raise ValueError("injected oracle failure")
            return real(form_, g, p, n_draws, seed)

        # the calling lane calls the cli attribute, the helper the module's
        monkeypatch.setattr(cli, "mc_ratio_detail", failing)
        monkeypatch.setattr(gaussian_moments, "mc_ratio_detail", failing)
        quantities = {
            f: len(cli.CLOSED_FORMS[f](GaussianSpec(1.0, 0.0), RatioParams(1.0, 0.0)))
            for f in RatioForm
        }
        rows_before = point_index * sum(quantities.values()) + sum(
            quantities[f] for f in list(RatioForm)[:form_index]
        )
        code, out, err = run_validate_claims(*argv)
        assert code == 2
        assert "error: injected oracle failure" in err
        assert out.splitlines() == full[: 2 + rows_before]
        assert threading.active_count() == baseline


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_section(title: str) -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start : end if end != -1 else len(text)]


class TestReadmeMatchesTheCode:
    """README's format and key lists are the ones the code writes and reads."""

    def test_csv_header_block(self):
        block = re.search(r"```\n(.*?)\n```", readme_section("Output formats"), re.S)
        assert block.group(1) == CSV_HEADER

    def test_config_key_table_names_exactly_the_config_keys(self):
        rows = [
            line.split("|")[1]
            for line in readme_section("Configuration files").splitlines()
            if line.startswith("| `")
        ]
        keys = [key for row in rows for key in re.findall(r"`([^`]+)`", row)]
        assert sorted(keys) == sorted(CONFIG_KEYS)

    def test_json_bundle_keys(self):
        lines = readme_section("Output formats").splitlines()
        first = next(i for i, line in enumerate(lines) if line.startswith("- `"))
        block = "\n".join(itertools.takewhile(bool, lines[first:]))
        items = {
            re.match(r"`(\w+)`", item).group(1): item
            for item in re.split(r"^- ", block, flags=re.M)[1:]
        }
        payload = json.loads(format_bundle_json(small_records(), "", 0.0))
        assert list(items) == list(payload)
        record_keys = re.findall(r"`(\w+)`", items["records"])[1:]
        assert record_keys == list(payload["records"][0])
