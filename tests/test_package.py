"""The package namespace republishes each library module's public names."""

import importlib

import pytest

import rff_lab
from fresh_process import run_fresh

#: the library modules `rff_lab` republishes, in `__all__` order; `cli` is not one
LIBRARY_MODULES = (
    "analytic",
    "channel",
    "classifier",
    "config",
    "experiments",
    "gaussian_moments",
    "signal_model",
    "silhouette",
)

#: every name `rff_lab` exported before its `__all__` was built from the modules'
EARLIER_EXPORTS = {
    "__version__", "ChannelParams", "ChannelScenario", "ConfigError",
    "CorrelationReport", "ExperimentConfig", "FeatureLaw", "Fingerprints",
    "GaussianMoments", "GaussianSpec", "LdaModel", "McRatioResult", "Method",
    "ModelParams", "Phase", "RatioForm", "RatioParams", "SweepRecord",
    "TrialResult", "accuracy", "correlate", "cross_difference_moments",
    "default_config", "direct_ratio_moments", "draw_fingerprint",
    "expected_inter", "expected_intra", "expected_silhouette", "extract_batch",
    "feature_law", "fit", "in_regime", "init_trial_channel", "mc_ratio_detail",
    "normalize_block", "paired_product_mean", "parse_config", "predict_batch",
    "reciprocal_moments", "render_config", "run_sweep", "run_trial",
    "sample_csi_block", "silhouette_from_normalized",
}


def _modules():
    return [importlib.import_module(f"rff_lab.{name}") for name in LIBRARY_MODULES]


def test_all_is_the_version_then_each_module_all():
    expected = ["__version__", *(name for m in _modules() for name in m.__all__)]
    assert rff_lab.__all__ == expected
    assert len(set(rff_lab.__all__)) == len(rff_lab.__all__)


def test_every_name_is_its_module_object():
    for module in _modules():
        for name in module.__all__:
            assert getattr(rff_lab, name) is getattr(module, name), f"{module.__name__}.{name}"


def test_no_earlier_export_is_lost():
    assert EARLIER_EXPORTS <= set(rff_lab.__all__)
    for name in EARLIER_EXPORTS:
        assert hasattr(rff_lab, name), name


def test_import_loads_neither_the_cli_nor_numpy_random():
    # every process start pays for what `import rff_lab` pulls in
    script = (
        "import sys, rff_lab\n"
        "print('rff_lab.cli' in sys.modules, 'numpy.random' in sys.modules)\n"
    )
    assert run_fresh(script).split() == ["False", "False"]


def test_channel_loads_no_other_rff_lab_module():
    # the package is registered unexecuted, so its __init__ imports nothing
    script = (
        "import importlib.util, sys\n"
        "package = importlib.util.module_from_spec(importlib.util.find_spec('rff_lab'))\n"
        "sys.modules['rff_lab'] = package\n"
        "import rff_lab.channel\n"
        "print(*sorted(m for m in sys.modules if m.startswith('rff_lab.')))\n"
    )
    assert run_fresh(script).split() == ["rff_lab.channel"]


#: what the first name that misses imports: every module but `channel` and `config`
NUMERICAL_MODULES = ("analytic", "classifier", "experiments", "gaussian_moments",
                     "signal_model", "silhouette")


def test_a_config_round_trip_loads_no_numpy():
    script = (
        "import sys, rff_lab\n"
        "text = rff_lab.render_config(rff_lab.parse_config('model.mu_u = 2.0'))\n"
        "print('numpy' in sys.modules, 'model.mu_u = 2.0' in text)\n"
    )
    assert run_fresh(script).split() == ["False", "True"]


@pytest.mark.parametrize("module", ["channel", "config"])
def test_a_records_module_loads_no_numpy_and_no_numerical_module(module):
    script = (
        f"import sys, rff_lab.{module}\n"
        f"print('numpy' in sys.modules, *(m for m in {NUMERICAL_MODULES!r}\n"
        "      if f'rff_lab.{m}' in sys.modules))\n"
    )
    assert run_fresh(script).split() == ["False"]


def test_a_star_import_binds_every_name():
    script = (
        "from rff_lab import *\n"
        "import rff_lab\n"
        "print(len(rff_lab.__all__), *(n for n in rff_lab.__all__ if n not in globals()))\n"
    )
    assert run_fresh(script).split() == [str(len(rff_lab.__all__))]


def test_dir_lists_every_name():
    script = (
        "import rff_lab\n"
        "names = dir(rff_lab)\n"
        "print(*(n for n in rff_lab.__all__ if n not in names))\n"
        "print(names == sorted(names))\n"
    )
    assert run_fresh(script).split() == ["True"]


def test_an_unknown_name_is_an_attribute_error_before_and_after_the_load():
    script = (
        "import rff_lab\n"
        "for _ in range(2):\n"
        "    try:\n"
        "        rff_lab.no_such_name\n"
        "    except AttributeError as error:\n"
        "        print(type(error).__name__, 'numpy' in __import__('sys').modules)\n"
    )
    assert run_fresh(script).split() == ["AttributeError", "True"] * 2


#: what `concurrent.futures` loads behind a pool, none of which a config,
#: a closed form or one trial uses
POOL_MODULES = (
    "concurrent.futures", "multiprocessing", "socket", "selectors", "subprocess", "logging",
    "queue",
)


@pytest.mark.parametrize(
    "script",
    [
        "import rff_lab\n"
        "rff_lab.parse_config(rff_lab.render_config(rff_lab.default_config()))\n",
        "import rff_lab.cli\n",
        "from dataclasses import replace\n"
        "from rff_lab import ChannelScenario, Method, default_config, run_trial\n"
        "cfg = replace(default_config(), n_devices=2, n_train=4, n_test=4)\n"
        "run_trial(cfg, ChannelScenario.IID_STOCHASTIC, Method.CR, 30.0, 0)\n",
    ],
    ids=["config-round-trip", "cli", "one-trial"],
)
def test_no_pool_machinery_is_loaded_before_a_pool_is_built(script):
    check = f"import sys\nprint(*(m for m in {POOL_MODULES!r} if m in sys.modules))\n"
    assert run_fresh(script + check).split() == []
