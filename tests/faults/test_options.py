"""CampaignOptions: the only spelling of campaign execution knobs."""

import warnings
from dataclasses import fields

import numpy as np
import pytest

import repro
from repro.abft import PreparedCache, get_scheme
from repro.config import DEFAULT_DETECTION
from repro.errors import FaultInjectionError
from repro.faults import CampaignOptions, FaultCampaign
from repro.faults.options import resolve_option


@pytest.fixture(scope="module")
def operands():
    rng = np.random.default_rng(5)
    a = (rng.standard_normal((48, 32)) * 0.5).astype(np.float16)
    b = (rng.standard_normal((32, 40)) * 0.5).astype(np.float16)
    return a, b


class TestOptionsDataclass:
    def test_defaults_are_all_unset(self):
        options = CampaignOptions()
        names = (
            "seed", "detection", "significance_factor", "batch_size",
            "cache", "workers",
        )
        assert tuple(f.name for f in fields(options)) == names
        assert all(getattr(options, f) is None for f in names)

    def test_with_defaults_fills_only_none_fields(self):
        options = CampaignOptions(seed=7).with_defaults(
            seed=0, batch_size=256
        )
        assert options.seed == 7
        assert options.batch_size == 256

    def test_with_defaults_rejects_unknown_names(self):
        with pytest.raises(TypeError, match="trials"):
            CampaignOptions().with_defaults(trials=9)

    def test_options_are_frozen(self):
        with pytest.raises(AttributeError):
            CampaignOptions().seed = 1


class TestResolution:
    def test_resolve_option_passes_through_either_side(self):
        assert resolve_option(CampaignOptions(seed=3), "X", "seed", None) == 3
        assert resolve_option(None, "X", "seed", 4) == 4
        assert resolve_option(None, "X", "seed", None) is None

    def test_resolve_option_rejects_both(self):
        with pytest.raises(FaultInjectionError, match="both"):
            resolve_option(CampaignOptions(seed=3), "X", "seed", 4)


class TestCampaignIntegration:
    def _keys(self, result):
        return [
            (r.faults, r.detected, r.significant, r.benign_alarm)
            for r in result.trials
        ]

    def test_options_path_matches_seed_kwarg(self, operands):
        a, b = operands
        cache = PreparedCache()
        via_options = FaultCampaign(
            get_scheme("global"), a, b,
            options=CampaignOptions(seed=9, cache=cache),
        ).run_batch(30)
        via_kwarg = FaultCampaign(
            get_scheme("global"), a, b, seed=9,
            options=CampaignOptions(cache=cache),
        ).run_batch(30)
        assert self._keys(via_options) == self._keys(via_kwarg)

    def test_removed_kwargs_are_rejected(self, operands):
        a, b = operands
        for kwarg in (
            {"detection": DEFAULT_DETECTION},
            {"cache": PreparedCache()},
            {"workers": 2},
        ):
            with pytest.raises(TypeError):
                FaultCampaign(get_scheme("global"), a, b, **kwarg)

    def test_options_construction_is_warning_free(self, operands):
        a, b = operands
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            FaultCampaign(
                get_scheme("global"), a, b,
                options=CampaignOptions(
                    seed=1, detection=DEFAULT_DETECTION, workers=None
                ),
            )

    def test_session_campaign_rejects_conflicting_seed(self):
        session = repro.deploy("mlp_bottom", "T4", batch=16)
        with pytest.raises(FaultInjectionError, match="both"):
            session.campaign(
                "fc0", seed=1, options=CampaignOptions(seed=2)
            )

    def test_session_campaign_rejects_removed_workers_kwarg(self):
        session = repro.deploy("mlp_bottom", "T4", batch=16)
        with pytest.raises(TypeError):
            session.campaign("fc0", workers=2)

    def test_foreign_cache_in_options_rejected(self):
        session = repro.deploy("mlp_bottom", "T4", batch=16)
        with pytest.raises(repro.ConfigurationError, match="cache"):
            session.campaign(
                "fc0", options=CampaignOptions(cache=PreparedCache())
            )
