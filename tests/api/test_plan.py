"""Deployment-plan and policy tests: tokens, JSON round trips, policies."""

import json

import pytest

from repro.abft import MultiChecksumGlobalABFT, scheme_from_token, scheme_token
from repro.api import (
    CallablePolicy,
    DeploymentPlan,
    FixedPolicy,
    IntensityGuidedPolicy,
    SchemePolicy,
    as_policy,
)
from repro.core import IntensityGuidedABFT
from repro.errors import ConfigurationError
from repro.gpu import T4
from repro.nn import build_model


#: ``repro select mlp_bottom --batch 16 --json`` as it printed before
#: selection returned plans: layers carry ``chosen`` instead of
#: ``scheme``, and the document declares no schema version.  Saved
#: files in this form must keep loading as deployment input.
SELECT_JSON_V1 = """\
{
  "model": "mlp_bottom",
  "device": "T4",
  "baseline_s": 1.9316666666666668e-05,
  "guided": {
    "total_s": 2.0379083333333333e-05,
    "overhead_percent": 5.499999999999992,
    "selection_counts": {
      "thread_onesided": 3
    }
  },
  "schemes": {
    "global": {
      "total_s": 2.3392083333333332e-05,
      "overhead_percent": 21.09792924935288
    },
    "thread_onesided": {
      "total_s": 2.0379083333333333e-05,
      "overhead_percent": 5.499999999999992
    }
  },
  "layers": [
    {
      "layer": "fc0",
      "gemm": {
        "m": 16,
        "n": 512,
        "k": 13
      },
      "arithmetic_intensity": 7.876923076923077,
      "baseline_s": 3.3611111111111113e-06,
      "scheme_times_s": {
        "global": 4.653472222222222e-06,
        "thread_onesided": 3.5459722222222223e-06
      },
      "chosen": "thread_onesided",
      "overheads_percent": {
        "global": 38.45041322314049,
        "thread_onesided": 5.4999999999999964
      }
    },
    {
      "layer": "fc1",
      "gemm": {
        "m": 16,
        "n": 256,
        "k": 512
      },
      "arithmetic_intensity": 14.628571428571428,
      "baseline_s": 9.222222222222222e-06,
      "scheme_times_s": {
        "global": 1.0650138888888888e-05,
        "thread_onesided": 9.729444444444444e-06
      },
      "chosen": "thread_onesided",
      "overheads_percent": {
        "global": 15.483433734939744,
        "thread_onesided": 5.499999999999997
      }
    },
    {
      "layer": "fc2",
      "gemm": {
        "m": 16,
        "n": 64,
        "k": 256
      },
      "arithmetic_intensity": 12.19047619047619,
      "baseline_s": 6.733333333333334e-06,
      "scheme_times_s": {
        "global": 8.088472222222222e-06,
        "thread_onesided": 7.103666666666667e-06
      },
      "chosen": "thread_onesided",
      "overheads_percent": {
        "global": 20.125825082508232,
        "thread_onesided": 5.499999999999996
      }
    }
  ]
}
"""


@pytest.fixture(scope="module")
def mlp():
    return build_model("mlp_bottom", batch=16)


@pytest.fixture(scope="module")
def guided_plan(mlp):
    return IntensityGuidedPolicy().assign(mlp, T4)


class TestSchemeTokens:
    @pytest.mark.parametrize("token", ["global", "thread_onesided", "none"])
    def test_plain_tokens_round_trip(self, token):
        scheme = scheme_from_token(token)
        assert scheme.name == token
        assert scheme_token(scheme) == token

    def test_global_multi_token_carries_checksum_count(self):
        scheme = scheme_from_token("global_multi:4")
        assert isinstance(scheme, MultiChecksumGlobalABFT)
        assert scheme.num_checksums == 4
        assert scheme_token(scheme) == "global_multi:4"
        assert scheme.cache_token == ("global_multi", 4)

    def test_bare_global_multi_uses_default(self):
        scheme = scheme_from_token("global_multi")
        assert isinstance(scheme, MultiChecksumGlobalABFT)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown ABFT scheme"):
            scheme_from_token("quantum")

    def test_unknown_scheme_error_lists_global_multi(self):
        """The known-tokens list must include the whole token
        namespace, not just get_scheme's registry."""
        with pytest.raises(ConfigurationError, match="global_multi"):
            scheme_from_token("global_mutli:2")

    def test_malformed_arg_rejected(self):
        with pytest.raises(ConfigurationError, match="malformed"):
            scheme_from_token("global_multi:two")

    def test_typo_with_arg_reports_unknown_scheme(self):
        """A typo'd name with an argument must name the real problem."""
        with pytest.raises(ConfigurationError, match="unknown ABFT scheme"):
            scheme_from_token("glbal_multi:2")

    def test_arg_on_parameterless_scheme_rejected(self):
        with pytest.raises(ConfigurationError, match="no constructor"):
            scheme_from_token("global:2")


class TestDeploymentPlanJson:
    def test_round_trip_is_lossless(self, guided_plan):
        restored = DeploymentPlan.from_json(guided_plan.to_json())
        assert restored == guided_plan

    def test_round_trip_preserves_global_multi_cache_token(self, mlp):
        plan = FixedPolicy("global_multi:3").assign(mlp, T4)
        restored = DeploymentPlan.from_json(plan.to_json())
        schemes = restored.build_schemes()
        assert all(
            s.cache_token == ("global_multi", 3) for s in schemes.values()
        )
        # Shared instance per token: prepared state is shareable.
        assert len({id(s) for s in schemes.values()}) == 1

    def test_aggregates_survive_round_trip(self, guided_plan):
        restored = DeploymentPlan.from_json(guided_plan.to_json())
        assert restored.guided_overhead_percent == pytest.approx(
            guided_plan.guided_overhead_percent
        )
        assert restored.scheme_overhead_percent("global") == pytest.approx(
            guided_plan.scheme_overhead_percent("global")
        )

    def test_loads_select_json_schema(self, guided_plan):
        """An old `repro select --json` file is loadable deployment input."""
        plan = DeploymentPlan.from_json(SELECT_JSON_V1)
        assert (plan.model, plan.device, plan.policy) == (
            "mlp_bottom", "T4", "guided"
        )
        assert plan.assignment() == dict.fromkeys(
            ["fc0", "fc1", "fc2"], "thread_onesided"
        )
        assert [
            (layer.name, layer.problem, layer.intensity, layer.baseline_s,
             dict(layer.scheme_times_s))
            for layer in plan
        ] == [
            (layer.name, layer.problem, layer.intensity, layer.baseline_s,
             dict(layer.scheme_times_s))
            for layer in guided_plan
        ]
        assert plan.guided_overhead_percent == pytest.approx(
            json.loads(SELECT_JSON_V1)["guided"]["overhead_percent"]
        )

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            DeploymentPlan.from_json("{nope")

    def test_missing_fields_rejected(self):
        with pytest.raises(ConfigurationError, match="not a deployment plan"):
            DeploymentPlan.from_json(json.dumps({"model": "x"}))

    def test_bad_token_in_plan_rejected(self, guided_plan):
        data = guided_plan.to_dict()
        data["layers"][0]["scheme"] = "quantum"
        with pytest.raises(ConfigurationError, match="unknown ABFT scheme"):
            DeploymentPlan.from_dict(data)

    def test_duplicate_layer_rejected(self, guided_plan):
        data = guided_plan.to_dict()
        data["layers"].append(data["layers"][0])
        with pytest.raises(ConfigurationError, match="twice"):
            DeploymentPlan.from_dict(data)


class TestPlanAccessors:
    def test_guided_policy_plan_is_the_selection(self, mlp, guided_plan):
        selection = IntensityGuidedABFT(T4).select_for_model(mlp, policy="guided")
        assert selection == guided_plan
        assert selection.selection_counts == {"thread_onesided": 3}

    def test_layer_lookup(self, guided_plan):
        assert guided_plan.layer("fc1").name == "fc1"
        with pytest.raises(ConfigurationError, match="no layer"):
            guided_plan.layer("fc9")

    def test_validate_layer_names(self, guided_plan):
        guided_plan.validate_layer_names(["fc0", "fc1", "fc2"])
        with pytest.raises(ConfigurationError, match="missing"):
            guided_plan.validate_layer_names(["fc0", "fc1", "fc2", "fc3"])

    def test_metadata_from_graph(self, mlp, guided_plan):
        assert guided_plan.batch == mlp.batch
        assert guided_plan.input_desc == mlp.input_desc
        assert all(layer.kind == "linear" for layer in guided_plan)


class TestPolicies:
    def test_fixed_policy_assigns_everywhere(self, mlp):
        plan = FixedPolicy("global").assign(mlp, T4)
        assert set(plan.assignment().values()) == {"global"}
        assert plan.policy == "fixed:global"
        assert plan.has_predictions
        assert plan.guided_overhead_percent == pytest.approx(
            plan.scheme_overhead_percent("global")
        )

    @pytest.mark.parametrize(
        "token, base, dtype",
        [("global_multi:2", "global_multi:2", "fp16"),
         ("thread_onesided@int8", "thread_onesided", "int8")],
    )
    def test_fixed_policy_is_a_one_candidate_selection(self, mlp, token, base, dtype):
        plan = FixedPolicy(token).assign(mlp, T4)
        guided = IntensityGuidedABFT(T4, candidates=(base,), dtype=dtype)
        assert plan == guided.select_for_model(mlp, policy=f"fixed:{token}")
        assert all(list(layer.scheme_times_s) == [token] for layer in plan)

    def test_fixed_policy_rejects_bad_token_eagerly(self):
        with pytest.raises(ConfigurationError):
            FixedPolicy("quantum")

    def test_guided_policy_satisfies_protocol(self):
        assert isinstance(IntensityGuidedPolicy(), SchemePolicy)
        assert isinstance(FixedPolicy("global"), SchemePolicy)

    def test_callable_policy_mapping(self, mlp):
        def alternate(model, spec):
            return {
                layer.name: ("global" if i % 2 else "thread_onesided")
                for i, layer in enumerate(model)
            }

        plan = CallablePolicy(alternate).assign(mlp, T4)
        assert plan.assignment()["fc0"] == "thread_onesided"
        assert plan.assignment()["fc1"] == "global"
        assert plan.policy == "alternate"
        assert not plan.has_predictions
        with pytest.raises(ConfigurationError, match="no latency"):
            _ = plan.guided_overhead_percent

    def test_callable_policy_rejects_partial_assignment(self, mlp):
        with pytest.raises(ConfigurationError, match="missing"):
            CallablePolicy(lambda m, s: {"fc0": "global"}).assign(mlp, T4)

    def test_callable_policy_rejects_unknown_layers(self, mlp):
        def bad(model, spec):
            assignment = {layer.name: "global" for layer in model}
            assignment["fc9"] = "global"
            return assignment

        with pytest.raises(ConfigurationError, match="unknown"):
            CallablePolicy(bad).assign(mlp, T4)

    def test_as_policy_normalization(self):
        assert isinstance(as_policy("guided"), IntensityGuidedPolicy)
        assert isinstance(as_policy("fixed:global"), FixedPolicy)
        assert as_policy("global_multi:2").token == "global_multi:2"
        policy = IntensityGuidedPolicy()
        assert as_policy(policy) is policy
        assert isinstance(as_policy(lambda m, s: {}), CallablePolicy)
        with pytest.raises(ConfigurationError):
            as_policy(42)


class TestPlanSchemaVersion:
    """Plans declare their schema version and reject unknown ones."""

    def test_exported_plans_declare_current_version(self, guided_plan):
        from repro.api.plan import PLAN_SCHEMA_VERSION

        data = guided_plan.to_dict()
        assert data["schema_version"] == PLAN_SCHEMA_VERSION

    def test_versioned_payload_round_trips(self, guided_plan):
        text = guided_plan.to_json()
        assert json.loads(text)["schema_version"] == 2
        assert DeploymentPlan.from_json(text) == guided_plan

    def test_legacy_payload_without_version_default_migrates(
        self, guided_plan
    ):
        data = guided_plan.to_dict()
        del data["schema_version"]
        assert DeploymentPlan.from_dict(data) == guided_plan

    def test_explicit_version_1_accepted(self, guided_plan):
        data = guided_plan.to_dict()
        data["schema_version"] = 1
        assert DeploymentPlan.from_dict(data) == guided_plan

    def test_unknown_version_raises_plan_error(self, guided_plan):
        from repro.errors import PlanError

        data = guided_plan.to_dict()
        data["schema_version"] = 99
        with pytest.raises(PlanError, match="schema_version 99"):
            DeploymentPlan.from_dict(data)

    def test_non_integer_version_raises_plan_error(self, guided_plan):
        from repro.errors import PlanError

        data = guided_plan.to_dict()
        data["schema_version"] = "v2"
        with pytest.raises(PlanError, match="schema_version"):
            DeploymentPlan.from_dict(data)

    def test_plan_error_is_configuration_error(self):
        from repro.errors import PlanError

        assert issubclass(PlanError, ConfigurationError)
