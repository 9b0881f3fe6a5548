"""Tests for the command-line interface."""

import json

import pytest

from repro.api import DeploymentPlan, ProtectedSession
from repro.cli import main


class TestListing:
    def test_models(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "resnet50" in out and "mlp_bottom" in out

    def test_devices(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        assert "T4" in out and "CMR 203" in out


class TestIntensity:
    def test_mlp_bottom(self, capsys):
        assert main(["intensity", "mlp_bottom"]) == 0
        out = capsys.readouterr().out
        assert "aggregate AI 7.4" in out

    def test_rejects_unknown_model(self, capsys):
        with pytest.raises(SystemExit):
            main(["intensity", "not_a_model"])


class TestSelect:
    """``select`` is an alias of ``deploy``."""

    def test_human_readable(self, capsys):
        assert main(["select", "mlp_bottom", "--device", "T4"]) == 0
        out = capsys.readouterr().out
        assert "deployment plan (policy guided)" in out
        assert "global (%)" in out and "thread_onesided (%)" in out
        assert "deployed plan" in out

    def test_json_output_parses(self, capsys):
        assert main(["select", "mlp_bottom", "--json"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["model"] == "mlp_bottom"
        assert parsed["device"] == "T4"
        assert len(parsed["layers"]) == 3

    def test_json_output_is_the_deploy_plan(self, capsys):
        assert main(["select", "mlp_bottom", "--json"]) == 0
        selected = capsys.readouterr().out
        assert main(["deploy", "mlp_bottom", "--json"]) == 0
        assert selected == capsys.readouterr().out

    def test_device_choice(self, capsys):
        assert main(["select", "mlp_bottom", "--device", "P4"]) == 0
        assert "thread" in capsys.readouterr().out


class TestDeploy:
    def test_human_readable(self, capsys):
        assert main(["deploy", "mlp_bottom", "--batch", "16"]) == 0
        out = capsys.readouterr().out
        assert "deployment plan" in out
        assert "deployed plan" in out and "uniform global" in out

    def test_json_round_trips_into_runnable_session(self, capsys):
        assert main(["deploy", "mlp_bottom", "--batch", "16", "--json"]) == 0
        plan = DeploymentPlan.from_json(capsys.readouterr().out)
        assert plan.model == "mlp_bottom" and plan.device == "T4"
        session = ProtectedSession(plan)
        result = session.campaign("fc1", seed=1).run(8)
        assert result.coverage == 1.0

    def test_fixed_policy_token(self, capsys):
        assert main([
            "deploy", "mlp_bottom", "--batch", "16",
            "--policy", "fixed:global_multi:2", "--json",
        ]) == 0
        plan = DeploymentPlan.from_json(capsys.readouterr().out)
        assert set(plan.assignment().values()) == {"global_multi:2"}

    def test_unknown_policy_token_fails_cleanly(self, capsys):
        assert main([
            "deploy", "mlp_bottom", "--policy", "fixed:quantum"
        ]) == 1
        assert "unknown ABFT scheme" in capsys.readouterr().err


class TestCampaign:
    def test_policy_driven_campaign(self, capsys):
        assert main([
            "campaign", "mlp_bottom", "--batch", "16",
            "--layer", "fc1", "--trials", "12",
        ]) == 0
        out = capsys.readouterr().out
        assert "coverage" in out and "thread_onesided" in out

    def test_campaign_from_plan_file(self, capsys, tmp_path):
        assert main(["deploy", "mlp_bottom", "--batch", "16", "--json"]) == 0
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(capsys.readouterr().out)
        assert main([
            "campaign", "mlp_bottom", "--plan", str(plan_file),
            "--layer", "fc2", "--trials", "8",
        ]) == 0
        assert "fc2" in capsys.readouterr().out

    def test_default_layer_is_first(self, capsys):
        assert main([
            "campaign", "mlp_bottom", "--batch", "16", "--trials", "8"
        ]) == 0
        assert "layer fc0" in capsys.readouterr().out

    def test_multi_fault_trials(self, capsys):
        assert main([
            "campaign", "mlp_bottom", "--batch", "16", "--layer", "fc1",
            "--policy", "fixed:global_multi:2",
            "--trials", "8", "--faults-per-trial", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "global_multi:2" in out and "2 fault(s) each" in out

    def test_missing_plan_file_fails_cleanly(self, capsys):
        assert main([
            "campaign", "mlp_bottom", "--plan", "/nonexistent/plan.json",
            "--trials", "8",
        ]) == 1
        assert "cannot read plan file" in capsys.readouterr().err

    def test_plan_model_mismatch_rejected(self, capsys, tmp_path):
        assert main(["deploy", "mlp_bottom", "--batch", "16", "--json"]) == 0
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(capsys.readouterr().out)
        assert main([
            "campaign", "mlp_top", "--plan", str(plan_file), "--trials", "8"
        ]) == 1
        assert "deploys 'mlp_bottom'" in capsys.readouterr().err

    def test_plan_geometry_flags_rejected(self, capsys, tmp_path):
        """--plan fixes the deployment: explicit geometry flags error
        instead of being silently overridden by the plan's shapes."""
        assert main(["deploy", "mlp_bottom", "--batch", "16", "--json"]) == 0
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(capsys.readouterr().out)
        assert main([
            "campaign", "mlp_bottom", "--plan", str(plan_file),
            "--batch", "32", "--height", "224", "--trials", "8",
        ]) == 1
        err = capsys.readouterr().err
        assert "--batch, --height: not allowed with --plan" in err

    def test_plan_device_and_policy_flags_rejected(self, capsys, tmp_path):
        assert main(["deploy", "mlp_bottom", "--batch", "16", "--json"]) == 0
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(capsys.readouterr().out)
        assert main([
            "campaign", "mlp_bottom", "--plan", str(plan_file),
            "--device", "P4", "--trials", "8",
        ]) == 1
        assert "--device" in capsys.readouterr().err
        assert main([
            "campaign", "mlp_bottom", "--plan", str(plan_file),
            "--policy", "guided", "--trials", "8",
        ]) == 1
        assert "--policy: not allowed with --plan" in capsys.readouterr().err

    def test_rejects_nonpositive_trials(self, capsys):
        assert main([
            "campaign", "mlp_bottom", "--trials", "0"
        ]) == 2
        assert "positive" in capsys.readouterr().err

    def test_unknown_layer_fails_cleanly(self, capsys):
        assert main([
            "campaign", "mlp_bottom", "--batch", "16", "--layer", "fc9",
            "--trials", "8",
        ]) == 1
        assert "no layer" in capsys.readouterr().err


class TestSweepAndExperiments:
    def test_sweep(self, capsys):
        assert main(["sweep"]) == 0
        out = capsys.readouterr().out
        assert "M=N=K" in out and "2048" in out

    def test_experiments_by_name(self, capsys):
        assert main(["experiments", "sec33", "table1"]) == 0
        out = capsys.readouterr().out
        assert "sec33" in out and "table1" in out

    def test_unknown_experiment_fails(self, capsys):
        assert main(["experiments", "fig99"]) == 2
        assert "unknown experiments" in capsys.readouterr().err

    def test_experiments_list(self, capsys):
        assert main(["experiments", "--list"]) == 0
        out = capsys.readouterr().out.split()
        assert "multi_fault_coverage" in out and "fault_coverage" in out

    def test_experiments_list_rejects_names(self, capsys):
        """--list must not silently swallow (possibly misspelled) names."""
        assert main(["experiments", "fig99", "--list"]) == 2
        assert "takes no experiment names" in capsys.readouterr().err


class TestSdc:
    def test_propagation_campaign_with_recovery(self, capsys):
        assert main([
            "sdc", "mlp_bottom", "--trials", "12", "--layer", "fc1",
            "--seed", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "struck layer fc1" in out
        assert "undetected SDC" in out
        assert "bit-identity verified" in out

    def test_no_recovery_drops_recovery_lines(self, capsys):
        assert main([
            "sdc", "mlp_bottom", "--trials", "12", "--no-recovery",
        ]) == 0
        out = capsys.readouterr().out
        assert "detected corruption" in out
        assert "recovered" not in out

    def test_default_layer_is_first(self, capsys):
        assert main(["sdc", "mlp_bottom", "--trials", "8"]) == 0
        assert "struck layer fc0" in capsys.readouterr().out

    def test_rejects_nonpositive_trials(self, capsys):
        assert main(["sdc", "mlp_bottom", "--trials", "0"]) == 2
        assert "--trials must be positive" in capsys.readouterr().err

    def test_rejects_non_runnable_model(self, capsys):
        """Branching zoo models have no numeric realization to strike."""
        assert main(["sdc", "resnet50", "--trials", "8"]) == 1
        assert "no runnable numeric realization" in capsys.readouterr().err

    def test_rejects_unknown_layer(self, capsys):
        assert main([
            "sdc", "mlp_bottom", "--trials", "8", "--layer", "nope"
        ]) == 1
        assert "no layer" in capsys.readouterr().err

    def test_missing_plan_file_fails_cleanly(self, capsys):
        assert main([
            "sdc", "mlp_bottom", "--plan", "/nonexistent/plan.json",
            "--trials", "8",
        ]) == 1
        assert "cannot read plan file" in capsys.readouterr().err

    def test_plan_model_mismatch_rejected(self, capsys, tmp_path):
        assert main(["deploy", "mlp_bottom", "--json"]) == 0
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(capsys.readouterr().out)
        assert main([
            "sdc", "mlp_top", "--plan", str(plan_file), "--trials", "8"
        ]) == 1
        assert "deploys 'mlp_bottom'" in capsys.readouterr().err

    def test_plan_policy_flag_rejected(self, capsys, tmp_path):
        assert main(["deploy", "mlp_bottom", "--json"]) == 0
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(capsys.readouterr().out)
        assert main([
            "sdc", "mlp_bottom", "--plan", str(plan_file),
            "--policy", "fixed:global", "--trials", "8",
        ]) == 1
        assert "not allowed with --plan" in capsys.readouterr().err

    def test_campaign_from_plan_file(self, capsys, tmp_path):
        assert main(["deploy", "mlp_bottom", "--json"]) == 0
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(capsys.readouterr().out)
        assert main([
            "sdc", "mlp_bottom", "--plan", str(plan_file),
            "--layer", "fc2", "--trials", "8",
        ]) == 0
        assert "struck layer fc2" in capsys.readouterr().out

    def test_rejects_bad_fault_model(self, capsys):
        with pytest.raises(SystemExit):
            main(["sdc", "mlp_bottom", "--fault-model", "cosmic"])
