"""Tests for intensity-guided per-layer selection (the paper's core)."""

import pytest

from repro.core import IntensityGuidedABFT, analytical_choice
from repro.errors import ProfilingError
from repro.gemm import GemmProblem
from repro.gpu import T4
from repro.nn import build_model


@pytest.fixture(scope="module")
def guided():
    return IntensityGuidedABFT(T4)


@pytest.fixture(scope="module")
def resnet_selection(guided):
    return guided.select_for_model(build_model("resnet50"))


class TestPerLayerPlan:
    def test_bandwidth_bound_layer_prefers_thread_level(self, guided):
        # AI 85 << CMR 203.
        sel = guided.select_for_problem(GemmProblem(256, 256, 256))
        assert sel.scheme == "thread_onesided"

    def test_compute_bound_layer_prefers_global(self, guided):
        # AI 683 >> CMR 203.
        sel = guided.select_for_problem(GemmProblem(2048, 2048, 2048))
        assert sel.scheme == "global"

    def test_chosen_is_argmin(self, guided):
        sel = guided.select_for_problem(GemmProblem(512, 512, 512))
        assert sel.chosen_time_s == min(sel.scheme_times_s.values())

    def test_selection_never_worse_than_either_scheme(self, resnet_selection):
        """§6.2: 'intensity-guided ABFT, by design, always performs at
        least as well as global ABFT' (and as thread-level ABFT)."""
        guided_pct = resnet_selection.guided_overhead_percent
        assert guided_pct <= resnet_selection.scheme_overhead_percent("global") + 1e-9
        assert guided_pct <= resnet_selection.scheme_overhead_percent("thread_onesided") + 1e-9

    def test_mixed_model_uses_both_schemes(self, resnet_selection):
        """§6.3: even high-intensity NNs contain bandwidth-bound layers,
        so the per-layer selection is genuinely mixed for ResNet-50."""
        counts = resnet_selection.selection_counts
        assert set(counts) == {"global", "thread_onesided"}

    def test_model_plan_carries_the_graph_metadata(self, guided, resnet_selection):
        graph = build_model("resnet50")
        assert (resnet_selection.model, resnet_selection.device) == ("resnet50", "T4")
        assert (resnet_selection.batch, resnet_selection.input_desc) == (
            graph.batch, graph.input_desc
        )
        assert [(l.name, l.kind, l.problem) for l in resnet_selection] == [
            (l.name, l.kind, l.problem.with_label("")) for l in graph
        ]
        assert resnet_selection.policy is None
        labelled = guided.select_for_model(graph, policy="guided")
        assert labelled.policy == "guided"

    def test_layer_records_intensity(self, resnet_selection):
        for layer in resnet_selection.layers:
            assert layer.intensity == pytest.approx(
                layer.problem.arithmetic_intensity(padded=True)
            )


class TestModelTotals:
    def test_totals_are_sums_of_layers(self, resnet_selection):
        assert resnet_selection.baseline_s == pytest.approx(
            sum(l.baseline_s for l in resnet_selection.layers)
        )
        assert resnet_selection.guided_total_s == pytest.approx(
            sum(l.chosen_time_s for l in resnet_selection.layers)
        )

    def test_overhead_metric_definition(self, resnet_selection):
        # (T_r - T_o)/T_o * 100 (paper §6.2).
        t_r = resnet_selection.scheme_total_s("global")
        t_o = resnet_selection.baseline_s
        assert resnet_selection.scheme_overhead_percent("global") == pytest.approx(
            (t_r - t_o) / t_o * 100.0
        )


class TestAnalyticalChoice:
    def test_below_cmr_picks_thread(self):
        assert analytical_choice(GemmProblem(256, 256, 256), T4) == "thread_onesided"

    def test_above_cmr_picks_global(self):
        assert analytical_choice(GemmProblem(2048, 2048, 2048), T4) == "global"

    def test_agreement_with_empirical_profiling(self, guided):
        """§7.2: the analytical AI-vs-CMR rule should usually agree with
        the empirical profiler; require >= 80% agreement over a sweep."""
        sizes = [32, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048]
        agree = 0
        for s in sizes:
            p = GemmProblem(s, s, s)
            if analytical_choice(p, T4) == guided.select_for_problem(p).scheme:
                agree += 1
        assert agree / len(sizes) >= 0.8


class TestConfiguration:
    def test_empty_candidates_rejected(self):
        with pytest.raises(ProfilingError):
            IntensityGuidedABFT(T4, candidates=())

    def test_custom_candidates(self):
        guided = IntensityGuidedABFT(
            T4, candidates=("global", "thread_onesided", "thread_twosided")
        )
        sel = guided.select_for_problem(GemmProblem(128, 128, 128))
        assert set(sel.scheme_times_s) == {
            "global", "thread_onesided", "thread_twosided"
        }

    def test_candidate_tokens_carry_constructor_arguments(self):
        guided = IntensityGuidedABFT(T4, candidates=("global", "global_multi:3"))
        sel = guided.select_for_problem(GemmProblem(128, 128, 128))
        assert list(sel.scheme_times_s) == ["global", "global_multi:3"]
        assert sel.scheme_times_s["global"] < sel.scheme_times_s["global_multi:3"]

    def test_candidates_sharing_a_scheme_name_rejected(self):
        """The profiler prices one entry per scheme name, so two
        global_multi counts would silently share one time."""
        with pytest.raises(ProfilingError, match="share a scheme name"):
            IntensityGuidedABFT(T4, candidates=("global_multi:2", "global_multi:4"))
