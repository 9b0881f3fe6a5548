"""Cross-device behaviour: selections move with the CMR (paper §7.1)."""

import pytest

from repro.core import IntensityGuidedABFT
from repro.gemm import GemmProblem
from repro.gpu import P4, T4, V100, get_gpu, list_gpus
from repro.nn import build_model


class TestCrossoverMovesWithCMR:
    def test_lower_cmr_device_switches_to_global_earlier(self):
        """On the P4 (CMR 57) a 256-square GEMM is compute bound and
        should prefer global ABFT; on the T4 (CMR 203) it is bandwidth
        bound and prefers thread-level."""
        p = GemmProblem(256, 256, 256)
        t4_choice = IntensityGuidedABFT(T4).select_for_problem(p).scheme
        p4_choice = IntensityGuidedABFT(P4).select_for_problem(p).scheme
        assert t4_choice == "thread_onesided"
        assert p4_choice == "global"

    def test_thread_level_share_grows_with_cmr(self):
        """Across devices, the fraction of ResNet-50 layers assigned to
        thread-level ABFT grows with the device CMR."""
        model = build_model("resnet50")
        shares = {}
        for spec in (P4, V100, T4):
            sel = IntensityGuidedABFT(spec).select_for_model(model)
            shares[spec.name] = sel.selection_counts.get("thread_onesided", 0) / len(sel.layers)
        assert shares["P4"] <= shares["V100"] <= shares["T4"]


class TestEveryDeviceWorks:
    @pytest.mark.parametrize("name", ["T4", "P4", "V100", "A100", "Jetson-AGX-Xavier"])
    def test_guided_selection_valid_on_device(self, name):
        guided = IntensityGuidedABFT(get_gpu(name))
        sel = guided.select_for_model(build_model("mlp_bottom"))
        assert sel.guided_overhead_percent <= sel.scheme_overhead_percent("global") + 1e-9
        assert sel.guided_overhead_percent <= sel.scheme_overhead_percent("thread_onesided") + 1e-9

    def test_device_list_is_stable(self):
        assert len(list_gpus()) == 5
