"""Tests for the overhead metric and report tables."""

import pytest

from repro.core import (
    IntensityGuidedABFT,
    model_overhead_table,
    overhead_percent,
    reduction_factor,
)
from repro.core.plan import layer_plan_table
from repro.errors import ProfilingError
from repro.gpu import T4
from repro.nn import build_model


class TestOverheadMetric:
    def test_definition(self):
        assert overhead_percent(1.1, 1.0) == pytest.approx(10.0)

    def test_zero_overhead(self):
        assert overhead_percent(2.0, 2.0) == 0.0

    def test_rejects_non_positive_baseline(self):
        with pytest.raises(ProfilingError):
            overhead_percent(1.0, 0.0)

    def test_rejects_negative_redundant_time(self):
        with pytest.raises(ProfilingError):
            overhead_percent(-1.0, 1.0)

    def test_reduction_factor(self):
        # The paper's headline: 17% -> 4.6% is a 3.7x reduction (Coral).
        assert reduction_factor(17.0, 4.6) == pytest.approx(3.7, abs=0.01)

    def test_reduction_rejects_non_positive(self):
        with pytest.raises(ProfilingError):
            reduction_factor(10.0, 0.0)


class TestReportTables:
    @pytest.fixture(scope="class")
    def plans(self):
        guided = IntensityGuidedABFT(T4)
        return [guided.select_for_model(build_model(n)) for n in ("mlp_bottom", "coral")]

    def test_model_table_rows_and_columns(self, plans):
        table = model_overhead_table(plans)
        assert len(table) == 2
        out = table.render()
        assert "mlp_bottom" in out and "coral" in out
        assert "intensity-guided" in out

    def test_layer_table(self, plans):
        table = layer_plan_table(plans[0])
        header = table.render().splitlines()[1]
        # One overhead column per candidate, in profiling order.
        assert [cell.strip() for cell in header.split("|")][5:] == [
            "scheme", "global (%)", "thread_onesided (%)"
        ]
        assert len(table) == 3  # MLP-Bottom has three layers

    def test_layer_table_max_rows(self, plans):
        table = layer_plan_table(plans[1], max_rows=2)
        assert len(table) == 2
