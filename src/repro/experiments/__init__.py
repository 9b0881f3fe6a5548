"""Experiment drivers regenerating every table and figure of the paper.

Each module computes one evaluation artifact and renders it as an ASCII
table whose rows/series mirror what the paper reports.  ``repro
experiments [NAME...]`` prints them by their ``runner.EXPERIMENTS``
name, and ``tests/integration/test_paper_results.py`` asserts the
paper's claims on them; ``runner.run_all`` regenerates everything at
once (used to produce EXPERIMENTS.md).
"""

from .fig04_intensity import fig04_aggregate_intensity
from .fig05_layers import fig05_resnet_layer_intensity
from .sec33_cmr import sec33_cmr_table
from .table1_ops import table1_op_counts
from .fig08_models import fig08_all_models
from .fig09_cnns import fig09_general_cnns
from .fig10_dlrm import fig10_dlrm
from .fig11_specialized import fig11_specialized
from .fig12_square import fig12_square_sweep
from .fault_coverage import fault_coverage_experiment
from .multi_fault_coverage import multi_fault_coverage_experiment
from .ablations import (
    ablation_check_overlap,
    ablation_device_sweep,
    ablation_thread_tile,
)
from .agreement import agreement_fraction, agreement_study
from .sdc_propagation import sdc_propagation_experiment
from .transformer_abft import transformer_abft
from .runner import run_all

__all__ = [
    "fig04_aggregate_intensity",
    "fig05_resnet_layer_intensity",
    "sec33_cmr_table",
    "table1_op_counts",
    "fig08_all_models",
    "fig09_general_cnns",
    "fig10_dlrm",
    "fig11_specialized",
    "fig12_square_sweep",
    "fault_coverage_experiment",
    "multi_fault_coverage_experiment",
    "ablation_check_overlap",
    "ablation_device_sweep",
    "ablation_thread_tile",
    "agreement_study",
    "agreement_fraction",
    "sdc_propagation_experiment",
    "transformer_abft",
    "run_all",
]
