"""Fault specification types.

A :class:`FaultSpec` names *where* a soft error strikes (an output
accumulator element, in padded coordinates) and *how* the value is
corrupted (bit flip, additive delta, or overwrite), and *which path*
is hit — the original GEMM computation or the redundant checksum
computation.  The paper's primary fault model is a single fault per
GEMM (§2.3); §2.4 extends detection to up to ``r`` simultaneous faults
via ``r`` independent checksums, and the campaign runner accordingly
injects one *fault set* per trial (a 1-tuple in the single-fault
model).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ..errors import FaultInjectionError


class FaultKind(enum.Enum):
    """How the target value is corrupted."""

    BITFLIP_FP32 = "bitflip_fp32"
    """Flip one bit of the FP32 accumulator value."""

    BITFLIP_FP16 = "bitflip_fp16"
    """Flip one bit of the value as stored in FP16."""

    ADD = "add"
    """Add a fixed delta (models a corrupted MMA partial product)."""

    SET = "set"
    """Overwrite with a fixed value."""


class FaultPath(enum.Enum):
    """Which redundant-execution path the fault strikes."""

    ORIGINAL = "original"
    """The GEMM output path: silent corruption unless ABFT catches it."""

    CHECKSUM = "checksum"
    """The redundant path: a benign false alarm when flagged."""


@dataclass(frozen=True)
class FaultSpec:
    """One injected soft error.

    Attributes
    ----------
    row, col:
        Output-element coordinates in the *padded* accumulator grid.
        For checksum-path faults the coordinates select the check whose
        checksum side is corrupted (the element, row/tile, or thread
        tile; any site for global ABFT, which has one checksum).  On
        either path they must lie inside the grid.
    kind:
        Corruption mechanism.
    bit:
        Bit index for the bit-flip kinds.  Unused by ADD/SET but still
        validated against the widest legal range so a nonsense spec
        (e.g. ``bit=99``) is rejected instead of silently ignored.
    value:
        Delta for :attr:`FaultKind.ADD` or the new value for
        :attr:`FaultKind.SET`.
    path:
        Original or checksum computation path.
    """

    row: int
    col: int
    kind: FaultKind = FaultKind.BITFLIP_FP32
    bit: int = 20
    value: float = 0.0
    path: FaultPath = FaultPath.ORIGINAL

    def __post_init__(self) -> None:
        if self.row < 0 or self.col < 0:
            raise FaultInjectionError(
                f"fault coordinates must be non-negative, got ({self.row}, {self.col})"
            )
        # Every kind validates ``bit`` against its value-format width —
        # ADD/SET ignore the field, but an out-of-range bit on them is a
        # malformed spec, not a quietly-dropped one.
        max_bits = 16 if self.kind is FaultKind.BITFLIP_FP16 else 32
        if not 0 <= self.bit < max_bits:
            raise FaultInjectionError(
                f"bit must be in [0, {max_bits}) for {self.kind.value} "
                f"faults, got {self.bit}"
            )


#: Kind table for :class:`SpecArrays` wire codes (index == code).  The
#: order matches the draw distribution of :meth:`~repro.faults.
#: FaultCampaign.random_fault`, which samples these three original-path
#: kinds.
SPEC_KINDS = (FaultKind.BITFLIP_FP32, FaultKind.BITFLIP_FP16, FaultKind.ADD)


@dataclass(frozen=True)
class SpecArrays:
    """Columnar form of a drawn random-spec batch.

    The raw whole-batch RNG draws behind :meth:`~repro.faults.
    FaultCampaign.draw_faults`: one entry per original-path spec, fault
    kinds wire-coded as ``uint8`` indices into :data:`SPEC_KINDS`.  A
    campaign keeps a drawn batch in this form from the draw to its
    result — sites are valued from the columns
    (:func:`~repro.faults.injector.sites_from_flat_specs`), shard
    workers receive five small arrays, and
    :func:`~repro.faults.campaign.assemble_specs` materializes
    :class:`FaultSpec` objects only when a caller asks for them.
    """

    rows: np.ndarray
    cols: np.ndarray
    kind_codes: np.ndarray
    values: np.ndarray
    bits: np.ndarray

    def __len__(self) -> int:
        return len(self.rows)

    def slice(self, lo: int, hi: int) -> "SpecArrays":
        """The ``[lo, hi)`` sub-batch (views, no copies)."""
        return SpecArrays(
            rows=self.rows[lo:hi],
            cols=self.cols[lo:hi],
            kind_codes=self.kind_codes[lo:hi],
            values=self.values[lo:hi],
            bits=self.bits[lo:hi],
        )

    def spec(self, i: int) -> FaultSpec:
        """Entry ``i`` as a :class:`FaultSpec` (see :func:`drawn_spec`)."""
        return drawn_spec(
            int(self.kind_codes[i]), int(self.rows[i]), int(self.cols[i]),
            float(self.values[i]), int(self.bits[i]),
        )


def drawn_spec(code: int, row: int, col: int, value: float, bit: int) -> FaultSpec:
    """The :class:`FaultSpec` one :class:`SpecArrays` entry stands for.

    ``ADD`` entries keep the drawn value; bit-flip entries reduce the
    drawn bit modulo the kind's width (32 or 16).
    """
    kind = SPEC_KINDS[code]
    if kind is FaultKind.ADD:
        return FaultSpec(row=row, col=col, kind=kind, value=value)
    n_bits = 32 if kind is FaultKind.BITFLIP_FP32 else 16
    return FaultSpec(row=row, col=col, kind=kind, bit=bit % n_bits)
