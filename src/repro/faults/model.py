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

Below the public API a batch of trials takes one form,
:class:`SpecArrays`: the trials' specs as columns, grouped per trial
by a CSR pointer.  Campaigns draw straight into it (or convert a
caller's spec tuples once), value fault sites from it, chunk and shard
it, and build :class:`FaultSpec` tuples from it only when a record,
an outcome or a recovery retry reads them.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
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


#: Code tables of :class:`SpecArrays` (index == code).
KINDS = tuple(FaultKind)
PATHS = tuple(FaultPath)

_KIND_CODES = {kind: code for code, kind in enumerate(KINDS)}
_PATH_CODES = {path: code for code, path in enumerate(PATHS)}

#: One spec as a row of :meth:`SpecArrays.from_trials`' single pass.
_ENTRY = np.dtype(
    [
        ("rows", np.int64),
        ("cols", np.int64),
        ("kind_codes", np.uint8),
        ("bits", np.int64),
        ("values", np.float64),
        ("paths", np.uint8),
    ]
)
_NO_ENTRIES = tuple(np.empty(0, dtype=_ENTRY[name]) for name in _ENTRY.names)


@dataclass(frozen=True, eq=False)
class SpecArrays(Sequence):
    """A batch of fault trials as columns: the engine's one batch form.

    Trial ``i`` owns entries ``ptr[i]:ptr[i + 1]`` (a drawn batch with
    ``r`` faults per trial has ``ptr = arange(n + 1) * r``), and entry
    ``j`` is exactly ``FaultSpec(rows[j], cols[j], KINDS[kind_codes[j]],
    bits[j], values[j], PATHS[paths[j]])``: kind and path are ``uint8``
    codes into :data:`KINDS` and :data:`PATHS`.  A campaign keeps its
    trials in this form from the draw (or one :meth:`from_trials`
    conversion) to its result — sites are valued from the columns
    (:func:`~repro.faults.injector.faulted_site_values`), chunks and
    shard workers receive slices, and :class:`FaultSpec` objects are
    built only on access.

    As a ``Sequence`` the batch holds one fault tuple per trial:
    indexing builds that trial's tuple, slicing returns the sub-batch
    (column views, rebased pointer), and :meth:`tolist` builds every
    tuple in one pass.
    """

    ptr: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    kind_codes: np.ndarray
    bits: np.ndarray
    values: np.ndarray
    paths: np.ndarray

    @classmethod
    def from_trials(cls, trials: Sequence[Sequence[FaultSpec]]) -> "SpecArrays":
        """The batch of explicit per-trial spec sequences, in one pass."""
        counts = [len(faults) for faults in trials]
        ptr = np.zeros(len(trials) + 1, dtype=np.intp)
        if not any(counts):  # clean trials: the serving path's inject(())
            return cls(ptr, *_NO_ENTRIES)
        np.cumsum(counts, out=ptr[1:])
        entries = np.array(
            [
                (s.row, s.col, _KIND_CODES[s.kind], s.bit, s.value, _PATH_CODES[s.path])
                for faults in trials
                for s in faults
            ],
            dtype=_ENTRY,
        )
        return cls(ptr, *(np.ascontiguousarray(entries[name]) for name in _ENTRY.names))

    def __len__(self) -> int:
        return len(self.ptr) - 1

    def __getitem__(self, i):
        n = len(self)
        if isinstance(i, slice):
            lo, hi, step = i.indices(n)
            if step != 1:
                return [self[j] for j in range(lo, hi, step)]
            hi = max(lo, hi)
            a, b = int(self.ptr[lo]), int(self.ptr[hi])
            return SpecArrays(
                self.ptr[lo:hi + 1] - a,
                *(column[a:b] for column in self._columns()),
            )
        if not -n <= i < n:
            raise IndexError(f"trial {i} out of range for {n} trials")
        i %= n
        return tuple(self._specs(int(self.ptr[i]), int(self.ptr[i + 1])))

    def tolist(self) -> list[tuple[FaultSpec, ...]]:
        """Every trial's fault tuple, built in one pass."""
        specs = self._specs(0, len(self.rows))
        ptr = self.ptr.tolist()
        return [tuple(specs[lo:hi]) for lo, hi in zip(ptr, ptr[1:])]

    def entry_trials(self) -> np.ndarray:
        """The trial of each entry: ``(E,)`` intp, ascending."""
        return np.repeat(np.arange(len(self), dtype=np.intp), np.diff(self.ptr))

    def select(self, mask: np.ndarray) -> "SpecArrays":
        """The entries ``mask`` keeps, still grouped by their trials."""
        ptr = np.zeros(len(self) + 1, dtype=np.intp)
        if not mask.any():
            return SpecArrays(ptr, *_NO_ENTRIES)
        counts = np.bincount(self.entry_trials()[mask], minlength=len(self))
        np.cumsum(counts, out=ptr[1:])
        return SpecArrays(ptr, *(column[mask] for column in self._columns()))

    def _columns(self) -> tuple[np.ndarray, ...]:
        return (self.rows, self.cols, self.kind_codes, self.bits, self.values, self.paths)

    def _specs(self, lo: int, hi: int) -> list[FaultSpec]:
        """Entries ``[lo, hi)`` as :class:`FaultSpec` objects."""
        return list(
            map(
                FaultSpec,
                self.rows[lo:hi].tolist(),
                self.cols[lo:hi].tolist(),
                map(KINDS.__getitem__, self.kind_codes[lo:hi].tolist()),
                self.bits[lo:hi].tolist(),
                self.values[lo:hi].tolist(),
                map(PATHS.__getitem__, self.paths[lo:hi].tolist()),
            )
        )
