"""GEMM problem description and the paper's FLOP/byte accounting.

A linear layer is the multiplication of an ``M x K`` activation matrix
``A`` by a ``K x N`` weight matrix ``B`` producing ``M x N`` output ``C``
(paper §2.1).  Following the paper's §6.2, dimensions are padded to
multiples of 8 to operate with the m16n8k8 Tensor Core MMA; the
arithmetic-intensity numbers the paper prints (e.g. DLRM MLP-Bottom
AI = 7.4 at batch 1) are only reproduced when this padding is applied,
which is how this module computes FLOPs and bytes by default.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import DEFAULT_CONSTANTS
from ..errors import ShapeError
from ..utils import check_positive_int, round_up

#: The paper pads M, N and K to multiples of eight (§6.2).
PAD_MULTIPLE = 8


@dataclass(frozen=True)
class GemmProblem:
    """An ``M x K @ K x N`` FP16 GEMM with optional label.

    Attributes
    ----------
    m, n, k:
        Logical (unpadded) problem dimensions.
    label:
        Optional human-readable origin, e.g. ``"resnet50/layer3.0.conv2"``.
    m_pad, n_pad, k_pad:
        The dims rounded up to the MMA-operability multiple (8): the
        execution view.  Derived once at construction; they take no part
        in equality, hashing or ``repr``.
    """

    m: int
    n: int
    k: int
    label: str = ""
    m_pad: int = field(init=False, compare=False, repr=False)
    n_pad: int = field(init=False, compare=False, repr=False)
    k_pad: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        check_positive_int(self.m, "m")
        check_positive_int(self.n, "n")
        check_positive_int(self.k, "k")
        object.__setattr__(self, "m_pad", round_up(self.m, PAD_MULTIPLE))
        object.__setattr__(self, "n_pad", round_up(self.n, PAD_MULTIPLE))
        object.__setattr__(self, "k_pad", round_up(self.k, PAD_MULTIPLE))

    # ------------------------------------------------------------------
    # Paper-style FLOP / byte accounting
    # ------------------------------------------------------------------
    def flops(self, *, padded: bool = True) -> float:
        """Multiply-accumulate FLOPs (2 per MAC) of the GEMM."""
        if padded:
            return 2.0 * self.m_pad * self.n_pad * self.k_pad
        return 2.0 * self.m * self.n * self.k

    def bytes_moved(self, *, padded: bool = True, dtype_bytes: int | None = None) -> float:
        """Bytes transferred for A, B and C, each touched once.

        This is the GEMM-view accounting the paper's arithmetic
        intensities use: ``dtype * (M*K + K*N + M*N)``.
        """
        nbytes = DEFAULT_CONSTANTS.fp16_bytes if dtype_bytes is None else dtype_bytes
        if nbytes <= 0:
            raise ShapeError(f"dtype_bytes must be positive, got {nbytes}")
        if padded:
            m, n, k = self.m_pad, self.n_pad, self.k_pad
        else:
            m, n, k = self.m, self.n, self.k
        return float(nbytes) * (m * k + k * n + m * n)

    def arithmetic_intensity(self, *, padded: bool = True) -> float:
        """FLOPs per byte (Eq. 1 LHS of the paper)."""
        return self.flops(padded=padded) / self.bytes_moved(padded=padded)

    def with_label(self, label: str) -> "GemmProblem":
        """A copy of this problem carrying ``label``."""
        return GemmProblem(self.m, self.n, self.k, label=label)

    def __str__(self) -> str:
        tag = f" [{self.label}]" if self.label else ""
        return f"GEMM {self.m}x{self.n}x{self.k}{tag}"
