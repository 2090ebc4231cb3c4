"""Workload IR: network layers and their lowered GEMM/vector kernels.

A :class:`ModelGraph` is a linear list of layer specs (convolutions,
dense layers, pools, element-wise ops, attention matmuls).  ``lower()``
turns each layer into the kernels the NPU actually executes:

* :class:`GemmSpec` — a (possibly grouped/repeated) matrix multiply with
  explicit traffic accounting.  Convolutions lower to GEMM via on-the-fly
  im2col, so their *DRAM* input traffic is the raw feature map per pass,
  not the k²-inflated im2col matrix (``input_bytes_per_pass``).
* :class:`VectorSpec` — pooling / normalization / element-wise kernels
  with zero MACs that still move data (they drag FLOPS utilization down,
  which is the point of Fig. 1).

ReLU-style activations are folded into the producing kernel, as NPU
compilers do.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import List, Sequence, Union

from repro.errors import ConfigError


@dataclass(frozen=True)
class GemmSpec:
    """One lowered matrix-multiply kernel: ``repeat`` independent M×K×N GEMMs.

    ``input_bytes_per_pass`` is the DRAM traffic needed to stream the whole
    A-operand once (per repeat); for im2col convolutions this is the raw
    input feature map, which is smaller than ``M*K``.
    """

    name: str
    m: int
    k: int
    n: int
    repeat: int = 1
    input_bytes_per_pass: int = 0
    weight_bytes: int = 0
    output_bytes: int = 0
    #: True when the B operand is an activation (attention), so it lives in
    #: the activation chunk rather than the weight chunk.
    b_is_activation: bool = False
    #: Receptive-field halo of a convolution: bytes of input re-touched by
    #: adjacent M-blocks (kernel > stride overlap).  Drives the short-
    #: distance page reuse that differentiates IOTLB sizes (Fig. 13a).
    input_halo_bytes: int = 0

    def __post_init__(self) -> None:
        if min(self.m, self.k, self.n, self.repeat) < 1:
            raise ConfigError(f"degenerate GEMM {self.name!r}: {self}")
        if self.input_bytes_per_pass == 0:
            object.__setattr__(self, "input_bytes_per_pass", self.m * self.k)
        if self.weight_bytes == 0:
            object.__setattr__(self, "weight_bytes", self.k * self.n)
        if self.output_bytes == 0:
            object.__setattr__(self, "output_bytes", self.m * self.n)

    @property
    def macs(self) -> int:
        return self.m * self.k * self.n * self.repeat


@dataclass(frozen=True)
class VectorSpec:
    """One lowered element-wise / pooling kernel (no MACs)."""

    name: str
    elements: int
    in_bytes: int
    out_bytes: int
    #: Vector-unit operations per element (e.g. 9 for 3x3 max pooling).
    ops_per_element: int = 1

    def __post_init__(self) -> None:
        if self.elements < 1:
            raise ConfigError(f"degenerate vector kernel {self.name!r}")


Kernel = Union[GemmSpec, VectorSpec]


def _conv_out(size: int, kernel: int, stride: int, padding: int) -> int:
    out = (size + 2 * padding - kernel) // stride + 1
    if out < 1:
        raise ConfigError(
            f"convolution output collapsed: in={size} k={kernel} "
            f"s={stride} p={padding}"
        )
    return out


@dataclass(frozen=True)
class ConvSpec:
    """2-D convolution (optionally grouped / depthwise)."""

    name: str
    in_h: int
    in_w: int
    in_c: int
    out_c: int
    kernel: int
    stride: int = 1
    padding: int = 0
    groups: int = 1

    def __post_init__(self) -> None:
        if self.in_c % self.groups or self.out_c % self.groups:
            raise ConfigError(
                f"{self.name!r}: channels {self.in_c}->{self.out_c} not "
                f"divisible by groups={self.groups}"
            )

    @property
    def out_h(self) -> int:
        return _conv_out(self.in_h, self.kernel, self.stride, self.padding)

    @property
    def out_w(self) -> int:
        return _conv_out(self.in_w, self.kernel, self.stride, self.padding)

    def lower(self) -> List[Kernel]:
        m = self.out_h * self.out_w
        k = (self.in_c // self.groups) * self.kernel * self.kernel
        n = self.out_c // self.groups
        raw_input = self.in_h * self.in_w * (self.in_c // self.groups)
        halo_rows = max(0, self.kernel - self.stride)
        halo = halo_rows * self.in_w * (self.in_c // self.groups)
        return [
            GemmSpec(
                name=self.name,
                m=m,
                k=k,
                n=n,
                repeat=self.groups,
                input_bytes_per_pass=raw_input,
                weight_bytes=k * n,
                output_bytes=m * n,
                input_halo_bytes=halo,
            )
        ]


@dataclass(frozen=True)
class DenseSpec:
    """Fully connected layer; ``batch`` rows at once (1 for inference)."""

    name: str
    in_features: int
    out_features: int
    batch: int = 1

    def lower(self) -> List[Kernel]:
        return [
            GemmSpec(
                name=self.name,
                m=self.batch,
                k=self.in_features,
                n=self.out_features,
            )
        ]


@dataclass(frozen=True)
class PoolSpec:
    """Max/avg pooling over (h, w, c)."""

    name: str
    in_h: int
    in_w: int
    channels: int
    kernel: int
    stride: int = 0  # 0 = same as kernel
    padding: int = 0

    @property
    def eff_stride(self) -> int:
        return self.stride or self.kernel

    def _eff_kernel(self, size: int) -> int:
        # Pooling windows clamp to the input (ceil-mode behaviour), so
        # reduced-resolution profiles never collapse a window.
        return min(self.kernel, size + 2 * self.padding)

    @property
    def out_h(self) -> int:
        return _conv_out(
            self.in_h, self._eff_kernel(self.in_h), self.eff_stride, self.padding
        )

    @property
    def out_w(self) -> int:
        return _conv_out(
            self.in_w, self._eff_kernel(self.in_w), self.eff_stride, self.padding
        )

    def lower(self) -> List[Kernel]:
        out_elems = self.out_h * self.out_w * self.channels
        return [
            VectorSpec(
                name=self.name,
                elements=out_elems,
                in_bytes=self.in_h * self.in_w * self.channels,
                out_bytes=out_elems,
                ops_per_element=self.kernel * self.kernel,
            )
        ]


@dataclass(frozen=True)
class EltwiseSpec:
    """Element-wise op (residual add, softmax, layernorm...)."""

    name: str
    elements: int
    operands: int = 2
    ops_per_element: int = 1

    def lower(self) -> List[Kernel]:
        return [
            VectorSpec(
                name=self.name,
                elements=self.elements,
                in_bytes=self.elements * self.operands,
                out_bytes=self.elements,
                ops_per_element=self.ops_per_element,
            )
        ]


@dataclass(frozen=True)
class AttentionMatmulSpec:
    """Activation x activation matmul (QK^T and PV), repeated per head."""

    name: str
    m: int
    k: int
    n: int
    heads: int

    def lower(self) -> List[Kernel]:
        return [
            GemmSpec(
                name=self.name,
                m=self.m,
                k=self.k,
                n=self.n,
                repeat=self.heads,
                b_is_activation=True,
            )
        ]


LayerSpec = Union[ConvSpec, DenseSpec, PoolSpec, EltwiseSpec, AttentionMatmulSpec]


@dataclass
class ModelGraph:
    """A named, ordered list of layers plus descriptive metadata."""

    name: str
    layers: List[LayerSpec] = field(default_factory=list)
    input_shape: Sequence[int] = ()

    def add(self, layer: LayerSpec) -> LayerSpec:
        self.layers.append(layer)
        return layer

    def lower(self) -> List[Kernel]:
        kernels: List[Kernel] = []
        for layer in self.layers:
            kernels.extend(layer.lower())
        return kernels

    @property
    def total_macs(self) -> int:
        return sum(
            k.macs for k in self.lower() if isinstance(k, GemmSpec)
        )

    @property
    def total_weight_bytes(self) -> int:
        return sum(
            k.weight_bytes * k.repeat
            for k in self.lower()
            if isinstance(k, GemmSpec) and not k.b_is_activation
        )

    @property
    def cache_key(self) -> str:
        """Content-based identity (two graphs with equal names may differ).
        Memoised per instance; a rename or any edit of :attr:`layers` (its
        frozen elements are compared by identity first) recomputes it."""
        name, layers, key = getattr(self, "_key_memo", ("", None, ""))
        if name != self.name or layers != self.layers:
            digest = hashlib.sha1(self.name.encode())
            for kernel in self.lower():
                digest.update(repr(kernel).encode())
            key = digest.hexdigest()
            self._key_memo = (self.name, list(self.layers), key)
        return key

    def summary(self) -> str:
        kernels = self.lower()
        gemms = sum(1 for k in kernels if isinstance(k, GemmSpec))
        return (
            f"{self.name}: {len(self.layers)} layers -> {len(kernels)} kernels "
            f"({gemms} GEMM), {self.total_macs / 1e6:.1f} MMACs, "
            f"{self.total_weight_bytes / 1e6:.2f} MB weights"
        )
