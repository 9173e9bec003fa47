"""Simulated GPU-cluster substrate.

The paper runs on the CORAL early-access system *Ray*: nodes with four P100
GPUs connected by NVLink inside a node and EDR (100 Gb/s) InfiniBand between
nodes.  This package provides the stand-in for that machine:

``hardware``
    :class:`HardwareSpec` — the calibrated machine parameters (GPU traversal
    throughput, NVLink and InfiniBand bandwidth and latency, kernel and MPI
    overheads) with defaults matching Ray.
``netmodel``
    :class:`NetworkModel` — analytic transfer/collective time formulas,
    including the message-size efficiency curve measured in §VI-A1 (optimal
    message size ≈ 4 MB) and tree-like reductions.
``topology``
    :class:`ClusterTopology` — which virtual GPUs share an MPI rank / node,
    derived from a :class:`repro.partition.layout.ClusterLayout`.
``comm``
    :class:`Communicator` — moves real NumPy buffers between virtual GPUs
    over the paper's two channels — the point-to-point exchange of normal
    vertices and the delegate all-reduce — while accounting communication
    volume and modeled time per phase.
"""

from repro.cluster.comm import CommStats, Communicator, ExchangeResult, ReduceResult
from repro.cluster.hardware import HardwareSpec
from repro.cluster.netmodel import NetworkModel
from repro.cluster.topology import ClusterTopology

__all__ = [
    "HardwareSpec",
    "NetworkModel",
    "ClusterTopology",
    "Communicator",
    "CommStats",
    "ExchangeResult",
    "ReduceResult",
]
