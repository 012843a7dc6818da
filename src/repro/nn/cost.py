"""Analytic cost reports: FLOPs, parameters and feature sizes per layer.

These reports are what the device model executes against (virtual time) and
what the Neurosurgeon-style predictor is trained on.  Composite inception
modules are expanded into their inner layers so per-*kind* throughputs apply,
while every expanded entry keeps its spine index so partition logic can
aggregate back to offload-point granularity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.nn.layers.composite import InceptionModule
from repro.nn.network import Network
from repro.nn.tensor import element_count, text_serialized_bytes


@dataclass(frozen=True)
class LayerCost:
    """Cost of one concrete layer execution."""

    name: str
    kind: str
    flops: float
    params: int
    output_shape: Tuple[int, ...]
    spine_index: int

    @property
    def output_elements(self) -> int:
        return element_count(self.output_shape) if len(self.output_shape) == 3 else (
            int(self.output_shape[0]) if self.output_shape else 0
        )


@dataclass(frozen=True)
class SpinePointCost:
    """Aggregate cost of one spine position (one offload point)."""

    index: int
    name: str
    kind: str
    flops: float
    params: int
    output_shape: Tuple[int, ...]

    @property
    def output_elements(self) -> int:
        count = 1
        for dim in self.output_shape:
            count *= dim
        return count

    @property
    def feature_text_bytes(self) -> int:
        """Snapshot-text size of the feature tensor at this point."""
        return text_serialized_bytes(self.output_elements)


def network_costs(net: Network) -> List[LayerCost]:
    """Expanded per-layer costs (inception/residual composites flattened)."""
    from repro.nn.layers.composite import ResidualBlock

    if not net.built:
        raise RuntimeError(f"network {net.name!r} must be built before costing")
    costs: List[LayerCost] = []
    for index, layer in enumerate(net.layers):
        if isinstance(layer, (InceptionModule, ResidualBlock)):
            for inner in layer.inner_layers():
                costs.append(
                    LayerCost(
                        name=f"{layer.name}/{inner.name}",
                        kind=inner.kind,
                        flops=inner.count_flops(),
                        params=inner.param_count,
                        output_shape=tuple(inner.out_shape),
                        spine_index=index,
                    )
                )
            # The join: concat copies / eltwise adds one op per element.
            join = "concat" if isinstance(layer, InceptionModule) else "eltwise"
            costs.append(
                LayerCost(
                    name=f"{layer.name}/{join}",
                    kind=join,
                    flops=float(layer.output_elements),
                    params=0,
                    output_shape=tuple(layer.out_shape),
                    spine_index=index,
                )
            )
        else:
            costs.append(
                LayerCost(
                    name=layer.name,
                    kind=layer.kind,
                    flops=layer.count_flops(),
                    params=layer.param_count,
                    output_shape=tuple(layer.out_shape),
                    spine_index=index,
                )
            )
    return costs


def spine_costs(net: Network) -> List[SpinePointCost]:
    """Per-spine-position aggregates (offload-point granularity)."""
    expanded = network_costs(net)
    points: List[SpinePointCost] = []
    for index, layer in enumerate(net.layers):
        flops = sum(cost.flops for cost in expanded if cost.spine_index == index)
        params = sum(cost.params for cost in expanded if cost.spine_index == index)
        points.append(
            SpinePointCost(
                index=index,
                name=layer.name,
                kind=layer.kind,
                flops=flops,
                params=params,
                output_shape=tuple(layer.out_shape),
            )
        )
    return points


def costs_for_range(net: Network, start: int, end: int) -> List[LayerCost]:
    """Expanded costs for spine layers ``start..end`` inclusive."""
    return [
        cost for cost in network_costs(net) if start <= cost.spine_index <= end
    ]


def total_flops(net: Network) -> float:
    """Total forward FLOPs of a built network."""
    return sum(cost.flops for cost in network_costs(net))
