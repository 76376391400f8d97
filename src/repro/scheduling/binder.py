"""Resource binding: mapping assay operations onto chip regions.

The array is big enough to run many assay steps concurrently, but not
infinitely so: sensing uses shared column-parallel readout channels,
trapping happens at loading zones near the fluidic inlet, and every
concurrent operation needs its own patch of electrodes.  The binder
models the chip as a small set of typed, capacity-limited resources and
assigns operations to them; the schedulers then resolve contention in
time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .taskgraph import OpType


@dataclass(frozen=True)
class Resource:
    """A capacity-limited chip resource.

    Parameters
    ----------
    name:
        Unique label ("zone0", "sense-bank", ...).
    capacity:
        Number of operations the resource can host concurrently.
    op_types:
        The operation kinds this resource can execute.
    """

    name: str
    capacity: int
    op_types: frozenset

    def __post_init__(self):
        if self.capacity < 1:
            raise ValueError("resource capacity must be >= 1")

    def supports(self, op_type) -> bool:
        return op_type in self.op_types


def default_chip_resources(zones=4, cages_per_zone=64, sense_channels=8, loaders=2):
    """The standard resource model of one chip.

    * ``zones``: independent manipulation regions, each hosting up to
      ``cages_per_zone`` concurrent move/merge/incubate operations;
    * one shared sensing bank with ``sense_channels`` parallel readout
      chains;
    * ``loaders`` trapping sites near the inlet (also used for release).
    """
    manipulation = frozenset({OpType.MOVE, OpType.MERGE, OpType.INCUBATE})
    resources = [
        Resource(f"zone{i}", cages_per_zone, manipulation) for i in range(zones)
    ]
    resources.append(
        Resource("sense-bank", sense_channels, frozenset({OpType.SENSE}))
    )
    resources.append(
        Resource("loader", loaders, frozenset({OpType.TRAP, OpType.RELEASE}))
    )
    return resources


class BindingError(Exception):
    """No resource can execute an operation."""


@dataclass
class Binder:
    """Static operation -> candidate-resource mapping."""

    resources: list = field(default_factory=default_chip_resources)

    def __post_init__(self):
        names = [r.name for r in self.resources]
        if len(names) != len(set(names)):
            raise ValueError("duplicate resource names")
        self._by_name = {r.name: r for r in self.resources}
        self._by_type = {}  # op_type -> capable resources, found once

    def resource(self, name) -> Resource:
        try:
            return self._by_name[name]
        except KeyError:
            raise BindingError(f"no resource named {name!r}") from None

    def candidates(self, operation):
        """Resources that can run ``operation`` (respecting a pinned region).

        Raises :class:`BindingError` when none exists.  The unpinned
        list is found once per operation type and shared: callers must
        not mutate it.
        """
        if operation.region is not None:
            resource = self.resource(operation.region)
            if not resource.supports(operation.op_type):
                raise BindingError(
                    f"operation {operation.op_id} pinned to {operation.region} "
                    f"which cannot run {operation.op_type}"
                )
            return [resource]
        found = self._by_type.get(operation.op_type)
        if found is None:
            found = [r for r in self.resources if r.supports(operation.op_type)]
            if not found:
                raise BindingError(
                    f"no resource supports {operation.op_type} "
                    f"(op {operation.op_id})"
                )
            self._by_type[operation.op_type] = found
        return found

    def validate_graph(self, graph):
        """Check every operation of an assay graph is bindable."""
        for operation in graph.operations():
            self.candidates(operation)
        return True
