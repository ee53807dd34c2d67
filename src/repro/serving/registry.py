"""Named construction of engine backends, pluggable per shard.

Every backend follows the engine protocol documented in
:mod:`repro.pipeline` (``process_batch(EdgeBatch) -> seconds``).  The
registry makes the *choice* of backend data, not code: the serving engine,
CLI, and benchmarks look backends up by name, and each shard gets its own
freshly-constructed instance (whatever state a backend keeps — a
:class:`~repro.models.tgn.ModelRuntime` for the two that execute kernels, the
accelerator's cost tables for the simulated FPGA — is never shared between
shards).  An elastic sharded fleet
is built the same way, sized ``max_replicas`` wide up front — inactive
tail shards own no vertices until a split grows into them.

Built-in names
--------------
``software``            measured single-thread NumPy inference (executes)
``u200`` / ``zcu104``   simulated FPGA accelerator on that platform
                        (prices the Fig. 4 schedule from batch shape,
                        runs no kernel, keeps no state)
``cpu-32t`` / ``gpu``   calibrated GPP cost models: a
                        ``LinearCostBackend`` with the model's batch
                        overhead and per-edge marginal (prices from the
                        batch's edge count, runs no kernel, keeps no
                        state)
``measured``            ``software`` served on measured time: a
                        ``SoftwareBackend`` subclass whose ``compute``
                        seconds are the service times, run by the
                        serving engine's worker pool (see
                        :mod:`repro.serving.measured`); carries a
                        ``cpu-32t`` pricing companion for
                        the modeled-vs-measured report block
"""

from __future__ import annotations

from typing import Callable

from ..hw.config import BOARDS

__all__ = ["BackendRegistry", "DEFAULT_REGISTRY"]


class BackendRegistry:
    """Maps backend names to factories ``(model, graph, **kw) -> backend``."""

    def __init__(self):
        self._factories: dict[str, Callable] = {}

    def register(self, name: str, factory: Callable | None = None):
        """Register a factory; usable directly or as a decorator."""
        if factory is None:
            return lambda f: self.register(name, f)
        if name in self._factories:
            raise ValueError(f"backend {name!r} already registered")
        self._factories[name] = factory
        return factory

    def available(self) -> list[str]:
        return sorted(self._factories)

    def create(self, name: str, model, graph, **kwargs):
        """Construct a fresh backend instance by name."""
        if name not in self._factories:
            raise KeyError(f"unknown backend {name!r}; "
                           f"available: {', '.join(self.available())}")
        return self._factories[name](model, graph, **kwargs)


DEFAULT_REGISTRY = BackendRegistry()


@DEFAULT_REGISTRY.register("software")
def _software(model, graph, **_):
    from ..pipeline.engine import SoftwareBackend
    return SoftwareBackend(model, graph)


def _fpga_factory(design):
    def factory(model, graph, **_):
        from ..hw import FPGAAccelerator
        from ..pipeline.engine import SimulatedFPGABackend
        return SimulatedFPGABackend(FPGAAccelerator(model, design), graph)
    return factory


def _gpp_factory(model_name: str):
    def factory(model, graph, **_):
        from ..perf import CPU_32T, GPU
        from ..pipeline.engine import LinearCostBackend
        from ..profiling import count_ops
        cost = {"cpu-32t": CPU_32T, "gpu": GPU}[model_name]
        return LinearCostBackend(
            per_edge_s=cost.marginal_edge_s(count_ops(model.cfg)),
            overhead_s=cost.batch_overhead_s, name=cost.name)
    return factory


for _name, _design in BOARDS.items():
    DEFAULT_REGISTRY.register(_name, _fpga_factory(_design))
for _name in ("cpu-32t", "gpu"):
    DEFAULT_REGISTRY.register(_name, _gpp_factory(_name))


@DEFAULT_REGISTRY.register("measured")
def _measured(model, graph, **_):
    from .measured import MeasuredBackend
    return MeasuredBackend(model, graph)
