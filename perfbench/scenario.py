"""The benchmark's one synthetic world and call trace.

The topology and the call trace (who calls whom, and when) are fixed:
they are the deployment the benchmark models.  ``--seed`` drives
everything drawn on top of them: the world's network performance
(``WorldConfig.seed``), every per-call draw, and the policies' own
random streams.  Keeping the call population fixed keeps the quality
figure (``call_rtt_ms``) comparable across seeds; with a seeded
population a different heaviest pair every seed moves it by ~7%.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.netmodel import TopologyConfig, WorldConfig, build_world
from repro.netmodel.metrics import PathMetrics
from repro.netmodel.options import DIRECT, RelayOption
from repro.netmodel.world import World
from repro.telephony.call import Call
from repro.workload import WorkloadConfig, generate_trace
from repro.workload.trace import TraceDataset

from tracer import maybe_span

TOPOLOGY_SEED = 2016
TRACE_SEED = 2016

#: The paper's RTT poor-call threshold (§2.2); RTT is the metric the
#: policy optimises, so it is the one the checks count.
POOR_RTT_MS = 320.0


@dataclass(frozen=True, slots=True)
class Size:
    """Make-up of the inputs.  ``full`` is the benchmark; ``tiny`` is its
    smoke test."""

    n_countries: int
    ases_per_country: float
    n_relays: int
    n_calls: int
    n_pairs: int
    n_days: int
    #: The open-loop phase serves every ``open_stride``-th trace call, the
    #: closed-loop phase every ``closed_stride``-th (offset by one): both
    #: span every day of the trace, so both cross every refresh.
    open_stride: int
    closed_stride: int
    #: Closed-loop calls in flight, split over the connections.
    depth: int


SIZES = {
    "full": Size(
        n_countries=40,
        ases_per_country=42.0,
        n_relays=20,
        n_calls=20_000,
        n_pairs=3_000,
        n_days=5,
        open_stride=40,
        closed_stride=4,
        depth=32,
    ),
    "tiny": Size(
        n_countries=30,
        ases_per_country=6.0,
        n_relays=12,
        n_calls=4_000,
        n_pairs=80,
        n_days=4,
        open_stride=16,
        closed_stride=3,
        depth=8,
    ),
}


@dataclass(slots=True)
class Scenario:
    size: Size
    seed: int
    world: World
    trace: TraceDataset
    calls: list[Call]

    def options(self, call: Call) -> list[RelayOption]:
        return self.world.options_for_pair(call.src_asn, call.dst_asn)

    def draw(self, call: Call, option: RelayOption, rng: np.random.Generator) -> PathMetrics:
        """One call's realised performance on ``option``."""
        return self.world.sample_call(
            call.src_asn,
            call.dst_asn,
            option,
            call.t_hours,
            rng,
            src_wireless=call.src_wireless,
            dst_wireless=call.dst_wireless,
            src_prefix=call.src_prefix,
            dst_prefix=call.dst_prefix,
        )

    def open_calls(self) -> list[Call]:
        return self.calls[:: self.size.open_stride]

    def closed_calls(self) -> list[Call]:
        return self.calls[1 :: self.size.closed_stride]


def build_scenario(size: Size, seed: int, tracer=None) -> Scenario:
    """Build the world and trace, and construct every path the trace can
    use, so that no round pays the world's lazy construction."""
    with maybe_span(tracer, "netmodel.build_world"):
        world = build_world(
            WorldConfig(
                topology=TopologyConfig(
                    n_countries=size.n_countries,
                    ases_per_country=size.ases_per_country,
                    n_relays=size.n_relays,
                    seed=TOPOLOGY_SEED,
                ),
                n_days=size.n_days,
                seed=seed,
            )
        )
    with maybe_span(tracer, "workload.generate"):
        trace = generate_trace(
            world.topology,
            WorkloadConfig(n_calls=size.n_calls, n_pairs=size.n_pairs, seed=TRACE_SEED),
            n_days=size.n_days,
        )
    with maybe_span(tracer, "netmodel.build_world"):
        for src, dst in {(c.src_asn, c.dst_asn) for c in trace}:
            for option in world.options_for_pair(src, dst):
                world.path_segments(src, dst, option)
                world.path_residual(src, dst, option)
        for call in trace:
            world.prefix_factor(call.src_asn, call.src_prefix)
            world.prefix_factor(call.dst_asn, call.dst_prefix)
    return Scenario(size=size, seed=seed, world=world, trace=trace, calls=list(trace))


@dataclass(slots=True)
class Quality:
    """RTT poor-call count over a set of calls, computed by the benchmark."""

    n: int = 0
    rtt_sum: float = 0.0
    poor_rtt: int = 0

    def add(self, m: PathMetrics) -> None:
        self.n += 1
        self.rtt_sum += m.rtt_ms
        self.poor_rtt += m.rtt_ms >= POOR_RTT_MS

    @property
    def rtt_pcr(self) -> float:
        return self.poor_rtt / self.n if self.n else 0.0


def direct_quality(scn: Scenario, calls: list[Call], rng_key: int) -> Quality:
    """Quality of the same calls had each taken the direct path."""
    rng = np.random.default_rng([scn.seed, rng_key])
    q = Quality()
    for call in calls:
        q.add(scn.draw(call, DIRECT, rng))
    return q
