"""The three workloads: ``serve``, ``durable`` and ``replay``.

Each runs in whole rounds; every round of a workload does the same
operations on the same inputs, so per-round figures can be compared and
their median taken.  Every check here is computed by the benchmark from
what it sent and received, never read back from a stored result.
"""

from __future__ import annotations

import asyncio
import json
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.core.policy import ViaConfig, ViaPolicy
from repro.deployment import AsyncViaClient, ProtocolError, ServerError, ViaController
from repro.simulation import make_inter_relay_lookup, replay
from repro.telephony.call import Call
from repro.verify.crashpoints import controller_fingerprint

from scenario import Quality, Scenario, direct_quality
from tracer import maybe_span

HOST = "127.0.0.1"
#: Load comes from this one process over this many connections.
N_CONNECTIONS = 2
#: Open-loop arrival rate (calls/s), well below capacity even when the
#: host runs at half speed, so latency is service time, not queueing.
OPEN_RATE = 200.0
ASSIGN_TIMEOUT_S = 10.0
#: Replay must cut the direct path's RTT poor-call rate by at least this
#: share (on this world Via cuts it by more than half).
REPLAY_PCR_MARGIN = 0.25
#: Recoveries per round (median reported).  A snapshot restore takes
#: ~0.15 s, a WAL recovery ~1.2 s, a checkpoint load ~0.65 s: each
#: workload takes enough samples that the run's median spans the run,
#: not the host's speed of one second or two.
SNAPSHOT_RESTORES = 8
WAL_RECOVERIES = 3
CHECKPOINT_LOADS = 2
#: How many failed operations or checks a round describes on stderr.
MAX_PROBLEMS = 5


@dataclass(slots=True)
class RoundResult:
    attempted: int = 0
    failed: int = 0
    #: Closed-loop served calls/s (serve, durable) or replayed calls/s.
    calls_per_s: float = 0.0
    #: Assignment latency of every call that got one: open loop from the
    #: call's due time (serve, durable) or ``ViaPolicy.assign`` (replay).
    latencies_s: list[float] = field(default_factory=list)
    #: How late the open-loop generator sent each call.
    late_s: list[float] = field(default_factory=list)
    #: Time of each recovery of the learned state into a fresh instance.
    recover_s: list[float] = field(default_factory=list)
    #: Realised quality of the calls Via placed.
    quality: Quality = field(default_factory=Quality)
    served: list[Call] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    checks_failed: bool = False

    def fail(self, what: str) -> None:
        self.failed += 1
        self.problem(what)

    def problem(self, what: str) -> None:
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(what)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.problem("check failed: " + what)
            self.checks_failed = True


def _policy_config(scn: Scenario) -> ViaConfig:
    return ViaConfig(seed=scn.seed)


def _note_refreshes(tracer, policy: ViaPolicy) -> None:
    if tracer is not None:
        tracer.count("policy.refreshes", policy.n_refreshes)


# ----------------------------------------------------------------------
# serve and durable: a controller over loopback TCP
# ----------------------------------------------------------------------


@dataclass(slots=True)
class _Phase:
    """What one serving phase sent and got back."""

    result: RoundResult
    requests: int = 0
    measurements: int = 0


async def _one_call(
    phase: _Phase,
    client: AsyncViaClient,
    scn: Scenario,
    call: Call,
    rng: np.random.Generator,
    due: float | None,
) -> None:
    """One call: a request, then the measurement of the assigned option."""
    result = phase.result
    options = scn.options(call)
    result.attempted += 1
    phase.requests += 1
    try:
        reply = await client.assign(
            call.dst_asn,
            options,
            call.t_hours,
            src_id=call.src_asn,
            timeout=ASSIGN_TIMEOUT_S,
        )
    except (ServerError, ProtocolError, ConnectionError, OSError, asyncio.TimeoutError) as exc:
        result.fail(f"request failed: {exc!r}")
        return
    if due is not None:
        result.latencies_s.append(asyncio.get_running_loop().time() - due)
    if reply.shed:
        result.fail(f"request shed: {reply.reason}")
        return
    if reply.option not in options:
        result.fail(f"unoffered option {reply.option} for {call.src_asn}->{call.dst_asn}")
        return
    metrics = scn.draw(call, reply.option, rng)
    # The client reports under its own id; one load generator speaks for
    # every caller, so it takes the caller's id.  report_measurement
    # builds its message before its first await, so concurrent calls on
    # the same client cannot see each other's id.
    client.client_id = call.src_asn
    await client.report_measurement(call.dst_asn, reply.option, metrics, call.t_hours)
    phase.measurements += 1
    result.served.append(call)
    result.quality.add(metrics)


async def _connect(port: int) -> list[AsyncViaClient]:
    clients = [AsyncViaClient(k, "perfbench", HOST, port) for k in range(N_CONNECTIONS)]
    for client in clients:
        await client.connect()
    return clients


async def _drain(phase: _Phase, clients: list[AsyncViaClient]) -> None:
    """Wait until the controller has handled everything sent, then check
    its counters against the benchmark's own.  A stats request is
    answered in order with the measurements on its connection, so one
    per connection covers every measurement sent."""
    stats = None
    for client in clients:
        stats = await client.fetch_stats()
    result = phase.result
    result.check(
        stats.n_requests == phase.requests,
        f"controller counted {stats.n_requests} requests, {phase.requests} sent",
    )
    result.check(
        stats.n_measurements == phase.measurements,
        f"controller counted {stats.n_measurements} measurements, "
        f"{phase.measurements} sent",
    )
    result.check(stats.n_policy_errors == 0, f"{stats.n_policy_errors} policy errors")


class Serving:
    """``serve`` (no store) and ``durable`` (a Store at its defaults).

    A round has two phases, each on a fresh controller that starts
    cold: an open loop at ``OPEN_RATE`` for latency, then a closed loop
    at ``depth`` calls in flight for throughput, after which the
    controller goes down and comes back with its learned state.
    ``durable`` crashes it (no clean shutdown, so no final snapshot) and
    recovers from the write-ahead log; ``serve`` has no store, so it
    restores the controller's snapshot (the payload a Store snapshot
    holds).
    """

    def __init__(self, durable: bool, workdir: Path) -> None:
        self.durable = durable
        self.workdir = workdir

    def setup(self, scn: Scenario) -> None:
        async def start_stop() -> None:
            with tempfile.TemporaryDirectory(dir=self.workdir) as tmp:
                ctl = ViaController(_policy_config(scn), store=self._store(tmp))
                await ctl.start()
                await ctl.stop()

        asyncio.run(start_stop())

    def _store(self, tmp: str) -> str | None:
        return str(Path(tmp) / "store") if self.durable else None

    def round(self, scn: Scenario, tracer) -> RoundResult:
        result = RoundResult()
        tmp = tempfile.mkdtemp(dir=self.workdir)
        try:
            asyncio.run(self._open_phase(scn, result, tracer, Path(tmp) / "open"))
            asyncio.run(self._closed_phase(scn, result, tracer, Path(tmp) / "closed"))
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        # Via's RTT poor-call rate over the served calls must be below
        # that of a direct-path draw over the same calls.
        via, direct = result.quality, direct_quality(scn, result.served, 2)
        result.check(
            via.rtt_pcr < direct.rtt_pcr,
            f"served RTT poor-call rate {via.rtt_pcr:.4f} not below direct {direct.rtt_pcr:.4f}",
        )
        return result

    async def _open_phase(self, scn, result, tracer, root: Path) -> None:
        ctl = ViaController(_policy_config(scn), store=self._store(root))
        await ctl.start()
        clients = await _connect(ctl.port)
        phase = _Phase(result)
        rng = np.random.default_rng([scn.seed, 1])
        loop = asyncio.get_running_loop()
        tasks = []
        start = loop.time()
        for i, call in enumerate(scn.open_calls()):
            due = start + i / OPEN_RATE
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            result.late_s.append(max(0.0, loop.time() - due))
            client = clients[i % N_CONNECTIONS]
            tasks.append(asyncio.create_task(_one_call(phase, client, scn, call, rng, due)))
        await asyncio.gather(*tasks)
        await _drain(phase, clients)
        for client in clients:
            await client.close()
        await ctl.stop()
        _note_refreshes(tracer, ctl.policy)

    async def _closed_phase(self, scn, result, tracer, root: Path) -> None:
        config = _policy_config(scn)
        store = self._store(root)
        ctl = ViaController(config, store=store)
        await ctl.start()
        clients = await _connect(ctl.port)
        phase = _Phase(result)
        rng = np.random.default_rng([scn.seed, 3])
        calls = iter(scn.closed_calls())

        async def caller(client: AsyncViaClient) -> None:
            for call in calls:
                await _one_call(phase, client, scn, call, rng, None)

        t0 = perf_counter()
        await asyncio.gather(
            *(caller(clients[k % N_CONNECTIONS]) for k in range(scn.size.depth))
        )
        await _drain(phase, clients)
        result.calls_per_s = phase.measurements / (perf_counter() - t0)
        for client in clients:
            await client.close()

        _note_refreshes(tracer, ctl.policy)
        if store is not None:
            # The crash: stop serving with the store detached, so no final
            # snapshot is written and the log stays as the crash left it.
            before = controller_fingerprint(ctl)
            crashed = ctl.store
            ctl.store = None
            await ctl.stop()
            crashed.close()
        else:
            before = _restored_view(ctl)
            checkpoint = json.dumps(ctl.snapshot_dict())
            await ctl.stop()
        # Nothing a recovery does changes what the next one reads, so each
        # round recovers several times from the same state.
        for _ in range(WAL_RECOVERIES if store is not None else SNAPSHOT_RESTORES):
            t0 = perf_counter()
            with maybe_span(tracer, "recover"):
                if store is not None:
                    revived = ViaController(config, store=store)
                else:
                    revived = ViaController(config)
                    revived.restore_dict(json.loads(checkpoint))
                await revived.start()
            result.recover_s.append(perf_counter() - t0)
            if store is not None:
                result.check(
                    controller_fingerprint(revived) == before,
                    "recovered controller's fingerprint differs from the one that crashed",
                )
                _note_refreshes(tracer, revived.policy)
                revived_store = revived.store
                revived.store = None
                await revived.stop()
                revived_store.close()
            else:
                result.check(
                    _restored_view(revived) == before,
                    "restored controller's history, counters or RNG differ from the snapshot's",
                )
                await revived.stop()
            result.check(
                revived.n_requests == phase.requests
                and revived.n_measurements == phase.measurements,
                f"recovered controller counts {revived.n_requests} requests and "
                f"{revived.n_measurements} measurements, "
                f"{phase.requests} and {phase.measurements} sent",
            )


def _restored_view(ctl: ViaController) -> str:
    """What a snapshot restore reproduces exactly: the controller's
    fingerprint without the per-pair pruning and bandit state, which
    ``ViaPolicy.load_state_dict`` rebuilds from the restored history and
    which can differ from the live one when measurements of the previous
    window arrive after a refresh (see CHANGES.md)."""
    state = ctl.policy.state_dict()
    del state["pair_states"]
    return json.dumps(
        {
            "policy": state,
            "site_labels": {str(k): v for k, v in ctl.site_labels.items()},
            "n_measurements": ctl.n_measurements,
            "n_requests": ctl.n_requests,
        },
        sort_keys=True,
    )


# ----------------------------------------------------------------------
# replay: the paper's evaluation loop
# ----------------------------------------------------------------------


class Replay:
    """Serial ``replay`` (``batch_calls=1``) of Via with tomography over
    the whole trace, then a restore of the learned policy from its
    checkpoint."""

    def __init__(self) -> None:
        self._direct: Quality | None = None

    def _policy(self, scn: Scenario) -> ViaPolicy:
        return ViaPolicy(_policy_config(scn), inter_relay=make_inter_relay_lookup(scn.world))

    def setup(self, scn: Scenario) -> None:
        self._policy(scn)

    def round(self, scn: Scenario, tracer) -> RoundResult:
        result = RoundResult()
        policy = self._policy(scn)
        latencies = result.latencies_s
        assign = policy.assign

        def timed_assign(call, options):
            t0 = perf_counter()
            choice = assign(call, options)
            latencies.append(perf_counter() - t0)
            return choice

        policy.assign = timed_assign
        n = len(scn.calls)
        t0 = perf_counter()
        with maybe_span(tracer, "replay", items=n):
            replayed = replay(scn.world, scn.trace, policy, seed=scn.seed)
        result.calls_per_s = n / (perf_counter() - t0)
        del policy.assign
        result.attempted = n
        for outcome in replayed.outcomes:
            if outcome.option not in scn.options(outcome.call):
                result.fail(f"unoffered option {outcome.option}")
            else:
                result.quality.add(outcome.metrics)
        result.check(len(replayed.outcomes) == n, f"{len(replayed.outcomes)} of {n} calls replayed")
        if self._direct is None:
            self._direct = direct_quality(scn, scn.calls, 5)
        via, direct = result.quality, self._direct
        result.check(
            via.rtt_pcr <= (1.0 - REPLAY_PCR_MARGIN) * direct.rtt_pcr,
            f"replay RTT poor-call rate {via.rtt_pcr:.4f} is not {REPLAY_PCR_MARGIN:.0%} "
            f"below direct {direct.rtt_pcr:.4f}",
        )

        checkpoint = json.dumps(policy.state_dict())
        expected = json.dumps(policy.state_dict(), sort_keys=True)
        for _ in range(CHECKPOINT_LOADS):
            t0 = perf_counter()
            with maybe_span(tracer, "recover"):
                restored = self._policy(scn)
                restored.load_state_dict(json.loads(checkpoint))
            result.recover_s.append(perf_counter() - t0)
            result.check(
                json.dumps(restored.state_dict(), sort_keys=True) == expected,
                "restored policy state differs from the checkpointed one",
            )
        _note_refreshes(tracer, policy)
        return result


def make_workload(name: str, workdir: Path):
    if name == "serve":
        return Serving(durable=False, workdir=workdir)
    if name == "durable":
        return Serving(durable=True, workdir=workdir)
    if name == "replay":
        return Replay()
    raise ValueError(f"unknown workload {name!r}")
