"""The benchmark's workloads: seeded inputs, set-up, the timed loop and checks.

* ``bulk_fp32`` and ``bulk_int8``: one caller in a closed loop sends ragged
  request lists to :meth:`InferenceSession.forward` on BERT-base geometry.
  Every call carries the same number of tokens, drawn from a cycle of
  templates over a few long lengths with repeats (so exact-length buckets
  fill).  The two workloads differ only in the matmul engine.
* ``online_short``: one caller in a closed loop sends short requests, one
  at a time, through ``ServingQueue(router="least_loaded")`` over a
  two-replica ``ShardedPool`` on the shared-memory-ring transport.  The
  request lengths are a fixed heavy-tailed set of 4-64 tokens, so per-request
  compute is small and admission, routing, transport and the worker
  processes set the latency.

The seed fixes the call order and the token ids.  Set-up and the timed loop
go through the public ``repro.api`` surface.  Thread-count environment
variables are deliberately left alone: the benchmark measures the system as
it configures itself.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .system import median, process_peak_rss_mb
from .tracing import Tracer, self_times_ns

PRECISION = {"bulk_fp32": "fp32", "bulk_int8": "int8", "online_short": "fp32"}
WORKLOADS = tuple(PRECISION)
SERVING = "online_short"

#: Set-ups per run; ``setup_s`` is their median, and the measured seconds
#: are split evenly over the windows that follow them.
SETUPS = 2
#: Seeded permutations of the call templates in one schedule.
CYCLES = 64
#: ``max_abs_err`` above which the outputs count as wrong.  NN-LUT's own
#: error after 12 random-weight layers is about 0.6 on BERT-base, while
#: hidden states unrelated to the reference differ by several units.
ERROR_LIMIT = 2.0
#: Share of the served calls whose outputs are kept and checked afterwards.
SAMPLE_SHARE = 1 / 16
#: Traced dispatches ``service_inflation_x`` replays in-process, at most.
INFLATION_BATCHES = 8
#: Seconds any one serving call may take before it counts as failed.
SERVE_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class Profile:
    """Model geometry and input shapes of one benchmark run."""

    model_family: str
    model_size: str
    #: Bulk call templates: request lengths of one ``forward`` call.  All
    #: templates carry the same token count, so per-call latency compares
    #: across seeds.
    bulk_templates: Tuple[Tuple[int, ...], ...]
    #: One cycle of online request lengths (one request per call).
    online_lengths: Tuple[int, ...]
    #: Request lengths of the probe set ``max_abs_err`` is measured on.
    probe: Tuple[int, ...]


#: BERT-base geometry: the benchmark proper.
FULL = Profile(
    model_family="roberta",
    model_size="full",
    bulk_templates=((64, 64, 128), (128, 128), (64, 64, 64, 64), (256,)),
    online_lengths=(4, 6, 8, 12, 16, 24, 32, 64),
    probe=(64, 64, 128),
)

#: Tiny geometry for the benchmark's own tests.
SMOKE = Profile(
    model_family="tiny",
    model_size="small",
    bulk_templates=((8, 8, 16), (16, 16)),
    online_lengths=(2, 4, 8, 16),
    probe=(8, 16),
)


def kernel_name() -> str:
    """The native kernel where it builds, else numpy (recorded in the output)."""
    from repro.core.kernels import native_available

    return "native" if native_available() else "numpy"


def vocab_size(profile: Profile) -> int:
    from repro.api import MODEL_FAMILIES

    return MODEL_FAMILIES[profile.model_family][profile.model_size]().vocab_size


# --------------------------------------------------------------------------- #
# Seeded inputs (the program sees only these)
# --------------------------------------------------------------------------- #


def _rng(seed: int, stream: str) -> np.random.Generator:
    """An independent seeded stream per input kind."""
    return np.random.default_rng([seed, sum(map(ord, stream))])


def templates(profile: Profile, workload: str) -> Tuple[Tuple[int, ...], ...]:
    """Request lengths of each kind of call the workload makes."""
    if workload == SERVING:
        return tuple((length,) for length in profile.online_lengths)
    return profile.bulk_templates


def schedule(profile: Profile, workload: str, seed: int, vocab: int) -> List[List[np.ndarray]]:
    """``CYCLES`` seeded permutations of the workload's call templates, as token lists.

    Both bulk workloads draw from one stream, so they get the same inputs.
    """
    rng = _rng(seed, "online" if workload == SERVING else "bulk")
    kinds = templates(profile, workload)
    calls: List[List[np.ndarray]] = []
    for _ in range(CYCLES):
        for index in rng.permutation(len(kinds)):
            lengths = list(kinds[index])
            rng.shuffle(lengths)
            calls.append(
                [rng.integers(0, vocab, size=length, dtype=np.int64) for length in lengths]
            )
    return calls


#: The probe set is the same for every run: ``max_abs_err`` then compares
#: code, not input draws (its maximum varied by +-13% across seeded probes).
PROBE_SEED = 0


def probe_requests(profile: Profile, vocab: int) -> List[np.ndarray]:
    rng = _rng(PROBE_SEED, "probe")
    return [rng.integers(0, vocab, size=length, dtype=np.int64) for length in profile.probe]


# --------------------------------------------------------------------------- #
# Set-up
# --------------------------------------------------------------------------- #


@dataclass
class System:
    """A set-up system under test and the seconds each set-up phase took."""

    #: Serves one call of the schedule: a list of requests -> their outputs.
    serve: Callable[[Sequence[np.ndarray]], List[np.ndarray]]
    #: An in-process session of the same model: the checks' oracle.
    session: object
    phases: Dict[str, float]
    close: Callable[[], None] = lambda: None
    #: The serving queue and its pool (``online_short`` only).
    queue: object = None
    pool: object = None

    def worker_peak_rss_mb(self) -> float:
        if self.pool is None:
            return 0.0
        return sum(process_peak_rss_mb(client.process.pid) for client in self.pool.sessions)


def _fit_tables(spec):
    """A fresh registry with every table the spec needs fitted."""
    from repro.api import OPERATOR_PRIMITIVES
    from repro.core.registry import LutRegistry

    registry = LutRegistry()
    for op, op_spec in spec.operators().items():
        for primitive in OPERATOR_PRIMITIVES[op]:
            registry.lut(primitive, op_spec.num_entries)
    return registry


def set_up(profile: Profile, workload: str, kernel: str, warmup: Sequence[np.ndarray]) -> System:
    """LUT fit, model build, pool spawn (serving only) and one warm-up call, each timed."""
    from repro.api import BackendSpec, InferenceSession, ServingQueue, SessionConfig, ShardedPool

    spec = BackendSpec.nn_lut(kernel=kernel)
    config = SessionConfig(
        model_family=profile.model_family,
        model_size=profile.model_size,
        matmul_precision=PRECISION[workload],
        kernel=kernel,
    )
    t0 = time.perf_counter()
    registry = _fit_tables(spec)
    t1 = time.perf_counter()
    session = InferenceSession(config, spec=spec, registry=registry)
    t2 = time.perf_counter()
    if workload != SERVING:
        session.forward(warmup)
        t3 = time.perf_counter()
        phases = {"lut_fit": t1 - t0, "model_build": t2 - t1, "pool_spawn": 0.0, "warmup": t3 - t2}
        return System(serve=session.forward, session=session, phases=phases)

    pool = ShardedPool.from_model(
        session.model, spec=spec, registry=registry, num_replicas=2, transport="shm_ring"
    )
    try:
        queue = ServingQueue(pool, router="least_loaded")
        t3 = time.perf_counter()

        def serve(requests: Sequence[np.ndarray]) -> List[np.ndarray]:
            return queue.serve(requests, timeout=SERVE_TIMEOUT_S)

        serve(warmup)
    except BaseException:
        pool.close()
        raise
    t4 = time.perf_counter()

    def close() -> None:
        try:
            queue.close()
        finally:
            pool.close()

    phases = {"lut_fit": t1 - t0, "model_build": t2 - t1, "pool_spawn": t3 - t2, "warmup": t4 - t3}
    return System(serve=serve, session=session, phases=phases, close=close, queue=queue, pool=pool)


# --------------------------------------------------------------------------- #
# Checks
# --------------------------------------------------------------------------- #


def reference_session(model):
    """float64, exact-nonlinearity twin of ``model`` sharing its weights."""
    from repro.api import BackendSpec, InferenceSession, attach_weight_state, export_weight_state
    from repro.transformer.models import EncoderModel

    twin = EncoderModel.skeleton(dataclasses.replace(model.config, compute_dtype="float64"))
    attach_weight_state(twin, export_weight_state(model))
    return InferenceSession.from_model(twin, spec=BackendSpec.exact())


def max_abs_error(outputs: Sequence[np.ndarray], reference: Sequence[np.ndarray]) -> float:
    return max(
        float(np.max(np.abs(np.asarray(out, dtype=np.float64) - ref)))
        for out, ref in zip(outputs, reference)
    )


def well_formed(outputs, requests, hidden: int) -> bool:
    return len(outputs) == len(requests) and all(
        np.shape(out) == (len(req), hidden) and bool(np.all(np.isfinite(out)))
        for out, req in zip(outputs, requests)
    )


# --------------------------------------------------------------------------- #
# The run
# --------------------------------------------------------------------------- #


def traced_call(index: int, cycle: int) -> bool:
    """Whether call ``index`` of a traced run is traced.

    Whole cycles of the schedule go untraced, traced, traced, untraced
    (ABBA): both sides see the same mix of calls, and a drift of the machine
    within a run falls equally on both.
    """
    return (index // cycle) % 4 in (1, 2)


@dataclass
class Outcome:
    """What one run produced, before it is turned into metrics."""

    #: Seconds per phase of each set-up.
    setups: List[Dict[str, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Per-call latencies of the measured calls (all of an untraced run, the
    #: traced ones of a traced run), ms, and the tokens those calls carried.
    latencies_ms: List[float] = field(default_factory=list)
    tokens: int = 0
    #: Seconds the windows ran.
    wall_s: float = 0.0
    #: A traced run's untraced calls (the overhead baseline), ms.
    untraced_ms: List[float] = field(default_factory=list)
    #: Index of the next call in the schedule.
    next_call: int = 0
    #: Served calls kept for the output check: index -> outputs.
    kept: Dict[int, List[np.ndarray]] = field(default_factory=dict)
    max_abs_err: float = 0.0
    #: Peak resident memory of the serving workers, summed, MB (max over set-ups).
    worker_peak_mb: float = 0.0
    #: Worker wait over in-process forward time of the same batch (traced serving runs).
    service_inflation_x: float = 0.0
    #: Serving-queue and transport counters of the last window (0 in bulk runs).
    serving: Dict[str, float] = field(default_factory=lambda: dict.fromkeys(SERVING_COUNTERS, 0.0))
    problems: List[str] = field(default_factory=list)

    def count(self, ok: bool, why: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(why)


def timed_window(system: System, calls, cycle: int, keep: np.ndarray, seconds: float,
                 outcome: Outcome, hidden: int, tracer: Optional[Tracer] = None) -> None:
    """Serve calls back to back for ``seconds``; record into ``outcome``.

    The window ends at the first cycle boundary after ``seconds``, so every
    run serves whole cycles: the same mix of calls.  Calls continue the
    schedule where the previous window stopped.
    """
    start = time.perf_counter()
    while True:
        index = outcome.next_call
        outcome.next_call += 1
        requests = calls[index % len(calls)]
        traced = tracer is not None and traced_call(index, cycle)
        began = time.perf_counter()
        try:
            if traced:
                with tracer.recording(), tracer.request(index, requests):
                    outputs = system.serve(requests)
            else:
                outputs = system.serve(requests)
        except Exception as exc:  # a failed call is counted, not fatal
            outcome.count(False, f"call {index} raised {type(exc).__name__}: {exc}")
        else:
            milliseconds = 1000.0 * (time.perf_counter() - began)
            ok = well_formed(outputs, requests, hidden)
            outcome.count(ok, f"call {index}: malformed or non-finite output")
            if ok and tracer is not None and not traced:
                outcome.untraced_ms.append(milliseconds)
            elif ok:
                outcome.latencies_ms.append(milliseconds)
                outcome.tokens += sum(len(r) for r in requests)
            if ok and keep[index % len(calls)]:
                outcome.kept[index] = outputs
        if outcome.next_call % cycle == 0 and time.perf_counter() - start >= seconds:
            break
    outcome.wall_s += time.perf_counter() - start


def run(profile: Profile, workload: str, seed: int, seconds: float, kernel: str,
        tracer: Optional[Tracer] = None) -> Outcome:
    """Set up ``SETUPS`` times and measure a window after each, then check.

    Spreading the measured ``seconds`` over the set-ups averages the slow
    swings of a shared machine and the luck of each set-up's allocations.
    """
    vocab = vocab_size(profile)
    calls = schedule(profile, workload, seed, vocab)
    cycle = len(templates(profile, workload))
    keep = _rng(seed, "keep").random(len(calls)) < SAMPLE_SHARE
    keep[0] = True
    probe = probe_requests(profile, vocab)
    outcome = Outcome()
    system: Optional[System] = None
    try:
        for _ in range(SETUPS):
            if system is not None:
                system.close()
            system = None  # free the previous set-up before the next allocates
            system = set_up(profile, workload, kernel, probe)
            outcome.setups.append(system.phases)
            hidden = system.session.model.config.hidden_size
            if system.queue is not None:
                system.queue.reset_stats()
            timed_window(system, calls, cycle, keep, seconds / SETUPS, outcome, hidden, tracer)
            outcome.worker_peak_mb = max(outcome.worker_peak_mb, system.worker_peak_rss_mb())
        if system.queue is not None:
            outcome.serving = serving_counters(system.queue, system.pool)
            if tracer is not None:
                outcome.service_inflation_x = service_inflation(tracer, system.session)
        check(system, calls, outcome, probe)
    finally:
        if system is not None:
            system.close()
    return outcome


def check(system: System, calls, outcome: Outcome, probe: Sequence[np.ndarray]) -> None:
    """Output checks, outside the timed windows.

    The kept calls (a seeded sample) are served again by an in-process
    session of the same config, which must give bitwise the same outputs
    (a serving worker runs the same model on the same batch).  The
    fixed probe set, served by the system under test, must stay within
    ``ERROR_LIMIT`` of the float64 exact-nonlinearity reference.  The
    system is closed before the reference is built, so serving workers do
    not hold memory next to it.
    """
    for index, outputs in sorted(outcome.kept.items()):
        expected = system.session.forward(calls[index % len(calls)])
        same = all(np.array_equal(out, exp) for out, exp in zip(outputs, expected))
        outcome.count(same, f"call {index}: served outputs differ from an in-process forward")
    served = system.serve(probe)
    system.close()
    reference = reference_session(system.session.model).forward(probe)
    outcome.max_abs_err = max_abs_error(served, reference)
    outcome.count(
        outcome.max_abs_err <= ERROR_LIMIT,
        f"max_abs_err {outcome.max_abs_err:.4g} above {ERROR_LIMIT}",
    )


SERVING_COUNTERS = ("scheduling.queue_wait_ms", "scheduling.service_ms", "transport.ring_frac")


def serving_counters(queue, pool) -> Dict[str, float]:
    """Scheduler and transport counters from the queue's ``stats()`` surface."""
    stats = queue.stats()
    routes = {"ring": 0, "pipe": 0}
    for client in pool.sessions:
        for route in routes:
            routes[route] += client.transport.stats[f"{route}_requests"]
            routes[route] += client.transport.stats[f"{route}_responses"]
    messages = routes["ring"] + routes["pipe"]
    return {
        "scheduling.queue_wait_ms": stats.p50_queue_wait_ms,
        "scheduling.service_ms": stats.p50_service_ms,
        "transport.ring_frac": routes["ring"] / messages if messages else 0.0,
    }


def service_inflation(tracer: Tracer, session) -> float:
    """Median, over traced dispatches, of worker wait ÷ in-process forward time.

    The worker wait is a dispatch span's self time (the span minus its
    transport send/recv children).  Each batch is replayed, untraced, on the
    parent's own session of the same model.
    """
    selfs = self_times_ns(tracer.spans)
    dispatches = [span for span in tracer.spans if span.name == "sharding.dispatch" and span.requests]
    ratios = []
    for span in dispatches[:INFLATION_BATCHES]:
        batch = [tokens for request in span.requests for tokens in tracer.request_tokens[request]]
        began = time.perf_counter_ns()
        session.forward(batch)
        ratios.append(selfs[span.span_id] / (time.perf_counter_ns() - began))
    return median(ratios)
