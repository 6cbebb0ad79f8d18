"""The four benchmark workloads and their layer replays.

Each workload function takes ``(seed, seconds, trace)`` and returns an
:class:`Outcome`.  Untraced runs fill :attr:`Outcome.e2e` (the metrics
every workload reports) and :attr:`Outcome.named` (the same figures under
their workload-specific names); traced runs also fill
:attr:`Outcome.layers` (the per-layer metrics every workload reports) and
:attr:`Outcome.layer_extra` (per-layer metrics that only exist on some
workloads, or the reason they do not).

Timing uses ``time.perf_counter`` around the program's public entry
points only; building fresh graph copies, checking outputs and recording
spans happen outside the timed regions.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import queue
import random
import re
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from flbbench import inputs, oracle, reap
from flbbench.spans import Spans
from flbbench.speed import REFERENCE_MS, SpeedIndex
from flbbench.stats import (
    ChildMemory,
    median,
    percentile,
    pid_status_mb,
    self_peak_rss_mb,
    tail_samples_needed,
)

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

#: Set-up is repeated this many times per run; the median is reported.
SETUP_REPEATS = 5
#: Every run holds at least this many operations, so p90 has ten beyond it.
MIN_OPS = tail_samples_needed(0.9)

Metric = Tuple[float, str]


@dataclass
class Outcome:
    """Everything one run reports; metrics are ``(value, unit)`` pairs."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    e2e: Dict[str, Metric] = field(default_factory=dict)
    named: Dict[str, Metric] = field(default_factory=dict)
    layers: Dict[str, Metric] = field(default_factory=dict)
    layer_extra: Dict[str, Any] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    raw: Dict[str, Metric] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.errors

    def reject(self, message: str) -> None:
        """An output the oracle rejects: the run is not correct."""
        if len(self.errors) < 20:
            self.errors.append(message)


# -- shared helpers ---------------------------------------------------------------


def program_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); "
    "import repro.api, repro.batch, repro.verify, repro.graph.io, repro.graphstore; "
    "print(time.perf_counter() - t)"
)


def repeated_setup(step: Callable[[], float], out: Outcome, part: str) -> float:
    """Median of ``SETUP_REPEATS`` runs of a set-up ``step`` at reference speed.

    ``step`` performs the set-up once and returns the seconds it took;
    each run is normalised by the calibration samples around it (see
    ``speed``).  The raw median goes to ``out.raw`` under ``part``.
    """
    speed = SpeedIndex()
    speed.pair(3)
    raw, ref = [], []
    for _ in range(SETUP_REPEATS):
        dt = step()
        raw.append(dt)
        ref.append(SpeedIndex.at_reference(dt, speed.pair(3)))
    out.raw[part] = (median(raw), "s")
    return median(ref)


def import_seconds() -> float:
    """Import time of the program in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE], env=program_env(), cwd=str(ROOT),
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def inprocess_setup(out: Outcome, graphs: Sequence[inputs.GraphInput]) -> List[Any]:
    """``setup_s`` of an in-process workload: import plus build and freeze
    of its graphs.  Returns the last build."""
    built: List[Any] = []

    def build() -> float:
        nonlocal built
        built = []  # release the previous build before timing the next
        t0 = time.perf_counter()
        built = [g.build() for g in graphs]
        return time.perf_counter() - t0

    setup = repeated_setup(import_seconds, out, "setup_s.import") + repeated_setup(build, out, "setup_s.build")
    out.e2e["setup_s"] = (setup, "s")
    return built


def machine(procs: int) -> Any:
    from repro.machine.model import MachineModel

    return MachineModel(procs)


def table1_check(out: Outcome) -> None:
    """Schedule the paper's Fig. 1 graph at P=2 and compare with Table 1."""
    from repro.api import SchedulingOptions, schedule_graph

    fig1 = inputs.fig1()
    pl = oracle.placements_of(schedule_graph(fig1.build(), SchedulingOptions(machine=machine(2))))
    for err in oracle.table1_errors(pl) + oracle.check(fig1, 2, pl):
        out.reject(f"Table 1: {err}")


def reference_makespans(
    out: Outcome, graph: inputs.GraphInput, built: Any, procs: Sequence[int],
) -> Dict[int, float]:
    """In-process, oracle-checked makespans of ``graph`` at each P, from
    ``built`` (a frozen ``TaskGraph`` of it)."""
    from repro.api import SchedulingOptions, schedule_graph

    cp = oracle.critical_path(graph)
    makespans = {}
    for p in procs:
        pl = oracle.placements_of(schedule_graph(built, SchedulingOptions(machine=machine(p))))
        for err in oracle.check(graph, p, pl, cp=cp):
            out.reject(f"in-process {graph.name} P={p}: {err}")
        makespans[p] = pl.makespan
    return makespans


def q(values: Sequence[float], p: float) -> Optional[float]:
    """``percentile`` or ``None`` when the sample is too small for it."""
    try:
        return percentile(values, p)
    except ValueError:
        return None


# -- the layer replay ---------------------------------------------------------------


class LayerReplay:
    """Call each layer's public functions on one graph, under spans.

    For one ``(graph, procs)`` operation: parse the JSON document
    (``graph.io``), fingerprint it (``graph.taskgraph``), encode and
    decode it (``graphstore``), compute bottom levels on the fresh decoded
    graph (``graph.properties``), run ``flb_array`` once with the levels
    memoised (kernel plus its per-machine preparation) and once more with
    everything memoised (main loop plus materialisation; kernel counters
    recorded), run ``schedule_graph`` on another fresh copy (``api``), and
    certify the schedule structurally and with the FLB replay
    (``verify.certify``).
    """

    def __init__(self, spans: Spans) -> None:
        from repro.obs.metrics import MetricsRegistry

        self.spans = spans
        self.registry = MetricsRegistry()
        self.ops: Dict[int, Tuple[int, int, int]] = {}  # op -> (tasks, width, procs)
        self.heap_ops: Dict[int, float] = {}
        self.iterations: Dict[int, float] = {}
        self.factor: Dict[int, float] = {}  # op -> reference-speed factor for its times

    def run(self, op: int, graph: inputs.GraphInput, procs: int) -> Any:
        from repro.api import SchedulingOptions, schedule_graph
        from repro.core.flb_array import flb_array
        from repro.graph.io import from_json
        from repro.graph.properties import bottom_levels_array
        from repro.graphstore import decode_graph, encode_graph
        from repro.verify.certify import certify

        sp, reg, m = self.spans.span, self.registry, machine(procs)
        text = graph.doc_text()
        with sp("io.from_json", op=op):
            parsed = from_json(text)
        with sp("graph.fingerprint", op=op):
            parsed.fingerprint()
        with sp("graphstore.encode", op=op):
            buf = encode_graph(parsed)
        with sp("graphstore.decode", op=op):
            fresh = decode_graph(buf)
        with sp("prep.bottom_levels", op=op):
            bottom_levels_array(fresh)
        with sp("kernel.first", op=op):
            flb_array(fresh, machine=m)
        heap0 = reg.total("flb_kernel_heap_ops_total")
        it0 = reg.total("flb_kernel_iterations_total")
        with sp("kernel.flb", op=op):
            schedule = flb_array(fresh, machine=m, metrics=reg)
        self.heap_ops[op] = reg.total("flb_kernel_heap_ops_total") - heap0
        self.iterations[op] = reg.total("flb_kernel_iterations_total") - it0
        other = decode_graph(buf)
        with sp("api.schedule_graph", op=op):
            schedule_graph(other, SchedulingOptions(machine=m))
        with sp("certify.structural", op=op):
            certify(schedule, flavor=None)
        with sp("certify.flb", op=op):
            cert = certify(schedule, flavor="flb")
        if not cert.ok:
            raise RuntimeError(f"certify rejected {graph.name} P={procs}: {cert.codes}")
        self.ops[op] = (graph.num_tasks, graph.width, procs)
        return schedule

    def metrics(self) -> Dict[str, Metric]:
        """Per-layer figures: times are means per replayed operation at
        reference speed; counts and ratios are pooled over the operations."""
        ops = sorted(self.ops)
        n = len(ops)

        def mean_ms(name: str) -> float:
            durations = self.spans.by_op(name)
            return sum(durations[o] * self.factor[o] for o in ops) / n

        tasks = sum(self.ops[o][0] for o in ops)
        bound = sum(t * (math.log2(max(w, 2)) + math.log2(max(p, 2)))
                    for t, w, p in (self.ops[o] for o in ops))
        heap = sum(self.heap_ops[o] for o in ops)
        bl, k1, k2 = mean_ms("prep.bottom_levels"), mean_ms("kernel.first"), mean_ms("kernel.flb")
        cs, cf = mean_ms("certify.structural"), mean_ms("certify.flb")
        return {
            "prep.bottom_levels_ms": (bl, "ms"),
            "kernel.flb_ms": (k2, "ms"),
            "kernel.us_per_task": (k2 * n * 1e3 / tasks, "us"),
            "kernel.heap_ops_per_task": (heap / tasks, "count"),
            "kernel.heap_ops_per_bound": (heap / bound, "ratio"),
            "api.overhead_ms": (mean_ms("api.schedule_graph") - bl - k1, "ms"),
            "certify.structural_ms": (cs, "ms"),
            "certify.replay_ms": (cf - cs, "ms"),
            "certify.to_kernel_ratio": (cf / k2, "ratio"),
            "io.from_json_ms": (mean_ms("io.from_json"), "ms"),
            "graph.fingerprint_ms": (mean_ms("graph.fingerprint"), "ms"),
            "graphstore.encode_ms": (mean_ms("graphstore.encode"), "ms"),
            "graphstore.decode_ms": (mean_ms("graphstore.decode"), "ms"),
        }


def replay_layers(
    out: Outcome, spans: Spans, configs: Sequence[Tuple[inputs.GraphInput, int]],
) -> LayerReplay:
    """Replay a fixed set of ``(graph, procs)`` configs through the layers.

    Each replayed operation is normalised by the calibration samples
    around it (see ``speed``), as the end-to-end timings are.
    """
    replay = LayerReplay(spans)
    speed = SpeedIndex()
    speed.pair()
    for op, (graph, procs) in enumerate(configs):
        replay.run(op, graph, procs)
        replay.factor[op] = REFERENCE_MS / speed.pair()
    out.layers.update(replay.metrics())
    iterations = sum(replay.iterations.values())
    out.layer_extra["kernel.iterations"] = (iterations, "count")
    out.notes.append(f"layer replay: {len(configs)} (graph, P) operations, {iterations:.0f} kernel "
                     f"iterations; per-layer times are means per operation at reference speed")
    return replay


def overhead_metric(
    out: Outcome, plain: Sequence[Tuple[Any, float]], traced: Sequence[Tuple[Any, float]],
) -> None:
    """Tracing overhead from alternating untraced and traced rounds.

    ``plain`` and ``traced`` hold ``(class, time)`` pairs -- calls of one
    configuration, or whole rounds of concurrent work; the overhead is the
    median over classes of the ratio of their median times, so the two
    sides compare like with like.
    """
    def by_class(pairs: Sequence[Tuple[Any, float]]) -> Dict[Any, List[float]]:
        groups: Dict[Any, List[float]] = {}
        for key, dt in pairs:
            groups.setdefault(key, []).append(dt)
        return groups

    p, t = by_class(plain), by_class(traced)
    ratios = [median(t[k]) / median(p[k]) for k in p if k in t]
    out.layers["trace.overhead_pct"] = (100.0 * (median(ratios) - 1.0), "%")
    out.notes.append(f"trace overhead from {len(plain)} untraced and {len(traced)} traced "
                     f"timings in alternating rounds, {len(ratios)} class(es)")


# -- in-process workloads ----------------------------------------------------------------


@dataclass
class InProcessOp:
    graph: inputs.GraphInput
    base: Any  # frozen TaskGraph, copied fresh for every call
    procs: int
    label: str  # metric class of the call (size class or graph name)


@dataclass
class Call:
    """One timed call: raw latency and the same at reference host speed (s)."""

    op: InProcessOp
    raw: float
    ref: float


def run_inprocess(
    out: Outcome, ops: List[InProcessOp], seed: int, seconds: float, trace: bool,
    certify: bool, spans: Spans,
) -> Tuple[List[List[Call]], List[Tuple[Any, float]], List[Tuple[Any, float]]]:
    """Closed loop over whole rounds of ``ops`` in a seeded order per round.

    Every call gets a freshly frozen copy of its graph, so kernel
    preparation (bottom levels, delay arrays) is paid on each call, as a
    caller with a new graph pays it.  Each call is followed by one
    calibration sample (see ``speed``).  Returns the rounds' calls and, for
    traced runs, the latencies of untraced and traced rounds.
    """
    from repro.api import SchedulingOptions, schedule_graph

    rng = random.Random(seed)
    speed = SpeedIndex()
    opts = {p: SchedulingOptions(machine=machine(p), certify=certify)
            for p in {op.procs for op in ops}}
    cps = {id(op.graph): oracle.critical_path(op.graph) for op in ops}
    first: Dict[Tuple[int, int], oracle.Placements] = {}
    rounds: List[List[Call]] = []
    plain: List[Tuple[Any, float]] = []
    traced: List[Tuple[Any, float]] = []
    speed.pair()  # the sample before the first call
    t_end = time.perf_counter() + seconds
    n_ops = 0
    while time.perf_counter() < t_end or n_ops < MIN_OPS:
        order = list(ops)
        rng.shuffle(order)
        recording = trace and len(rounds) % 2 == 1
        this: List[Call] = []
        for op in order:
            g = op.base.copy(mutable=True).freeze()
            out.attempted += 1
            try:
                if recording:
                    with spans.span("api.schedule_graph.e2e", op=n_ops):
                        t0 = time.perf_counter()
                        schedule = schedule_graph(g, opts[op.procs])
                        dt = time.perf_counter() - t0
                else:
                    t0 = time.perf_counter()
                    schedule = schedule_graph(g, opts[op.procs])
                    dt = time.perf_counter() - t0
            except Exception as exc:  # any failed call counts, the run goes on
                out.failed += 1
                out.reject(f"{op.graph.name} P={op.procs}: {type(exc).__name__}: {exc}")
                continue
            n_ops += 1
            call = Call(op, dt, SpeedIndex.at_reference(dt, speed.pair()))
            this.append(call)
            (traced if recording else plain).append(((id(op.graph), op.procs), call.ref))
            pl = oracle.placements_of(schedule)
            key = (id(op.graph), op.procs)
            if key not in first:
                for err in oracle.check(op.graph, op.procs, pl, cp=cps[id(op.graph)]):
                    out.reject(f"{op.graph.name} P={op.procs}: {err}")
                first[key] = pl
            elif not oracle.same_placements(first[key], pl):
                out.reject(f"{op.graph.name} P={op.procs}: schedule differs between calls")
        rounds.append(this)
    out.notes.append(speed_note(speed))
    return rounds, plain, traced


def speed_note(speed: SpeedIndex) -> str:
    s = sorted(speed.samples)
    return (f"calibration: {len(s)} samples, median {median(s):.3f} ms, fastest {s[0]:.3f} ms "
            f"(reference {REFERENCE_MS} ms)")


def inprocess_metrics(
    rounds: List[List[Call]], named: Dict[str, Optional[str]], raw: bool,
) -> Tuple[Dict[str, Metric], Dict[str, Metric], List[str]]:
    """End-to-end metrics of an in-process run, at reference speed or raw.

    A configuration is one ``(graph, procs)`` pair; every round calls each
    the same number of times.  Rates charge one round's calls the median
    latency of their configuration over the run; p50 and p90 pool every
    call.  ``named`` maps workload-specific tasks/s metrics to the call
    label they cover (``None``: every call).
    """
    by_config: Dict[Tuple[int, int], List[float]] = {}
    for r in rounds:
        for c in r:
            by_config.setdefault((id(c.op.graph), c.op.procs), []).append(c.raw if raw else c.ref)
    typical = {k: median(v) for k, v in by_config.items()}
    template = [c.op for c in rounds[0]]

    def rate(label: Optional[str], count_tasks: bool) -> float:
        sel = [op for op in template if label is None or op.label == label]
        busy = sum(typical[(id(op.graph), op.procs)] for op in sel)
        return sum(op.graph.num_tasks if count_tasks else 1 for op in sel) / busy

    lat = [dt * 1e3 for v in by_config.values() for dt in v]
    e2e = {"tasks_per_s": (rate(None, True), "tasks/s"), "ops_per_s": (rate(None, False), "1/s"),
           "p50_ms": (median(lat), "ms"), "p90_ms": (percentile(lat, 0.9), "ms")}
    named_out = {name: (rate(label, True), "tasks/s") for name, label in named.items()}
    notes = []
    for label in sorted({op.label for op in template}):
        keys = {(id(op.graph), op.procs) for op in template if op.label == label}
        sel = [dt * 1e3 for k in keys for dt in by_config[k]]
        notes.append(f"  {label}: {len(sel)} calls, p50 {median(sel):.2f} ms, "
                     f"{rate(label, True):,.0f} tasks/s")
    return e2e, named_out, notes


def inprocess_e2e(out: Outcome, rounds: List[List[Call]], named: Dict[str, Optional[str]]) -> None:
    e2e, named_ref, notes = inprocess_metrics(rounds, named, raw=False)
    raw_e2e, raw_named, _ = inprocess_metrics(rounds, named, raw=True)
    out.e2e.update(e2e)
    out.named.update(named_ref)
    out.raw.update(raw_e2e)
    out.raw.update(raw_named)
    out.notes.append(f"{sum(len(r) for r in rounds)} calls in {len(rounds)} rounds "
                     f"(figures below at reference speed)")
    out.notes.extend(notes)


def paper_suite(seed: int, seconds: float, trace: bool) -> Outcome:
    """In-process ``schedule_graph`` over the paper's Fig. 2 families."""
    out = Outcome()
    suite = inputs.paper_suite(seed)
    built = inprocess_setup(out, [g for _, g in suite])
    table1_check(out)
    ops = []
    for (size, g), base in zip(suite, built):
        for p in inputs.PAPER_PROCS:
            reps = inputs.PAPER_SMALL_REPEATS if size == "small" else 1
            ops.extend(InProcessOp(g, base, p, size) for _ in range(reps))
    spans = Spans()
    rounds, plain, traced = run_inprocess(out, ops, seed, seconds, trace, False, spans)
    inprocess_e2e(out, rounds, {"paper_2k_tasks_per_s": "small", "paper_20k_tasks_per_s": "large"})
    if trace:
        overhead_metric(out, plain, traced)
        replay_layers(out, spans, [(g, inputs.REPLAY_PROCS) for _, g in suite])
        out.layer_extra.update(not_applicable_inprocess())
        write_spans(spans, "paper-suite", seed)
    out.e2e["peak_rss_mb"] = (self_peak_rss_mb(), "MB")
    return out


def wide_certified(seed: int, seconds: float, trace: bool) -> Outcome:
    """In-process ``schedule_graph(certify=True)`` on wide DAGs."""
    out = Outcome()
    suite = inputs.wide_suite(seed)
    built = inprocess_setup(out, suite)
    table1_check(out)
    ops = [InProcessOp(g, b, p, g.name) for g, b in zip(suite, built) for p in inputs.WIDE_PROCS]
    spans = Spans()
    rounds, plain, traced = run_inprocess(out, ops, seed, seconds, trace, True, spans)
    inprocess_e2e(out, rounds, {"wide_certified_tasks_per_s": None})
    if trace:
        overhead_metric(out, plain, traced)
        replay_layers(out, spans, [(g, p) for g in suite for p in inputs.WIDE_PROCS])
        out.layer_extra.update(not_applicable_inprocess())
        write_spans(spans, "wide-certified", seed)
    out.e2e["peak_rss_mb"] = (self_peak_rss_mb(), "MB")
    return out


def not_applicable_inprocess() -> Dict[str, str]:
    why = "not on this workload's path: in-process schedule_graph, no HTTP, pool or cache"
    return {name: why for name in SERVE_LAYER_METRICS + BATCH_LAYER_METRICS}


SERVE_LAYER_METRICS = [
    "serve.queue_wait_p50_ms", "serve.queue_wait_p90_ms", "serve.service_ms",
    "serve.http_overhead_ms", "resultcache.hit_ratio",
]
BATCH_LAYER_METRICS = [
    "batch.attach_ms", "batch.schedule_ms", "batch.queue_ms", "workerpool.exec_ms",
    "workerpool.spawned_per_batch", "graphstore.attach_hit_ratio",
]


def write_spans(spans: Spans, workload: str, seed: int) -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    spans.write(str(OUT / f"spans-{workload}-s{seed}.jsonl"))


# -- serve-mix ------------------------------------------------------------------------------


class Server:
    """``repro-sched serve`` in its own process, on an ephemeral port."""

    def __init__(self, log_path: Path) -> None:
        self.log_path = log_path
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
            cwd=str(ROOT), env=program_env(), stdout=subprocess.PIPE, stderr=self._log,
        )
        self.port = self._wait_ready(60.0)

    def _wait_ready(self, timeout: float) -> int:
        assert self.proc.stdout is not None
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline().decode("utf-8", "replace")
                m = re.search(r"serving on [^:\s]+:(\d+)", line)
                if m:
                    return int(m.group(1))
                if not line:
                    break
        self.stop()
        raise RuntimeError("serve process did not become ready")

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)

    def peak_rss_mb(self) -> Optional[float]:
        return pid_status_mb(self.proc.pid)

    def stop(self) -> None:
        # The server's own children (its resource tracker) are re-parented
        # when it exits; note them now and wait for them below.
        spawned = reap.descendants(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        reap.wait_ended(spawned)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()


def post(conn: http.client.HTTPConnection, path: str, body: bytes) -> Tuple[int, Dict[str, Any]]:
    conn.request("POST", path, body=body, headers={"Content-Type": "application/json"})
    resp = conn.getresponse()
    data = resp.read()
    try:
        return resp.status, json.loads(data)
    except ValueError:
        return resp.status, {"error": data[:200].decode("utf-8", "replace")}


def get_text(conn: http.client.HTTPConnection, path: str) -> str:
    conn.request("GET", path)
    resp = conn.getresponse()
    return resp.read().decode("utf-8")


_SAMPLE = re.compile(r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)$')


def scrape(conn: http.client.HTTPConnection) -> Dict[str, float]:
    """``{'name{labels}': value}`` from the Prometheus text at ``/metrics``."""
    samples = {}
    for line in get_text(conn, "/metrics").splitlines():
        m = _SAMPLE.match(line)
        if m:
            samples[m.group(1) + (m.group(2) or "")] = float(m.group(3))
    return samples


def hist_delta(before: Dict[str, float], after: Dict[str, float], name: str) -> Tuple[List[Tuple[float, float]], float, float]:
    """Bucket counts, sum and count of histogram ``name`` between two scrapes."""
    buckets = []
    for key, value in after.items():
        m = re.match(re.escape(name) + r'_bucket\{le="([^"]+)"\}$', key)
        if m:
            buckets.append((float(m.group(1)), value - before.get(key, 0.0)))
    buckets.sort()
    total = after.get(name + "_sum", 0.0) - before.get(name + "_sum", 0.0)
    count = after.get(name + "_count", 0.0) - before.get(name + "_count", 0.0)
    return buckets, total, count


def hist_quantile(buckets: List[Tuple[float, float]], p: float) -> Optional[float]:
    """Quantile by linear interpolation inside cumulative buckets."""
    if not buckets or buckets[-1][1] <= 0:
        return None
    target = p * buckets[-1][1]
    lo_edge, lo_count = 0.0, 0.0
    for edge, cum in buckets:
        if cum >= target:
            if math.isinf(edge):
                return lo_edge
            frac = (target - lo_count) / (cum - lo_count) if cum > lo_count else 1.0
            return lo_edge + frac * (edge - lo_edge)
        lo_edge, lo_count = edge, cum
    return lo_edge


def schedule_body(fingerprint: str, procs: int) -> bytes:
    return json.dumps({"fingerprint": fingerprint, "procs": procs, "certify": False}).encode()


def inline_body(graph: inputs.GraphInput, procs: int) -> bytes:
    return (f'{{"certify": false, "procs": {procs}, "graph": ' + graph.doc_text() + "}").encode()


def start_and_register(pool: Sequence[inputs.GraphInput], log: Path) -> Tuple[float, Server, Dict[int, str]]:
    """Start the server and register the pool; time both together."""
    t0 = time.perf_counter()
    server = Server(log)
    try:
        conn = server.connect()
        fps = {}
        for i, g in enumerate(pool):
            status, reply = post(conn, "/v1/graphs", g.doc_text().encode())
            if status != 200:
                raise RuntimeError(f"registering {g.name}: HTTP {status} {reply}")
            fps[i] = reply["fingerprint"]
        elapsed = time.perf_counter() - t0
        conn.close()
    except BaseException:
        server.stop()
        raise
    return elapsed, server, fps


#: serve-mix runs at least this many timed rounds: 400 requests, 200 of
#: them misses, so p90 of the misses has 19 samples beyond it.
SERVE_MIN_ROUNDS = 20
#: The server's peak RSS is read after this many timed rounds (200
#: requests): a fixed amount of work, so a faster server that answers more
#: requests in the run does not read as one that uses more memory.
RSS_ROUNDS = 10


@dataclass
class Sent:
    req: inputs.Request
    t0: float
    t1: float
    status: int
    reply: Dict[str, Any]
    traced: bool
    ref: float = 0.0  # latency at reference host speed (s), set after the round

    @property
    def ok(self) -> bool:
        return self.status == 200 and bool(self.reply.get("ok"))


def serve_mix(seed: int, seconds: float, trace: bool) -> Outcome:
    """Closed-loop HTTP load on ``repro-sched serve`` over two connections."""
    out = Outcome()
    pool = inputs.pool_graphs(seed, inputs.POOL_WINDOW, inputs.MISS_STREAM)
    inline = dict(enumerate(inputs.pool_graphs(seed, inputs.INLINE_WINDOW, inputs.INLINE_STREAM)))
    for g in pool + list(inline.values()):
        g.doc_text()  # encode the documents before anything is timed
    OUT.mkdir(parents=True, exist_ok=True)
    log = OUT / f"serve-s{seed}.log"
    log.write_bytes(b"")
    started: List[Tuple[Server, Dict[int, str]]] = []

    def start() -> float:
        for previous, _ in started:
            previous.stop()
        started.clear()
        elapsed, server, fps = start_and_register(pool, log)
        started.append((server, fps))
        return elapsed

    try:
        out.e2e["setup_s"] = (repeated_setup(start, out, "setup_s"), "s")
    except BaseException:
        for server, _ in started:
            server.stop()
        raise
    server, fps = started[0]
    plan = inputs.ServePlan(seed)
    sent: List[Sent] = []
    inline_left: List[int] = []
    try:
        conn = server.connect()

        def refresh() -> None:
            """Untimed, before each round: register the miss graphs that
            entered the window and encode the new inline documents."""
            for i in inline_left:
                del inline[i]  # their last request was in the previous round
            entered, _ = plan.misses.drain()
            for i in entered:
                g = inputs.pool_graph(seed, inputs.MISS_STREAM, i)
                status, reply = post(conn, "/v1/graphs", g.doc_text().encode())
                if status != 200:
                    raise RuntimeError(f"registering {g.name}: HTTP {status} {reply}")
                fps[i] = reply["fingerprint"]
            entered, inline_left[:] = plan.inlines.drain()
            for i in entered:
                inline[i] = inputs.pool_graph(seed, inputs.INLINE_STREAM, i)
                inline[i].doc_text()

        # Table 1 through the server: the Fig. 1 graph inline at P=2.
        status, reply = post(conn, "/v1/schedule", inline_body(inputs.fig1(), 2))
        if status != 200 or reply.get("makespan") != inputs.TABLE1_MAKESPAN:
            out.reject(f"Table 1 over HTTP: status {status}, makespan {reply.get('makespan')}")
        warmup = plan.next_round()  # untimed: round 0, misses only
        refresh()
        for req in warmup:
            status, reply = post(conn, "/v1/schedule", schedule_body(fps[req.graph], req.procs))
            sent.append(Sent(req, 0.0, 0.0, status, reply, False))
        before = scrape(conn)
        spans = Spans()
        speed = SpeedIndex()
        rss: Dict[str, Optional[float]] = {"peak_mb": None}
        timed, walls = drive(server, plan, refresh, fps, inline, seconds,
                             spans if trace else None, speed, rss)
        after = scrape(conn)
        conn.close()
        out.raw["peak_rss_mb.end"] = (server.peak_rss_mb() or 0.0, "MB")
    finally:
        server.stop()
    if rss["peak_mb"] is None:
        raise RuntimeError(f"server peak RSS unreadable after {RSS_ROUNDS} rounds")
    out.e2e["peak_rss_mb"] = (rss["peak_mb"], "MB")
    check_serve(out, seed, sent + timed)
    timed_ok = [s for s in timed if s.ok]
    out.attempted = len(timed)
    out.failed = len(timed) - len(timed_ok)
    for raw, target in ((False, out.e2e), (True, out.raw)):
        serve_metrics(timed_ok, walls, raw, target, out.raw if raw else out.named)
    out.notes.append(f"{len(timed)} requests in {len(walls)} timed rounds (figures at reference "
                     f"speed): " + ", ".join(f"{k} {sum(1 for x in timed_ok if x.req.kind == k)}"
                                             for k in ("miss", "hit", "inline"))
                     + f"; {len(fps)} graphs registered")
    out.notes.append(speed_note(speed))
    traces = sum(1 for line in log.read_text(errors="replace").splitlines()
                 if line.startswith("Traceback"))
    if traces:
        out.notes.append(f"server log {log.relative_to(ROOT)}: {traces} traceback(s)")
    if trace:
        # Whole rounds alternate: odd rounds record spans, even rounds do not.
        overhead_metric(out, [(None, ref) for r, (_, ref) in walls.items() if r % 2 == 0],
                        [(None, ref) for r, (_, ref) in walls.items() if r % 2 == 1])
        serve_layers(out, timed_ok, before, after)
        fresh = sorted((x for x in timed if x.req.kind != "hit"),
                       key=lambda x: (x.req.round, x.req.kind, x.req.graph, x.req.procs))
        replay_layers(out, spans, [(inputs.pool_graph(seed, stream_of(x.req), x.req.graph), x.req.procs)
                                   for x in fresh[:inputs.REPLAY_OPS]])
        ratio = attach_hit_ratio(seed, inputs.MISS_STREAM, [
            s.req.graph for s in sorted(timed, key=lambda s: s.t0) if s.req.kind == "miss"])
        if ratio is not None:
            out.layer_extra["graphstore.attach_hit_ratio"] = (ratio, "ratio")
        out.layer_extra.update({name: "not on this workload's path: a single request runs "
                                "inline in the server, never through the worker pool"
                                for name in ("batch.queue_ms", "workerpool.exec_ms", "workerpool.spawned_per_batch")})
        write_spans(spans, "serve-mix", seed)
    return out


def stream_of(req: inputs.Request) -> int:
    return inputs.INLINE_STREAM if req.kind == "inline" else inputs.MISS_STREAM


def serve_metrics(
    ok: Sequence[Sent], walls: Dict[int, Tuple[float, float]], raw: bool,
    e2e: Dict[str, Metric], named: Dict[str, Metric],
) -> None:
    """Throughput over the rounds' summed durations; latency percentiles
    over every request; both raw or at reference speed."""
    busy = sum(w if raw else r for w, r in walls.values())
    lat = [(x.req.kind, ((x.t1 - x.t0) if raw else x.ref) * 1e3) for x in ok]
    e2e["ops_per_s"] = (len(ok) / busy, "1/s")
    e2e["tasks_per_s"] = (sum(x.reply["num_tasks"] for x in ok) / busy, "tasks/s")
    e2e["p50_ms"] = (median(v for _, v in lat), "ms")
    e2e["p90_ms"] = (percentile([v for _, v in lat], 0.9), "ms")
    named["serve_rps"] = e2e["ops_per_s"]
    by_kind = {k: [v for kind, v in lat if kind == k] for k in ("miss", "hit", "inline")}
    for name, kind, p in (("serve_miss_p50_ms", "miss", 0.5), ("serve_miss_p90_ms", "miss", 0.9),
                          ("serve_hit_p50_ms", "hit", 0.5), ("serve_inline_p50_ms", "inline", 0.5)):
        value = median(by_kind[kind]) if p == 0.5 else q(by_kind[kind], p)
        if value is not None:
            named[name] = (value, "ms")


def drive(
    server: Server, plan: inputs.ServePlan, refresh: Callable[[], None], fps: Dict[int, str],
    inline: Dict[int, inputs.GraphInput], seconds: float, spans: Optional[Spans],
    speed: SpeedIndex, rss: Dict[str, Optional[float]],
) -> Tuple[List[Sent], Dict[int, Tuple[float, float]]]:
    """Two closed-loop clients serve whole rounds of the plan until time is up.

    Before each round, ``refresh`` registers the graphs it needs (untimed).
    Both clients take requests of the current round as they finish their
    previous one; when the round is done, the calibration loop runs three
    times (the server idle) and normalises the round (see ``speed``).
    Returns every request and ``{round: (wall, wall at reference speed)}``;
    ``rss["peak_mb"]`` gets the server's peak RSS after ``RSS_ROUNDS`` rounds.
    With ``spans``, every odd round's requests are recorded as spans as
    they complete (the traced rounds); even rounds record nothing.
    """
    work: "queue.Queue[Optional[inputs.Request]]" = queue.Queue()
    lock = threading.Lock()
    done: List[Sent] = []

    def client() -> None:
        conn = server.connect()
        try:
            while True:
                req = work.get()
                if req is None:
                    return
                if req.kind == "inline":
                    body = inline_body(inline[req.graph], req.procs)
                else:
                    body = schedule_body(fps[req.graph], req.procs)
                t0 = time.perf_counter()
                try:
                    status, reply = post(conn, "/v1/schedule", body)
                except (OSError, http.client.HTTPException) as exc:
                    status, reply = 0, {"error": f"{type(exc).__name__}: {exc}"}
                    conn.close()
                    conn = server.connect()
                t1 = time.perf_counter()
                traced = spans is not None and req.round % 2 == 1
                with lock:
                    if traced:
                        spans.add(f"http.{req.kind}", t0, t1, status=status)
                    done.append(Sent(req, t0, t1, status, reply, traced))
                work.task_done()
        finally:
            conn.close()

    threads = [threading.Thread(target=client, name=f"serve-client-{i}") for i in range(2)]
    for t in threads:
        t.start()
    walls: Dict[int, Tuple[float, float]] = {}
    t_end = time.perf_counter() + seconds
    try:
        while time.perf_counter() < t_end or len(walls) < SERVE_MIN_ROUNDS:
            requests = plan.next_round()
            refresh()
            speed.pair(3)  # the samples before the round
            t0 = time.perf_counter()
            for req in requests:
                work.put(req)
            work.join()
            wall = time.perf_counter() - t0
            cal = speed.pair(3)
            walls[requests[0].round] = (wall, SpeedIndex.at_reference(wall, cal))
            for x in done[-len(requests):]:
                x.ref = SpeedIndex.at_reference(x.t1 - x.t0, cal)
            if len(walls) == RSS_ROUNDS:
                rss["peak_mb"] = server.peak_rss_mb()
    finally:
        for _ in threads:
            work.put(None)
        for t in threads:
            t.join()
    return done, walls


def check_serve(out: Outcome, seed: int, sent: Sequence[Sent]) -> None:
    """Every reply against an in-process, oracle-checked schedule; hits
    against the first reply given for their key."""
    ok = [s for s in sent if s.ok]
    for s in sent:
        if not s.ok and len(out.notes) < 20:
            out.notes.append(f"failed {s.req}: HTTP {s.status} {s.reply.get('error')}")
    wanted: Dict[Tuple[int, int], set] = {}
    for s in ok:
        wanted.setdefault((stream_of(s.req), s.req.graph), set()).add(s.req.procs)
    want: Dict[Tuple[int, int, int], float] = {}
    tasks: Dict[Tuple[int, int], int] = {}
    for (stream, index), procs in sorted(wanted.items()):
        graph = inputs.pool_graph(seed, stream, index)
        tasks[(stream, index)] = graph.num_tasks
        for p, makespan in reference_makespans(out, graph, graph.build(), sorted(procs)).items():
            want[(stream, index, p)] = makespan
    first: Dict[Tuple[int, int], Dict[str, Any]] = {}
    fields = ("makespan", "num_tasks", "procs", "procs_used", "speedup", "algo", "kernel")
    for s in ok:
        stream = stream_of(s.req)
        expected = want[(stream, s.req.graph, s.req.procs)]
        if s.reply.get("makespan") != expected:
            out.reject(f"{s.req}: makespan {s.reply.get('makespan')} != in-process {expected}")
        if s.reply.get("num_tasks") != tasks[(stream, s.req.graph)]:
            out.reject(f"{s.req}: num_tasks {s.reply.get('num_tasks')} != {tasks[(stream, s.req.graph)]}")
        if s.req.kind == "inline":
            continue
        key = (s.req.graph, s.req.procs)
        if key not in first:
            first[key] = s.reply
        elif any(s.reply.get(f) != first[key].get(f) for f in fields):
            out.reject(f"{s.req}: hit reply differs from the first reply for its key")


def serve_layers(out: Outcome, ok: Sequence[Sent], before: Dict[str, float], after: Dict[str, float]) -> None:
    """Per-layer figures the real HTTP run exposes: replies and /metrics."""
    extra = out.layer_extra
    qb, qsum, qn = hist_delta(before, after, "repro_serve_queue_wait_seconds")
    sb, ssum, sn = hist_delta(before, after, "repro_serve_service_seconds")
    for name, buckets, p in (("serve.queue_wait_p50_ms", qb, 0.5), ("serve.queue_wait_p90_ms", qb, 0.9),
                             ("serve.service_ms", sb, 0.5)):
        v = hist_quantile(buckets, p)
        extra[name] = (v * 1e3, "ms") if v is not None else "no samples"
    client_mean = sum(s.t1 - s.t0 for s in ok) / len(ok)
    if qn and sn:
        extra["serve.http_overhead_ms"] = ((client_mean - qsum / qn - ssum / sn) * 1e3, "ms")
    hits = after.get("repro_resultcache_hits", 0.0) - before.get("repro_resultcache_hits", 0.0)
    misses = after.get("repro_resultcache_misses", 0.0) - before.get("repro_resultcache_misses", 0.0)
    if hits + misses:
        extra["resultcache.hit_ratio"] = (hits / (hits + misses), "ratio")
    for phase in ("attach", "schedule"):
        vals = [s.reply["phases"][phase] * 1e3 for s in ok
                if s.req.kind != "hit" and phase in (s.reply.get("phases") or {})]
        extra[f"batch.{phase}_ms"] = (median(vals), "ms") if vals else "no phases in replies"
    cached = sum(1 for s in ok if s.req.kind == "hit" and s.reply.get("cached"))
    n_hits = sum(1 for s in ok if s.req.kind == "hit")
    out.notes.append(f"hits answered from the result cache: {cached} of {n_hits}")


def attach_hit_ratio(seed: int, stream: int, sequence: Sequence[int]) -> Optional[float]:
    """Replay a sequence of a stream's graphs through ``graphstore.attach``
    and its LRU (the attach cache of the serving process or of a worker)
    and return the hit ratio.  Graphs are registered at their first use
    and released after their last."""
    from repro import graphstore

    last = {g: i for i, g in enumerate(sequence)}
    store = graphstore.GraphStore()
    keys: Dict[int, str] = {}
    try:
        graphstore.clear_worker_cache()
        for i, g in enumerate(sequence):
            if g not in keys:
                keys[g] = store.register(inputs.pool_graph(seed, stream, g).build())
            graphstore.attach(keys[g])
            if last[g] == i:
                store.release(keys[g])
        info = graphstore.worker_cache_info()
        graphstore.clear_worker_cache()
    finally:
        store.close()
    total = info["hits"] + info["misses"]
    return info["hits"] / total if total else None


# -- batch-pool -------------------------------------------------------------------------------


#: batch-pool samples memory over this many batches before the timed
#: loop: a fixed amount of work, so a faster pool does not read as one
#: that uses more memory, and the sampling thread stays out of the timings.
RSS_BATCHES = 4


def batch_pool(seed: int, seconds: float, trace: bool) -> Outcome:
    """``BatchScheduler.run`` with two workers over registered graphs."""
    from repro.api import SchedulingOptions
    from repro.batch import BatchJob, BatchScheduler
    from repro.obs.metrics import MetricsRegistry

    out = Outcome()
    pool = inputs.pool_graphs(seed, inputs.POOL_WINDOW, inputs.BATCH_STREAM)
    made: List[Tuple[Any, Dict[int, str]]] = []

    def construct() -> float:
        for previous, _ in made:
            previous.close()
        made.clear()
        t0 = time.perf_counter()
        sched = BatchScheduler(workers=2, options=SchedulingOptions())
        keys = {j: sched.register(g.build()) for j, g in enumerate(pool)}
        made.append((sched, keys))
        return time.perf_counter() - t0

    try:
        setup = repeated_setup(import_seconds, out, "setup_s.import") + repeated_setup(
            construct, out, "setup_s.construct")
    except BaseException:
        for sched, _ in made:
            sched.close()
        raise
    out.e2e["setup_s"] = (setup, "s")
    sched, keys = made[0]
    plan = inputs.BatchPlan(seed)
    want: Dict[Tuple[int, int], float] = {}  # (graph, procs) -> in-process makespan

    def enter(index: int, graph: inputs.GraphInput) -> None:
        """A graph enters the window: register it and schedule it in
        process at every P (untimed)."""
        built = graph.build()
        keys[index] = sched.register(built)
        for p, makespan in reference_makespans(out, graph, built, inputs.POOL_PROCS).items():
            want[(index, p)] = makespan

    def next_batch() -> Tuple[List[Tuple[int, int]], List[Any], List[int]]:
        batch = plan.next_round()
        entered, left = plan.keys.drain()
        for index in entered:
            enter(index, inputs.pool_graph(seed, inputs.BATCH_STREAM, index))
        jobs = [BatchJob(graph=None, graph_key=keys[g], procs=p, tag=f"{g}:{p}") for g, p in batch]
        return batch, jobs, left

    def release(left: Sequence[int]) -> None:
        for index in left:  # every P of these graphs has been scheduled
            sched.store.release(keys.pop(index))

    warm: List[Tuple[int, int, int, Any]] = []  # (batch, graph, procs, result), untimed
    results: List[Tuple[int, int, int, Any]] = []  # the same, timed
    walls: List[Tuple[float, float]] = []  # (seconds, calibration ms) per batch
    plain: List[Tuple[Any, float]] = []
    traced: List[Tuple[Any, float]] = []
    registry = MetricsRegistry()
    traced_batches = 0
    try:
        for index, graph in enumerate(pool):
            enter(index, graph)
        # Table 1 through the pool: the Fig. 1 graph at P=2, plus one
        # job so the batch is dispatched to the workers.
        fig = sched.run([BatchJob(graph=inputs.fig1().build(), procs=2),
                         BatchJob(graph=None, graph_key=keys[0], procs=1)])
        if not fig[0].ok or fig[0].makespan != inputs.TABLE1_MAKESPAN:
            out.reject(f"Table 1 through the pool: {fig[0].makespan} ({fig[0].error})")
        # Memory: the supervisor's peak RSS plus the largest sum of the
        # workers' private memory seen over RSS_BATCHES untimed batches.
        with ChildMemory() as workers_mem:
            for b in range(RSS_BATCHES):
                batch, jobs, left = next_batch()
                warm.extend((b, g, p, r) for (g, p), r in zip(batch, sched.run(jobs)))
                release(left)
        if not workers_mem.samples:
            raise RuntimeError("no worker process was seen while sampling memory")
        supervisor_mb = self_peak_rss_mb()
        out.e2e["peak_rss_mb"] = (supervisor_mb + workers_mem.peak_mb, "MB")
        speed = SpeedIndex()
        t_end = time.perf_counter() + seconds
        n = 0
        while time.perf_counter() < t_end or n < MIN_OPS:
            batch, jobs, left = next_batch()
            # Traced runs record into a registry on every odd batch only.
            recording = trace and len(walls) % 2 == 1
            traced_batches += recording
            opts = SchedulingOptions(metrics=registry) if recording else None
            speed.pair(3)  # the samples before the batch
            t0 = time.perf_counter()
            res = sched.run(jobs, options=opts)
            wall = time.perf_counter() - t0
            cal = speed.pair(3)
            release(left)
            out.attempted += len(jobs)
            for (g, p), r in zip(batch, res):
                results.append((len(walls), g, p, r))
                if r.ok:
                    n += 1
                else:
                    out.failed += 1
            (traced if recording else plain).append((None, SpeedIndex.at_reference(wall, cal)))
            walls.append((wall, cal))
        stats = sched.stats()
    finally:
        sched.close()
    for b, g, p, r in warm:
        if not r.ok:
            out.reject(f"untimed job {g}:{p} failed: {r.error_kind} {r.error}")
    for _, g, p, r in warm + results:
        if not r.ok:
            out.notes.append(f"failed job {g}:{p}: {r.error_kind} {r.error}")
            continue
        if r.cached:
            out.reject(f"job {g}:{p} was answered from the cache; every key must be new")
        if r.makespan != want[(g, p)]:
            out.reject(f"job {g}:{p}: makespan {r.makespan} != in-process {want[(g, p)]}")
    ok = [r for _, _, _, r in results if r.ok]
    for raw, target, named in ((False, out.e2e, out.named), (True, out.raw, out.raw)):
        scale = [1.0 if raw else REFERENCE_MS / cal for _, cal in walls]
        busy = sum(w * f for (w, _), f in zip(walls, scale))
        lat = [(r.queue_seconds + r.seconds) * scale[b] * 1e3 for b, _, _, r in results if r.ok]
        target["ops_per_s"] = (len(ok) / busy, "1/s")
        target["tasks_per_s"] = (sum(r.num_tasks for r in ok) / busy, "tasks/s")
        target["p50_ms"] = (median(lat), "ms")
        target["p90_ms"] = (percentile(lat, 0.9), "ms")
        named["batch_jobs_per_s"] = target["ops_per_s"]
    out.notes.append(f"{len(results)} jobs in {len(walls)} batches of {inputs.BATCH_JOBS} "
                     f"(figures at reference speed), after {len(warm)} untimed jobs; dispatched "
                     f"{stats.get('dispatched', 0)}, cache hits {stats.get('cache_hits', 0)}; "
                     f"{plan.keys.live()[-1] + 1} graphs registered")
    out.notes.append(f"peak RSS {supervisor_mb:.1f} MB of the supervisor plus {workers_mem.peak_mb:.1f} MB "
                     f"private to its workers ({workers_mem.samples} samples)")
    out.notes.append(speed_note(speed))
    if trace:
        overhead_metric(out, plain, traced)
        extra = out.layer_extra
        for phase in ("attach", "schedule"):
            vals = [r.phases[phase] * 1e3 for r in ok if r.phases and phase in r.phases]
            extra[f"batch.{phase}_ms"] = (median(vals), "ms") if vals else "no phases recorded"
        extra["batch.queue_ms"] = (median(r.queue_seconds * 1e3 for r in ok), "ms")
        exec_h = [h for h in registry.histograms() if h.name == "workerpool_exec_seconds"]
        if exec_h and exec_h[0].count:
            extra["workerpool.exec_ms"] = (exec_h[0].mean * 1e3, "ms")
        extra["workerpool.spawned_per_batch"] = (
            registry.total("workerpool_spawned_total") / max(1, traced_batches), "count")
        extra.update({name: "not on this workload's path: no HTTP front-end"
                      for name in SERVE_LAYER_METRICS})
        spans = Spans()
        replay_layers(out, spans, [(inputs.pool_graph(seed, inputs.BATCH_STREAM, g), p)
                                   for _, g, p, _ in results[:inputs.REPLAY_OPS]])
        # The job sequence through one attach LRU: the hit ratio a worker
        # would see if it took every job (each of the two sees about half).
        ratio = attach_hit_ratio(seed, inputs.BATCH_STREAM, [g for _, g, _, _ in results])
        if ratio is not None:
            extra["graphstore.attach_hit_ratio"] = (ratio, "ratio")
        write_spans(spans, "batch-pool", seed)
    return out


WORKLOADS: Dict[str, Callable[[int, float, bool], Outcome]] = {
    "paper-suite": paper_suite,
    "wide-certified": wide_certified,
    "serve-mix": serve_mix,
    "batch-pool": batch_pool,
}
