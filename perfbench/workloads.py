"""One benchmark workload in one process: python3 perfbench/workloads.py --help.

Started by ``perfbench/run.py``, which gives each workload a fresh process
with ``PYTHONHASHSEED`` derived from ``--seed``.  The last line of standard
output is one JSON object with the workload's metrics, its correctness
account and, on fixed-work runs, the count metrics that must repeat exactly
across runs with the same seed.

Every timed call is a public entry point of the library, driven from
outside: ``create_classifier`` + ``classify_batch`` (cold_start),
``read_pcap_packed`` + ``ParallelSession.feed`` + ``Txn.commit``
(replay_churn), and ``FabricController.install``/``serve``/``begin().commit()``
(fabric_churn).

Host normalization: fixed pure-Python reference work runs after every timed
call (never inside one).  Every timing is divided by the median of the
nearest reference timings and multiplied by ``REF_NOMINAL_S``, so a host
that runs everything 20% slower reports the same normalized figures.  The
raw figures are reported as ``host.*``.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import gc
import itertools
import json
import math
import os
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    # Measure the checkout's own library, never an installed copy.
    sys.exit(f"no library source under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.analysis.depindex import DependencyIndex  # noqa: E402
from repro.api import create_classifier  # noqa: E402
from repro.controller.fabric import FabricController, Topology  # noqa: E402
from repro.io.pcap import PcapStats, read_pcap_packed, write_pcap  # noqa: E402
from repro.perf import ParallelSession, ReplicaSpec  # noqa: E402
from repro.perf.transport import unpack_headers  # noqa: E402
from repro.rules import FilterFlavor, RuleSet, generate_ruleset, generate_trace  # noqa: E402
from repro.rules.trace import generate_fabric_trace, generate_flow_churn_trace  # noqa: E402

import tracing  # noqa: E402

OUT_DIR = ROOT / ".perfbench-out"

#: Objects the reference work builds per call.
REF_OBJECTS = 800
#: Normalized timings are scaled to this reference time.
REF_NOMINAL_S = 0.0005
#: Reference timings whose median normalizes one sample (centred window).
REF_WINDOW = 31

#: A p90 needs ten samples beyond it: timed runs time at least this many
#: batches and commits.
MIN_SAMPLES = 100
#: Share of batches checked against the oracle besides those right after a
#: commit (decided by a generator seeded from --seed).
CHECK_RATE = 0.125
#: replay_churn and fabric_churn run segments, each with its own seeded rule
#: set, traffic and set-up, so one run averages over several draws; setup_s
#: is the median set-up.
REPLAY_SEGMENTS = 4
FABRIC_SEGMENTS = 8

COLD_BATCH = 256
COLD_BATCHES_PER_ROUND = 5

REPLAY_CHUNK = 256
REPLAY_CAPTURE_PACKETS = 80 * REPLAY_CHUNK
REPLAY_COMMIT_EVERY = 3
REPLAY_LIVE_RULES = 4

FABRIC_BATCH = 256
FABRIC_TRACE_PACKETS = 16 * FABRIC_BATCH

FLOWS = 256
FLOW_CHURN = 0.02
POOL_RULES = 64

#: Work of one fixed-work run (--steps 0 picks it): rounds for cold_start,
#: batches for the others.
FIXED_STEPS = {"cold_start": 12, "replay_churn": 720, "fabric_churn": 80}

E2E_UNITS = {
    "throughput_pps": "pkt/s",
    "batch_p50_ms": "ms",
    "batch_p90_ms": "ms",
    "commit_p50_ms": "ms",
    "commit_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class _RefItem:
    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c) -> None:
        self.a = a
        self.b = b
        self.c = c


def reference_work() -> int:
    """Fixed pure-Python reference work, independent of the library's code.

    Builds a few hundred small objects with tuple and dict fields, indexes
    them in a dict, updates each and drops them all: allocation, dict
    inserts and young-generation collections, the work that dominates the
    classifier's caches and batch records.  Of the loops tried on a shared
    2-vCPU host this one tracked the workloads' slow-downs best; a loop of
    lookups in a large table over-corrected replay_churn and
    under-corrected cold_start.
    """
    items = [_RefItem(index, (index, index & 7), {}) for index in range(REF_OBJECTS)]
    table = {item.b: item for item in items}
    total = 0
    for item in table.values():
        item.c[item.a & 15] = item.b
        total += len(item.c)
    return total


class Recorder:
    """Timed samples, each tied to the reference timing taken right after it."""

    def __init__(self, tracer, trace_on: bool) -> None:
        self.tracer = tracer
        self.trace_on = trace_on
        self.keep = True
        self.refs = []
        self.samples = {"batch": [], "commit": [], "setup": []}
        self.reference()

    def reference(self) -> None:
        start = time.perf_counter()
        reference_work()
        self.refs.append(time.perf_counter() - start)

    def time(self, kind: str, call, *args):
        """Run one timed call (armed tracer) and record its duration."""
        self.tracer.armed = self.trace_on and self.keep
        start = time.perf_counter()
        try:
            return call(*args)
        finally:
            elapsed = time.perf_counter() - start
            self.tracer.armed = False
            self.add(kind, elapsed)

    def add(self, kind: str, elapsed: float) -> None:
        if self.keep:
            self.samples[kind].append((elapsed, len(self.refs)))
        self.reference()

    def normalized(self, kind: str):
        """Samples times nominal over the median of the nearest references."""
        refs = self.refs
        half = REF_WINDOW // 2
        last = len(refs) - 1
        scaled = []
        for raw, index in self.samples[kind]:
            index = min(index, last)
            local = statistics.median(refs[max(0, index - half): index + half + 1])
            scaled.append(raw * REF_NOMINAL_S / local)
        return scaled

    def raw(self, kind: str):
        return [raw for raw, _ in self.samples[kind]]


class Oracle:
    """``RuleSet.highest_priority_match`` over the live rule set.

    The live set is the fixed base rule set plus the rules committed on top
    of it, minus the base rules committed away.  Base answers are memoized
    per header; a header whose base answer was removed is rescanned over
    the live base rules.
    """

    _UNSEEN = object()

    def __init__(self, base: RuleSet) -> None:
        self.base = base
        self.memo = {}
        self.added = RuleSet(name="added")
        self.removed = set()

    def insert(self, rule) -> None:
        if rule.rule_id in self.removed:
            self.removed.discard(rule.rule_id)
        else:
            self.added.add(rule)

    def remove(self, rule_id: int) -> None:
        if rule_id in self.added:
            self.added.remove(rule_id)
        else:
            self.removed.add(rule_id)

    def expected(self, header):
        best = self.memo.get(header, self._UNSEEN)
        if best is self._UNSEEN:
            best = self.memo[header] = self.base.highest_priority_match(header)
        if best is not None and best.rule_id in self.removed:
            best = next(
                (
                    rule for rule in self.base.rules()
                    if rule.rule_id not in self.removed and rule.matches(header)
                ),
                None,
            )
        added = self.added.highest_priority_match(header)
        if added is not None and (best is None or added.priority < best.priority):
            best = added
        return None if best is None else best.rule_id


class Checker:
    """Oracle checks and the failed/attempted account of one run."""

    def __init__(self, seed: int) -> None:
        self.oracle = None
        self.rng = random.Random(seed)
        self.checked = 0
        self.mismatches = 0
        self.commits = 0
        self.failed_commits = 0

    def check(self, headers, results, force: bool = False) -> None:
        """Check a batch: always when ``force``, else a seeded sample."""
        sampled = self.rng.random() < CHECK_RATE
        if not (force or sampled):
            return
        self.checked += len(headers)
        if len(results) != len(headers):
            self.mismatches += len(headers)
            return
        expected = self.oracle.expected
        for header, record in zip(headers, results):
            if record.rule_id != expected(header):
                self.mismatches += 1

    def commit(self, recorder: Recorder, txn, on_success):
        """Time one transaction commit; a commit that raises counts as failed."""
        self.commits += 1
        try:
            result = recorder.time("commit", txn.commit)
        except Exception:  # counted as failed and reported; the run goes on
            self.failed_commits += 1
            traceback.print_exc()
            return None
        on_success()
        return result

    @property
    def attempted(self) -> int:
        return self.checked + self.commits

    @property
    def failed(self) -> int:
        return self.mismatches + self.failed_commits


@dataclasses.dataclass
class Draw:
    """One seeded draw of inputs: rules, held-out pool and traffic seeds.

    ``base`` is a ClassBench acl1-1K set with doubled priorities; ``pool``
    holds rules of a second acl1-1K set, renumbered above every base id with
    odd priorities, so a pool rule lands between base rules.  Traffic is
    drawn over ``universe`` (base and pool together): some flows sit inside
    pool rules, so committing one changes decisions the caches hold.
    """

    base: RuleSet
    pool: list
    universe: RuleSet
    trace_seed: int
    capture_seed: int


def draw_inputs(rng: random.Random) -> Draw:
    rules_seed, pool_seed, trace_seed, capture_seed = (rng.randrange(1 << 30) for _ in range(4))
    generated = generate_ruleset(FilterFlavor.ACL, 1000, seed=rules_seed)
    base = RuleSet(
        (dataclasses.replace(rule, priority=2 * rule.priority) for rule in generated.rules()),
        name=generated.name,
    )
    held_out = generate_ruleset(FilterFlavor.ACL, 1000, seed=pool_seed).rules()
    slots = rng.sample(range(len(base)), POOL_RULES)
    first_id = max(base.rule_ids()) + 1
    pool = [
        dataclasses.replace(rule, rule_id=first_id + index, priority=2 * slot + 1)
        for index, (rule, slot) in enumerate(zip(rng.sample(held_out, POOL_RULES), slots))
    ]
    universe = RuleSet(base.rules() + pool, name="base+pool")
    return Draw(base, pool, universe, trace_seed, capture_seed)


@dataclasses.dataclass
class Context:
    """Run settings and the measurement state shared by the workloads."""

    seed: int
    seconds: float
    steps: int
    recorder: Recorder
    tracer: tracing.Tracer
    checker: Checker
    packets: int = 0
    memory_accesses: int = 0
    update_cycles: int = 0
    commits_in_throughput: bool = True
    extra_failures: int = 0

    def __post_init__(self) -> None:
        self.rng = random.Random(self.seed)

    def draw(self) -> Draw:
        """Draw the next inputs; the checker's oracle follows them."""
        draw = draw_inputs(self.rng)
        self.checker.oracle = Oracle(draw.base)
        return draw

    def budget(self, share: float):
        """A stop condition for ``share`` of the run (one segment).

        Fixed-work runs stop after their share of ``steps``; timed runs after
        their share of ``seconds`` once their share of ``MIN_SAMPLES``
        batches and commits were timed.
        """
        samples = self.recorder.samples
        first_batch, first_commit = len(samples["batch"]), len(samples["commit"])
        least = math.ceil(MIN_SAMPLES * share)
        started = None

        def done(step: int) -> bool:
            nonlocal started
            if self.steps:
                return step >= round(self.steps * share)
            if started is None:
                started = time.perf_counter()
            return (
                time.perf_counter() - started >= self.seconds * share
                and len(samples["batch"]) - first_batch >= least
                and len(samples["commit"]) - first_commit >= least
            )

        return done

    def account(self, results) -> None:
        if self.recorder.keep:
            self.packets += len(results)
            self.memory_accesses += sum(record.memory_accesses for record in results)

    def account_commit(self, commit) -> None:
        if commit is not None and self.recorder.keep:
            self.update_cycles += commit.update_cycles + sum(
                getattr(result, "update_cycles", 0) for result in commit.results
            )


def cold_start(ctx: Context) -> None:
    """Fresh rule set and classifier per round, a never-seen window, commits.

    Each round draws a fresh acl1-1K rule set, builds a vectorized
    classifier over it (set-up), classifies ``COLD_BATCHES_PER_ROUND``
    batches of never-seen hit-biased headers, commits three pool inserts and
    their three removals (one transaction each), and checks one batch
    against the post-commit live set.  Round 0 is discarded.

    The first commit flushes the window's derived caches (1 in 6: it holds
    commit_p90_ms) and removals cost more than inserts (3 in 6: they hold
    commit_p50_ms); the first batch carries the flat-view builds (1 in 5:
    it holds batch_p90_ms).  Every quantile sits inside a mode, not on the
    edge between two.
    """
    done = ctx.budget(1.0)
    for round_index in itertools.count():
        if done(round_index):
            break
        ctx.recorder.keep = round_index > 0
        # Each round stands for a deploy into a fresh process: the previous
        # round's classifier is collected before the build, not during it.
        gc.collect()
        cold_round(ctx, ctx.draw())
    ctx.recorder.keep = True
    ctx.commits_in_throughput = False


def cold_round(ctx: Context, draw: Draw) -> None:
    rec = ctx.recorder
    checker = ctx.checker
    oracle = checker.oracle
    window = COLD_BATCH * COLD_BATCHES_PER_ROUND
    headers = generate_trace(draw.universe, window, seed=draw.trace_seed)
    classifier = rec.time(
        "setup", lambda: create_classifier("configurable", draw.base, vectorized=True)
    )
    for offset in range(0, window, COLD_BATCH):
        batch = headers[offset: offset + COLD_BATCH]
        result = rec.time("batch", classifier.classify_batch, batch).results
        ctx.account(result)
        checker.check(batch, result)
    plane = classifier.control
    picks = draw.pool[:3]
    for rule in picks:
        ctx.account_commit(checker.commit(
            rec, plane.begin().insert(rule), lambda rule=rule: oracle.insert(rule)
        ))
    for rule in picks:
        ctx.account_commit(checker.commit(
            rec, plane.begin().remove(rule.rule_id),
            lambda rule=rule: oracle.remove(rule.rule_id),
        ))
    probe = headers[:COLD_BATCH]
    checker.check(probe, classifier.classify_batch(probe).results, force=True)


def replay_churn(ctx: Context) -> None:
    """Stream a written Zipf churn capture into a one-replica session.

    Per segment: the capture is written once with ``write_pcap``; set-up
    starts ``ParallelSession.from_factory(spec, workers=1)`` (the ``repro
    replay`` default) whose replica is vectorized with the flow cache on,
    then streams the capture once and commits one insert and one removal.
    Each timed batch reads the next packed chunk with ``read_pcap_packed``
    and feeds it; every ``REPLAY_COMMIT_EVERY`` chunks one transaction
    inserts the next pool rule and, once ``REPLAY_LIVE_RULES`` are live,
    removes the oldest.  The capture repeats until the segment ends.
    """
    OUT_DIR.mkdir(exist_ok=True)
    for segment in range(REPLAY_SEGMENTS):
        replay_segment(ctx, ctx.draw(), str(OUT_DIR / f"replay-{ctx.seed}-{segment}.pcap"))


def replay_segment(ctx: Context, draw: Draw, path: str) -> None:
    rec = ctx.recorder
    checker = ctx.checker
    oracle = checker.oracle
    trace = generate_flow_churn_trace(
        draw.universe, REPLAY_CAPTURE_PACKETS, seed=draw.trace_seed,
        flows=FLOWS, popularity="zipf", churn=FLOW_CHURN,
    )
    write_pcap(path, trace, seed=draw.capture_seed)
    del trace
    spec = ReplicaSpec("configurable", draw.base, {"vectorized": True, "flow_cache": True})
    warm_rule, pool = draw.pool[-1], draw.pool[:-1]
    gc.collect()
    start = time.perf_counter()
    session = ParallelSession.from_factory(spec, workers=1, chunk_size=REPLAY_CHUNK)
    try:
        for chunk in read_pcap_packed(path, chunk_size=REPLAY_CHUNK, ports="word"):
            session.feed([chunk])
        session.begin().insert(warm_rule).commit()
        session.begin().remove(warm_rule.rule_id).commit()
        rec.add("setup", time.perf_counter() - start)

        pcap_stats = PcapStats()

        def open_capture():
            chunks = read_pcap_packed(
                path, chunk_size=REPLAY_CHUNK, ports="word", stats=pcap_stats
            )
            if ctx.recorder.trace_on:
                return tracing.traced_iter(ctx.tracer, chunks, "io.pcap.read")
            return chunks

        stream = open_capture()

        def read_and_feed():
            nonlocal stream
            chunk = next(stream, None)
            if chunk is None:
                stream = open_capture()
                chunk = next(stream)
            # One-element list: feed() iterates its argument for packets or chunks.
            return chunk, session.feed([chunk])

        live = collections.deque()
        after_commit = False
        done = ctx.budget(1.0 / REPLAY_SEGMENTS)
        for step in itertools.count():
            if done(step):
                break
            chunk, result = rec.time("batch", read_and_feed)
            ctx.account(result.results)
            checker.check(unpack_headers(chunk.data, chunk.count), result.results, after_commit)
            after_commit = False
            if step % REPLAY_COMMIT_EVERY != REPLAY_COMMIT_EVERY - 1:
                continue
            rule = pool[(step // REPLAY_COMMIT_EVERY) % len(pool)]
            txn = session.begin().insert(rule)
            old = live.popleft() if len(live) == REPLAY_LIVE_RULES else None
            if old is not None:
                txn.remove(old.rule_id)

            def applied(rule=rule, old=old):
                oracle.insert(rule)
                live.append(rule)
                if old is not None:
                    oracle.remove(old.rule_id)

            ctx.account_commit(checker.commit(rec, txn, applied))
            after_commit = True
    finally:
        session.close()
        os.remove(path)
    ctx.tracer.counts["io.pcap.packets"] += pcap_stats.packets


def fabric_churn(ctx: Context) -> None:
    """Serve an ingress-tagged Zipf trace through a line-of-4 fabric under churn.

    Per segment, set-up builds ``FabricController(Topology.line(4),
    vectorized=True)``, installs the rule set, serves the trace once and
    commits one removal and its reinsertion.  After every timed batch one
    fabric commit removes a singleton-overlap rule or reinserts the one
    removed before, as separate transactions (folded into one they would
    diff to a no-op).
    """
    for _ in range(FABRIC_SEGMENTS):
        fabric_segment(ctx, ctx.draw())


def fabric_segment(ctx: Context, draw: Draw) -> None:
    rec = ctx.recorder
    checker = ctx.checker
    oracle = checker.oracle
    topology = Topology.line(4)
    trace = generate_fabric_trace(
        draw.universe, topology.ingresses(), FABRIC_TRACE_PACKETS, seed=draw.trace_seed,
        flows=FLOWS, popularity="zipf", churn=FLOW_CHURN,
    )
    by_id = {rule.rule_id: rule for rule in draw.base.rules()}
    singles = [
        by_id[ids[0]] for ids in DependencyIndex(draw.base.rules()).components()
        if len(ids) == 1
    ]
    random.Random(draw.trace_seed).shuffle(singles)
    warm_rule, victims = singles[-1], singles[:-1]
    gc.collect()
    start = time.perf_counter()
    fabric = FabricController(topology, vectorized=True)
    fabric.install(draw.base)
    for offset in range(0, len(trace), FABRIC_BATCH):
        fabric.serve(trace[offset: offset + FABRIC_BATCH])
    fabric.begin().remove(warm_rule.rule_id).commit()
    fabric.begin().insert(warm_rule).commit()
    rec.add("setup", time.perf_counter() - start)

    removed = None
    done = ctx.budget(1.0 / FABRIC_SEGMENTS)
    for step in itertools.count():
        if done(step):
            break
        offset = (step * FABRIC_BATCH) % len(trace)
        batch = trace[offset: offset + FABRIC_BATCH]
        result = rec.time("batch", fabric.serve, batch)
        ctx.account(result.results)
        # Every batch follows a commit, so every batch is checked.
        checker.check([packet.header for packet in batch], result.results, force=step > 0)
        if removed is None:
            victim = victims[(step // 2) % len(victims)]
            txn = fabric.begin().remove(victim.rule_id)

            def applied(victim=victim):
                nonlocal removed
                oracle.remove(victim.rule_id)
                removed = victim
        else:
            txn = fabric.begin().insert(removed)

            def applied():
                nonlocal removed
                oracle.insert(removed)
                removed = None
        ctx.account_commit(checker.commit(rec, txn, applied))
    ctx.extra_failures += fabric.rolled_back_commits + fabric.partial_commits


WORKLOADS = {
    "cold_start": cold_start,
    "replay_churn": replay_churn,
    "fabric_churn": fabric_churn,
}


def percentile(values, share: float) -> float:
    """Inclusive-method percentile (the median for share 0.5)."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(share * 100) - 1]


def timed_seconds(ctx: Context, times) -> float:
    """The timed phase: batches, plus commits on the churn workloads."""
    return sum(times("batch")) + (sum(times("commit")) if ctx.commits_in_throughput else 0.0)


def e2e_metrics(ctx: Context) -> dict:
    rec = ctx.recorder
    batches = rec.normalized("batch")
    commits = rec.normalized("commit")
    values = {
        "throughput_pps": ctx.packets / timed_seconds(ctx, rec.normalized),
        "batch_p50_ms": percentile(batches, 0.5) * 1e3,
        "batch_p90_ms": percentile(batches, 0.9) * 1e3,
        "commit_p50_ms": percentile(commits, 0.5) * 1e3,
        "commit_p90_ms": percentile(commits, 0.9) * 1e3,
        "setup_s": statistics.median(rec.normalized("setup")),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {
        "throughput_pps": len(batches),
        "batch_p50_ms": len(batches),
        "batch_p90_ms": len(batches),
        "commit_p50_ms": len(commits),
        "commit_p90_ms": len(commits),
        "setup_s": len(rec.samples["setup"]),
        "peak_rss_mb": 1,
    }
    return {
        name: {"value": values[name], "unit": unit, "samples": samples[name]}
        for name, unit in E2E_UNITS.items()
    }


def model_counts(ctx: Context) -> dict:
    commits = len(ctx.recorder.samples["commit"])
    return {
        "model.mem_accesses_per_pkt": ctx.memory_accesses / ctx.packets,
        "model.update_cycles_per_commit": ctx.update_cycles / commits if commits else 0.0,
    }


#: Per-layer metrics: name -> (unit, better, exact).  ``exact`` metrics are
#: counts that must repeat across two fixed-work runs with the same seed.
LAYER_METRICS = {
    "fields.resolve_ms": ("ms", "lower", False),
    "fields.values_resolved": ("count", "lower", True),
    "core.label_combiner.combine_ms": ("ms", "lower", False),
    "core.label_combiner.calls": ("count", "lower", True),
    "hardware.rule_filter.probe_ms": ("ms", "lower", False),
    "hardware.rule_filter.keys_probed": ("count", "lower", True),
    "core.result.assemble_ms": ("ms", "lower", False),
    "core.result.records_built": ("count", "lower", True),
    "perf.fastpath.self_us_per_pkt": ("us", "lower", False),
    "perf.fastpath.header_hit_rate": ("ratio", "higher", True),
    "perf.fastpath.field_hit_rate": ("ratio", "higher", True),
    "perf.fastpath.result_hit_rate": ("ratio", "higher", True),
    "perf.fastpath.combiner_hit_rate": ("ratio", "higher", True),
    "perf.fastpath.dep_registrations_per_pkt": ("count", "lower", True),
    "perf.fastpath.note_commit_ms": ("ms", "lower", False),
    "perf.fastpath.scoped_entries_dropped_per_commit": ("count", "lower", True),
    "perf.fastpath.epoch_flushes": ("count", "lower", True),
    "perf.flowcache.self_us_per_pkt": ("us", "lower", False),
    "perf.flowcache.hit_rate": ("ratio", "higher", True),
    "perf.flowcache.entries": ("count", "lower", True),
    "perf.flowcache.note_commit_ms": ("ms", "lower", False),
    "perf.flowcache.surgical_drops_per_commit": ("count", "lower", True),
    "io.pcap.decode_us_per_pkt": ("us", "lower", False),
    "io.pcap.packets": ("count", "higher", True),
    "perf.transport.unpack_us_per_pkt": ("us", "lower", False),
    "perf.parallel.feed_self_us_per_pkt": ("us", "lower", False),
    "perf.parallel.sessions_opened": ("count", "lower", True),
    "api.control.commit_self_ms": ("ms", "lower", False),
    "api.control.ops_per_commit": ("count", "lower", True),
    "core.update_engine.insert_ms": ("ms", "lower", False),
    "core.update_engine.delete_ms": ("ms", "lower", False),
    "analysis.depindex.update_ms": ("ms", "lower", False),
    "controller.fabric.plan_ms": ("ms", "lower", False),
    "controller.fabric.switch_commit_ms": ("ms", "lower", False),
    "controller.fabric.serve_self_ms": ("ms", "lower", False),
    "controller.fabric.hop_lookups_per_pkt": ("count", "lower", True),
    "core.classifier.build_ms": ("ms", "lower", False),
    "runtime.gc_pause_ms": ("ms", "lower", False),
    "runtime.gc_gen2_collections": ("count", "lower", False),
    "model.mem_accesses_per_pkt": ("count", "lower", True),
    "model.update_cycles_per_commit": ("count", "lower", True),
}


def layer_metrics(ctx: Context) -> dict:
    """Per-layer figures of a traced run: normalized self times plus counts.

    ``*_ms`` are totals over the run's timed phase; ``*_per_pkt`` and
    ``*_per_commit`` divide by the packets or commits the layer served.
    """
    counts = ctx.tracer.counts
    selfs = tracing.self_times(ctx.tracer.spans)
    scale = REF_NOMINAL_S / statistics.median(ctx.recorder.refs)

    def ms(span):
        return selfs.get(span, 0.0) * scale * 1e3

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    def us_per(span, packets_key):
        return ratio(ms(span) * 1e3, counts[packets_key])

    def hit_rate(prefix, layer):
        hits = counts[f"{prefix}.{layer}_hits"]
        return ratio(hits, hits + counts[f"{prefix}.{layer}_misses"])

    fp = "perf.fastpath"
    commits = len(ctx.recorder.samples["commit"])
    values = {
        "fields.resolve_ms": ms("fields.resolve"),
        "fields.values_resolved": counts["fields.values_resolved"],
        "core.label_combiner.combine_ms": ms("core.label_combiner.combine"),
        "core.label_combiner.calls": counts["core.label_combiner.calls"],
        "hardware.rule_filter.probe_ms": ms("hardware.rule_filter.probe"),
        "hardware.rule_filter.keys_probed": counts["hardware.rule_filter.keys_probed"],
        "core.result.assemble_ms": ms("core.result.assemble"),
        "core.result.records_built": counts["core.result.records_built"],
        "perf.fastpath.self_us_per_pkt": us_per("perf.fastpath.classify_batch", f"{fp}.packets"),
        "perf.fastpath.header_hit_rate": hit_rate(fp, "header"),
        "perf.fastpath.field_hit_rate": hit_rate(fp, "field"),
        "perf.fastpath.result_hit_rate": hit_rate(fp, "result"),
        "perf.fastpath.combiner_hit_rate": hit_rate(fp, "combiner"),
        "perf.fastpath.dep_registrations_per_pkt": ratio(
            counts[f"{fp}.dep_registrations"], counts[f"{fp}.packets"]
        ),
        "perf.fastpath.note_commit_ms": ms("perf.fastpath.note_commit"),
        "perf.fastpath.scoped_entries_dropped_per_commit": ratio(
            counts[f"{fp}.scoped_entries_dropped"], commits
        ),
        "perf.fastpath.epoch_flushes": counts[f"{fp}.epoch_flushes"],
        "perf.flowcache.self_us_per_pkt": us_per(
            "perf.flowcache.classify_batch", "perf.flowcache.packets"
        ),
        "perf.flowcache.hit_rate": ratio(
            counts["perf.flowcache.hits"], counts["perf.flowcache.lookups"]
        ),
        "perf.flowcache.entries": counts["perf.flowcache.entries"],
        "perf.flowcache.note_commit_ms": ms("perf.flowcache.note_commit"),
        "perf.flowcache.surgical_drops_per_commit": ratio(
            counts["perf.flowcache.surgical_drops"], commits
        ),
        "io.pcap.decode_us_per_pkt": us_per("io.pcap.read", "io.pcap.packets"),
        "io.pcap.packets": counts["io.pcap.packets"],
        "perf.transport.unpack_us_per_pkt": us_per(
            "perf.transport.unpack", "perf.transport.packets"
        ),
        "perf.parallel.feed_self_us_per_pkt": us_per(
            "perf.parallel.feed", "perf.parallel.packets"
        ),
        "perf.parallel.sessions_opened": counts["perf.parallel.sessions_opened"],
        "api.control.commit_self_ms": ms("api.control.commit"),
        "api.control.ops_per_commit": ratio(
            counts["api.control.ops"], counts["api.control.commits"]
        ),
        "core.update_engine.insert_ms": ms("core.update_engine.insert"),
        "core.update_engine.delete_ms": ms("core.update_engine.delete"),
        "analysis.depindex.update_ms": ms("analysis.depindex.update"),
        "controller.fabric.plan_ms": ms("controller.fabric.plan"),
        "controller.fabric.switch_commit_ms": ms("controller.fabric.switch_commit"),
        "controller.fabric.serve_self_ms": ms("controller.fabric.serve"),
        "controller.fabric.hop_lookups_per_pkt": ratio(
            counts["controller.fabric.hop_lookups"], counts["controller.fabric.packets"]
        ),
        "core.classifier.build_ms": ms("core.classifier.build"),
        "runtime.gc_pause_ms": counts["runtime.gc_pause_s"] * scale * 1e3,
        "runtime.gc_gen2_collections": counts["runtime.gc_gen2_collections"],
        **model_counts(ctx),
    }
    return {
        name: {"value": values[name], "unit": unit}
        for name, (unit, _, _) in LAYER_METRICS.items()
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument(
        "--steps", type=int, default=None,
        help="fixed work instead of --seconds (0: the workload's default)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="file the traced run writes its spans to")
    args = parser.parse_args()

    tracer = tracing.Tracer()
    if args.trace:
        tracing.install(tracer)
    steps = FIXED_STEPS[args.workload] if args.steps == 0 else (args.steps or 0)
    ctx = Context(
        seed=args.seed, seconds=args.seconds, steps=steps,
        recorder=Recorder(tracer, bool(args.trace)), tracer=tracer,
        checker=Checker(args.seed),
    )
    WORKLOADS[args.workload](ctx)
    ctx.recorder.reference()

    checker = ctx.checker
    failed = checker.failed + ctx.extra_failures
    rec = ctx.recorder
    out = {
        "workload": args.workload,
        "correct": failed == 0,
        "attempted": checker.attempted,
        "failed": failed,
        "e2e": e2e_metrics(ctx),
        "timed_s": timed_seconds(ctx, rec.normalized),
        "host": {
            "ref_ms": statistics.median(rec.refs) * 1e3,
            "raw_throughput_pps": ctx.packets / timed_seconds(ctx, rec.raw),
            "raw_timed_s": timed_seconds(ctx, rec.raw),
            "raw_batch_p50_ms": percentile(rec.raw("batch"), 0.5) * 1e3,
            "raw_setup_s": statistics.median(rec.raw("setup")),
        },
        "model": model_counts(ctx),
    }
    if args.trace:
        layers = layer_metrics(ctx)
        out["layers"] = layers
        out["exact"] = {
            name: layers[name]["value"]
            for name, (_, _, exact) in LAYER_METRICS.items() if exact
        }
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
