"""The benchmark's workloads and the repetitions they are made of.

A workload is one or more *parts*, each a function that runs one
repetition in this process.  ``batch`` alternates a ``study`` and an
``ecosystem`` repetition; ``serve`` repeats ``serve``.  Every part takes
the seed and an optional :class:`~spans.Tracer` and returns a dict with:

* ``setup_s`` — set-up time, counted from ``start`` (taken before any
  ``repro`` import) to the moment the timed job can begin;
* ``job_s`` — wall time of the timed job (what tracing overhead is
  measured against), plus whichever of ``throughput_per_s`` and
  ``latency_ms`` the part supplies for its workload (serve instead lists
  every open-loop latency, which ``run.py`` pools over repetitions);
* ``peak_rss_mb``;
* ``operations`` — how many operations the job attempted;
* ``checks`` — ``{name: [ok, detail]}`` correctness checks on this
  seed, and ``digests`` that must agree between repetitions and, at the
  default seed, equal :data:`PINNED`;
* ``layers`` — per-layer metrics when traced.

Why each workload exists and which end-to-end metric each layer metric
should move is written down in ``RATIONALE.md`` beside this file.
"""

from __future__ import annotations

import gc
import hashlib
import os
import random
import resource
from time import perf_counter
from typing import Dict, List

#: the seed the pinned digests below were recorded at
DEFAULT_SEED = 2016

#: digests of each workload's outputs at :data:`DEFAULT_SEED`
PINNED: Dict[str, Dict[str, str]] = {
    "study": {
        "record_stream": "4e07fa4b70c68b76633da1d6bf29d748"
                         "86a9c41dfaa42f6810b6a5231d33438a",
    },
    "ecosystem": {
        "scan_aggregates": "541a4d07d6b98fe653634979e4bca691"
                           "ad87959f9e77b4de5947543b2b2f424a",
        "sweep": "ed2b1a6e4942aa994a16f520e40cceda"
                 "55de40d641c0f35dd5fe5315410985c3",
        "model": "7cb7efef42df51eded6056ab796281ab"
                 "cc947c8d5109a271481d0a68aa778e83",
    },
    "serve": {
        "closed_verdicts": "2b1d9c2cf4fc462dd926e080c2460db0"
                           "5eea3a67145e2750dee7197b654b9fd2",
        "open_verdicts": "6ffd68f57c5c2827d0ef2d5601b3d317"
                         "62bc93dfcf6a2a4859d7ceffacaa4c07",
    },
}

# -- sizes (chosen so one repetition takes a few seconds on 2 cores) --------

SCAN_RANKS = 50_000
TRAIN_RANKS = 2_000
TRAIN_DATASET_SIZE = 500
SWEEP_RANKS = 30_000

SERVE_RANKS = 100_000
#: warm-set pool size: about 3.7k distinct queries, about 2.6 s of cold
#: lookups to warm, so three repetitions fit in one run
SERVE_POOL_SIZE = 1024
#: pool size of the second workload the unseen queries come from
SERVE_UNSEEN_POOL_SIZE = 4096
#: share of stream lookups replaced by queries the memo has never seen
SERVE_MISS_SHARE = 0.10
#: the timed stream alternates closed- and open-loop segments, so both
#: loops sample the host over the whole repetition
SERVE_SEGMENTS = 8
SERVE_CLOSED_PER_SEGMENT = 11_000
SERVE_OPEN_PER_SEGMENT = 500
SERVE_OPEN_RATE = 2_000.0
#: brute-force parity costs seconds per retrieval query at 100k ranks,
#: so only a few distinct queries are checked, in one repetition
SERVE_PARITY_RETRIEVAL = 1
SERVE_PARITY_FAST = 5


def _rng(seed: int, purpose: str) -> random.Random:
    """The benchmark's own input stream, independent of ``repro``'s RNG."""
    return random.Random(f"perfbench/{seed}/{purpose}")


def peak_rss_mb(workers: int = 0) -> float:
    """Peak RSS of this process plus ``workers`` times its largest child.

    Pool workers run alongside each other, so the largest one's peak
    counted once per worker bounds what they held at the same time.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


def _check(checks: Dict, name: str, ok: bool, detail: str = "") -> None:
    checks[name] = [bool(ok), detail]


# -- study -------------------------------------------------------------------

def study(seed: int, start: float, tracer=None, **_) -> Dict:
    """One default seven-month study: generate, deliver, classify."""
    from repro.experiment.config import ExperimentConfig
    from repro.experiment.parallel import record_stream_digest
    from repro.experiment.runner import StudyRunner
    from repro.util.textcache import memo_totals

    runner = StudyRunner(ExperimentConfig(seed=seed))
    setup_s = perf_counter() - start
    if tracer is not None:
        _trace_study(tracer)
    hits0, misses0 = memo_totals()
    begin = perf_counter()
    try:
        results = runner.run()
    finally:
        job_s = perf_counter() - begin
        if tracer is not None:
            tracer.restore()
    hits, misses = memo_totals()
    rss = peak_rss_mb()

    checks: Dict = {}
    records = len(results.records)
    _check(checks, "records_equal_delivered",
           records == results.delivered_count,
           f"{records} records, {results.delivered_count} delivered")
    _check(checks, "delivered_some",
           0 < results.delivered_count <= results.sent_count,
           f"{results.delivered_count} of {results.sent_count} sent")
    out = {
        "setup_s": setup_s,
        "job_s": job_s,
        "peak_rss_mb": rss,
        "throughput_per_s": results.sent_count / job_s,
        "operations": results.sent_count,
        "checks": checks,
        "digests": {"record_stream": record_stream_digest(results.records)},
        "info": {"emails_sent": results.sent_count,
                 "emails_delivered": results.delivered_count,
                 "records": records},
    }
    hit_ratio = (hits - hits0) / max(1, hits - hits0 + misses - misses0)
    if tracer is not None:
        out["layers"] = _study_layers(tracer, results.delivered_count,
                                      hit_ratio)
    return out


def _trace_study(tracer) -> None:
    import repro.experiment.classify as classify
    import repro.experiment.runner as runner
    import repro.infra.forwarding as forwarding
    from repro.dnssim.resolver import Resolver
    from repro.infra.collector import MainCollectionServer
    from repro.smtpsim.client import SmtpClient
    from repro.smtpsim.protocol import SmtpSession
    from repro.spamfilter.funnel import FilterFunnel, SummaryFold
    from repro.workloads.hamgen import ReceiverTypoGenerator
    from repro.workloads.reflection import ReflectionTypoGenerator
    from repro.workloads.smtp_typo import SmtpTypoGenerator
    from repro.workloads.spamgen import SpamGenerator

    def requests(args, result):
        tracer.counts["workloads.requests"] += len(result)

    for generator in (ReceiverTypoGenerator, ReflectionTypoGenerator,
                      SmtpTypoGenerator, SpamGenerator):
        tracer.wrap(generator, "emails_for_day", "workloads.generate",
                    after=requests)
    tracer.wrap(Resolver, "mail_route", "dnssim.resolve")
    tracer.wrap(SmtpClient, "send", "smtpsim.dialogue")
    tracer.wrap(SmtpClient, "send_to_ip", "smtpsim.dialogue")
    tracer.wrap(SmtpSession, "command", "smtpsim.command", span=False)
    tracer.wrap(MainCollectionServer, "ingest", "infra.ingest")

    def trace_forwarders(args, result):
        # the VPS -> collector relay is a callback attach_forwarding
        # installs on each VPS; wrap the callbacks it just installed
        infra = args[0]
        for vps in infra.servers.values():
            vps.on_delivery = tracer.traced(vps.on_delivery, "infra.forward")

    tracer.wrap(forwarding, "attach_forwarding", "infra.attach_forwarding",
                span=False, after=trace_forwarders)
    tracer.wrap(classify, "tokenize", "pipeline.tokenize")
    tracer.wrap(FilterFunnel, "summarize", "spamfilter.summarize")
    tracer.wrap(SummaryFold, "feed", "spamfilter.fold")
    tracer.wrap(SummaryFold, "finalize", "spamfilter.fold")
    tracer.wrap(runner, "classify_corpus_records", "experiment.classify")


def _study_layers(tracer, delivered: int, hit_ratio: float) -> Dict:
    totals = tracer.totals()

    def total(name):
        return totals.get(name, {}).get("total_s", 0.0)

    return {
        "workloads.generate_s": total("workloads.generate"),
        "workloads.requests": tracer.counts["workloads.requests"],
        "dnssim.resolve_s": total("dnssim.resolve"),
        "smtpsim.dialogue_s": totals.get("smtpsim.dialogue",
                                         {}).get("self_s", 0.0),
        "smtpsim.commands_per_delivery":
            tracer.counts["smtpsim.command"] / max(1, delivered),
        "infra.forward_s": total("infra.forward"),
        "infra.ingested": tracer.counts["infra.ingest"],
        "pipeline.tokenize_s": total("pipeline.tokenize"),
        "spamfilter.summarize_s": total("spamfilter.summarize"),
        "spamfilter.fold_s": total("spamfilter.fold"),
        "experiment.classify_s": total("experiment.classify"),
        "util.textcache.hit_ratio": hit_ratio,
    }


# -- ecosystem ---------------------------------------------------------------

def ecosystem(seed: int, start: float, tracer=None, **_) -> Dict:
    """DL-1 scan, model training, then featurize + score a sweep."""
    import repro.experiment.parallel as parallel
    import repro.features.domains as domains
    from repro.learned.train import train_typo_model
    from repro.util.perf import PerfRegistry

    jobs = os.cpu_count() or 1
    setup_s = perf_counter() - start
    perf = None
    shard_work: List[float] = []
    if tracer is not None:
        perf = PerfRegistry()
        _trace_ecosystem(tracer, shard_work)

    begin = perf_counter()
    try:
        aggregates = parallel.run_sharded_scan(seed, SCAN_RANKS, jobs=jobs,
                                               perf=perf)
        scanned = perf_counter()
        model, stats = train_typo_model(seed, ranks=TRAIN_RANKS,
                                        dataset_size=TRAIN_DATASET_SIZE,
                                        jobs=jobs)
        trained = perf_counter()
        sweep = domains.run_sharded_featurize(seed, SWEEP_RANKS, jobs=jobs)
        lane = model.lane("domain")
        scores = hashlib.sha256()
        scored = 0
        in_range = True
        for X, _, _ in sweep.matrices():
            block = lane.scores(X)
            scored += len(block)
            in_range = in_range and bool(((block >= 0.0)
                                          & (block <= 1.0)).all())
            scores.update(block.tobytes())
        done = perf_counter()
    finally:
        if tracer is not None:
            tracer.restore()
    job_s = done - begin
    scan_s = scanned - begin
    rss = peak_rss_mb(workers=jobs if jobs > 1 else 0)

    checks: Dict = {}
    _check(checks, "scan_registered_within_generated",
           aggregates.generated_count > 0
           and aggregates.registered_count <= aggregates.generated_count,
           f"{aggregates.registered_count} registered of "
           f"{aggregates.generated_count} generated")
    _check(checks, "every_row_scored", scored == sweep.n_rows > 0,
           f"{scored} scores for {sweep.n_rows} rows")
    _check(checks, "scores_are_probabilities", in_range)
    _check(checks, "model_lanes_trained",
           stats["domain_rows"] > 0 and stats["message_rows"] > 0,
           f"{stats['domain_rows']} domain rows, "
           f"{stats['message_rows']} message rows")
    out = {
        "setup_s": setup_s,
        "job_s": job_s,
        "peak_rss_mb": rss,
        "latency_ms": job_s * 1e3,
        "operations": SCAN_RANKS + scored,
        "checks": checks,
        # scores are floats from BLAS: compared between repetitions on
        # this machine only, never pinned
        "digests": {"scan_aggregates": aggregates.digest(),
                    "sweep": sweep.digest(),
                    "model": stats["model_digest"],
                    "scores": scores.hexdigest()},
        "info": {"scan_ranks_per_s": SCAN_RANKS / scan_s,
                 "train_s": trained - scanned,
                 "sweep_rows_per_s": scored / (done - trained),
                 "sweep_rows": scored, "jobs": jobs},
    }
    if tracer is not None:
        out["layers"] = _ecosystem_layers(tracer, perf, shard_work, scan_s,
                                          trained - scanned, done - trained,
                                          scored)
    return out


def _trace_ecosystem(tracer, shard_work: List[float]) -> None:
    import repro.experiment.parallel as parallel
    import repro.features.domains as domains
    import repro.learned.train as train
    from repro.learned.model import LaneModel

    def shard_done(args, result):
        # run_sharded_scan folds each shard's perf snapshot in the parent;
        # the slowest shard bounds the scan's critical path
        timers = (args[1] or {}).get("timers", {})
        shard_work.append(
            timers.get("scan.shard_setup_seconds", {}).get("seconds", 0.0)
            + timers.get("scan.shard_work_seconds", {}).get("seconds", 0.0))

    tracer.wrap(parallel, "fold_shard_perf", "experiment.fold_shard_perf",
                span=False, after=shard_done)
    tracer.wrap(train, "train_lane", "learned.fit")
    tracer.wrap(train, "build_message_training_set", "learned.message_set")
    tracer.wrap(domains, "run_sharded_featurize", "features.featurize")
    tracer.wrap(LaneModel, "scores", "learned.score")


def _ecosystem_layers(tracer, perf, shard_work, scan_s, train_s, sweep_s,
                      rows) -> Dict:
    totals = tracer.totals()
    timers = perf.snapshot()["timers"]

    def timer(name):
        return timers.get(name, {}).get("seconds", 0.0)

    def total(name):
        return totals.get(name, {}).get("total_s", 0.0)

    return {
        "ecosystem.world.setup_s": (timer("scan.shard_setup_seconds")
                                    + timer("scan.setup_seconds")),
        "ecosystem.world.scan_s": timer("scan.shard_work_seconds"),
        "ecosystem.world.draw_s": timer("scan.draw_seconds"),
        "ecosystem.world.probe_s": timer("scan.probe_seconds"),
        "ecosystem.aggregates.merge_s": timer("scan.merge_seconds"),
        "util.pool.fanout_s": scan_s - max(shard_work, default=0.0),
        "learned.fit_s": total("learned.fit"),
        "learned.message_set_s": total("learned.message_set"),
        "learned.train_s": train_s,
        "features.featurize_s": total("features.featurize"),
        "features.rows": rows,
        "learned.score_s": total("learned.score"),
        "features.sweep_rows_per_s": rows / sweep_s,
        "ecosystem.scan_ranks_per_s": SCAN_RANKS / scan_s,
    }


# -- serve -------------------------------------------------------------------

def serve(seed: int, start: float, tracer=None, parity: bool = False,
          **_) -> Dict:
    """Warm a 100k-rank engine, then serve a stream with cold misses."""
    from repro.service.engine import RiskEngine
    from repro.service.health import verdict_stream_digest
    from repro.service.index import TypoRiskIndex
    from repro.service.workload import LookupWorkload

    index = TypoRiskIndex(seed, SERVE_RANKS)
    engine = RiskEngine(index, max_cached_verdicts=1 << 15)
    lookup = engine.lookup
    warm = LookupWorkload(seed, SERVE_RANKS, pool_size=SERVE_POOL_SIZE,
                          world=index.world)
    warm_set = warm.pool_entries()
    for query in warm_set:
        lookup(query)
    segments = _serve_segments(seed, warm, warm_set, index.world)
    # a resident server freezes its warmed heap: otherwise each full
    # collection re-walks it, and whether one falls inside a timed
    # segment depends on the seed, not on the program
    gc.freeze()
    setup_s = perf_counter() - start

    if tracer is not None:
        _trace_serve(tracer)
        lookup = engine.lookup
    memo0 = engine.cache_stats()
    closed: List[str] = []
    verdicts: List = []
    served: List = []
    latency: List[float] = []
    late: List[float] = []
    job_s = 0.0
    try:
        for closed_part, open_part in segments:
            begin = perf_counter()
            verdicts += map(lookup, closed_part)
            job_s += perf_counter() - begin
            closed += closed_part
            if tracer is None:
                # traced repetitions time layers, not the open loop
                _open_loop(lookup, open_part, served, latency, late)
    finally:
        if tracer is not None:
            tracer.restore()
    memo = engine.cache_stats()
    misses = memo["misses"] - memo0["misses"]
    lookups = len(verdicts) + len(served)
    miss_ratio = misses / max(1, lookups)
    checks: Dict = {}
    _check(checks, "miss_share_as_built",
           abs(miss_ratio - SERVE_MISS_SHARE) < 0.02,
           f"memo miss ratio {miss_ratio:.4f} over {lookups} lookups")
    _check(checks, "memo_counted_every_lookup",
           misses + memo["hits"] - memo0["hits"] == lookups,
           f"{misses} misses + {memo['hits'] - memo0['hits']} hits for "
           f"{lookups} lookups")
    out = {
        "setup_s": setup_s,
        "job_s": job_s,
        "throughput_per_s": len(closed) / job_s,
        "peak_rss_mb": peak_rss_mb(),
        "operations": lookups,
        "checks": checks,
        "digests": {"closed_verdicts": verdict_stream_digest(verdicts)},
        "info": {"closed_lookups": len(closed), "memo_misses": misses,
                 "memo_miss_ratio": miss_ratio,
                 "warm_queries": len(warm_set)},
    }
    if tracer is not None:
        out["layers"] = _serve_layers(tracer, misses, miss_ratio)
        return out

    if parity:
        _serve_parity(seed, engine, closed, verdicts, checks)
    out["digests"]["open_verdicts"] = verdict_stream_digest(served)
    # run.py pools these over repetitions for latency_ms
    out["open_latency_us"] = sorted(x * 1e6 for x in latency)
    out["open_late_us"] = sorted(x * 1e6 for x in late)
    out["info"].update({
        "open_lookups": len(latency),
        "open_rate_per_s": SERVE_OPEN_RATE,
        "open_p50_us": quantile(out["open_latency_us"], 0.50),
        "open_p99_us": quantile(out["open_latency_us"], 0.99),
    })
    return out


def _open_loop(lookup, queries: List[str], served: List,
               latency: List[float], late: List[float]) -> float:
    """One request due every 1/rate s, each timed from its due time, so
    a slow miss also delays the requests queued behind it.

    Appends each verdict, latency and how late the request started.
    """
    interval = 1.0 / SERVE_OPEN_RATE
    origin = perf_counter() + 0.01
    for number, query in enumerate(queries):
        due = origin + number * interval
        now = perf_counter()
        while now < due:
            now = perf_counter()
        late.append(now - due)
        served.append(lookup(query))
        latency.append(perf_counter() - due)


def _serve_segments(seed: int, warm, warm_set: List[str], world):
    """The timed stream as ``(closed, open)`` segment pairs: Zipf pool
    draws with exactly :data:`SERVE_MISS_SHARE` of each part replaced by
    queries outside the warm set, so every segment does the same mix.

    The unseen queries come from a second workload over the same world
    and are shuffled: ``pool_entries`` lists clean domains first, and
    clean queries are cheap exact hits, so taking them in order would
    understate what a miss costs.
    """
    from repro.service.workload import LookupWorkload

    other = LookupWorkload(_rng(seed, "unseen-seed").getrandbits(32),
                           SERVE_RANKS, pool_size=SERVE_UNSEEN_POOL_SIZE,
                           world=world)
    seen = set(warm_set)
    unseen = [query for query in other.pool_entries() if query not in seen]
    rng = _rng(seed, "stream")
    rng.shuffle(unseen)
    sizes = [SERVE_CLOSED_PER_SEGMENT, SERVE_OPEN_PER_SEGMENT]
    swaps = [round(size * SERVE_MISS_SHARE) for size in sizes]
    if SERVE_SEGMENTS * sum(swaps) > len(unseen):
        raise ValueError(f"stream needs {SERVE_SEGMENTS * sum(swaps)} unseen "
                         f"queries, the second workload has {len(unseen)}")
    draws = warm.queries(SERVE_SEGMENTS * sum(sizes))
    fresh = iter(unseen)
    segments = []
    for _ in range(SERVE_SEGMENTS):
        pair = []
        for size, swap in zip(sizes, swaps):
            part = [next(draws) for _ in range(size)]
            for position in rng.sample(range(size), swap):
                part[position] = next(fresh)
            pair.append(part)
        segments.append(tuple(pair))
    return segments


def _serve_parity(seed, engine, closed, verdicts, checks) -> None:
    """Served verdicts equal the brute-force path on sampled queries."""
    by_query = {}
    for query, verdict in zip(closed, verdicts):
        by_query.setdefault(query, verdict)
    retrieval = sorted(q for q, v in by_query.items()
                       if v.source in ("index", "scorer"))
    fast = sorted(q for q, v in by_query.items()
                  if v.source not in ("index", "scorer"))
    rng = _rng(seed, "parity")
    sample = (rng.sample(retrieval, min(SERVE_PARITY_RETRIEVAL,
                                        len(retrieval)))
              + rng.sample(fast, min(SERVE_PARITY_FAST, len(fast))))
    wrong = [query for query in sample
             if by_query[query].canonical_json()
             != engine.lookup_bruteforce(query).canonical_json()]
    _check(checks, "parity_with_bruteforce", bool(sample) and not wrong,
           f"{len(sample) - len(wrong)} of {len(sample)} sampled verdicts "
           f"match" + (f"; first mismatch {wrong[0]!r}" if wrong else ""))


def _trace_serve(tracer) -> None:
    import repro.service.engine as engine
    from repro.ecosystem.world import WorldModel
    from repro.service.engine import RiskEngine
    from repro.service.index import TypoRiskIndex

    def found(args, result):
        tracer.counts["ecosystem.world.target_found"] += result is not None

    tracer.wrap(RiskEngine, "lookup", "service.lookup")
    tracer.wrap(engine, "normalize_query", "service.normalize")
    tracer.wrap(TypoRiskIndex, "target_rank", "service.exact")
    tracer.wrap(TypoRiskIndex, "candidate_ranks", "service.retrieval")
    tracer.wrap(WorldModel, "target_rank", "ecosystem.world.target_rank",
                span=False, after=found)


def _serve_layers(tracer, misses: int, miss_ratio: float) -> Dict:
    # a memo hit returns before normalizing, so a lookup span with
    # children is a miss; what a miss spends outside normalize, exact
    # and retrieval is the scorer
    child = tracer.child_seconds()
    hit: List[float] = []
    miss: List[float] = []
    scorer_s = 0.0
    for index, (name, _, begin, end) in enumerate(tracer.spans):
        if name != "service.lookup":
            continue
        if child[index] > 0.0:
            miss.append(end - begin)
            scorer_s += end - begin - child[index]
        else:
            hit.append(end - begin)
    hit.sort()
    miss.sort()
    totals = tracer.totals()

    def total(name):
        return totals.get(name, {}).get("total_s", 0.0)

    probes = tracer.counts["ecosystem.world.target_rank"]
    return {
        "service.normalize_s": total("service.normalize"),
        "service.exact_s": total("service.exact"),
        "service.retrieval_s": total("service.retrieval"),
        "service.scorer_s": scorer_s,
        "ecosystem.world.probes_per_miss": probes / max(1, misses),
        "ecosystem.world.useful_probe_ratio":
            tracer.counts["ecosystem.world.target_found"] / max(1, probes),
        "service.memo.miss_ratio": miss_ratio,
        "service.miss_p50_us": quantile(miss, 0.50) * 1e6,
        "service.miss_p99_us": quantile(miss, 0.99) * 1e6,
        "service.hit_p50_us": quantile(hit, 0.50) * 1e6,
    }


def quantile(ordered: List[float], q: float) -> float:
    """Nearest-rank quantile of an ascending list (0.0 when empty)."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


PARTS = {"study": study, "ecosystem": ecosystem, "serve": serve}

#: workload -> the parts one cycle of its repetitions runs, in order
WORKLOADS = {"batch": ("study", "ecosystem"), "serve": ("serve",)}
