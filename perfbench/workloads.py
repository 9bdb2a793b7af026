"""The benchmark workloads: read, read-4k and serve-mixed.

Each workload builds its own seeded inputs, drives the repository through its
public interface as one closed-loop client, checks the outputs, and returns
the end-to-end metrics. With a tracer it runs the measured work again under
tracing and returns the per-layer metrics instead.

``read`` and ``serve-mixed`` load 10,000 resources (about 17.5k objects, 165k
triples and 15k OAI records), the size of the repository's baseline;
``read-4k`` runs the ``read`` workload at 4,000 resources, so a cost that grows
with the corpus shows as a different ratio between the two. The read set-up
also loads a 500-resource provider, closes and reopens it, and harvests it
twice.
Stores live inside the checkout, under ``.bench_data/``.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import gc
import http.client
import json
import math
import random
import resource
import shutil
import statistics
import threading
import urllib.parse
from datetime import timedelta
from operator import itemgetter
from pathlib import Path
from time import perf_counter
from xml.sax.saxutils import escape

from ino.api import AGENT_KINDS, MetadataSpec, Repository, ResourceSpec
from ino.harvest import Harvester
from ino.index import ConjunctiveQuery, SolutionRow, TripleIndex, TriplePattern, Var
from ino.model import (
    ID_PREFIX,
    MEMBER_OF,
    METADATA_FOR,
    OBJECT_TYPE,
    Term,
    VirtualClock,
    local_id,
    type_iri,
)
from ino.oai import IDENTIFIER_PREFIX, OaiProvider
from ino.service import Service

import tracing

READ_RESOURCES = 10_000
SMALL_RESOURCES = 4_000
SOURCE_RESOURCES = 500
AGENTS = 10
METADATA_PER_RESOURCE = 0.75
PAGE_SIZE = 100
BASE_URL = "http://ndr.local/oai"

# At least ten samples must lie beyond every reported percentile.
MIN_READ_GETS = 1_000
MIN_READ_JOINS = 100
MIN_HTTP_GETS = 100
MIN_HTTP_QUERIES = 100
MIN_HTTP_WRITES = 100
# Traced runs do a fixed amount of measured work, so counters repeat exactly.
TRACED_READ_OPS = 1_100
TRACED_HTTP_REQUESTS = 150
ORACLE_SAMPLES = 3
ORACLE_MEMBERS = 150

# Read client: one closed loop working in blocks of one kind of operation,
# as a harvester pages through a whole list: one complete list (None), then
# GetRecords, then joins. An operation right after one of another kind runs
# up to twice as slow (a GetRecord after a join: 2.0 ms against 1.0 ms at the
# 10k size), so interleaving would let the mix set the percentiles. In blocks
# only the first few operations of each block follow another kind, and the
# block sizes only set how many samples a run collects.
READ_BLOCKS = (("page", None), ("get", 250), ("join", 25))
# serve-mixed request mix: 70% reads and 30% writes. Within those, the weights
# only set sample counts: GetRecord and queries get the most, because their
# percentiles are reported.
HTTP_MIX = (("get_record", 20), ("list_page", 10), ("object", 10),
            ("dissemination", 10), ("query", 20),
            ("write_resource", 15), ("write_metadata", 15))

# The CPU speed of a shared host drifts by 20-40% within seconds. A fixed
# block of pure-Python work over a few MB, timed between the read loop's
# operations, follows that drift; the loop's timings are scaled by the
# block's mean time around them to what they would be at the reference speed.
CAL_REF_S = 0.0006  # block time at the reference speed
CAL_EVERY_S = 0.02
CAL_HALF_WINDOW_S = 0.25
CAL_MIN_SAMPLES = 8
CAL_ITEMS = 100_000
CAL_STRIDE = 40

END_TO_END = (
    ("setup_s", "s"),
    ("get_record_ms_p50", "ms"),
    ("get_record_ms_p90", "ms"),
    ("query_ms_p50", "ms"),
    ("query_ms_p90", "ms"),
    ("records_per_s", "1/s"),
    ("rss_bytes_per_triple", "B"),
)

_SUBJECTS = ("physics", "chemistry", "biology", "geology", "astronomy",
             "mathematics", "engineering", "ecology")
_EXTRAS = ("audience", "educationLevel", "interactivityType")

Span = tuple[float, float]  # (start, end) in perf_counter seconds


# ------------------------------------------------------------------ helpers

def pct(samples: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def page_rate(records: list[int], ms: list[float]) -> float:
    """Records per second of the median ListRecords page. A whole-heap
    garbage collection lasts about 0.45 s at the 10k size and lands on
    whichever operation is running, so a rate over the summed page times
    would depend on how many of them hit a page."""
    return statistics.median(n * 1000.0 / t for n, t in zip(records, ms))


def raw_ms(spans: list[Span]) -> list[float]:
    return [(t1 - t0) * 1000.0 for t0, t1 in spans]


def raw_seconds(span: Span) -> float:
    return span[1] - span[0]


def cpu_seconds() -> tuple[float, float]:
    """(user, system) CPU seconds of this process so far."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime, usage.ru_stime


def rss_bytes() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("VmRSS not found")


def reset(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)


def store_bytes(root: Path) -> tuple[int, int]:
    """(journal bytes, object file bytes) of a store directory."""
    journal = (root / "journal.log").stat().st_size
    objects = sum(p.stat().st_size for p in (root / "objects").rglob("*.xml"))
    return journal, objects


def dissemination_calls(*repos) -> int:
    return sum(len(v) for r in repos for v in r.disseminator.metrics.values())


def extract_token(body: bytes) -> str | None:
    start = body.find(b"<resumptionToken")
    if start < 0:
        return None
    open_end = body.find(b">", start)
    close = body.find(b"</resumptionToken>", open_end)
    if close < 0:
        return None
    return body[open_end + 1:close].decode("ascii").strip() or None


def join_query(agg: str) -> ConjunctiveQuery:
    """3-pattern join: metadata describing members of one aggregation."""
    return ConjunctiveQuery(
        (
            TriplePattern(Var("?r"), Term.iri(MEMBER_OF), Term.iri(agg)),
            TriplePattern(Var("?m"), Term.iri(METADATA_FOR), Var("?r")),
            TriplePattern(Var("?m"), Term.iri(OBJECT_TYPE),
                          Term.iri(type_iri("Metadata"))),
        ),
        ("?m",),
    )


def nsdl_dc(rng: random.Random, url: str, i: int) -> bytes:
    lines = ["<nsdl_dc>", f"  <title>Synthetic resource {i}</title>",
             f"  <identifier>{escape(url)}</identifier>",
             f"  <subject>{rng.choice(_SUBJECTS)}</subject>"]
    if rng.random() < 0.5:
        lines.append(f"  <description>Generated record number {i}</description>")
    if rng.random() < 0.4:
        extra = rng.choice(_EXTRAS)
        lines.append(f"  <{extra}>value-{rng.randrange(10)}</{extra}>")
    lines.append("</nsdl_dc>")
    return ("\n".join(lines) + "\n").encode("utf-8")


class Speed:
    """Times the calibration block at most every CAL_EVERY_S seconds and
    scales spans to the reference speed."""

    def __init__(self):
        self._data = [(i, str(i)) for i in range(CAL_ITEMS)]
        self._mid: list[float] = []
        self._sums = [0.0]
        self._due = 0.0

    def tick(self) -> None:
        if perf_counter() < self._due:
            return
        # A collection of the program's garbage must not land in the block.
        enabled = gc.isenabled()
        gc.disable()
        start = perf_counter()
        part = self._data[len(self._mid) % CAL_STRIDE::CAL_STRIDE]
        sum(len(s) for _, s in part)
        sorted(part[::2], key=itemgetter(1))
        end = perf_counter()
        if enabled:
            gc.enable()
        self._mid.append((start + end) / 2)
        self._sums.append(self._sums[-1] + end - start)
        self._due = end + CAL_EVERY_S

    def factor(self, t0: float, t1: float) -> float:
        """Host speed around [t0, t1] over the reference speed."""
        mid = self._mid
        lo = bisect.bisect_left(mid, t0 - CAL_HALF_WINDOW_S)
        hi = bisect.bisect_right(mid, t1 + CAL_HALF_WINDOW_S)
        if hi - lo < CAL_MIN_SAMPLES:
            centre = bisect.bisect_left(mid, (t0 + t1) / 2)
            hi = min(len(mid), max(centre + CAL_MIN_SAMPLES // 2, CAL_MIN_SAMPLES))
            lo = max(0, hi - CAL_MIN_SAMPLES)
        return CAL_REF_S * (hi - lo) / (self._sums[hi] - self._sums[lo])

    def ms(self, spans: list[Span]) -> list[float]:
        """Milliseconds of each span at the reference speed."""
        return [(t1 - t0) * self.factor(t0, t1) * 1000.0 for t0, t1 in spans]


class Client:
    """Counts and times client operations. In a traced run each operation is
    also a request span, so the spans it causes share one request id."""

    def __init__(self, tracer: tracing.Tracer | None = None):
        self.tracer = tracer
        self.speed: Speed | None = None  # set to scale to the reference speed
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def call(self, span: str, fn, *args):
        """Run one operation; return (result or None on failure, its span)."""
        if self.speed is not None:
            self.speed.tick()
        self.attempted += 1
        ctx = self.tracer.request(span) if self.tracer else contextlib.nullcontext()
        t0 = perf_counter()
        result = None
        try:
            with ctx:
                result = fn(*args)
        except Exception as exc:  # a failed operation is counted, not fatal
            self._fail(f"{span}: {exc!r}")
        return result, (t0, perf_counter())

    def check(self, name: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self._fail(f"check failed: {name}")
        return ok

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def merge(self, other: "Client") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors.extend(other.errors[:20 - len(self.errors)])


# ------------------------------------------------------------------- corpus

class Corpus:
    """Seeded inputs for one corpus. Aggregations are referred to by index,
    because their ids are only known once the load has created them."""

    def __init__(self, resources: int, seed: int):
        rng = random.Random(seed)
        n_aggs = max(1, resources // 1000)

        def picks():
            return rng.sample(range(n_aggs), rng.randint(1, min(3, n_aggs)))

        self.agents = [(f"agent-{i}", AGENT_KINDS[i % 3]) for i in range(AGENTS)]
        self.aggregations = [f"http://corpus.local/{seed}/agg/{j}"
                             for j in range(n_aggs)]
        self.resources = [(f"http://corpus.local/{seed}/{i}", picks())
                          for i in range(resources)]
        self.metadata = [
            (i, nsdl_dc(rng, self.resources[i][0], i), picks())
            for i in range(int(resources * METADATA_PER_RESOURCE))
        ]


class Loaded:
    def __init__(self):
        self.agents: list[str] = []
        self.aggregations: list[str] = []
        self.resources: list[str] = []
        self.metadata: list[str] = []


def load(repo: Repository, corpus: Corpus, client: Client,
         spans: list[Span]) -> Loaded:
    """Load the corpus through the Repository write calls, timing each."""
    out = Loaded()

    def write(fn, *args):
        oid, span = client.call("client.write", fn, *args)
        spans.append(span)
        return oid

    for name, kind in corpus.agents:
        out.agents.append(write(repo.add_agent, name, kind))
    for j, url in enumerate(corpus.aggregations):
        out.aggregations.append(write(
            repo.create_aggregation, out.agents[j % AGENTS],
            ResourceSpec(content_url=url)))
    aggs = out.aggregations
    for url, picks in corpus.resources:
        out.resources.append(write(repo.add_resource, ResourceSpec(
            content_url=url,
            initial_aggregations=frozenset(aggs[k] for k in picks))))
    for i, payload, picks in corpus.metadata:
        out.metadata.append(write(repo.add_metadata, MetadataSpec(
            target=out.resources[i], format_id="nsdl_dc", payload=payload,
            provider=out.agents[i % AGENTS],
            initial_aggregations=frozenset(aggs[k] for k in picks))))
    return out


def metric_values(values: dict[str, float]) -> dict[str, dict]:
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def _overhead(tracer: tracing.Tracer, block) -> float:
    """Traced minus untraced time of the same measured block. The untraced
    time is the mean of one run before and one after the traced run, so
    warm-up does not count as tracing cost."""
    tracer.unwrap()
    before = block(False)
    tracing.instrument(tracer)
    with tracer.span("bench.measure"):
        traced = block(True)
    tracer.unwrap()
    after = block(False)
    return traced - (before + after) / 2


def _traced_result(client: Client, tracer: tracing.Tracer, overhead_s: float,
                   out_path: Path) -> dict:
    metrics = tracing.layer_metrics(tracer, overhead_s)
    share = metrics["trace.layer_self_share"]
    client.check(f"layer self times cover the wall time (share {share:.3f})",
                 0.9 <= share <= 1.1)
    tracer.write(str(out_path))
    return {name: {"value": metrics[name], "unit": unit}
            for name, unit in tracing.PER_LAYER}


# --------------------------------------------------------------------- read

class ReadLoop:
    """Closed-loop OAI and query client over one provider. The op sequence,
    and every identifier and aggregation it picks, follow from the seed."""

    def __init__(self, repo, provider, aggs, records, expected, seed,
                 client: Client):
        self.repo = repo
        self.provider = provider
        self.aggs = aggs
        self.records = records  # (identifier, format) keys of the OAI cache
        self.expected = expected
        self.client = client
        self.rng = random.Random(f"read-{seed}")
        self.gets: list[Span] = []
        self.joins: list[Span] = []
        self.list_pages: list[Span] = []
        self.page_records: list[int] = []  # records in each of list_pages
        self.completed: set[str] = set()
        self.join_results: dict[str, set] = {}
        self._lists = 0
        self._params = None
        self._seen = 0
        self._block = 0
        self._done = 0  # operations done in the current block

    def step(self) -> None:
        kind, size = READ_BLOCKS[self._block]
        getattr(self, "_" + kind)()
        self._done += 1
        ended = self._params is None if size is None else self._done == size
        if ended:
            self._block = (self._block + 1) % len(READ_BLOCKS)
            self._done = 0

    def enough(self) -> bool:
        return (len(self.gets) >= MIN_READ_GETS and len(self.joins) >= MIN_READ_JOINS
                and {"nsdl_dc", "oai_dc"} <= self.completed)

    def _oai(self, span_name, params) -> tuple[bytes | None, Span]:
        body, span = self.client.call(span_name, self.provider.handle_request, params)
        if body is not None:
            self.client.check("OAI response without error", b"<error" not in body)
        return body, span

    def _page(self) -> None:
        if self._params is None:
            verb, fmt, set_spec = (("ListRecords", "nsdl_dc", None),
                                   ("ListRecords", "oai_dc", None),
                                   ("ListIdentifiers", "nsdl_dc",
                                    local_id(self.rng.choice(self.aggs))))[self._lists % 3]
            self._lists += 1
            self._list = (verb, fmt, set_spec)
            self._seen = 0
            self._params = {"verb": verb, "metadataPrefix": fmt}
            if set_spec:
                self._params["set"] = set_spec
        verb, fmt, set_spec = self._list
        body, span = self._oai("client.page", self._params)
        if body is None:
            self._params = None
            return
        n = body.count(b"<header")
        self._seen += n
        if verb == "ListRecords":
            self.page_records.append(n)
            self.list_pages.append(span)
        token = extract_token(body)
        if token:
            self._params = {"verb": verb, "resumptionToken": token}
            return
        self._params = None
        self.client.check(f"{verb} {fmt} {set_spec} returns every cached record",
                          self._seen == self.expected[(fmt, set_spec)])
        if verb == "ListRecords":
            self.completed.add(fmt)

    def _get(self) -> None:
        identifier, fmt = self.rng.choice(self.records)
        params = {"verb": "GetRecord", "identifier": identifier, "metadataPrefix": fmt}
        body, span = self._oai("client.get_record", params)
        self.gets.append(span)
        if body is not None:
            self.client.check("GetRecord returns a record", b"<record>" in body)

    def _join(self) -> None:
        agg = self.rng.choice(self.aggs)
        rows, span = self.client.call("client.join", self.repo.query, join_query(agg))
        self.joins.append(span)
        if rows is not None:
            self.client.check("join query returns rows", len(rows) > 0)
            self.join_results.setdefault(agg, rows)


def hash_join_rows(repo: Repository, agg: str) -> set:
    """The answer of ``join_query(agg)``, built from one ``match`` per pattern
    and set operations, without the join engine."""
    members = {t.subject for t in repo.match(
        TriplePattern(Var("?r"), Term.iri(MEMBER_OF), Term.iri(agg)))}
    describing = {t.subject for t in repo.match(
        TriplePattern(Var("?m"), Term.iri(METADATA_FOR), Var("?r")))
        if t.object.is_iri and t.object.value in members}
    typed = {t.subject for t in repo.match(
        TriplePattern(Var("?m"), Term.iri(OBJECT_TYPE), Term.iri(type_iri("Metadata"))))}
    return {SolutionRow.of({"?m": Term.iri(m)}) for m in describing & typed}


def oracle_check(repo: Repository, agg: str, rows, rng: random.Random,
                 client: Client) -> None:
    """Compare the join engine with the brute-force oracle on a sub-index.

    The oracle joins by nested loops over every matching triple, about 26M
    row merges per query at this corpus size, so it runs on an index of a
    seeded sample of the aggregation's members and their metadata.
    """
    members = sorted(t.subject for t in repo.match(
        TriplePattern(Var("?x"), Term.iri(MEMBER_OF), Term.iri(agg))))
    ids = {agg} | set(rng.sample(members, min(ORACLE_MEMBERS, len(members))))
    for oid in list(ids):
        ids |= {t.subject for t in repo.match(
            TriplePattern(Var("?m"), Term.iri(METADATA_FOR), Term.iri(oid)))}
    sub = TripleIndex()
    for oid in sorted(ids):
        sub.index_object(repo.get_object(oid))
    q = join_query(agg)
    fast = sub.evaluate(q)
    client.check("join query matches evaluate_brute_force",
                 bool(fast) and fast == sub.evaluate_brute_force(q) and fast <= rows)


def harvest_provider(work: Path, seed: int, repo: Repository, client: Client) -> dict:
    """Load a small provider, close and reopen it, and harvest it into
    ``repo`` twice; check each step. Returns the provider-side timings."""
    durable = repo.store.durable
    corpus = Corpus(SOURCE_RESOURCES, seed + 1)
    source = Repository(work / "source", clock=VirtualClock(), durable=durable)
    load(source, corpus, client, [])
    with client.span("bench.check"):
        before = (source.store.count(), source.store.current_seq,
                  source.index.triple_set())
        last_modified = max(o.modified for o in source.store.objects())
        if client.tracer:
            client.tracer.counts["store.journal_bytes"], \
                client.tracer.counts["store.object_bytes"] = store_bytes(work / "source")
    source.close()
    # A fresh VirtualClock starts at 2006-01-01, before the stored objects.
    clock = VirtualClock(start=last_modified + timedelta(seconds=1))
    source, reopen = client.call("client.reopen", Repository,
                                 work / "source", None, clock, durable)
    with client.span("bench.check"):
        after = (source.store.count(), source.store.current_seq,
                 source.index.triple_set())
        client.check("reopen restores object count, seq and triples", before == after)
    provider = OaiProvider(source, page_size=PAGE_SIZE)
    provider.rebuild_cache()
    expected = sum(1 for rec in provider.records.values() if rec.format == "oai_dc")

    def fetch(url: str) -> bytes:
        query = urllib.parse.urlsplit(url).query
        return provider.handle_request(dict(urllib.parse.parse_qsl(query)))

    if client.tracer:
        fetch = client.tracer.wrap_callable(fetch, "harvest.fetch")
    harvester = Harvester(repo, fetch=fetch)
    before_count = repo.store.count()
    first, span = client.call("client.harvest", harvester.harvest, BASE_URL, "oai_dc")
    second, _ = client.call("client.harvest", harvester.harvest, BASE_URL, "oai_dc")
    with client.span("bench.check"):
        for stats in (first, second):
            if stats is not None:
                client.attempted += stats.records
                client.failed += len(stats.failures)
                client.errors.extend(stats.failures[:3])
        created = repo.store.count() - before_count
        client.check("harvest creates one metadata object per source record",
                     first is not None and first.records == expected
                     and first.created_metadata == expected
                     and created >= expected)
        client.check("re-harvest reports every record unchanged",
                     second is not None and second.unchanged == expected
                     and second.created_metadata == 0 and second.updated == 0)
    if client.tracer:
        client.tracer.windows["harvest.load"] = span
        client.tracer.counts["harvest.load_records"] = first.records if first else 0
    source.close()
    return {"reopen_s": raw_seconds(reopen),
            "harvest_records_per_s": (first.records if first else 0) / raw_seconds(span)}


def read(work: Path, seed: int, seconds: int, tracer,
         resources: int = READ_RESOURCES):
    client = Client(tracer)
    if tracer is not None:
        tracing.instrument(tracer)
    corpus = Corpus(resources, seed)
    writes: list[Span] = []
    rss0 = rss_bytes()
    cpu0 = cpu_seconds()
    t0 = perf_counter()
    with client.span("bench.setup"):
        repo = Repository(work / "repo", clock=VirtualClock(), durable=tracer is not None)
        loaded = load(repo, corpus, client, writes)
        load_s = raw_seconds((t0, perf_counter()))
        loaded_objects = repo.store.count()
        provider_figures = harvest_provider(work, seed, repo, client)
        provider = OaiProvider(repo, page_size=PAGE_SIZE)
        provider.rebuild_cache()
    setup_s = raw_seconds((t0, perf_counter()))
    setup_cpu = [b - a for a, b in zip(cpu0, cpu_seconds())]
    rss_per_triple = (rss_bytes() - rss0) / repo.index.size()
    records = sorted(provider.records)
    expected: dict[tuple, int] = {}
    for rec in provider.records.values():
        expected[(rec.format, None)] = expected.get((rec.format, None), 0) + 1
        for s in rec.set_specs:
            expected[(rec.format, s)] = expected.get((rec.format, s), 0) + 1

    def new_loop(c):
        return ReadLoop(repo, provider, loaded.aggregations, records,
                        expected, seed, c)

    try:
        if tracer is not None:
            plain = Client()

            def block(traced: bool) -> float:
                loop = new_loop(client if traced else plain)
                t0 = perf_counter()
                for _ in range(TRACED_READ_OPS):
                    loop.step()
                return perf_counter() - t0

            overhead_s = _overhead(tracer, block)
            client.merge(plain)
            tracer.counts["index.triples"] = repo.index.size()
            tracer.counts["dissemination.metrics_len"] = dissemination_calls(repo)
            return client, None, overhead_s

        client.speed = speed = Speed()
        loop = new_loop(client)
        t0 = perf_counter()
        while perf_counter() - t0 < seconds or not loop.enough():
            loop.step()
        client.speed = None
        rng = random.Random(f"oracle-{seed}")
        for n, (agg, rows) in enumerate(sorted(loop.join_results.items())):
            client.check("join query matches a hash join of its patterns",
                         rows == hash_join_rows(repo, agg))
            if n < ORACLE_SAMPLES:
                oracle_check(repo, agg, rows, rng, client)
    finally:
        if tracer is not None:
            tracer.unwrap()
        repo.close()

    write_ms = raw_ms(writes)

    def values(ms) -> dict:
        gets, joins = ms(loop.gets), ms(loop.joins)
        return {
            "setup_s": setup_s,
            "get_record_ms_p50": pct(gets, 50),
            "get_record_ms_p90": pct(gets, 90),
            "query_ms_p50": pct(joins, 50),
            "query_ms_p90": pct(joins, 90),
            "records_per_s": page_rate(loop.page_records, ms(loop.list_pages)),
            "rss_bytes_per_triple": rss_per_triple,
        }

    detail = {
        "setup_user_s": setup_cpu[0],
        "setup_sys_s": setup_cpu[1],
        "ingest_objects_per_s": loaded_objects / load_s,
        "write_ms_p50": pct(write_ms, 50),
        "write_ms_p90": pct(write_ms, 90),
        "write_ms_p99": pct(write_ms, 99),
        **provider_figures,
        "get_record_ms_p99": pct(raw_ms(loop.gets), 99),
        "speed_factor": speed.factor(-math.inf, math.inf),
        "raw": values(raw_ms),
    }
    return client, values(speed.ms), detail


# -------------------------------------------------------------- serve-mixed

class HttpLoop:
    """Closed-loop client on one keep-alive HTTP/1.1 connection."""

    def __init__(self, conn, loaded: Loaded, identifiers, seed, client: Client):
        self.conn = conn
        self.client = client
        self.seed = seed
        self.rng = random.Random(f"targets-{seed}")
        self.restart_kinds()
        self.agents = [local_id(a) for a in loaded.agents]
        self.aggs = [local_id(a) for a in loaded.aggregations]
        self.resources = [local_id(r) for r in loaded.resources]
        self.metadata = [local_id(m) for m in loaded.metadata]
        self.objects = self.agents + self.aggs + self.resources + self.metadata
        self.identifiers = identifiers
        self.written = 0
        self.pending: list[str] = []  # acknowledged metadata not yet read back
        self.gets: list[Span] = []
        self.queries: list[Span] = []
        self.reads: list[Span] = []
        self.writes: list[Span] = []
        self.list_pages: list[Span] = []
        self.page_records: list[int] = []  # records in each of list_pages
        self._token = None
        self._lists = 0
        self._names, self._weights = zip(*HTTP_MIX)

    def restart_kinds(self) -> None:
        self.kinds = random.Random(f"kinds-{self.seed}")

    def _request(self, method, path, body=None):
        self.conn.request(method, path, body=body,
                          headers={"Content-Type": "application/json"} if body else {})
        resp = self.conn.getresponse()
        return resp.status, resp.read()

    def send(self, method, path, body=None, write=False):
        result, span = self.client.call("service.wire", self._request, method, path, body)
        (self.writes if write else self.reads).append(span)
        if result is None:
            return None, span
        status, data = result
        ok = 200 <= status < 300 and not (path.startswith("/oai") and b"<error" in data)
        if not self.client.check(f"{method} {path.split('?')[0]} answers 2xx without error", ok):
            return None, span
        return data, span

    def step(self) -> None:
        kind = self.kinds.choices(self._names, self._weights)[0]
        getattr(self, "_" + kind)()

    def _get_record(self):
        check_new = bool(self.pending)
        identifier = (IDENTIFIER_PREFIX + self.pending.pop(0) if check_new
                      else self.rng.choice(self.identifiers))
        query = urllib.parse.urlencode({"verb": "GetRecord", "identifier": identifier,
                                        "metadataPrefix": self.rng.choice(("nsdl_dc", "oai_dc"))})
        data, span = self.send("GET", "/oai?" + query)
        self.gets.append(span)
        if check_new:
            self.client.check("acknowledged metadata write appears in GetRecord",
                              data is not None
                              and f"<identifier>{identifier}</identifier>".encode() in data)

    def _list_page(self):
        if self._token:
            params = {"verb": "ListRecords", "resumptionToken": self._token}
        else:
            params = {"verb": "ListRecords",
                      "metadataPrefix": ("nsdl_dc", "oai_dc")[self._lists % 2]}
            self._lists += 1
        data, span = self.send("GET", "/oai?" + urllib.parse.urlencode(params))
        self._token = extract_token(data) if data is not None else None
        if data is not None:
            self.page_records.append(data.count(b"<header"))
            self.list_pages.append(span)

    def _object(self):
        self.send("GET", "/objects/" + self.rng.choice(self.objects))

    def _dissemination(self):
        self.send("GET", f"/disseminations/{self.rng.choice(self.metadata)}/oai_dc")

    def _query(self):
        resource = self.rng.choice(self.resources)
        q = f"SELECT ?m WHERE ?m <{METADATA_FOR}> <{ID_PREFIX}{resource}>"
        _, span = self.send("POST", "/query", q.encode("utf-8"))
        self.queries.append(span)

    def _write_resource(self):
        self.written += 1
        body = {"contentUrl": f"http://serve.local/{self.seed}/{self.written}",
                "initialAggregations": [self.rng.choice(self.aggs)]}
        data, _ = self.send("POST", "/objects/resource",
                            json.dumps(body).encode(), write=True)
        if data is not None:
            rid = json.loads(data)["id"]
            self.resources.append(rid)
            self.objects.append(rid)

    def _write_metadata(self):
        self.written += 1
        target = self.rng.choice(self.resources)
        payload = nsdl_dc(self.rng, f"http://serve.local/{self.seed}/m/{self.written}",
                          self.written)
        body = {"target": target, "formatId": "nsdl_dc",
                "payload": payload.decode("utf-8"),
                "provider": self.rng.choice(self.agents),
                "initialAggregations": [self.rng.choice(self.aggs)]}
        data, _ = self.send("POST", "/objects/metadata",
                            json.dumps(body).encode(), write=True)
        if data is not None:
            mid = json.loads(data)["id"]
            self.metadata.append(mid)
            self.objects.append(mid)
            self.pending.append(mid)


def serve_mixed(work: Path, seed: int, seconds: int, tracer):
    client = Client(tracer)
    if tracer is not None:
        tracing.instrument(tracer)
    corpus = Corpus(READ_RESOURCES, seed)
    load_writes: list[Span] = []
    rss0 = rss_bytes()
    cpu0 = cpu_seconds()
    t0 = perf_counter()
    with client.span("bench.setup"):
        svc = Service({"dataDir": str(work), "pageSize": str(PAGE_SIZE)},
                      clock=VirtualClock())
        svc.repo.store.durable = tracer is not None
        loaded = load(svc.repo, corpus, client, load_writes)
        svc.provider.rebuild_cache()
        server = svc.serve(0, "127.0.0.1")
        thread = threading.Thread(target=server.serve_forever, name="ino-serve")
        thread.start()
        conn = http.client.HTTPConnection("127.0.0.1", server.server_address[1],
                                          timeout=60)
    setup_s = raw_seconds((t0, perf_counter()))
    setup_cpu = [b - a for a, b in zip(cpu0, cpu_seconds())]
    rss_per_triple = (rss_bytes() - rss0) / svc.repo.index.size()
    identifiers = sorted({r.identifier for r in svc.provider.records.values()})
    loop = HttpLoop(conn, loaded, identifiers, seed, client)
    try:
        if tracer is not None:
            plain = Client()

            def block(traced: bool) -> float:
                loop.client = client if traced else plain
                loop.restart_kinds()
                t0 = perf_counter()
                for _ in range(TRACED_HTTP_REQUESTS):
                    loop.step()
                return perf_counter() - t0

            overhead_s = _overhead(tracer, block)
            loop.client = client
            client.merge(plain)
        else:
            t0 = perf_counter()
            while (perf_counter() - t0 < seconds or len(loop.gets) < MIN_HTTP_GETS
                   or len(loop.queries) < MIN_HTTP_QUERIES
                   or len(loop.writes) < MIN_HTTP_WRITES):
                loop.step()
        with client.span("bench.check"):
            while loop.pending:
                loop._get_record()
    finally:
        if tracer is not None:
            tracer.unwrap()
        conn.close()
        server.shutdown()
        server.server_close()
        thread.join(timeout=30)
        client.check("server thread stopped", not thread.is_alive())
        if tracer is not None:
            tracer.counts["index.triples"] = svc.repo.index.size()
            tracer.counts["dissemination.metrics_len"] = dissemination_calls(svc.repo)
            tracer.counts["store.journal_bytes"], tracer.counts["store.object_bytes"] = \
                store_bytes(work)
        svc.close()
    if tracer is not None:
        return client, None, overhead_s

    # Request latencies are mostly the client's delayed-ACK timer, not CPU
    # time, so they are reported as measured.
    gets, queries = raw_ms(loop.gets), raw_ms(loop.queries)
    load_ms, reads, writes = raw_ms(load_writes), raw_ms(loop.reads), raw_ms(loop.writes)
    values = {
        "setup_s": setup_s,
        "get_record_ms_p50": pct(gets, 50),
        "get_record_ms_p90": pct(gets, 90),
        "query_ms_p50": pct(queries, 50),
        "query_ms_p90": pct(queries, 90),
        "records_per_s": page_rate(loop.page_records, raw_ms(loop.list_pages)),
        "rss_bytes_per_triple": rss_per_triple,
    }
    detail = {
        "setup_user_s": setup_cpu[0],
        "setup_sys_s": setup_cpu[1],
        "write_ms_p50": pct(load_ms, 50),
        "write_ms_p90": pct(load_ms, 90),
        "http_read_ms_p50": pct(reads, 50),
        "http_read_ms_p90": pct(reads, 90),
        "http_write_ms_p50": pct(writes, 50),
        "http_write_ms_p90": pct(writes, 90),
    }
    return client, values, detail


WORKLOADS = {"read": read,
             "read-4k": functools.partial(read, resources=SMALL_RESOURCES),
             "serve-mixed": serve_mixed}


def run(name: str, root: Path, seed: int, seconds: int, trace: bool):
    """Run one workload; return (result line, detail line)."""
    work = root / ".bench_data" / name
    tracer = tracing.Tracer() if trace else None
    reset(work)
    try:
        client, values, extra = WORKLOADS[name](work, seed, seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if trace:
        metrics = _traced_result(client, tracer, extra,
                                 root / ".bench_out" / f"trace-{name}.csv.gz")
        detail = {}
    else:
        metrics = metric_values(values)
        detail = dict(extra)
    detail["error_rate"] = client.failed / max(1, client.attempted)
    detail["errors"] = client.errors
    result = {"correct": client.failed == 0, "attempted": client.attempted,
              "failed": client.failed, "metrics": metrics}
    return result, {"workload": name, "seed": seed, "detail": detail}
