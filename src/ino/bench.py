"""Benchmark harness: loads a synthetic corpus into a fresh non-durable
repository (no fsync) and measures ingest rate, query latencies, harvest
throughput, and dissemination paths. Emits a single machine-readable report.
"""

from __future__ import annotations

import statistics
import time

from .api import Repository
from .corpus import CorpusProfile, generate_corpus
from .index import ConjunctiveQuery, TriplePattern, Var
from .model import MEMBER_OF, METADATA_FOR, OBJECT_TYPE, Term, VirtualClock, type_iri
from .oai import OaiProvider

QUERY_TRIALS = 100
DISSEMINATION_TRIALS = 100
HARVEST_TRIALS = 5


def _percentile(samples: list[float], p: float) -> float:
    ordered = sorted(samples)
    idx = min(len(ordered) - 1, int(round(p / 100.0 * (len(ordered) - 1))))
    return ordered[idx]


def _time_ms(fn, trials: int) -> list[float]:
    samples = []
    for _ in range(trials):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) * 1000.0)
    return samples


def simple_query(repo: Repository) -> ConjunctiveQuery:
    """Single-pattern query: all aggregation objects by type."""
    return ConjunctiveQuery(
        (TriplePattern(Var("?s"), Term.iri(OBJECT_TYPE),
                       Term.iri(type_iri("Aggregation"))),),
        ("?s",),
    )


def complex_query(repo: Repository, agg: str) -> ConjunctiveQuery:
    """3-join: metadata describing members of one aggregation."""
    return ConjunctiveQuery(
        (
            TriplePattern(Var("?r"), Term.iri(MEMBER_OF), Term.iri(agg)),
            TriplePattern(Var("?m"), Term.iri(METADATA_FOR), Var("?r")),
            TriplePattern(Var("?m"), Term.iri(OBJECT_TYPE),
                          Term.iri(type_iri("Metadata"))),
        ),
        ("?m",),
    )


def full_harvest(provider: OaiProvider, fmt: str = "oai_dc") -> int:
    """Paged ListRecords over the provider; returns record count."""
    count = 0
    params = {"verb": "ListRecords", "metadataPrefix": fmt}
    while True:
        response = provider.handle_request(params).decode("utf-8")
        count += response.count("<record>")
        token = _extract_token(response)
        if not token:
            return count
        params = {"verb": "ListRecords", "resumptionToken": token}


def _extract_token(response: str) -> str | None:
    start = response.find("<resumptionToken")
    if start < 0:
        return None
    open_end = response.find(">", start)
    close = response.find("</resumptionToken>", open_end)
    if close < 0:
        return None
    return response[open_end + 1 : close].strip() or None


def bench_all(data_dir, profile: CorpusProfile) -> dict:
    repo = Repository(data_dir, clock=VirtualClock(), durable=False)
    try:
        start = time.perf_counter()
        stats = generate_corpus(repo, profile)
        ingest_elapsed = time.perf_counter() - start
        total_objects = repo.store.count()

        samples = _time_ms(lambda: repo.query(simple_query(repo)), QUERY_TRIALS)
        simple_p50 = _percentile(samples, 50)
        simple_p95 = _percentile(samples, 95)

        agg = next(iter(sorted(
            row["?s"].value for row in repo.query(simple_query(repo))
        )))
        samples = _time_ms(lambda: repo.query(complex_query(repo, agg)),
                           QUERY_TRIALS)
        complex_p50 = _percentile(samples, 50)
        complex_p95 = _percentile(samples, 95)

        provider = OaiProvider(repo, page_size=100)
        provider.rebuild_cache()
        formats = sorted(provider.sequences)
        harvest_rates = []
        harvested = 0
        for _ in range(HARVEST_TRIALS):
            t0 = time.perf_counter()
            harvested = sum(full_harvest(provider, fmt) for fmt in formats)
            harvest_rates.append(harvested / (time.perf_counter() - t0))

        meta_id = min(obj.id for obj in repo.store.objects()
                      if "Metadata" in obj.types)
        lit = _time_ms(lambda: repo.get_dissemination(meta_id, "nsdl_dc"),
                       DISSEMINATION_TRIALS)
        xform = _time_ms(lambda: repo.get_dissemination(meta_id, "oai_dc"),
                         DISSEMINATION_TRIALS)

        return {
            "ingestSecPerObject": ingest_elapsed / total_objects,
            "simpleQueryMsP50": simple_p50,
            "simpleQueryMsP95": simple_p95,
            "complexQueryMsP50": complex_p50,
            "complexQueryMsP95": complex_p95,
            "listRecordsPerSec": statistics.median(harvest_rates),
            "disseminationLiteralMs": statistics.median(lit),
            "disseminationTransformedMs": statistics.median(xform),
            "objects": total_objects,
            "triples": repo.index.size(),
            "harvestedRecords": harvested,
        }
    finally:
        repo.close()
