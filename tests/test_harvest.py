import io
import random
import re
import urllib.error
import urllib.parse
import urllib.request

from collections import Counter

import pytest

from ino import harvest, service
from ino.api import Repository
from ino.corpus import CorpusProfile, generate_corpus
from ino.errors import RemoteProtocolError
from ino.harvest import Harvester
from ino.index import TriplePattern, Var, extract_triples
from ino.model import (
    METADATA_FOR,
    OBJECT_TYPE,
    SOURCE_BASE_URL,
    SOURCE_RECORD_ID,
    SOURCE_SET,
    Term,
    VirtualClock,
    local_id,
    type_iri,
)
from ino.oai import OaiProvider

BASE_URL = "http://source.local/oai"


def loopback(provider):
    def fetch(url):
        query = urllib.parse.urlparse(url).query
        return provider.handle_request(dict(urllib.parse.parse_qsl(query)))
    return fetch


@pytest.fixture
def source(tmp_path):
    repo = Repository(tmp_path / "source", clock=VirtualClock())
    generate_corpus(repo, CorpusProfile(resources=12, aggregations=2,
                                        agents=3, seed=4))
    provider = OaiProvider(repo, page_size=5, base_url=BASE_URL)
    provider.rebuild_cache()
    yield repo, provider
    repo.close()


@pytest.fixture
def target(tmp_path):
    repo = Repository(tmp_path / "target", clock=VirtualClock())
    yield repo
    repo.close()


def count_type(repo, type_name):
    return len(repo.match(TriplePattern(
        Var("?s"), Term.iri(OBJECT_TYPE), Term.iri(type_iri(type_name)))))


def test_harvest_ingests_all_records(source, target):
    source_repo, provider = source
    stats = Harvester(target, fetch=loopback(provider)).harvest(
        BASE_URL, "nsdl_dc")
    assert stats.records == 9  # int(12 * 0.75) metadata objects
    assert stats.created_metadata == 9
    assert stats.created_resources == 9
    assert stats.failures == []
    assert count_type(target, "Metadata") == 9
    # + 1 auto-created source aggregation proxy
    assert count_type(target, "Resource") == 10
    assert target.audit() == []


def test_reharvest_is_idempotent(source, target):
    _repo, provider = source
    h = Harvester(target, fetch=loopback(provider))
    h.harvest(BASE_URL, "nsdl_dc")
    count = target.store.count()
    stats = h.harvest(BASE_URL, "nsdl_dc")
    assert stats.unchanged == stats.records == 9
    assert stats.created_metadata == stats.updated == 0
    assert target.store.count() == count


def test_reharvest_picks_up_changes(source, target):
    source_repo, provider = source
    h = Harvester(target, fetch=loopback(provider))
    h.harvest(BASE_URL, "nsdl_dc")
    victim = next(
        t.subject for t in source_repo.match(TriplePattern(
            Var("?m"), Term.iri(OBJECT_TYPE), Term.iri(type_iri("Metadata"))))
    )
    source_repo.update_metadata_payload(
        victim, "nsdl_dc", b"<nsdl_dc><title>edited</title>"
        b"<identifier>http://corpus.local/4/0</identifier></nsdl_dc>")
    stats = h.harvest(BASE_URL, "nsdl_dc")
    assert stats.updated == 1 and stats.unchanged == 8


def test_deleted_records_skipped(source, target):
    source_repo, provider = source
    h = Harvester(target, fetch=loopback(provider))
    h.harvest(BASE_URL, "nsdl_dc")
    victim = next(
        t.subject for t in source_repo.match(TriplePattern(
            Var("?m"), Term.iri(OBJECT_TYPE), Term.iri(type_iri("Metadata"))))
    )
    source_repo.purge_metadata(victim)
    stats = h.harvest(BASE_URL, "nsdl_dc")
    assert stats.skipped == 1 and stats.unchanged == 8


def test_upstream_deletion_purges_local_copy(source, target):
    source_repo, provider = source
    h = Harvester(target, fetch=loopback(provider))
    h.harvest(BASE_URL, "nsdl_dc")
    victim = next(
        t.subject for t in source_repo.match(TriplePattern(
            Var("?m"), Term.iri(OBJECT_TYPE), Term.iri(type_iri("Metadata"))))
    )
    oai_id = "oai:ndr.local:" + local_id(victim)
    copy = next(t.subject for t in target.match(TriplePattern(
        Var("?m"), Term.iri(SOURCE_RECORD_ID), Term.literal(oai_id))))
    resource = next(t.object.value for t in target.get_object(copy).relationships
                    if t.predicate == METADATA_FOR)
    source_repo.purge_metadata(victim)

    stats = h.harvest(BASE_URL, "nsdl_dc")
    assert (stats.deleted, stats.skipped, stats.unchanged) == (1, 1, 8)
    assert stats.failures == []
    assert not target.store.exists(copy)
    assert target.store.exists(resource)
    assert count_type(target, "Metadata") == 8
    assert target.audit() == []
    # the copy is gone, so the deleted record purges nothing the next time
    stats = h.harvest(BASE_URL, "nsdl_dc")
    assert (stats.deleted, stats.skipped, stats.unchanged) == (0, 1, 8)
    assert target.store.exists(resource)


def test_set_scoped_harvest(source, target):
    source_repo, provider = source
    some_set = sorted(
        s for r in provider.records.values() for s in r.set_specs
    )[0]
    stats = Harvester(target, fetch=loopback(provider)).harvest(
        BASE_URL, "nsdl_dc", set_spec=some_set)
    expected = len({
        r.identifier for r in provider.records.values()
        if r.format == "nsdl_dc" and some_set in r.set_specs
    })
    assert stats.records == expected > 0
    # set key ties the auto aggregation to (baseUrl, set)
    keys = [t.object.value for t in target.match(TriplePattern(
        Var("?a"), Term.iri(SOURCE_SET), Var("?k")))]
    assert keys == [f"{BASE_URL}|{some_set}"]


def test_source_agent_and_aggregation_created_once(source, target):
    _repo, provider = source
    h = Harvester(target, fetch=loopback(provider))
    h.harvest(BASE_URL, "nsdl_dc")
    h.harvest(BASE_URL, "nsdl_dc")
    agents = target.match(TriplePattern(
        Var("?a"), Term.iri(SOURCE_BASE_URL), Term.literal(BASE_URL)))
    assert len(agents) == 1
    assert count_type(target, "Aggregation") == 1


def test_provenance_recorded(source, target):
    _repo, provider = source
    Harvester(target, fetch=loopback(provider)).harvest(BASE_URL, "nsdl_dc")
    linked = target.match(TriplePattern(
        Var("?m"), Term.iri(SOURCE_RECORD_ID), Var("?id")))
    assert len(linked) == 9
    assert all(t.object.value.startswith("oai:ndr.local:") for t in linked)


def canned_fetch(pages):
    calls = []

    def fetch(url):
        calls.append(url)
        return pages[len(calls) - 1]
    return fetch


ENVELOPE = (
    '<OAI-PMH xmlns="http://www.openarchives.org/OAI/2.0/">'
    "<responseDate>2006-01-01T00:00:00Z</responseDate>"
    "<request>%s</request>%s</OAI-PMH>" % (BASE_URL, "%s")
)


def record(oai_id, body):
    return (
        "<record><header><identifier>%s</identifier>"
        "<datestamp>2006-01-01T00:00:00Z</datestamp></header>"
        "<metadata>%s</metadata></record>" % (oai_id, body)
    )


def test_record_without_http_identifier_skipped(target):
    page = ENVELOPE % (
        "<ListRecords>"
        + record("oai:x:1", "<nsdl_dc><title>no url</title></nsdl_dc>")
        + record("oai:x:2",
                 "<nsdl_dc><identifier>urn:isbn:123</identifier></nsdl_dc>")
        + record("oai:x:3",
                 "<nsdl_dc><identifier>https://ok.org/x</identifier></nsdl_dc>")
        + "</ListRecords>"
    )
    stats = Harvester(target, fetch=canned_fetch([page.encode()])).harvest(
        BASE_URL, "nsdl_dc")
    assert stats.skipped == 2 and stats.created_metadata == 1


@pytest.mark.parametrize("identifier", [
    "", "<identifier></identifier>", "<identifier> </identifier>"],
    ids=["absent", "empty", "blank"])
def test_record_without_identifier_is_a_failure(target, identifier):
    """Re-harvests find a record by its identifier, so one without is not
    ingested: two such records would be one object, one record's payload
    describing the other's resource."""
    def nameless(url):
        return ("<record><header>%s<datestamp>2006-01-01T00:00:00Z</datestamp>"
                "</header><metadata><nsdl_dc><identifier>%s</identifier>"
                "</nsdl_dc></metadata></record>" % (identifier, url))
    page = ENVELOPE % ("<ListRecords>" + nameless("http://a.org/1")
                       + nameless("http://a.org/2") + "</ListRecords>")
    stats = Harvester(target, fetch=canned_fetch([page.encode()])).harvest(
        BASE_URL, "nsdl_dc")
    assert stats.failures == ["record without identifier"] * 2
    assert stats.records == 2 and stats.created_metadata == stats.updated == 0
    assert count_type(target, "Metadata") == 0 and target.audit() == []


def test_remote_error_raises(target):
    page = ENVELOPE % '<error code="badArgument">nope</error>'
    with pytest.raises(RemoteProtocolError):
        Harvester(target, fetch=canned_fetch([page.encode()])).harvest(
            BASE_URL, "nsdl_dc")


def test_no_records_match_is_benign(target):
    page = ENVELOPE % '<error code="noRecordsMatch">empty</error>'
    stats = Harvester(target, fetch=canned_fetch([page.encode()])).harvest(
        BASE_URL, "nsdl_dc")
    assert stats.records == 0 and stats.failures == []


def test_unparseable_response_raises(target):
    with pytest.raises(RemoteProtocolError):
        Harvester(target, fetch=canned_fetch([b"<bogus"])).harvest(
            BASE_URL, "nsdl_dc")


def test_transport_failure_raises(target):
    def broken(url):
        raise OSError("connection refused")
    with pytest.raises(RemoteProtocolError):
        Harvester(target, fetch=broken).harvest(BASE_URL, "nsdl_dc")


def paging(tokens, bound=5):
    """A fetch that answers one record per page, the page's resumption token
    taken from ``tokens`` by fetch number, and fails past ``bound`` fetches."""
    calls = []

    def fetch(url):
        calls.append(url)
        assert len(calls) <= bound, "the harvest went past the fetch bound"
        return (ENVELOPE % (
            "<ListRecords>"
            + record("oai:x:1", "<nsdl_dc><identifier>http://example.org/x"
                                "</identifier></nsdl_dc>")
            + "<resumptionToken>%s</resumptionToken></ListRecords>"
            % tokens(len(calls)))).encode()
    return fetch, calls


def test_repeated_resumption_token_is_refused(target):
    fetch, calls = paging(lambda n: "same")
    with pytest.raises(RemoteProtocolError, match="token 'same' repeats"):
        Harvester(target, fetch=fetch).harvest(BASE_URL, "nsdl_dc")
    assert len(calls) == 2


def test_harvest_stops_at_the_page_cap(target, monkeypatch):
    monkeypatch.setattr(harvest, "MAX_PAGES", 3)
    fetch, calls = paging(lambda n: f"t{n}")
    with pytest.raises(RemoteProtocolError, match="more than 3 pages"):
        Harvester(target, fetch=fetch).harvest(BASE_URL, "nsdl_dc")
    assert len(calls) == 3


ONE_RECORD = (ENVELOPE % (
    "<ListRecords>"
    + record("oai:x:1", "<nsdl_dc><identifier>http://example.org/x"
                        "</identifier></nsdl_dc>")
    + "</ListRecords>")).encode()


@pytest.mark.parametrize("over", [0, 1], ids=["at-the-bound", "one-byte-over"])
def test_response_past_the_bound_is_refused(target, monkeypatch, over):
    monkeypatch.setattr(harvest, "MAX_RESPONSE_BYTES", len(ONE_RECORD) - over)
    monkeypatch.setattr(urllib.request, "urlopen",
                        lambda url, timeout: io.BytesIO(ONE_RECORD))
    harvester = Harvester(target)
    if over:
        with pytest.raises(RemoteProtocolError,
                           match=f"response over {len(ONE_RECORD) - 1} bytes"):
            harvester.harvest(BASE_URL, "nsdl_dc")
        assert count_type(target, "Metadata") == 0
    else:
        assert harvester.harvest(BASE_URL, "nsdl_dc").created_metadata == 1


def unavailable(answers):
    """A fetch that raises a 503 with each ``Retry-After`` in ``answers``
    (None: no such header), then serves ``ONE_RECORD``."""
    calls = []

    def fetch(url):
        calls.append(url)
        if len(calls) > len(answers):
            return ONE_RECORD
        wait = answers[len(calls) - 1]
        headers = {} if wait is None else {"Retry-After": wait}
        raise urllib.error.HTTPError(url, 503, "Service Unavailable", headers, None)
    return fetch, calls


@pytest.mark.parametrize("wait, slept", [("2", 2), ("3600", harvest.MAX_RETRY_WAIT)])
def test_503_with_retry_after_is_retried(target, wait, slept):
    fetch, calls = unavailable([wait, wait])
    sleeps = []
    stats = Harvester(target, fetch=fetch, sleep=sleeps.append).harvest(
        BASE_URL, "nsdl_dc")
    assert stats.created_metadata == 1 and not stats.failures
    assert sleeps == [slept, slept] and len(calls) == 3


@pytest.mark.parametrize("wait, slept", [
    ("0", 0), ("007", 7), ("9" * 5000, harvest.MAX_RETRY_WAIT),
    (" 5 ", 5), (None, None), ("-1", None), ("\u0663", None), ("1.5", None)])
def test_retry_after_reads_delta_seconds(wait, slept):
    headers = {} if wait is None else {"Retry-After": wait}
    exc = urllib.error.HTTPError("u", 503, "Service Unavailable", headers, None)
    assert harvest._retry_after(exc) == slept
    exc = urllib.error.HTTPError("u", 500, "Internal Server Error", headers, None)
    assert harvest._retry_after(exc) is None


@pytest.mark.parametrize("answers", [
    [None], ["Fri, 01 Jan 2106 00:00:00 GMT"], ["2"] * (harvest.MAX_RETRIES + 1)],
    ids=["no-retry-after", "http-date", "past-the-retry-cap"])
def test_503_that_is_not_retried_raises(target, answers):
    fetch, calls = unavailable(answers)
    sleeps = []
    with pytest.raises(RemoteProtocolError, match="ListRecords: HTTP 503"):
        Harvester(target, fetch=fetch, sleep=sleeps.append).harvest(
            BASE_URL, "nsdl_dc")
    assert len(calls) == len(answers) and sleeps == [2] * (len(answers) - 1)


def test_crash_between_provenance_commits_keeps_one_agent(source, tmp_path):
    _repo, provider = source
    clock = VirtualClock()
    repo = Repository(tmp_path / "crashy", clock=clock)
    commit = repo.store.commit_batch
    calls = []

    def crash_on_second_commit(ops):
        calls.append(ops)
        if len(calls) == 2:
            raise RuntimeError("simulated crash")
        return commit(ops)

    repo.store.commit_batch = crash_on_second_commit
    with pytest.raises(RuntimeError):
        Harvester(repo, fetch=loopback(provider)).harvest(BASE_URL, "nsdl_dc")
    repo.store.abandon()

    repo = Repository(tmp_path / "crashy", clock=clock)
    try:
        stats = Harvester(repo, fetch=loopback(provider)).harvest(
            BASE_URL, "nsdl_dc")
        assert stats.created_metadata == 9
        assert count_type(repo, "Agent") == 1
        assert repo.audit() == []
    finally:
        repo.close()


def creates_metadata(ops):
    return any(op.kind == "create" and "Metadata" in op.draft.types
               for op in ops)


def test_harvest_commits_once_per_record(source, target):
    _repo, provider = source
    commit = target.store.commit_batch
    calls = []

    def counting(ops):
        calls.append(ops)
        return commit(ops)

    target.store.commit_batch = counting
    stats = Harvester(target, fetch=loopback(provider)).harvest(
        BASE_URL, "nsdl_dc")
    assert stats.created_metadata == stats.created_resources == 9
    # the source agent, the source aggregation, then one per record
    assert len(calls) == 11
    assert sum(map(creates_metadata, calls)) == 9


def test_crash_mid_harvest_leaves_whole_records(source, tmp_path):
    _repo, provider = source
    clock = VirtualClock()
    repo = Repository(tmp_path / "crashy", clock=clock)
    commit = repo.store.commit_batch
    records = []

    def crash_on_fifth_record(ops):
        if creates_metadata(ops):
            records.append(ops)
            if len(records) == 5:
                raise RuntimeError("simulated crash")
        return commit(ops)

    repo.store.commit_batch = crash_on_fifth_record
    with pytest.raises(RuntimeError):
        Harvester(repo, fetch=loopback(provider)).harvest(BASE_URL, "nsdl_dc")
    repo.store.abandon()

    repo = Repository(tmp_path / "crashy", clock=clock)
    try:
        proxy = repo.find_resource_by_url(BASE_URL)
        described = {t.object.value for t in repo.match(TriplePattern(
            Var("?m"), Term.iri(METADATA_FOR), Var("?r")))
            if repo.store.exists(t.subject)}
        resources = {t.subject for t in repo.match(TriplePattern(
            Var("?s"), Term.iri(OBJECT_TYPE), Term.iri(type_iri("Resource"))))}
        assert len(described) == 4
        assert resources - {proxy} == described
        stats = Harvester(repo, fetch=loopback(provider)).harvest(
            BASE_URL, "nsdl_dc")
        assert (stats.created_metadata, stats.unchanged) == (5, 4)
        assert count_type(repo, "Metadata") == 9
        assert count_type(repo, "Resource") == 10
        assert repo.audit() == []
    finally:
        repo.close()


def test_injected_fetch_is_bounded_too(target, monkeypatch):
    """The response bound holds for any fetch, not only the HTTP one: a
    well-formed page padded past it is refused."""
    monkeypatch.setattr(harvest, "MAX_RESPONSE_BYTES", len(ONE_RECORD))
    padded = ONE_RECORD + b" "
    with pytest.raises(RemoteProtocolError,
                       match=f"response over {len(ONE_RECORD)} bytes"):
        Harvester(target, fetch=canned_fetch([padded])).harvest(
            BASE_URL, "nsdl_dc")
    assert count_type(target, "Metadata") == 0


# ---------------------------------------------------- a seeded hostile provider

HOSTILE_SEEDS = 200
HOSTILE_BOUND = 1 << 14  # MAX_RESPONSE_BYTES while the hostile provider runs
TOKEN = re.compile(rb"(<resumptionToken[^>]*>)[^<]+(</resumptionToken>)")


def _drop(pattern, keep=b""):
    """A break that removes one match of ``pattern``, chosen at random,
    leaving the expansion of ``keep``."""
    def drop(data, rng, followed):
        found = list(re.finditer(pattern, data, re.S))
        if not found:
            return data
        m = rng.choice(found)
        return data[:m.start()] + m.expand(keep) + data[m.end():]
    return drop


def _loop_token(data, rng, followed):
    """The page's token made one the harvest has followed: the last one (a
    loop) or an earlier one (a cycle)."""
    if not followed:
        return data
    return TOKEN.sub(lambda m: m[1] + rng.choice(followed).encode() + m[2], data)


def _error(codes):
    def error(data, rng, followed):
        head, _, _ = data.partition(b"</request>")
        code = rng.choice(codes).encode()
        return head + b'</request><error code="' + code + b'">x</error></OAI-PMH>'
    return error


def _unavailable(retry_after):
    def unavailable(data, rng, followed):
        headers = {"Retry-After": str(rng.randrange(5))} if retry_after else {}
        raise urllib.error.HTTPError(BASE_URL, 503, "Service Unavailable",
                                     headers, None)
    return unavailable


# each way the hostile provider breaks a response, and whether a harvest
# that meets it must end in RemoteProtocolError
BREAKS = {
    "cut": (lambda data, rng, followed: data[:rng.randrange(len(data))], True),
    "loop-token": (_loop_token, True),
    "not-xml": (lambda data, rng, followed: rng.choice(
        [b"", b"Service Unavailable", b"<OAI-PMH", b"\xff\xfe\x00"]), True),
    "error": (_error(["badArgument", "badResumptionToken", "badVerb",
                      "cannotDisseminateFormat", "idDoesNotExist"]), True),
    "past-bound": (lambda data, rng, followed:
                   data + b" " * (HOSTILE_BOUND + 1 - len(data)), True),
    "503": (_unavailable(retry_after=False), True),
    "503-retry-after": (_unavailable(retry_after=True), False),
    "no-records-match": (_error(["noRecordsMatch"]), False),
    "drop-header": (_drop(rb"<header[ >].*?</header>"), False),
    "drop-identifier": (_drop(rb"(<header[^>]*>)<identifier>[^<]*</identifier>",
                              rb"\1"), False),
    "drop-metadata": (_drop(rb"<(?:oai:)?metadata[ >].*?</(?:oai:)?metadata>"),
                      False),
}


def hostile(provider, rng, applied):
    """A fetch that answers from ``provider`` and breaks about half of its
    answers, each in one way from ``BREAKS`` chosen by ``rng``; the name of
    each break that changed an answer is appended to ``applied``. It answers
    503 with a Retry-After at most ``MAX_RETRIES`` times, so those are
    always retried, and fails past a bound on fetches."""
    followed = []
    calls = []

    def fetch(url):
        calls.append(url)
        assert len(calls) <= 20, "the harvest went past the fetch bound"
        query, repeated = service._arguments(urllib.parse.urlsplit(url).query)
        if "resumptionToken" in query:
            followed.append(query["resumptionToken"])
        data = provider.handle_request(query, repeated)
        assert len(data) <= HOSTILE_BOUND
        name = rng.choice(list(BREAKS)) if rng.random() < 0.5 else None
        if name == "503-retry-after" and applied.count(name) == harvest.MAX_RETRIES:
            name = None
        if name is None:
            return data
        if name.startswith("503"):  # its break raises
            applied.append(name)
        broken = BREAKS[name][0](data, rng, followed)
        if broken != data:
            applied.append(name)
        return broken
    return fetch


def harvested_payloads(repo):
    """The payload of each live harvested metadata object, by source record."""
    out = {}
    for obj in repo.store.objects():
        if "Metadata" in obj.types:
            source_id = next(t.object.value for t in obj.relationships
                             if t.predicate == SOURCE_RECORD_ID)
            out[source_id] = obj.datastream("format_nsdl_dc").content
    return out


def type_counts(repo):
    return Counter(t for obj in repo.store.objects() for t in obj.types)


def test_seeded_hostile_provider(source, tmp_path, monkeypatch):
    """Harvests from a provider that breaks its answers at random end in
    ``RemoteProtocolError`` exactly when a break calls for it, else list a
    failure per record without a header or an identifier, and raise nothing
    else. The target stays consistent throughout, and a clean harvest then
    leaves what a clean harvest from scratch leaves."""
    source_repo, provider = source
    source_repo.purge_metadata(min(o.id for o in source_repo.store.objects()
                                   if "Metadata" in o.types))
    provider.page_size = 2  # several pages, so tokens can loop
    monkeypatch.setattr(harvest, "MAX_RESPONSE_BYTES", HOSTILE_BOUND)
    target = Repository(tmp_path / "hostile", clock=VirtualClock(), durable=False)
    seen, sleeps, refused = Counter(), [], 0
    try:
        for seed in range(HOSTILE_SEEDS):
            applied = []
            fetch = hostile(provider, random.Random(seed), applied)
            harvester = Harvester(target, fetch=fetch, sleep=sleeps.append)
            try:
                stats = harvester.harvest(BASE_URL, "nsdl_dc")
            except RemoteProtocolError:
                assert any(BREAKS[name][1] for name in applied), (seed, applied)
                refused += 1
            else:
                assert not any(BREAKS[name][1] for name in applied), (seed, applied)
                lost = {"drop-header": "record without header",
                        "drop-identifier": "record without identifier"}
                assert sorted(stats.failures) == sorted(
                    lost[name] for name in applied if name in lost), seed
            seen.update(applied)
            assert target.audit() == [], seed
            expected = {t for obj in target.store.objects()
                        for t in extract_triples(obj)}
            assert target.index.triple_set() == expected, seed
            assert target.index.size() == len(expected), seed
        assert set(seen) == set(BREAKS) and 0 < refused < HOSTILE_SEEDS
        assert all(0 <= s <= harvest.MAX_RETRY_WAIT for s in sleeps)

        clean = Harvester(target, fetch=loopback(provider)).harvest(
            BASE_URL, "nsdl_dc")
        assert clean.failures == []
        fresh = Repository(tmp_path / "fresh", clock=VirtualClock(), durable=False)
        try:
            Harvester(fresh, fetch=loopback(provider)).harvest(BASE_URL, "nsdl_dc")
            assert harvested_payloads(target) == harvested_payloads(fresh)
            assert len(harvested_payloads(fresh)) == 8
            assert type_counts(target) == type_counts(fresh)
        finally:
            fresh.close()
        again = Harvester(target, fetch=loopback(provider)).harvest(
            BASE_URL, "nsdl_dc")
        assert again.unchanged == 8 and again.failures == []
    finally:
        target.close()
