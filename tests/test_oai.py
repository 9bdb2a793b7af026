import base64
import json
import random
import re
import sys
import threading
from datetime import timedelta

import pytest
from xml.etree import ElementTree as ET

from ino import oai
from ino.api import MetadataSpec, Repository, ResourceSpec
from ino.errors import BadResumptionToken, EventOutOfOrder
from ino.model import (Datastream, Term, VirtualClock, format_ts, local_id,
                       parse_ts)
from ino.ontology import OntologyRegistry
from ino.oai import OaiProvider, decode_token, encode_token
from oai_reference import assert_same_tree, render


def parse(xml_bytes):
    """Parse an OAI response, stripping namespaces for terse assertions."""
    root = ET.fromstring(xml_bytes)
    for el in root.iter():
        el.tag = el.tag.rsplit("}", 1)[-1]
    return root


def doc(title):
    return f"<nsdl_dc><title>{title}</title></nsdl_dc>".encode()


@pytest.fixture
def setup(repo):
    agent = repo.add_agent("prov", "Organization")
    agg = repo.create_aggregation(
        agent, ResourceSpec(content_url="http://example.org/coll")
    )
    mids = []
    for i in range(5):
        r = repo.add_resource(ResourceSpec(
            content_url=f"http://example.org/r{i}",
        ))
        mids.append(repo.add_metadata(MetadataSpec(
            target=r, format_id="nsdl_dc", payload=doc(f"t{i}"), provider=agent,
            initial_aggregations=frozenset({agg}) if i < 3 else frozenset(),
        )))
    provider = OaiProvider(repo, page_size=2)
    provider.rebuild_cache()
    return repo, provider, agg, mids


def oracle_identifiers(repo, fmt, set_spec=None, from_ts=None, until_ts=None):
    """Direct scan of the store, independent of the provider's cache."""
    out = []
    for obj in repo.store.objects():
        if "Metadata" not in obj.types:
            continue
        if fmt not in repo.list_formats(obj.id):
            continue
        sets = {local_id(t.object.value) for t in obj.relationships
                if t.predicate.endswith("memberOf")}
        if set_spec is not None and set_spec not in sets:
            continue
        if from_ts is not None and obj.modified < from_ts:
            continue
        if until_ts is not None and obj.modified > until_ts:
            continue
        out.append("oai:ndr.local:" + local_id(obj.id))
    return sorted(out)


def harvest_identifiers(provider, verb="ListIdentifiers", token=None, **args):
    """The identifiers of a whole list, or of its rest after ``token``."""
    params = ({"verb": verb, "resumptionToken": token} if token else
              {"verb": verb, "metadataPrefix": "oai_dc", **args})
    ids = []
    while True:
        root = parse(provider.handle_request(params))
        err = root.find("error")
        if err is not None:
            assert err.get("code") == "noRecordsMatch", ET.tostring(root)
            return []
        ids += [h.findtext("identifier")
                for h in root.find(verb).iter("header")]
        token = root.find(verb).findtext("resumptionToken")
        if not token:
            return ids
        params = {"verb": verb, "resumptionToken": token}


# -------------------------------------------------------------------- tokens

def test_token_roundtrip():
    after = (parse_ts("2006-01-01T00:00:07Z"), "oai:ndr.local:m9")
    for args in [("oai_dc", None, None, None, after),
                 ("nsdl_dc", "a1", "2006-01-01", "2006-01-02", after),
                 ("oai_dc", None, "2006-01-01T00:00:00Z", None, after)]:
        assert decode_token(encode_token(*args)) == args


def test_token_errors():
    def b64(fields) -> str:
        return base64.urlsafe_b64encode(json.dumps(fields).encode()).decode()

    stamp = "2006-01-01T00:00:00Z"
    for token in [
        "!!not-base64!!",
        base64.urlsafe_b64encode(b"\xff\xfe").decode(),
        b64("not a list"),
        b64({"v": "v2"}),  # JSON of the wrong shape
        b64(["v2", "oai_dc"]),
        b64(["v1", "oai_dc", None, None, None, stamp, "x"]),
        b64(["v2", "oai_dc", None, None, None, stamp, 5]),
        b64(["v2", "oai_dc", 3, None, None, stamp, "x"]),
        b64(["v2", "oai_dc", None, None, None, "yesterday", "x"]),
    ]:
        with pytest.raises(BadResumptionToken):
            decode_token(token)


# --------------------------------------------------------------- cache build

def test_rebuild_counts(setup):
    repo, provider, _agg, mids = setup
    # 5 metadata objects x {nsdl_dc, oai_dc}
    assert len(provider.records) == 10
    stats = provider.rebuild_cache()
    assert stats.records == 10


def test_set_specs_from_membership(setup):
    repo, provider, agg, mids = setup
    spec = local_id(agg)
    in_set = {r.identifier for r in provider.records.values()
              if spec in r.set_specs}
    assert len(in_set) == 3


def test_incremental_equals_batch(setup):
    repo, provider, agg, mids = setup
    agent = repo.add_agent("other", "Person")
    r = repo.add_resource(ResourceSpec(content_url="http://example.org/new"))
    m = repo.add_metadata(MetadataSpec(
        target=r, format_id="nsdl_dc", payload=doc("new"), provider=agent,
    ))
    repo.update_metadata_payload(mids[0], "nsdl_dc", doc("edited"))
    repo.purge_metadata(mids[1])
    provider.catch_up()

    fresh = OaiProvider(repo, page_size=2)
    fresh.rebuild_cache()
    # the fresh rebuild reads the purged object's tombstone
    assert fresh.records == provider.records
    deleted = [k for k, v in provider.records.items() if v.deleted]
    assert sorted(deleted) == sorted(
        [("oai:ndr.local:" + local_id(mids[1]), f) for f in ("nsdl_dc", "oai_dc")]
    )


def test_rebuild_carries_deleted_forward(setup):
    repo, provider, _agg, mids = setup
    repo.purge_metadata(mids[1])
    provider.catch_up()
    provider.rebuild_cache()
    deleted = [r for r in provider.records.values() if r.deleted]
    assert {r.identifier for r in deleted} == {"oai:ndr.local:" + local_id(mids[1])}


def test_catch_up_over_purges_in_one_backlog(setup):
    """Objects created or modified, then purged, before catch_up runs, get
    deleted records dated at their purge, as a rebuild gives them."""
    repo, provider, _agg, mids = setup
    agent = repo.add_agent("other", "Person")
    r = repo.add_resource(ResourceSpec(content_url="http://example.org/brief"))
    brief = repo.add_metadata(MetadataSpec(
        target=r, format_id="nsdl_dc", payload=doc("brief"), provider=agent,
    ))
    repo.update_metadata_payload(mids[0], "nsdl_dc", doc("edited"))
    repo.purge_metadata(brief)
    repo.purge_metadata(mids[0])
    provider.catch_up()
    assert provider.last_applied_seq == repo.store.current_seq
    purges = [(e.object_id, e.timestamp) for e in repo.changes_since(0)[-2:]]
    touched = {k: (v.deleted, v.datestamp) for k, v in provider.records.items()
               if v.source_object in (brief, mids[0])}
    assert touched == {("oai:ndr.local:" + local_id(m), f): (True, at)
                       for m, at in purges for f in ("nsdl_dc", "oai_dc")}
    fresh = OaiProvider(repo, page_size=2)
    fresh.rebuild_cache()
    assert fresh.records == provider.records


def test_rebuild_marks_unapplied_purge_deleted(setup):
    repo, provider, _agg, mids = setup
    repo.purge_metadata(mids[1])
    provider.rebuild_cache()
    purged_at = repo.changes_since(0)[-1].timestamp
    ident = "oai:ndr.local:" + local_id(mids[1])
    for fmt in ("nsdl_dc", "oai_dc"):
        rec = provider.records[(ident, fmt)]
        assert rec.deleted and rec.datestamp == purged_at


def listed(provider):
    """Each format's records in list order."""
    return {f: list(seq.walk(0, len(seq)))
            for f, seq in provider.sequences.items() if seq}


def churn_batch(repo, rng, batch, live, aggs, agent):
    """One seeded batch of creates, updates, set changes and purges of the
    metadata objects in ``live``."""
    for op in range(rng.randint(1, 5)):
        roll = rng.random()
        if roll < 0.35 or not live:
            r = repo.add_resource(ResourceSpec(
                content_url=f"http://example.org/c{batch}-{op}"))
            live.append(repo.add_metadata(MetadataSpec(
                target=r, format_id="nsdl_dc", payload=doc(f"c{batch}"),
                provider=agent, initial_aggregations=frozenset(
                    rng.sample(aggs, rng.randint(0, 2))),
            )))
        elif roll < 0.6:
            repo.update_metadata_payload(rng.choice(live), "nsdl_dc",
                                         doc(f"u{batch}-{op}"))
        elif roll < 0.8:
            repo.set_aggregation_membership(rng.choice(aggs), set(
                rng.sample(live, rng.randint(0, min(4, len(live))))))
        else:
            repo.purge_metadata(live.pop(rng.randrange(len(live))))


@pytest.mark.parametrize("seed", range(3))
def test_catch_up_equals_rebuild_under_churn(setup, seed):
    """After each seeded batch of writes, catch_up and a rebuild on a fresh
    provider agree, deleted records included, in records and list order."""
    repo, provider, agg, mids = setup
    rng = random.Random(seed)
    agent = repo.add_agent("churn", "Person")
    aggs = [agg, repo.create_aggregation(
        agent, ResourceSpec(content_url="http://example.org/churn"))]
    live = list(mids)
    for batch in range(12):
        churn_batch(repo, rng, batch, live, aggs, agent)
        provider.catch_up()
        twin = OaiProvider(repo, page_size=2)
        twin.rebuild_cache()
        assert twin.records == provider.records, (seed, batch)
        assert listed(twin) == listed(provider), (seed, batch)
        assert twin.last_applied_seq == provider.last_applied_seq
    assert any(r.deleted for r in provider.records.values())


def test_rebuild_after_a_crash_keeps_deleted_records(tmp_path):
    """Deleted records come from the tombstones, so a store reopened after a
    crash rebuilds the cache it had caught up to, with no saved cache."""
    clock = VirtualClock()
    repo = Repository(tmp_path / "d", clock=clock)
    rng = random.Random(5)
    agent = repo.add_agent("churn", "Person")
    aggs = [repo.create_aggregation(agent, ResourceSpec(
        content_url=f"http://example.org/agg{i}")) for i in range(2)]
    live = []
    provider = OaiProvider(repo)
    for batch in range(8):
        churn_batch(repo, rng, batch, live, aggs, agent)
    provider.catch_up()
    assert any(r.deleted for r in provider.records.values())
    repo.store.abandon()

    repo = Repository(tmp_path / "d", clock=clock)
    try:
        fresh = OaiProvider(repo)
        fresh.rebuild_cache()
        assert fresh.records == provider.records
        assert listed(fresh) == listed(provider)
    finally:
        repo.close()


def test_purged_resource_or_agent_has_no_records(setup):
    repo, provider, _agg, _mids = setup
    agent = repo.add_agent("gone", "Person")
    resource = repo.add_resource(ResourceSpec(
        content_url="http://example.org/gone"))
    repo.purge_resource(resource)
    repo.store.purge(agent)  # the API purges no agents
    provider.catch_up()
    fresh = OaiProvider(repo, page_size=2)
    fresh.rebuild_cache()
    assert repo.store.latest(resource).types == ("Resource",)
    for p in (provider, fresh):
        assert len(p.records) == 10
        assert not {resource, agent} & {r.source_object for r in p.records.values()}


def test_apply_event_requires_order(setup):
    repo, provider, _agg, mids = setup
    repo.store.modify(mids[0])
    events = repo.changes_since(provider.last_applied_seq)
    with pytest.raises(EventOutOfOrder):
        provider.apply_event(events[-1].__class__(
            seq=events[-1].seq + 5, kind=events[-1].kind,
            object_id=events[-1].object_id, timestamp=events[-1].timestamp,
        ))


def test_save_load_cache(setup, tmp_path):
    repo, provider, _agg, mids = setup
    repo.purge_metadata(mids[0])
    provider.catch_up()
    path = tmp_path / "cache.json"
    provider.save_cache(path)
    restored = OaiProvider(repo, page_size=2)
    restored.load_cache(path)
    assert restored.records == provider.records
    assert restored.last_applied_seq == provider.last_applied_seq
    assert restored.catch_up() == 0


# ---------------------------------------------------------------------- verbs

def test_identify(setup):
    _repo, provider, _agg, _mids = setup
    root = parse(provider.handle_request({"verb": "Identify"}))
    body = root.find("Identify")
    assert body.findtext("protocolVersion") == "2.0"
    assert body.findtext("deletedRecord") == "persistent"
    assert body.findtext("granularity") == "YYYY-MM-DDThh:mm:ssZ"
    earliest = min(r.datestamp for r in provider.records.values())
    assert body.findtext("earliestDatestamp") == format_ts(earliest)


def test_list_metadata_formats(setup):
    _repo, provider, _agg, mids = setup
    root = parse(provider.handle_request({"verb": "ListMetadataFormats"}))
    prefixes = [el.findtext("metadataPrefix")
                for el in root.find("ListMetadataFormats")]
    assert prefixes == ["nsdl_dc", "oai_dc"]
    ident = "oai:ndr.local:" + local_id(mids[0])
    root = parse(provider.handle_request(
        {"verb": "ListMetadataFormats", "identifier": ident}))
    assert root.find("error") is None
    root = parse(provider.handle_request(
        {"verb": "ListMetadataFormats", "identifier": "oai:ndr.local:ghost"}))
    assert root.find("error").get("code") == "idDoesNotExist"


def test_list_sets(setup):
    _repo, provider, agg, _mids = setup
    root = parse(provider.handle_request({"verb": "ListSets"}))
    sets = root.find("ListSets").findall("set")
    assert [s.findtext("setSpec") for s in sets] == [local_id(agg)]
    assert sets[0].findtext("setName") == "http://example.org/coll"


def test_list_sets_names_a_set_by_its_represented_by_proxy_only(tmp_path, vclock):
    """An extension predicate named representedBy in another namespace does
    not rename the set."""
    also = "http://example.org/terms#representedBy"
    repo = Repository(tmp_path / "d", clock=vclock, ontology=OntologyRegistry.load(
        f"predicate <{also}> domain Aggregation range Resource card 0..*"))
    try:
        agent = repo.add_agent("prov", "Organization")
        other = repo.add_resource(ResourceSpec(content_url="http://example.org/b"))
        agg = repo.create_aggregation(
            agent, ResourceSpec(content_url="http://example.org/coll"),
            extra_relationships=[(also, Term.iri(other))])
        sets = parse(OaiProvider(repo).handle_request({"verb": "ListSets"}))
        assert [(s.findtext("setSpec"), s.findtext("setName"))
                for s in sets.iter("set")] == [(local_id(agg),
                                                "http://example.org/coll")]
    finally:
        repo.close()


def test_get_record(setup):
    _repo, provider, agg, mids = setup
    ident = "oai:ndr.local:" + local_id(mids[0])
    root = parse(provider.handle_request({
        "verb": "GetRecord", "identifier": ident, "metadataPrefix": "oai_dc",
    }))
    record = root.find("GetRecord/record")
    assert record.findtext("header/identifier") == ident
    assert record.findtext("header/setSpec") == local_id(agg)
    assert record.findtext("metadata/dc/title") == "t0"

    root = parse(provider.handle_request({
        "verb": "GetRecord", "identifier": ident, "metadataPrefix": "marc",
    }))
    assert root.find("error").get("code") == "cannotDisseminateFormat"
    root = parse(provider.handle_request({
        "verb": "GetRecord", "identifier": "oai:ndr.local:ghost",
        "metadataPrefix": "oai_dc",
    }))
    assert root.find("error").get("code") == "idDoesNotExist"


def test_list_identifiers_pages_match_oracle(setup):
    repo, provider, _agg, _mids = setup
    assert sorted(harvest_identifiers(provider)) == \
        oracle_identifiers(repo, "oai_dc")


def test_list_identifiers_set_filter(setup):
    repo, provider, agg, _mids = setup
    spec = local_id(agg)
    assert sorted(harvest_identifiers(provider, set=spec)) == \
        oracle_identifiers(repo, "oai_dc", set_spec=spec)
    assert harvest_identifiers(provider, set="no-such-set") == []


def test_list_identifiers_date_window(setup):
    repo, provider, _agg, _mids = setup
    stamps = sorted(r.datestamp for r in provider.records.values())
    lo, hi = stamps[2], stamps[-2]
    got = harvest_identifiers(provider, **{
        "from": format_ts(lo), "until": format_ts(hi),
    })
    assert sorted(got) == oracle_identifiers(
        repo, "oai_dc", from_ts=lo, until_ts=hi)
    # day granularity: a day `until` covers the whole day
    day = lo.replace(hour=0, minute=0, second=0)
    got = harvest_identifiers(provider, **{
        "from": format_ts(day)[:10], "until": format_ts(hi)[:10],
    })
    assert sorted(got) == oracle_identifiers(
        repo, "oai_dc", from_ts=day,
        until_ts=hi.replace(hour=23, minute=59, second=59)) != []
    assert harvest_identifiers(provider, **{
        "until": format_ts(day - timedelta(days=1))[:10]}) == []


def test_list_records_carries_metadata(setup):
    _repo, provider, _agg, _mids = setup
    root = parse(provider.handle_request(
        {"verb": "ListRecords", "metadataPrefix": "oai_dc"}))
    records = root.find("ListRecords").findall("record")
    assert len(records) == 2  # page_size
    assert all(r.find("metadata/dc") is not None for r in records)
    token = root.find("ListRecords").findtext("resumptionToken")
    assert token
    size = root.find("ListRecords/resumptionToken").get("completeListSize")
    assert size == "5"


def test_final_page_has_empty_token(setup):
    _repo, provider, _agg, _mids = setup
    params = {"verb": "ListRecords", "metadataPrefix": "oai_dc"}
    pages = 0
    while True:
        root = parse(provider.handle_request(params))
        pages += 1
        el = root.find("ListRecords/resumptionToken")
        if el is None or not (el.text or ""):
            break
        params = {"verb": "ListRecords", "resumptionToken": el.text}
    assert pages == 3  # 2 + 2 + 1
    # final page: token element present but empty, because a token was used
    assert el is not None and not (el.text or "")


def test_deleted_record_in_output(setup):
    repo, provider, _agg, mids = setup
    repo.purge_metadata(mids[0])
    provider.catch_up()
    ident = "oai:ndr.local:" + local_id(mids[0])
    root = parse(provider.handle_request({
        "verb": "GetRecord", "identifier": ident, "metadataPrefix": "oai_dc",
    }))
    record = root.find("GetRecord/record")
    assert record.find("header").get("status") == "deleted"
    assert record.find("metadata") is None


def test_token_survives_rebuild(setup):
    repo, provider, _agg, _mids = setup
    root = parse(provider.handle_request(
        {"verb": "ListIdentifiers", "metadataPrefix": "oai_dc"}))
    ids = [h.findtext("identifier") for h in root.iter("header")]
    token = root.find("ListIdentifiers").findtext("resumptionToken")
    provider.rebuild_cache()
    ids += harvest_identifiers(provider, token=token)
    assert sorted(ids) == oracle_identifiers(repo, "oai_dc")


def test_update_mid_harvest_loses_no_record(setup):
    repo, provider, _agg, mids = setup
    root = parse(provider.handle_request(
        {"verb": "ListIdentifiers", "metadataPrefix": "oai_dc"}))
    ids = [h.findtext("identifier") for h in root.iter("header")]
    token = root.find("ListIdentifiers").findtext("resumptionToken")
    sent = next(m for m in mids if "oai:ndr.local:" + local_id(m) == ids[0])
    repo.update_metadata_payload(sent, "nsdl_dc", doc("edited"))
    provider.catch_up()
    ids += harvest_identifiers(provider, token=token)
    # the updated record moved past the cursor, so it comes again at the end
    assert ids[-1] == ids[0]
    assert sorted(set(ids)) == oracle_identifiers(repo, "oai_dc")


def test_lists_read_while_catch_up_writes(setup):
    """A reader pages lists while the cache is republished under it."""
    repo, provider, _agg, _mids = setup
    agent = repo.add_agent("writer", "Person")
    provider.catch_up()
    started, done, failures = threading.Event(), threading.Event(), []

    def read():
        try:
            while not done.is_set():
                provider.handle_request({"verb": "Identify"})
                harvest_identifiers(provider)
                started.set()
        except Exception as exc:  # reported by the main thread
            failures.append(exc)
            started.set()

    reader = threading.Thread(target=read)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        reader.start()
        assert started.wait(timeout=30)
        for i in range(150):
            r = repo.add_resource(ResourceSpec(
                content_url=f"http://example.org/w{i}"))
            repo.add_metadata(MetadataSpec(
                target=r, format_id="nsdl_dc", payload=doc(f"w{i}"),
                provider=agent))
            provider.catch_up()
    finally:
        done.set()
        sys.setswitchinterval(interval)
        reader.join(timeout=30)
    assert not reader.is_alive()
    assert failures == []
    assert sorted(harvest_identifiers(provider)) == \
        oracle_identifiers(repo, "oai_dc")


def test_concurrent_catch_ups_lose_no_write(setup):
    """Writers that each catch up after their own write, as the HTTP
    handlers do, all find their record in the published cache."""
    repo, provider, _agg, _mids = setup
    agent = repo.add_agent("writers", "Person")
    failures = []

    def write(w):
        try:
            for i in range(25):
                r = repo.add_resource(ResourceSpec(
                    content_url=f"http://example.org/t{w}-{i}"))
                m = repo.add_metadata(MetadataSpec(
                    target=r, format_id="nsdl_dc", payload=doc(f"t{w}-{i}"),
                    provider=agent))
                provider.catch_up()
                if ("oai:ndr.local:" + local_id(m), "oai_dc") not in provider.records:
                    failures.append(m)
        except Exception as exc:  # reported by the main thread
            failures.append(exc)

    writers = [threading.Thread(target=write, args=(w,)) for w in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in writers:
            t.start()
        for t in writers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in writers)
    assert failures == []
    assert provider.last_applied_seq == repo.store.current_seq
    assert sorted(harvest_identifiers(provider)) == \
        oracle_identifiers(repo, "oai_dc")


def test_protocol_errors(setup):
    _repo, provider, _agg, _mids = setup
    bad_window = encode_token("oai_dc", None, "notadate", None,
                              (parse_ts("2006-01-01T00:00:00Z"), "x"))
    cases = [
        ({"verb": "Frobnicate"}, "badVerb"),
        ({}, "badVerb"),
        ({"verb": "ListRecords"}, "badArgument"),
        ({"verb": "ListRecords", "metadataPrefix": "oai_dc",
          "resumptionToken": "x"}, "badArgument"),
        ({"verb": "Identify", "metadataPrefix": "oai_dc"}, "badArgument"),
        ({"verb": "ListRecords", "metadataPrefix": "oai_dc",
          "from": "notadate"}, "badArgument"),
        ({"verb": "ListRecords", "metadataPrefix": "marc"},
         "cannotDisseminateFormat"),
        ({"verb": "ListRecords", "resumptionToken": "garbage"},
         "badResumptionToken"),
        ({"verb": "ListRecords", "resumptionToken": bad_window},
         "badResumptionToken"),
        ({"verb": "ListSets", "resumptionToken": "junk"}, "badResumptionToken"),
        ({"verb": "ListIdentifiers", "metadataPrefix": "oai_dc",
          "from": "2006-01-01", "until": "2006-01-02T00:00:00Z"}, "badArgument"),
    ]
    for params, code in cases:
        root = parse(provider.handle_request(params))
        assert root.find("error").get("code") == code, (params, code)


def test_bad_argument_response_omits_request_attrs(setup):
    _repo, provider, _agg, _mids = setup
    raw = provider.handle_request({"verb": "ListRecords"})
    request = parse(raw).find("request")
    assert request.attrib == {}
    assert re.search(rb"<responseDate>\d{4}-", raw)


@pytest.mark.parametrize("params", [
    {"verb": "GetRecord", "identifier": "x\x01y", "metadataPrefix": "oai_dc"},
    {"verb": "ListRecords", "metadataPrefix": "x\x01"},
    {"verb": "ListIdentifiers", "metadataPrefix": "oai_dc", "set": "s\ufffe"},
    {"verb": "Identify", "x\x1f": "1"},
    {"verb": "Ident\uffffify"},
])
def test_argument_with_a_character_xml_forbids_is_bad_argument(setup, params):
    """The response parses: it echoes no argument and quotes no value."""
    _repo, provider, _agg, _mids = setup
    root = parse(provider.handle_request(params))
    assert root.find("error").get("code") == "badArgument"
    assert root.find("request").attrib == {}
    assert not {"\x01", "\x1f", "\ufffe", "\uffff"} & set(root.find("error").text)


@pytest.mark.parametrize("payload, tag, child", [
    (doc("plain"), "nsdl_dc", "title"),
    (b'<?xml version="1.0"?>\n' + doc("declared"), "nsdl_dc", "title"),
    (b'<!-- c --><n:nsdl_dc xmlns:n="urn:n"><title>T</title></n:nsdl_dc>',
     "{urn:n}nsdl_dc", "title"),
    (b'<nsdl_dc xmlns="urn:d"><title>T</title></nsdl_dc>',
     "{urn:d}nsdl_dc", "{urn:d}title"),
])
def test_payload_keeps_its_namespaces(setup, payload, tag, child):
    """An element the payload leaves unqualified is in no namespace in the
    response, not in the OAI namespace around it."""
    repo, provider, _agg, mids = setup
    provider.page_size = 10  # one page holds every record
    repo.update_metadata_payload(mids[0], "nsdl_dc", payload)
    provider.catch_up()
    ident = "oai:ndr.local:" + local_id(mids[0])
    for params in ({"verb": "GetRecord", "identifier": ident,
                    "metadataPrefix": "nsdl_dc"},
                   {"verb": "ListRecords", "metadataPrefix": "nsdl_dc"}):
        roots = [m[0] for m in ET.fromstring(provider.handle_request(
            params)).iter(f"{{{oai.OAI_NS}}}metadata")]
        # the updated record is the newest, so it comes last
        assert (roots[-1].tag, roots[-1][0].tag) == (tag, child)
        assert {r.tag for r in roots[:-1]} <= {"nsdl_dc"}


# ------------------------------------------ writer against the ElementTree oracle

def list_requests(provider, params):
    """Every request of a whole list, following its tokens."""
    out = []
    while params is not None:
        out.append(params)
        token = parse(provider.handle_request(params)).findtext(
            f"{params['verb']}/resumptionToken")
        params = ({"verb": params["verb"], "resumptionToken": token}
                  if token else None)
    return out


def assert_renders_as_reference(provider, params, error=None):
    """The response to ``params`` has the reference's tree; ``error`` is the
    (code, message) it should answer, ``None`` for a response without one."""
    body = provider.handle_request(params)
    assert parse(body).find("error") is None or error, (params, body)
    assert_same_tree(body, render(provider, params, error))


def test_writer_matches_elementtree_reference(setup):
    repo, provider, agg, mids = setup
    repo.purge_metadata(mids[1])
    provider.catch_up()
    deleted = "oai:ndr.local:" + local_id(mids[1])
    ident = "oai:ndr.local:" + local_id(mids[0])
    stamps = sorted(r.datestamp for r in provider.records.values())
    odd = 'x" < & \n \t y'
    requests = [
        {"verb": "Identify"},
        {"verb": "ListMetadataFormats"},
        {"verb": "ListMetadataFormats", "identifier": ident},
        {"verb": "ListSets"},
        {"verb": "GetRecord", "identifier": ident, "metadataPrefix": "oai_dc"},
        {"verb": "GetRecord", "identifier": ident, "metadataPrefix": "nsdl_dc"},
        {"verb": "GetRecord", "identifier": deleted, "metadataPrefix": "oai_dc"},
    ]
    for fmt in ("oai_dc", "nsdl_dc"):
        requests += list_requests(
            provider, {"verb": "ListRecords", "metadataPrefix": fmt})
    requests += list_requests(provider, {
        "verb": "ListIdentifiers", "metadataPrefix": "nsdl_dc",
        "set": local_id(agg)})
    requests += list_requests(provider, {
        "verb": "ListRecords", "metadataPrefix": "oai_dc",
        "from": format_ts(stamps[2]), "until": format_ts(stamps[-2])})
    for params in requests:
        assert_renders_as_reference(provider, params)
    errors = [
        ({"verb": "Bogus", "x": odd}, ("badVerb", "unknown verb 'Bogus'")),
        ({"verb": "Identify", "set": odd},
         ("badArgument", "illegal arguments ['set']")),
        ({"verb": "GetRecord", "identifier": odd, "metadataPrefix": "oai_dc"},
         ("idDoesNotExist", odd)),
        ({"verb": "ListRecords", "metadataPrefix": odd},
         ("cannotDisseminateFormat", odd)),
        ({"verb": "ListRecords", "resumptionToken": odd},
         ("badResumptionToken", "malformed token")),
        ({"verb": "ListSets", "resumptionToken": odd},
         ("badResumptionToken", "ListSets issues no tokens")),
        ({"verb": "ListIdentifiers", "metadataPrefix": "oai_dc",
          "set": "no-such-set"}, ("noRecordsMatch", "empty selection")),
    ]
    for params, error in errors:
        assert_renders_as_reference(provider, params, error)


@pytest.mark.parametrize("payload", [
    pytest.param('<?xml version="1.0" encoding="ISO-8859-1"?>\n'
                 '<nsdl_dc><title>café</title>'
                 '<identifier>http://example.org/café</identifier></nsdl_dc>'
                 .encode("latin-1"), id="latin-1-declaration"),
    pytest.param(b'<!DOCTYPE nsdl_dc [<!ENTITY t "caf\xc3\xa9">]>'
                 b'<nsdl_dc xmlns:dc="http://purl.org/dc/elements/1.1/">'
                 b'<dc:title>&t;</dc:title></nsdl_dc>', id="doctype-entity"),
])
def test_payload_with_a_prolog_renders_as_reference(setup, payload):
    """A payload that cannot stand inside a response as it is is written
    through ElementTree, in UTF-8, with the tree it had."""
    repo, provider, _agg, mids = setup
    repo.update_metadata_payload(mids[0], "nsdl_dc", payload)
    provider.catch_up()
    ident = "oai:ndr.local:" + local_id(mids[0])
    for fmt in ("nsdl_dc", "oai_dc"):
        get = {"verb": "GetRecord", "identifier": ident, "metadataPrefix": fmt}
        for params in [get, *list_requests(
                provider, {"verb": "ListRecords", "metadataPrefix": fmt})]:
            assert_renders_as_reference(provider, params)
        body = provider.handle_request(get)
        title = next(el.text for el in parse(body).iter("title"))
        assert title == "café" and "café".encode() in body


@pytest.mark.parametrize("payload", [
    pytest.param(b"not xml at all", id="not-xml"),
    # passes expat, which skips an entity an external DTD may declare, but
    # not ElementTree, which re-serializes a payload with a DOCTYPE
    pytest.param(b'<!DOCTYPE nsdl_dc SYSTEM "nsdl.dtd"><nsdl_dc>&ext;</nsdl_dc>',
                 id="doctype-external-entity"),
])
def test_malformed_stored_payload_gives_no_record(setup, payload):
    """A live object whose stored payload is not XML (written past the API's
    check) has no record in that format or the one crosswalked from it: a
    harvest over tokens completes with every other record, each verb answers
    idDoesNotExist for it, a rebuild agrees, and its purge gives it deleted
    records again."""
    repo, provider, _agg, mids = setup
    bad, good = ("oai:ndr.local:" + local_id(m) for m in mids[:2])
    others = sorted("oai:ndr.local:" + local_id(m) for m in mids[1:])
    repo.store.modify(mids[0], datastreams=[
        Datastream("format_nsdl_dc", "text/xml", content=payload)])
    provider.catch_up()
    rebuilt = OaiProvider(repo)
    rebuilt.rebuild_cache()
    assert rebuilt.records == provider.records
    for fmt in ("nsdl_dc", "oai_dc"):
        assert sorted(harvest_identifiers(provider, "ListRecords",
                                          metadataPrefix=fmt)) == others
        for params in ({"verb": "GetRecord", "identifier": bad,
                        "metadataPrefix": fmt},
                       {"verb": "ListMetadataFormats", "identifier": bad}):
            error = parse(provider.handle_request(params)).find("error")
            assert error.get("code") == "idDoesNotExist"
        root = parse(provider.handle_request(
            {"verb": "GetRecord", "identifier": good, "metadataPrefix": fmt}))
        assert root.find("error") is None
    repo.store.purge(mids[0])
    provider.catch_up()
    for fmt in ("nsdl_dc", "oai_dc"):
        assert provider.records[(bad, fmt)].deleted
        assert sorted(harvest_identifiers(provider, metadataPrefix=fmt)) == \
            sorted([bad, *others])


# ------------------------------------------------- sequences against the scan

def scan_select(provider, fmt, set_spec=None, from_ts=None, until_ts=None):
    """The scan-and-sort selection the per-format sequences replaced: every
    cached record of the list, in (datestamp, identifier) order."""
    return sorted(
        (r for r in provider.records.values()
         if r.format == fmt
         and (set_spec is None or set_spec in r.set_specs)
         and (from_ts is None or r.datestamp >= from_ts)
         and (until_ts is None or r.datestamp <= until_ts)),
        key=lambda r: (r.datestamp, r.identifier))


def header_tuple(h):
    return (h.findtext("identifier"), h.findtext("datestamp"),
            h.get("status") == "deleted")


def harvest_pages(provider, verb, params, pages=None, counted=True):
    """Page through a list from ``params``; return its headers and the next
    request (``None`` once the list is done). Stop after ``pages`` pages if
    given. Each token element has completeListSize and cursor on a list
    without a set (``counted``) and neither with a set; on a whole list
    begun here, where the list cannot change, check their values."""
    headers, sizes = [], set()
    fresh = "resumptionToken" not in params
    while pages is None or pages > 0:
        root = parse(provider.handle_request(params))
        err = root.find("error")
        if err is not None:
            assert err.get("code") == "noRecordsMatch", ET.tostring(root)
            return headers, None
        body = root.find(verb)
        rt = body.find("resumptionToken")
        if rt is not None and counted:
            assert not fresh or int(rt.get("cursor")) == len(headers)
            sizes.add(int(rt.get("completeListSize")))
        elif rt is not None:
            assert "cursor" not in rt.attrib
            assert "completeListSize" not in rt.attrib
        headers += [header_tuple(h) for h in body.iter("header")]
        if rt is None or not rt.text:
            assert not (fresh and sizes) or sizes == {len(headers)}
            return headers, None
        params = {"verb": verb, "resumptionToken": rt.text}
        pages = None if pages is None else pages - 1
    return headers, params


def random_window(rng, provider):
    """List arguments ``from``/``until`` (``None`` when open) at a random
    granularity, and the datetime bounds they mean."""
    stamps = sorted({r.datestamp for r in provider.records.values()})
    lo, hi = sorted(rng.choice(stamps) + timedelta(seconds=rng.randint(-1, 1))
                    for _ in range(2))
    if rng.random() < 0.5:
        args = (format_ts(lo), format_ts(hi))
        bounds = (lo, hi)
    else:
        args = (format_ts(lo)[:10], format_ts(hi)[:10])
        bounds = (parse_ts(args[0] + "T00:00:00Z"),
                  parse_ts(args[1] + "T23:59:59Z"))
    keep = rng.choice(((0, 1), (0,), (1,)))  # from, until or both
    return ({k: args[i] for i, k in enumerate(("from", "until")) if i in keep},
            tuple(b if i in keep else None for i, b in enumerate(bounds)))


def check_sequences(provider):
    """Each per-format sequence is a fresh sort of ``records``, in chunks
    of the sizes ``updated`` keeps."""
    formats = {r.format for r in provider.records.values()}
    assert formats <= set(provider.sequences)
    for fmt, seq in provider.sequences.items():
        assert list(seq.walk(0, len(seq))) == scan_select(provider, fmt), fmt
        sizes = [len(c) for c in seq.chunks]
        assert all(0 < n < 2 * oai.CHUNK_SIZE for n in sizes), sizes
        assert all(n >= oai.CHUNK_SIZE // 2 for n in sizes[1:]), sizes
        assert seq.lasts == tuple(c[-1] for c in seq.chunks)


def churn(rng, repo, agent, aggs, live, batch, creates=0):
    """A random batch of metadata creates, modifies, membership changes and
    purges, after ``creates`` creates; ``live`` is updated in place."""
    for op in range(creates + rng.randint(1, 6)):
        roll = rng.random()
        if op < creates or roll < 0.4 or not live:
            r = repo.add_resource(ResourceSpec(
                content_url=f"http://example.org/p{batch}-{op}"))
            live.append(repo.add_metadata(MetadataSpec(
                target=r, format_id="nsdl_dc", payload=doc(f"p{batch}"),
                provider=agent, initial_aggregations=frozenset(
                    rng.sample(aggs, rng.randint(0, 2))))))
        elif roll < 0.65:
            repo.update_metadata_payload(rng.choice(live), "nsdl_dc",
                                         doc(f"u{batch}-{op}"))
        elif roll < 0.8:
            repo.set_aggregation_membership(rng.choice(aggs), set(
                rng.sample(live, rng.randint(0, min(4, len(live))))))
        else:
            repo.purge_metadata(live.pop(rng.randrange(len(live))))


@pytest.mark.parametrize("seed", range(2))
def test_paging_matches_scan_under_churn(tmp_path, monkeypatch, seed):
    """After each seeded batch of writes and its catch_up, every list (each
    format, with no set and with each aggregation, with no window and with a
    random one) pages out exactly the scan-and-sort selection, and each
    sequence equals a fresh sort. A harvest begun before a batch and
    finished after it misses no record its list holds at both ends."""
    monkeypatch.setattr(oai, "CHUNK_SIZE", 4)  # many chunks from few records
    rng = random.Random(seed)
    # a step of 5 hours spreads the records over days, for day windows
    repo = Repository(tmp_path / "paging", clock=VirtualClock(step_seconds=18000))
    try:
        agent = repo.add_agent("pager", "Person")
        aggs = [repo.create_aggregation(agent, ResourceSpec(
            content_url=f"http://example.org/agg{i}")) for i in range(2)]
        provider = OaiProvider(repo, page_size=3)
        live: list[str] = []
        churn(rng, repo, agent, aggs, live, "seed", creates=8)
        provider.rebuild_cache()
        for batch in range(10):
            fmt = rng.choice(("nsdl_dc", "oai_dc"))
            set_spec = rng.choice([None] + [local_id(a) for a in aggs])
            window, bounds = (random_window(rng, provider) if rng.random() < 0.5
                              else ({}, (None, None)))
            start = {"verb": "ListIdentifiers", "metadataPrefix": fmt,
                     **({"set": set_spec} if set_spec else {}), **window}
            before = scan_select(provider, fmt, set_spec, *bounds)
            seen, rest = harvest_pages(provider, "ListIdentifiers", start,
                                       pages=rng.randint(1, 3),
                                       counted=set_spec is None)

            churn(rng, repo, agent, aggs, live, batch)
            provider.catch_up()

            if rest is not None:
                seen += harvest_pages(provider, "ListIdentifiers", rest,
                                      counted=set_spec is None)[0]
            after = {r.identifier for r in scan_select(
                provider, fmt, set_spec, *bounds)}
            assert {r.identifier for r in before} & after <= \
                {ident for ident, _stamp, _deleted in seen}, (seed, batch)

            check_sequences(provider)
            for fmt in ("nsdl_dc", "oai_dc"):
                for set_spec in [None] + [local_id(a) for a in aggs]:
                    for window, bounds in [({}, (None, None)),
                                           random_window(rng, provider)]:
                        verb = rng.choice(("ListIdentifiers", "ListRecords"))
                        params = {"verb": verb, "metadataPrefix": fmt,
                                  **({"set": set_spec} if set_spec else {}),
                                  **window}
                        got, _ = harvest_pages(provider, verb, params,
                                               counted=set_spec is None)
                        expected = [(r.identifier, format_ts(r.datestamp),
                                     r.deleted) for r in scan_select(
                                         provider, fmt, set_spec, *bounds)]
                        assert got == expected, (seed, batch, params)
        assert any(r.deleted for r in provider.records.values())
        # a rebuild sorts afresh and reaches the same sequences
        def flat(sequences):
            return {fmt: [r for chunk in seq.chunks for r in chunk]
                    for fmt, seq in sequences.items()}
        kept = flat(provider.sequences)
        provider.rebuild_cache()
        assert flat(provider.sequences) == kept
    finally:
        repo.close()


def test_get_record_never_misses_a_record_live_throughout(setup):
    """A reader looks records up while the main thread modifies them and
    catches up after each write: ``records`` is written in place, each
    record over its key, so a record that stays live is never reported
    missing. Most lookups are ListMetadataFormats by identifier, which takes
    no lock, so they also land while a catch-up runs; every tenth is a
    GetRecord."""
    repo, provider, agg, mids = setup
    repo.store.durable = False  # short writes: catch-ups fill more of the run
    hot = mids[:2]
    idents = ["oai:ndr.local:" + local_id(m) for m in hot]
    rng = random.Random(7)
    started, done, failures = threading.Event(), threading.Event(), []
    lookups = [0]

    def read():
        try:
            while not done.is_set():
                k = lookups[0]
                params = {"verb": "ListMetadataFormats",
                          "identifier": idents[k % len(idents)]}
                if k % 10 == 0:
                    params = {**params, "verb": "GetRecord",
                              "metadataPrefix": ("nsdl_dc", "oai_dc")[k // 10 % 2]}
                err = parse(provider.handle_request(params)).find("error")
                if err is not None:
                    failures.append((params, err.get("code")))
                lookups[0] += 1
                started.set()
        except Exception as exc:  # reported by the main thread
            failures.append(exc)
            started.set()

    reader = threading.Thread(target=read)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        reader.start()
        assert started.wait(timeout=30)
        for i in range(600):
            if i % 5 == 4:
                repo.set_aggregation_membership(agg, set(
                    rng.sample(mids, rng.randint(0, len(mids)))))
            else:
                repo.update_metadata_payload(hot[i % len(hot)], "nsdl_dc",
                                             doc(f"e{i}"))
            provider.catch_up()
    finally:
        done.set()
        sys.setswitchinterval(interval)
        reader.join(timeout=30)
    assert not reader.is_alive()
    assert failures == []
    assert lookups[0] > 0
