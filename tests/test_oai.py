import base64
import json
import random
import re
import sys
import threading
from datetime import timedelta

import pytest
from xml.etree import ElementTree as ET

from ino.api import MetadataSpec, ResourceSpec
from ino.errors import BadResumptionToken, EventOutOfOrder
from ino.model import format_ts, local_id, parse_ts
from ino.oai import OaiProvider, decode_token, encode_token


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
    # batch rebuild has no tombstone to carry (provider was fresh), so compare
    # on the live subset plus explicit deleted flags on the incremental side
    live = {k: v for k, v in provider.records.items() if not v.deleted}
    assert live == {k: v for k, v in fresh.records.items() if not v.deleted}
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
    """Objects created or modified, then purged, before catch_up runs."""
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
    purged_at = repo.changes_since(0)[-1].timestamp
    touched = {k: (v.deleted, v.datestamp) for k, v in provider.records.items()
               if v.source_object in (brief, mids[0])}
    assert touched == {("oai:ndr.local:" + local_id(mids[0]), f): (True, purged_at)
                       for f in ("nsdl_dc", "oai_dc")}


def test_rebuild_marks_unapplied_purge_deleted(setup):
    repo, provider, _agg, mids = setup
    repo.purge_metadata(mids[1])
    provider.rebuild_cache()
    purged_at = repo.changes_since(0)[-1].timestamp
    ident = "oai:ndr.local:" + local_id(mids[1])
    for fmt in ("nsdl_dc", "oai_dc"):
        rec = provider.records[(ident, fmt)]
        assert rec.deleted and rec.datestamp == purged_at


@pytest.mark.parametrize("seed", range(3))
def test_catch_up_equals_rebuild_under_churn(setup, tmp_path, seed):
    """After each seeded batch of writes, catch_up and a rebuild started from
    the same prior cache agree, deleted records included."""
    repo, provider, agg, mids = setup
    rng = random.Random(seed)
    agent = repo.add_agent("churn", "Person")
    aggs = [agg, repo.create_aggregation(
        agent, ResourceSpec(content_url="http://example.org/churn"))]
    live, prior = list(mids), tmp_path / "prior.json"
    for batch in range(12):
        provider.save_cache(prior)
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
        provider.catch_up()
        twin = OaiProvider(repo, page_size=2)
        twin.load_cache(prior)
        twin.rebuild_cache()
        assert twin.records == provider.records, (seed, batch)
        assert twin.last_applied_seq == provider.last_applied_seq
    assert any(r.deleted for r in provider.records.values())


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
