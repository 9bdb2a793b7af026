import contextlib
import http.client
import json
import logging
import socket
import sys
import threading
import urllib.parse
from pathlib import Path
from xml.etree import ElementTree as ET

import pytest

from ino import index as index_module
from ino import service as service_module
from ino.corpus import CorpusProfile, generate_corpus
from ino.errors import ConfigError, NotFound, StoreLocked
from ino.model import VirtualClock
from ino.oai import OAI_NS
from ino.service import Service, load_config

KEY = "sekrit"


def make_config(tmp_path, **overrides):
    config = {"dataDir": str(tmp_path / "data"), "apiKey": KEY,
              "pageSize": "100", "ontologyPath": "", "port": "0"}
    config.update(overrides)
    return config


@pytest.fixture
def service(tmp_path):
    svc = Service(make_config(tmp_path), clock=VirtualClock())
    yield svc
    svc.close()


def call(svc, method, path, body=None, key=KEY, query=None):
    headers = {"X-INO-Key": key} if key else {}
    payload = json.dumps(body).encode() if body is not None else b""
    return svc.handle(method, path, query or {}, payload, headers)


def populate(svc):
    _, _, data = call(svc, "POST", "/objects/agent",
                      {"name": "NSDL", "kind": "Organization"})
    agent = json.loads(data)["id"]
    _, _, data = call(svc, "POST", "/objects/aggregation", {
        "agent": agent, "proxy": {"contentUrl": "http://example.org/coll"}})
    agg = json.loads(data)["id"]
    _, _, data = call(svc, "POST", "/objects/resource", {
        "contentUrl": "http://example.org/a", "initialAggregations": [agg]})
    resource = json.loads(data)["id"]
    _, _, data = call(svc, "POST", "/objects/metadata", {
        "target": resource, "formatId": "nsdl_dc",
        "payload": "<nsdl_dc><title>T</title></nsdl_dc>",
        "provider": agent, "initialAggregations": [agg]})
    metadata = json.loads(data)["id"]
    return agent, agg, resource, metadata


# --------------------------------------------------------------------- config

def test_load_config(tmp_path):
    p = tmp_path / "svc.conf"
    p.write_text("# comment\ndataDir = /tmp/x\nport=9999\n\napiKey=k\n")
    config = load_config(p)
    assert config["dataDir"] == "/tmp/x"
    assert config["port"] == "9999"
    assert config["pageSize"] == "100"  # default preserved


def test_load_config_errors(tmp_path):
    p = tmp_path / "svc.conf"
    p.write_text("frobnicate=1\n")
    with pytest.raises(ConfigError):
        load_config(p)
    p.write_text("just some words\n")
    with pytest.raises(ConfigError):
        load_config(p)


@pytest.mark.parametrize("page_size", ["0", "-5", "ten", "1.5", "\u0663"])
def test_bad_page_size_is_refused_before_the_store_opens(tmp_path, page_size):
    with pytest.raises(ConfigError, match="pageSize: expected a positive integer"):
        Service(make_config(tmp_path, pageSize=page_size))
    assert not (tmp_path / "data").exists()  # no store opened, no lock held
    Service(make_config(tmp_path, pageSize="1")).close()


@pytest.mark.parametrize("port", ["abc", "", "-1", "65536", "80.5", "٨٠"])
def test_bad_port_is_refused_before_the_store_opens(tmp_path, port):
    with pytest.raises(ConfigError, match="port: expected an integer in 0..65535"):
        Service(make_config(tmp_path, port=port))
    assert not (tmp_path / "data").exists()  # no store opened, no lock held
    svc = Service(make_config(tmp_path, port="65535"))
    assert svc.port == 65535
    svc.close()


def test_config_comments_are_whole_lines(tmp_path):
    """A ``#`` inside a value is part of it: cut there, ``apiKey=ab#cd``
    would make ``ab`` the key the service accepts."""
    p = tmp_path / "svc.conf"
    p.write_text("  # a comment\napiKey=ab#cd\n# port=1\n")
    config = load_config(p)
    assert config["apiKey"] == "ab#cd"
    assert config["port"] == "8080"
    svc = Service(make_config(tmp_path, apiKey=config["apiKey"]),
                  clock=VirtualClock())
    try:
        with pytest.raises(PermissionError):
            call(svc, "POST", "/objects/agent",
                 {"name": "x", "kind": "Person"}, key="ab")
        call(svc, "POST", "/objects/agent",
             {"name": "x", "kind": "Person"}, key="ab#cd")
    finally:
        svc.close()


@pytest.mark.parametrize("key, value, message", [
    ("port", "9" * 5000, "port: expected an integer in 0..65535"),
    ("pageSize", "9" * 5000, "pageSize: expected a positive integer"),
    ("pageSize", str(sys.maxsize), "pageSize: expected a positive integer"),
    ("pageSize", "9" * 20, "pageSize: expected a positive integer"),
], ids=["port-5000-digits", "page-size-5000-digits", "page-size-maxsize",
        "page-size-20-digits"])
def test_out_of_range_number_is_refused_before_the_store_opens(
        tmp_path, key, value, message):
    """A value past int()'s 4300 digits is refused like any other, and a
    page size that ``islice(records, page_size + 1)`` cannot take is
    refused at start, not at every list request."""
    with pytest.raises(ConfigError, match=message):
        Service(make_config(tmp_path, **{key: value}))
    assert not (tmp_path / "data").exists()  # no store opened, no lock held


def test_largest_page_size_serves_lists(tmp_path):
    svc = Service(make_config(tmp_path, pageSize=str(sys.maxsize - 1)),
                  clock=VirtualClock())
    try:
        populate(svc)
        for verb in ("ListRecords", "ListIdentifiers"):
            status, _m, data = svc.handle(
                "GET", "/oai", {"verb": verb, "metadataPrefix": "oai_dc"},
                b"", {})
            assert status == 200 and b"<error" not in data
            assert b"resumptionToken" not in data
    finally:
        svc.close()


# --------------------------------------------------------------------- routes

def test_create_and_fetch_objects(service):
    agent, agg, resource, metadata = populate(service)
    status, media, data = call(service, "GET", f"/objects/{resource}")
    assert status == 200 and media == "application/json"
    doc = json.loads(data)
    assert doc["types"] == ["Resource"]
    assert doc["datastreams"][0]["surrogate"] == "http://example.org/a"
    assert any(r["object"].endswith(agg) for r in doc["relationships"])


def test_datastream_routes(service):
    _agent, _agg, resource, metadata = populate(service)
    status, location, body = call(
        service, "GET", f"/objects/{resource}/datastreams/content")
    assert (status, location, body) == (302, "http://example.org/a", b"")
    status, media, data = call(
        service, "GET", f"/objects/{metadata}/datastreams/format_nsdl_dc")
    assert status == 200 and data == b"<nsdl_dc><title>T</title></nsdl_dc>"


def test_dissemination_route(service):
    _agent, _agg, _resource, metadata = populate(service)
    status, media, data = call(
        service, "GET", f"/disseminations/{metadata}/oai_dc")
    assert status == 200 and b"<dc:title>T</dc:title>" in data


def test_query_route(service):
    _agent, agg, resource, _metadata = populate(service)
    q = ("SELECT ?s WHERE ?s <info:ino/def#memberOf> "
         f"<info:ino/{agg}>").encode()
    status, _media, data = service.handle("POST", "/query", {}, q, {})
    rows = json.loads(data)["rows"]
    assert {r["?s"]["value"] for r in rows} == {f"info:ino/{resource}",
                                                f"info:ino/{_metadata}"}


GOLDEN_QUERY = Path(__file__).parent / "data" / "query_rows.json"


def test_query_route_body_matches_golden(service):
    """A fixed seeded store answers a query over IRIs and literals with the
    same bytes, rows in the same order, as when the file was captured."""
    generate_corpus(service.repo, CorpusProfile(resources=4, seed=7))
    q = b"SELECT ?m ?p ?o ?r WHERE ?m <info:ino/def#metadataFor> ?r ; ?m ?p ?o"
    status, _media, data = service.handle("POST", "/query", {}, q, {})
    assert status == 200 and data == GOLDEN_QUERY.read_bytes()


def test_query_explain_route(service):
    _agent, agg, resource, metadata = populate(service)
    q = (f"SELECT ?m WHERE ?r <info:ino/def#memberOf> <info:ino/{agg}> ; "
         "?m <info:ino/def#metadataFor> ?r ; "
         "?m <info:ino/def#objectType> <info:ino/def#Metadata>").encode()
    status, media, data = service.handle("POST", "/query", {"explain": "1"}, q, {})
    plan = json.loads(data)["plan"]
    assert (status, media, len(plan)) == (200, "application/json", 3)
    # one metadataFor triple against two members: the plan starts there
    assert plan[0] == {"pattern": "?m <info:ino/def#metadataFor> ?r",
                       "estimate": 1, "rows": 1}
    assert plan[-1]["rows"] == 1
    _s, _m, data = service.handle("POST", "/query", {}, q, {})
    assert json.loads(data)["rows"] == [
        {"?m": {"kind": "iri", "value": f"info:ino/{metadata}"}}]


def test_membership_route(service):
    _agent, agg, resource, metadata = populate(service)
    status, _media, data = call(service, "PUT", f"/aggregations/{agg}/members",
                                [resource])
    assert status == 200
    # the metadata object was also a member; reconciliation drops it
    assert json.loads(data) == {"added": [], "removed": [metadata]}


def test_oai_route_reflects_mutations(service):
    _agent, _agg, _resource, metadata = populate(service)
    _status, media, data = service.handle(
        "GET", "/oai", {"verb": "ListIdentifiers", "metadataPrefix": "oai_dc"},
        b"", {})
    assert media == "text/xml"
    assert f"oai:ndr.local:{metadata}".encode() in data


def test_error_statuses(service):
    populate(service)
    cases = [
        ("GET", "/objects/ghost", None, 404),
        ("POST", "/objects/resource", {}, 400),  # neither URL nor content
        ("POST", "/objects/resource",
         {"contentUrl": "http://x.org/", "initialAggregations": ["nope"]}, 422),
        ("POST", "/objects/widget", {}, 404),
        ("PUT", "/aggregations/ghost/members", [], 422),
    ]
    for method, path, body, expected in cases:
        try:
            status, _m, _d = call(service, method, path, body)
        except Exception as exc:
            from ino.service import _status_for
            from ino.errors import InoError
            assert isinstance(exc, InoError), (path, exc)
            status = _status_for(exc)
        assert status == expected, (method, path)


def test_unknown_route_and_missing_datastream_are_not_found(service):
    _agent, _agg, resource, _metadata = populate(service)
    with pytest.raises(NotFound, match="^/nowhere/at/all$"):
        call(service, "GET", "/nowhere/at/all")
    with pytest.raises(NotFound, match="^datastream ghost$"):
        call(service, "GET", f"/objects/{resource}/datastreams/ghost")
    from ino.service import _status_for
    assert _status_for(NotFound("x")) == 404


def test_auth_required(service):
    with pytest.raises(PermissionError):
        call(service, "POST", "/objects/agent",
             {"name": "x", "kind": "Person"}, key=None)
    with pytest.raises(PermissionError):
        call(service, "POST", "/objects/agent",
             {"name": "x", "kind": "Person"}, key="wrong")
    # reads stay open
    service.handle("GET", "/oai", {"verb": "Identify"}, b"", {})


def test_store_locked_while_running(service, tmp_path):
    with pytest.raises(StoreLocked):
        Service(make_config(tmp_path), clock=VirtualClock())


def test_restart_rebuilds_the_same_cache(tmp_path):
    """Each start rebuilds the cache from the store, deleted records
    included; nothing of it is saved."""
    svc = Service(make_config(tmp_path), clock=VirtualClock())
    _agent, _agg, _resource, metadata = populate(svc)
    svc.repo.purge_metadata(f"info:ino/{metadata}")
    svc.provider.catch_up()
    first = dict(svc.provider.records)
    seq = svc.provider.last_applied_seq
    svc.close()
    assert sum(r.deleted for r in first.values()) == 2
    assert not (tmp_path / "data" / "oai_cache.json").exists()

    svc2 = Service(make_config(tmp_path), clock=VirtualClock())
    try:
        assert svc2.provider.records == first
        assert svc2.provider.last_applied_seq == seq
        # service stays fully writable after the restart
        status, _m, _d = call(svc2, "POST", "/objects/agent",
                              {"name": "late", "kind": "Person"})
        assert status == 201
    finally:
        svc2.close()


def test_restart_catches_up_on_missed_events(tmp_path):
    svc = Service(make_config(tmp_path), clock=VirtualClock())
    agent, agg, resource, metadata = populate(svc)
    # mutate bypassing provider sync, then stop without a close
    svc.repo.purge_metadata(f"info:ino/{metadata}")
    svc.repo.close()

    svc2 = Service(make_config(tmp_path), clock=VirtualClock())
    try:
        rec = [r for r in svc2.provider.records.values()
               if r.identifier.endswith(metadata)]
        assert rec and all(r.deleted for r in rec)
    finally:
        svc2.close()


def test_torn_cache_file_is_ignored(tmp_path, caplog):
    """An ``oai_cache.json`` left by an older version is neither read nor
    written."""
    svc = Service(make_config(tmp_path), clock=VirtualClock())
    _agent, _agg, _resource, metadata = populate(svc)
    svc.provider.catch_up()
    live = dict(svc.provider.records)
    svc.close()
    cache = tmp_path / "data" / "oai_cache.json"
    cache.write_text('{"records": [')

    with caplog.at_level(logging.WARNING):
        svc2 = Service(make_config(tmp_path), clock=VirtualClock())
    try:
        assert svc2.provider.records == live
        assert not caplog.records
        status, _m, data = svc2.handle("GET", "/oai", {
            "verb": "GetRecord", "identifier": f"oai:ndr.local:{metadata}",
            "metadataPrefix": "oai_dc"}, b"", {})
        assert status == 200 and b"<error" not in data
    finally:
        svc2.close()
    assert cache.read_text() == '{"records": ['


# ------------------------------------------------------------ live http server

@contextlib.contextmanager
def serving(tmp_path):
    svc = Service(make_config(tmp_path), clock=VirtualClock())
    server = svc.serve(0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield svc, server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()
        thread.join()
        svc.close()


@pytest.fixture
def live(tmp_path):
    with serving(tmp_path) as running:
        yield running


def request(port, method, path, body=None, headers=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        resp = conn.getresponse()
        return resp.status, dict(resp.getheaders()), resp.read()
    finally:
        conn.close()


def test_http_end_to_end(live):
    _svc, port = live
    status, _h, data = request(
        port, "POST", "/objects/agent",
        json.dumps({"name": "n", "kind": "Person"}),
        {"X-INO-Key": KEY, "Content-Type": "application/json"})
    assert status == 201
    agent = json.loads(data)["id"]

    status, _h, data = request(port, "POST", "/objects/agent",
                               json.dumps({"name": "n", "kind": "Person"}))
    assert status == 403

    status, _h, data = request(port, "GET", f"/objects/{agent}")
    assert status == 200 and json.loads(data)["types"] == ["Agent"]

    status, _h, data = request(port, "GET", "/objects/ghost")
    assert status == 404 and json.loads(data)["error"] == "NotFound"

    # OAI via GET and via form-encoded POST
    status, headers, data = request(port, "GET", "/oai?verb=Identify")
    assert status == 200 and headers["Content-Type"] == "text/xml"
    assert b"<repositoryName>" in data
    form = urllib.parse.urlencode({"verb": "Identify"})
    status, _h, data2 = request(
        port, "POST", "/oai", form,
        {"Content-Type": "application/x-www-form-urlencoded"})
    assert status == 200 and b"<repositoryName>" in data2


def oai_error(data):
    """The code of the OAI error in ``data``, and the request's attributes."""
    root = ET.fromstring(data)
    return (root.find(f"{{{OAI_NS}}}error").get("code"),
            root.find(f"{{{OAI_NS}}}request").attrib)


@pytest.mark.parametrize("query, code", [
    ("verb=ListIdentifiers&metadataPrefix=nsdl_dc&metadataPrefix=oai_dc",
     "badArgument"),
    ("verb=Identify&verb=Identify", "badVerb"),
    ("verb=Identify&verb=ListSets", "badVerb"),
    ("verb=Identify&verb=", "badVerb"),
], ids=["metadataPrefix", "verb", "two-verbs", "blank-verb"])
def test_repeated_oai_argument_is_refused_over_http(live, query, code):
    """OAI-PMH 2.0 §3.6, for GET and for a form-encoded POST; the answer
    does not echo the request's arguments."""
    svc, port = live
    populate(svc)
    status, _h, data = request(port, "GET", "/oai?" + query)
    assert status == 200 and oai_error(data) == (code, {})
    status, _h, data = request(
        port, "POST", "/oai", query,
        {"Content-Type": "application/x-www-form-urlencoded"})
    assert status == 200 and oai_error(data) == (code, {})


@pytest.mark.parametrize("text, query, repeated", [
    ("", {}, set()),
    ("a=1&b=2", {"a": "1", "b": "2"}, set()),
    ("a=1&b=2&a=3&b=2&c=", {"a": "3", "b": "2"}, {"a", "b"}),
    ("a=1&a=&c=", {"a": "1"}, {"a"}),
], ids=["empty", "each-once", "two-repeated", "repeated-blank"])
def test_arguments_name_the_repeated_ones(text, query, repeated):
    assert service_module._arguments(text) == (query, repeated)


def test_http_redirect_for_surrogate(live):
    svc, port = live
    agent, agg, resource, _metadata = populate(svc)
    status, headers, _data = request(
        port, "GET", f"/objects/{resource}/datastreams/content")
    assert status == 302
    assert headers["Location"] == "http://example.org/a"


@pytest.mark.parametrize("method, path, body, status", [
    pytest.param("POST", "/query", b"\xff\xfe", 400, id="query-utf8"),
    pytest.param("POST", "/oai", b"verb=\xff", 400, id="oai-form-utf8"),
    pytest.param("POST", "/objects/agent", b"{not json", 400, id="bad-json"),
    pytest.param("POST", "/objects/agent", b"[1, 2]", 400, id="json-array"),
    pytest.param("PUT", "/aggregations/agg-1/members", b"5", 400,
                 id="members-not-array"),
    pytest.param("POST", "/objects/resource",
                 b'{"content": "!!!", "mediaType": "text/plain"}', 400,
                 id="content-base64"),
    pytest.param("POST", "/objects/metadata",
                 b'{"payload": "!!!", "payloadEncoding": "base64"}', 400,
                 id="payload-base64"),
    # JSON fields of the wrong type
    pytest.param("POST", "/objects/resource",
                 b'{"contentUrl": "http://example.org/a", '
                 b'"initialAggregations": 5}', 400, id="wrong-type-field"),
    pytest.param("POST", "/objects/agent", b'{"name": 5, "kind": "Person"}', 400,
                 id="name-not-string"),
    pytest.param("POST", "/objects/metadata", b'{"target": null}', 400,
                 id="target-null"),
    pytest.param("POST", "/objects/aggregation", b'{"agent": "a", "proxy": []}', 400,
                 id="proxy-not-object"),
])
def test_malformed_requests_get_a_response(live, method, path, body, status):
    _svc, port = live
    got, headers, data = request(port, method, path, body, {"X-INO-Key": KEY})
    assert got == status
    assert headers["Content-Type"] == "application/json"
    assert "error" in json.loads(data)


def test_malformed_metadata_payload_is_400(live):
    svc, port = live
    agent, _agg, resource, _metadata = populate(svc)
    objects = svc.repo.store.count()
    got, _headers, data = request(port, "POST", "/objects/metadata", json.dumps({
        "target": resource, "formatId": "nsdl_dc", "payload": "not xml at all",
        "provider": agent}), {"X-INO-Key": KEY})
    assert got == 400
    assert json.loads(data)["error"] == "InvalidObject"
    assert "not well-formed XML" in json.loads(data)["message"]
    assert svc.repo.store.count() == objects


def test_unservable_metadata_payload_is_400(live):
    """A payload that passes expat but that ElementTree cannot re-serialize
    is refused: no OAI response could carry it."""
    svc, port = live
    agent, _agg, resource, _metadata = populate(svc)
    objects = svc.repo.store.count()
    got, _headers, data = request(port, "POST", "/objects/metadata", json.dumps({
        "target": resource, "formatId": "nsdl_dc",
        "payload": '<!DOCTYPE nsdl_dc SYSTEM "nsdl.dtd"><nsdl_dc>&ext;</nsdl_dc>',
        "provider": agent}), {"X-INO-Key": KEY})
    assert got == 400
    assert json.loads(data)["error"] == "InvalidObject"
    assert svc.repo.store.count() == objects


def test_unavailable_format_is_404(live):
    """A format the object does not have is not found."""
    svc, port = live
    _agent, _agg, _resource, metadata = populate(svc)
    got, _headers, data = request(port, "GET", f"/disseminations/{metadata}/marc")
    assert got == 404 and json.loads(data)["error"] == "FormatUnavailable"


def test_query_too_large_is_422(live, monkeypatch):
    """A query whose join passes the result cap is the client's fault."""
    svc, port = live
    populate(svc)
    monkeypatch.setattr(index_module, "RESULT_CAP", 100)
    got, _headers, data = request(port, "POST", "/query",
                                  b"SELECT ?a WHERE ?a ?b ?c ; ?d ?e ?f")
    assert got == 422 and json.loads(data)["error"] == "QueryTooLarge"


def test_unexpected_failure_is_a_500(live, monkeypatch, caplog):
    svc, port = live

    def fail(*args, **kwargs):
        raise RuntimeError("unexpected")

    monkeypatch.setattr(svc.repo, "add_agent", fail)
    got, headers, data = request(port, "POST", "/objects/agent",
                                 json.dumps({"name": "n", "kind": "Person"}),
                                 {"X-INO-Key": KEY})
    assert got == 500
    assert headers["Content-Type"] == "application/json"
    doc = json.loads(data)
    assert doc["error"] == "RuntimeError"
    assert doc["errorId"]
    logged = [r for r in caplog.records if doc["errorId"] in r.getMessage()]
    assert logged and logged[0].exc_info is not None


def fail(*args, **kwargs):
    raise RuntimeError("unexpected")


def test_each_response_is_one_write(live, monkeypatch):
    """The status line, headers and body go out in one write: a body sent
    after the headers waits for the client's delayed ACK (Nagle)."""
    svc, port = live
    _agent, _agg, resource, _metadata = populate(svc)
    svc.provider.catch_up()
    record = next(iter(svc.provider.records.values()))
    writes = []

    class CountingWriter:
        def __init__(self, inner):
            self.inner = inner

        def write(self, data):
            writes.append(bytes(data))
            return self.inner.write(data)

        def __getattr__(self, name):  # flush, closed, close
            return getattr(self.inner, name)

    setup = service_module._Handler.setup

    def counting_setup(handler):
        setup(handler)
        handler.wfile = CountingWriter(handler.wfile)

    monkeypatch.setattr(service_module._Handler, "setup", counting_setup)
    get_record = "/oai?" + urllib.parse.urlencode(
        {"verb": "GetRecord", "identifier": record.identifier,
         "metadataPrefix": record.format})
    agent = json.dumps({"name": "n", "kind": "Person"})
    cases = [
        ("GET", get_record, None, {}, 200),
        ("POST", "/objects/agent", agent, {"X-INO-Key": KEY}, 201),
        ("GET", f"/objects/{resource}/datastreams/content", None, {}, 302),
        ("POST", "/objects/agent", b"{not json", {"X-INO-Key": KEY}, 400),
        ("POST", "/objects/agent", agent, {}, 403),
        ("GET", "/objects/ghost", None, {}, 404),
    ]
    for method, path, body, headers, status in cases:
        writes.clear()
        got, _h, data = request(port, method, path, body, headers)
        assert got == status
        assert len(writes) == 1, (status, writes)
        assert writes[0].startswith(f"HTTP/1.1 {status} ".encode())
        assert writes[0].endswith(b"\r\n\r\n" + data)

    monkeypatch.setattr(svc.repo, "add_agent", fail)
    writes.clear()
    got, _h, data = request(port, "POST", "/objects/agent", agent, {"X-INO-Key": KEY})
    assert got == 500 and len(writes) == 1
    assert writes[0].endswith(b"\r\n\r\n" + data)


def test_keep_alive_connection_answers_each_request(live):
    svc, port = live
    _agent, agg, resource, metadata = populate(svc)
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    cases = [
        ("GET", "/oai?verb=Identify", None, {}, 200, b"<repositoryName>"),
        ("GET", f"/objects/{resource}", None, {}, 200, resource.encode()),
        ("GET", "/objects/ghost", None, {}, 404, b'"NotFound"'),
        ("GET", f"/objects/{resource}/datastreams/content", None, {}, 302, b""),
        ("GET", f"/disseminations/{metadata}/oai_dc", None, {}, 200,
         b"<dc:title>T</dc:title>"),
        ("POST", "/query",
         f"SELECT ?s WHERE ?s <info:ino/def#memberOf> <info:ino/{agg}>", {},
         200, resource.encode()),
        ("POST", "/objects/agent", json.dumps({"name": "k", "kind": "Person"}),
         {"X-INO-Key": KEY}, 201, b'"id"'),
        ("POST", "/objects/agent", b"{not json", {"X-INO-Key": KEY}, 400,
         b"bad request body"),
        ("POST", "/objects/agent", json.dumps({"name": "k", "kind": "Person"}),
         {}, 403, b"X-INO-Key"),
        ("GET", "/oai?verb=ListIdentifiers&metadataPrefix=oai_dc", None, {},
         200, metadata.encode()),
    ]
    try:
        for i in range(20):
            method, path, body, headers, status, needle = cases[i % len(cases)]
            conn.request(method, path, body=body, headers=headers)
            resp = conn.getresponse()
            data = resp.read()
            assert (resp.status, needle in data) == (status, True), (i, path, data)
            assert not resp.will_close
    finally:
        conn.close()


def raw_exchange(port, payload):
    """Send ``payload`` on a fresh socket and read until the server closes;
    the socket timeout fails the test where the server would hang."""
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(payload)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


@pytest.mark.parametrize("length", ["-1", "-5", "1e3", "+5", "0x10", " "])
def test_bad_content_length_is_400_and_closes(live, length):
    _svc, port = live
    # the body has no line end, so a server that read it as the next request
    # line would wait for one and the read above would time out
    reply = raw_exchange(port, (
        "POST /query HTTP/1.1\r\nHost: x\r\n"
        f"Content-Length: {length}\r\n\r\n"
        "SELECT ?s WHERE ?s ?p ?o").encode())
    assert reply.startswith(b"HTTP/1.1 400 ")
    assert reply.count(b"HTTP/1.1 ") == 1
    assert json.loads(reply.split(b"\r\n\r\n", 1)[1])["error"].startswith(
        "bad Content-Length")


# at 10**15 the old read raised MemoryError: a 500, with the connection left
# open and the body to be parsed as the next request; int() refuses a string
# of over 4300 digits
@pytest.mark.parametrize("length", [str(10**15), "9" * 5000],
                         ids=["10**15", "5000-digits"])
def test_oversized_body_is_413_and_closes(live, length):
    _svc, port = live
    reply = raw_exchange(port, (
        "POST /query HTTP/1.1\r\nHost: x\r\n"
        f"Content-Length: {length}\r\n\r\n"
        "SELECT ?s WHERE ?s ?p ?o").encode())
    assert reply.startswith(b"HTTP/1.1 413 ")
    assert reply.count(b"HTTP/1.1 ") == 1
    assert "body over" in json.loads(reply.split(b"\r\n\r\n", 1)[1])["error"]


def test_body_bound_is_inclusive(live, monkeypatch):
    _svc, port = live
    body = b"SELECT ?s WHERE ?s <info:ino/def#state> \"Active\""
    monkeypatch.setattr(service_module, "MAX_BODY_BYTES", len(body))
    status, _h, data = request(port, "POST", "/query", body)
    assert status == 200 and "rows" in json.loads(data)
    status, _h, _d = request(port, "POST", "/query", body + b" ")
    assert status == 413
    reply = raw_exchange(port, (
        "POST /query HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
        f"Content-Length: {'0' * 5000}{len(body)}\r\n\r\n").encode() + body)
    assert reply.startswith(b"HTTP/1.1 200 ")


def test_error_bodies_are_pinned(live, monkeypatch):
    """The byte-exact JSON body of each kind of error answer."""
    svc, port = live

    def body(reply):
        return reply.split(b"\r\n\r\n", 1)[1]

    reply = raw_exchange(port, b"POST /query HTTP/1.1\r\nHost: x\r\n"
                               b"Content-Length: abc\r\n\r\n")
    assert reply.startswith(b"HTTP/1.1 400 ")
    assert body(reply) == b'{"error": "bad Content-Length: \'abc\'"}'
    reply = raw_exchange(port, b"POST /query HTTP/1.1\r\nHost: x\r\n"
                               b"Content-Length: 99999999\r\n\r\n")
    assert reply.startswith(b"HTTP/1.1 413 ")
    assert body(reply) == b'{"error": "body over 16777216 bytes"}'
    status, _h, data = request(port, "POST", "/objects/agent", b"{}")
    assert (status, data) == (403, b'{"error": "bad or missing X-INO-Key"}')
    status, _h, data = request(port, "GET", "/nowhere")
    assert (status, data) == (404, b'{"error": "NotFound", "message": "/nowhere"}')
    status, _h, data = request(port, "POST", "/objects/agent", b"{not json",
                               {"X-INO-Key": KEY})
    assert (status, data) == (400, b'{"error": "bad request body: Expecting '
                              b'property name enclosed in double quotes: '
                              b'line 1 column 2 (char 1)"}')
    monkeypatch.setattr(svc.repo, "add_agent", fail)
    status, _h, data = request(port, "POST", "/objects/agent",
                               b'{"name": "n", "kind": "Person"}',
                               {"X-INO-Key": KEY})
    error_id = json.loads(data)["errorId"]
    assert (status, data) == (500, b'{"error": "RuntimeError", "message": '
                              b'"unexpected", "errorId": "%s"}' % error_id.encode())


def test_silent_connections_are_closed(tmp_path, monkeypatch, caplog, capsys):
    monkeypatch.setattr(service_module, "IDLE_TIMEOUT_S", 0.2)
    caplog.set_level(logging.DEBUG)
    stalled = [
        b"",  # nothing at all
        b"GET /oai?verb=Ident",  # half a request line
        b"POST /objects/agent HTTP/1.1\r\nHost: x\r\nX-INO-Key: " + KEY.encode()
        + b"\r\nContent-Length: 40\r\n\r\n{\"name\": ",  # a short body
    ]
    with serving(tmp_path) as (_svc, port):
        socks = [socket.create_connection(("127.0.0.1", port), timeout=5)
                 for _ in stalled]
        try:
            for sock, payload in zip(socks, stalled):
                sock.sendall(payload)
            # b"" once the server closes the socket unanswered; a socket it
            # left open would time out here after 5 s
            assert [sock.recv(65536) for sock in socks] == [b""] * 3
        finally:
            for sock in socks:
                sock.close()
    assert not [r for r in caplog.records if r.levelno >= logging.ERROR]
    assert "Traceback" not in capsys.readouterr().err


def test_http09_request_gets_the_body_alone(live):
    _svc, port = live
    reply = raw_exchange(port, b"GET /objects/ghost\r\n\r\n")
    assert json.loads(reply)["error"] == "NotFound"


def test_access_log_line_per_request(live, monkeypatch, caplog):
    svc, port = live
    caplog.set_level(logging.INFO, logger="ino.access")
    request(port, "GET", "/oai?verb=Identify")
    request(port, "GET", "/objects/ghost")
    monkeypatch.setattr(svc.repo, "add_agent", fail)
    _s, _h, data = request(port, "POST", "/objects/agent",
                           json.dumps({"name": "n", "kind": "Person"}),
                           {"X-INO-Key": KEY})
    lines = [json.loads(r.getMessage()) for r in caplog.records
             if r.name == "ino.access"]
    assert [(d["method"], d["route"], d["status"]) for d in lines] == [
        ("GET", "/oai", 200), ("GET", "/objects/ghost", 404),
        ("POST", "/objects/agent", 500)]
    for d in lines:
        assert set(d) >= {"method", "route", "status", "ms", "bytes"}
        assert d["ms"] >= 0 and d["bytes"] > 0
    assert "errorId" not in lines[0] and "errorId" not in lines[1]
    assert lines[2]["errorId"] == json.loads(data)["errorId"]
