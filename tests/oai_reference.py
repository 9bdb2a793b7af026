"""An ElementTree renderer of OAI-PMH responses, the oracle for the
provider's text writer.

It builds each response as a tree and writes it with ``ET.tostring``; each
payload is parsed with ``ET.fromstring`` and appended to the tree. It reads
the provider's record map and the repository, never the sequences or the
writer, and selects a list page by a scan of the record map. It renders
only what it is given: a request the provider answers, or the error code
and message the caller expects.
"""

from xml.etree import ElementTree as ET

from ino.model import format_ts, local_id, parse_ts
from ino.oai import (
    _FORMAT_NAMESPACES,
    OAI_NS,
    OAI_SCHEMA,
    REPOSITORY_NAME,
    XSI_NS,
    decode_token,
    encode_token,
)


def render(provider, params: dict, error: tuple[str, str] | None = None) -> bytes:
    """The response to ``params``, or the ``(code, message)`` ``error``."""
    root = ET.Element("OAI-PMH", xmlns=OAI_NS)
    root.set("xmlns:xsi", XSI_NS)
    root.set("xsi:schemaLocation", f"{OAI_NS} {OAI_SCHEMA}")
    _sub(root, "responseDate", format_ts(provider.repo.store.clock.now()))
    request = _sub(root, "request", provider.base_url)
    if error is None or error[0] not in ("badVerb", "badArgument"):
        for k, v in params.items():
            request.set(k, v)
    if error is not None:
        _sub(root, "error", error[1]).set("code", error[0])
    else:
        root.append(_body(provider, params))
    return (b'<?xml version="1.0" encoding="UTF-8"?>\n'
            + ET.tostring(root, encoding="unicode").encode("utf-8"))


def _sub(parent, tag, text=None):
    el = ET.SubElement(parent, tag)
    el.text = text
    return el


def _body(provider, params):
    verb = params["verb"]
    body = ET.Element(verb)
    repo, records = provider.repo, provider.records
    if verb == "Identify":
        earliest = min(r.datestamp for r in records.values())
        for tag, text in (("repositoryName", REPOSITORY_NAME),
                          ("baseURL", provider.base_url),
                          ("protocolVersion", "2.0"),
                          ("adminEmail", "admin@ndr.local"),
                          ("earliestDatestamp", format_ts(earliest)),
                          ("deletedRecord", "persistent"),
                          ("granularity", "YYYY-MM-DDThh:mm:ssZ")):
            _sub(body, tag, text)
    elif verb == "ListMetadataFormats":
        wanted = params.get("identifier")
        for f in sorted({f for i, f in records if wanted in (None, i)}):
            ns, schema = _FORMAT_NAMESPACES.get(
                f, (f"http://ndr.local/format/{f}#",
                    f"http://ndr.local/format/{f}.xsd"))
            mf = _sub(body, "metadataFormat")
            _sub(mf, "metadataPrefix", f)
            _sub(mf, "schema", schema)
            _sub(mf, "metadataNamespace", ns)
    elif verb == "ListSets":
        aggs = sorted(o.id for o in repo.store.objects()
                      if "Aggregation" in o.types)
        for agg in aggs:
            name = agg
            for t in repo.get_object(agg).relationships:
                if t.predicate.endswith("representedBy"):
                    ds = repo.get_object(t.object.value).datastream("content")
                    if ds is not None and ds.is_surrogate:
                        name = ds.surrogate
            s = _sub(body, "set")
            _sub(s, "setSpec", local_id(agg))
            _sub(s, "setName", name)
    elif verb == "GetRecord":
        rec = records[(params["identifier"], params["metadataPrefix"])]
        body.append(_record(repo, rec, True))
    else:
        _list(provider, params, body, with_metadata=verb == "ListRecords")
    return body


def _list(provider, params, body, with_metadata):
    token = params.get("resumptionToken")
    if token is not None:
        fmt, set_spec, from_s, until_s, after = decode_token(token)
    else:
        fmt, set_spec = params["metadataPrefix"], params.get("set")
        from_s, until_s, after = params.get("from"), params.get("until"), None
    # seconds granularity only
    lo = parse_ts(from_s) if from_s else None
    hi = parse_ts(until_s) if until_s else None
    window = sorted(
        (r for r in provider.records.values()
         if r.format == fmt and (set_spec is None or set_spec in r.set_specs)
         and (lo is None or r.datestamp >= lo)
         and (hi is None or r.datestamp <= hi)),
        key=lambda r: (r.datestamp, r.identifier))
    start = 0 if after is None else sum(
        1 for r in window if (r.datestamp, r.identifier) <= after)
    page = window[start:start + provider.page_size]
    more = start + provider.page_size < len(window)
    for rec in page:
        body.append(_record(provider.repo, rec, with_metadata)
                    if with_metadata else _header(rec))
    if more or token is not None:
        rt = _sub(body, "resumptionToken")
        if set_spec is None:
            rt.set("completeListSize", str(len(window)))
            rt.set("cursor", str(start))
        if more:
            rt.text = encode_token(fmt, set_spec, from_s, until_s,
                                   (page[-1].datestamp, page[-1].identifier))


def _header(rec):
    header = ET.Element("header")
    if rec.deleted:
        header.set("status", "deleted")
    _sub(header, "identifier", rec.identifier)
    _sub(header, "datestamp", format_ts(rec.datestamp))
    for s in sorted(rec.set_specs):
        _sub(header, "setSpec", s)
    return header


def _record(repo, rec, with_metadata):
    record = ET.Element("record")
    record.append(_header(rec))
    if with_metadata and not rec.deleted:
        payload = ET.fromstring(
            repo.get_dissemination(rec.source_object, rec.format)[0])
        # the envelope's default namespace is written as a plain attribute, so
        # undo it here: an element ElementTree holds unqualified is in none
        payload.set("xmlns", "")
        _sub(record, "metadata").append(payload)
    return record


def assert_same_tree(got: bytes, want: bytes) -> None:
    """``got`` and ``want`` parse to the same namespace-aware tree (tag,
    attributes, text and tail of every element), ``responseDate`` aside."""
    trees = [ET.fromstring(got), ET.fromstring(want)]
    for root in trees:
        root.find(f"{{{OAI_NS}}}responseDate").text = None
    _assert_same(*trees, path="")


def _assert_same(a, b, path):
    path = f"{path}/{a.tag}"
    assert (a.tag, a.attrib, a.text, a.tail) == (b.tag, b.attrib, b.text, b.tail), path
    assert [c.tag for c in a] == [c.tag for c in b], path
    for x, y in zip(a, b):
        _assert_same(x, y, path)
