"""OAI-PMH 2.0 data provider over a materialized record cache.

One rule, ``_reconcile``, gives each object its records: a live object typed
Metadata has one live record per format it can be disseminated in, in the sets
its own memberOf relationships name; a purged object keeps the records it had,
marked deleted at its purge time (``deletedRecord=persistent``); any other
object has none. ``rebuild_cache`` applies the rule to every live Metadata
object and every object the cache holds records of, ``catch_up`` to each
object the new change events touch. The record map and its ``formats`` are
replaced whole, never changed in place; resumption tokens are stateless
cursors over them. Record payloads are disseminated at response time.
"""

from __future__ import annotations

import base64
import json
import time
from bisect import bisect_right
from dataclasses import dataclass, replace
from datetime import datetime, timedelta, timezone
from xml.etree import ElementTree as ET

from .dissemination import OAI_DC_NS
from .errors import BadResumptionToken, EventOutOfOrder, FormatUnavailable, NotFound
from .index import ConjunctiveQuery, TriplePattern, Var
from .model import (
    MEMBER_OF,
    OBJECT_TYPE,
    Term,
    format_ts,
    local_id,
    parse_ts,
    type_iri,
)
from .store import ChangeEvent

OAI_NS = "http://www.openarchives.org/OAI/2.0/"
OAI_SCHEMA = "http://www.openarchives.org/OAI/2.0/OAI-PMH.xsd"
XSI_NS = "http://www.w3.org/2001/XMLSchema-instance"

REPOSITORY_NAME = "ino-repo"
IDENTIFIER_PREFIX = "oai:ndr.local:"
TOKEN_VERSION = "v2"

_FORMAT_NAMESPACES = {
    "oai_dc": (OAI_DC_NS, "http://www.openarchives.org/OAI/2.0/oai_dc.xsd"),
}

VERBS = {
    "Identify", "ListMetadataFormats", "ListSets",
    "ListIdentifiers", "ListRecords", "GetRecord",
}


@dataclass(frozen=True)
class OaiRecord:
    identifier: str
    format: str
    datestamp: datetime
    set_specs: frozenset[str]
    deleted: bool
    source_object: str


@dataclass(frozen=True)
class CacheStats:
    records: int
    elapsed: float


def encode_token(fmt: str, set_spec: str | None, from_s: str | None,
                 until_s: str | None, after: tuple[datetime, str]) -> str:
    """A resumption token: the list's arguments and the (datestamp,
    identifier) of the last record sent. The provider keeps no state for it."""
    fields = [TOKEN_VERSION, fmt, set_spec, from_s, until_s,
              format_ts(after[0]), after[1]]
    return base64.urlsafe_b64encode(json.dumps(fields).encode()).decode("ascii")


def decode_token(token: str):
    """Inverse of ``encode_token``; ``BadResumptionToken`` for anything else."""
    try:
        # binascii.Error, UnicodeError and JSONDecodeError are ValueErrors
        fields = json.loads(base64.urlsafe_b64decode(token.encode("ascii")))
        if not (isinstance(fields, list) and len(fields) == 7
                and fields[0] == TOKEN_VERSION
                and all(isinstance(fields[i], str) for i in (1, 5, 6))
                and all(isinstance(f, (str, type(None))) for f in fields[2:5])):
            raise ValueError("wrong shape")
        _, fmt, set_spec, from_s, until_s, stamp, identifier = fields
        return fmt, set_spec, from_s, until_s, (parse_ts(stamp), identifier)
    except ValueError as exc:
        raise BadResumptionToken("malformed token") from exc


def _parse_window(from_s: str | None, until_s: str | None):
    """The datetime bounds of a list's ``from`` and ``until``, each at day
    (``YYYY-MM-DD``) or seconds granularity; a day ``until`` covers the whole
    day. ``ValueError`` for a bad datestamp or for mixed granularities."""
    if from_s and until_s and len(from_s) != len(until_s):
        raise ValueError("from and until differ in granularity")
    return _parse_bound(from_s, 0), _parse_bound(until_s, 1)


def _parse_bound(value: str | None, end_of_day: int) -> datetime | None:
    if value is not None and len(value) == len("YYYY-MM-DD"):
        day = datetime.strptime(value, "%Y-%m-%d").replace(tzinfo=timezone.utc)
        return day + timedelta(days=end_of_day, seconds=-end_of_day)
    return None if value is None else parse_ts(value)


class OaiProvider:
    def __init__(self, repo, page_size: int = 100,
                 base_url: str = "http://ndr.local/oai"):
        self.repo = repo
        self.page_size = page_size
        self.base_url = base_url
        self.formats: frozenset[str] = frozenset()  # of every record cached; grows
        self.records: dict[tuple[str, str], OaiRecord] = {}
        self.last_applied_seq = 0

    # ----------------------------------------------------------- cache build

    def _reconcile(self, records: dict, formats: set, object_id: str) -> None:
        """Give ``object_id`` the records the module's rule assigns it, in
        ``records``; add any format they introduce to ``formats``."""
        identifier = IDENTIFIER_PREFIX + local_id(object_id)
        old = [records.pop((identifier, f)) for f in formats
               if (identifier, f) in records]
        purged = self.repo.store.purged_at(object_id)
        if purged is not None:
            for rec in old:
                records[(identifier, rec.format)] = replace(
                    rec, deleted=True, datestamp=purged)
            return
        try:
            obj = self.repo.get_object(object_id)
        except NotFound:
            return
        if "Metadata" not in obj.types:
            return
        sets = frozenset(local_id(t.object.value) for t in obj.relationships
                         if t.predicate == MEMBER_OF)
        for fmt in sorted(self.repo.list_formats(object_id)):
            formats.add(fmt)
            records[(identifier, fmt)] = OaiRecord(
                identifier, fmt, obj.modified, sets, False, object_id)

    def _publish(self, records: dict, formats: set, seq: int) -> None:
        # formats first, and it only grows: a reader that reads ``records``
        # and then ``formats`` finds the format of every record it holds
        self.formats = frozenset(formats)
        self.records = records
        self.last_applied_seq = seq

    def rebuild_cache(self) -> CacheStats:
        """Reconcile every live Metadata object and every object the cache
        holds records of, so deleted records carry forward."""
        start = time.perf_counter()
        with self.repo._lock:
            records, formats = dict(self.records), set(self.formats)
            objects = dict.fromkeys(rec.source_object for rec in records.values())
            objects.update(dict.fromkeys(t.subject for t in self.repo.match(
                TriplePattern(Var("?m"), Term.iri(OBJECT_TYPE),
                              Term.iri(type_iri("Metadata"))))))
            for object_id in objects:
                self._reconcile(records, formats, object_id)
            self._publish(records, formats, self.repo.store.current_seq)
        return CacheStats(len(records), time.perf_counter() - start)

    # ------------------------------------------------------------ incremental

    def apply_event(self, event: ChangeEvent) -> None:
        with self.repo._lock:
            self._apply([event])

    def catch_up(self) -> int:
        """Apply any store events past the last applied seq."""
        with self.repo._lock:
            events = self.repo.changes_since(self.last_applied_seq)
            self._apply(events)
        return len(events)

    def _apply(self, events) -> None:
        """Check that ``events`` continue the applied sequence, reconcile
        each object they touch once in a copy of the cache, then publish the
        copy: ``self.records`` is never changed in place, so a request
        iterates the map it read undisturbed and needs no lock."""
        if not events:
            return
        seq = self.last_applied_seq
        for event in events:
            if event.seq != seq + 1:
                raise EventOutOfOrder(f"expected seq {seq + 1}, got {event.seq}")
            seq = event.seq
        records, formats = dict(self.records), set(self.formats)
        for object_id in dict.fromkeys(event.object_id for event in events):
            self._reconcile(records, formats, object_id)
        self._publish(records, formats, seq)

    # ------------------------------------------------------- cache persistence

    def save_cache(self, path) -> None:
        data = {
            "lastAppliedSeq": self.last_applied_seq,
            "records": [
                {
                    "identifier": r.identifier,
                    "format": r.format,
                    "datestamp": format_ts(r.datestamp),
                    "setSpecs": sorted(r.set_specs),
                    "deleted": r.deleted,
                    "sourceObject": r.source_object,
                }
                for r in self.records.values()
            ],
        }
        path.write_text(json.dumps(data))

    def load_cache(self, path) -> None:
        data = json.loads(path.read_text())
        records = {}
        for d in data["records"]:
            rec = OaiRecord(
                d["identifier"], d["format"], parse_ts(d["datestamp"]),
                frozenset(d["setSpecs"]), d["deleted"], d["sourceObject"],
            )
            records[(rec.identifier, rec.format)] = rec
        self._publish(records, {fmt for _id, fmt in records},
                      data["lastAppliedSeq"])

    # --------------------------------------------------------------- requests

    def handle_request(self, params: dict[str, str]) -> bytes:
        verb = params.get("verb")
        try:
            if verb not in VERBS:
                return self._error_response(params, "badVerb",
                                            f"unknown verb {verb!r}")
            handler = getattr(self, "_verb_" + verb)
            return handler(dict(params))
        except _OaiError as exc:
            return self._error_response(params, exc.code, exc.message)

    # verb handlers ----------------------------------------------------------

    def _verb_Identify(self, params):
        self._reject_extra_args(params, set())
        earliest = min((r.datestamp for r in self.records.values()), default=None)
        body = ET.Element("Identify")
        _text(body, "repositoryName", REPOSITORY_NAME)
        _text(body, "baseURL", self.base_url)
        _text(body, "protocolVersion", "2.0")
        _text(body, "adminEmail", "admin@ndr.local")
        _text(body, "earliestDatestamp",
              format_ts(earliest) if earliest else "1970-01-01T00:00:00Z")
        _text(body, "deletedRecord", "persistent")
        _text(body, "granularity", "YYYY-MM-DDThh:mm:ssZ")
        return self._respond(params, body)

    def _verb_ListMetadataFormats(self, params):
        self._reject_extra_args(params, {"identifier"})
        identifier = params.get("identifier")
        records = self.records
        if identifier is not None:
            formats = sorted(f for f in self.formats if (identifier, f) in records)
            if not formats:
                raise _OaiError("idDoesNotExist", identifier)
        else:
            formats = sorted({r.format for r in records.values()})
        body = ET.Element("ListMetadataFormats")
        for f in formats:
            ns, schema = _FORMAT_NAMESPACES.get(
                f, (f"http://ndr.local/format/{f}#",
                    f"http://ndr.local/format/{f}.xsd"))
            mf = ET.SubElement(body, "metadataFormat")
            _text(mf, "metadataPrefix", f)
            _text(mf, "schema", schema)
            _text(mf, "metadataNamespace", ns)
        return self._respond(params, body)

    def _verb_ListSets(self, params):
        if "resumptionToken" in params:  # ListSets is never paged
            raise _OaiError("badResumptionToken", "ListSets issues no tokens")
        self._reject_extra_args(params, set())
        body = ET.Element("ListSets")
        q = ConjunctiveQuery(
            (TriplePattern(Var("?a"), Term.iri(OBJECT_TYPE),
                           Term.iri(type_iri("Aggregation"))),),
            ("?a",),
        )
        aggs = sorted(row["?a"].value for row in self.repo.query(q))
        for agg in aggs:
            name = agg
            try:
                obj = self.repo.get_object(agg)
                for t in obj.relationships:
                    if t.predicate.endswith("representedBy"):
                        proxy = self.repo.get_object(t.object.value)
                        ds = proxy.datastream("content")
                        if ds is not None and ds.is_surrogate:
                            name = ds.surrogate
            except NotFound:
                pass
            s = ET.SubElement(body, "set")
            _text(s, "setSpec", local_id(agg))
            _text(s, "setName", name)
        return self._respond(params, body)

    def _verb_GetRecord(self, params):
        self._reject_extra_args(params, {"identifier", "metadataPrefix"},
                                required={"identifier", "metadataPrefix"})
        identifier = params["identifier"]
        prefix = params["metadataPrefix"]
        records = self.records
        rec = records.get((identifier, prefix))
        if rec is None:
            if any((identifier, f) in records for f in self.formats):
                raise _OaiError("cannotDisseminateFormat", prefix)
            raise _OaiError("idDoesNotExist", identifier)
        body = ET.Element("GetRecord")
        body.append(self._record_element(rec, with_metadata=True))
        return self._respond(params, body)

    def _verb_ListIdentifiers(self, params):
        return self._list_verb(params, "ListIdentifiers", with_metadata=False)

    def _verb_ListRecords(self, params):
        return self._list_verb(params, "ListRecords", with_metadata=True)

    # list machinery ---------------------------------------------------------

    def select(self, fmt: str, set_spec: str | None = None,
               from_ts: datetime | None = None,
               until_ts: datetime | None = None) -> list[OaiRecord]:
        """Stable (datestamp, identifier)-ordered selection over the cache."""
        out = []
        for rec in self.records.values():
            if rec.format != fmt:
                continue
            if set_spec is not None and set_spec not in rec.set_specs:
                continue
            if from_ts is not None and rec.datestamp < from_ts:
                continue
            if until_ts is not None and rec.datestamp > until_ts:
                continue
            out.append(rec)
        out.sort(key=lambda r: (r.datestamp, r.identifier))
        return out

    def _list_verb(self, params, verb, with_metadata):
        token = params.get("resumptionToken")
        if token is not None:
            if set(params) - {"verb", "resumptionToken"}:
                raise _OaiError("badArgument",
                                "resumptionToken is an exclusive argument")
            try:
                fmt, set_spec, from_s, until_s, after = decode_token(token)
            except BadResumptionToken as exc:
                raise _OaiError("badResumptionToken", str(exc)) from exc
        else:
            self._reject_extra_args(
                params, {"metadataPrefix", "set", "from", "until"},
                required={"metadataPrefix"},
            )
            fmt, set_spec = params["metadataPrefix"], params.get("set")
            from_s, until_s = params.get("from"), params.get("until")
            after = None
        try:
            from_ts, until_ts = _parse_window(from_s, until_s)
        except ValueError as exc:
            raise _OaiError("badArgument" if token is None
                            else "badResumptionToken", str(exc)) from exc

        selection = self.select(fmt, set_spec, from_ts, until_ts)
        # an updated or purged record gets a newer datestamp, so it moves past
        # the cursor: a harvester may see it twice, but never misses a record
        start = 0 if after is None else bisect_right(
            selection, after, key=lambda r: (r.datestamp, r.identifier))
        page = selection[start : start + self.page_size]
        if not page:
            if fmt not in self.formats:
                raise _OaiError("cannotDisseminateFormat", fmt)
            raise _OaiError("noRecordsMatch", "empty selection")

        body = ET.Element(verb)
        for rec in page:
            if with_metadata:
                body.append(self._record_element(rec, with_metadata=True))
            else:
                body.append(self._header_element(rec))

        more = start + len(page) < len(selection)
        if more or token is not None:
            rt = ET.SubElement(body, "resumptionToken",
                               completeListSize=str(len(selection)),
                               cursor=str(start))
            if more:
                rt.text = encode_token(fmt, set_spec, from_s, until_s,
                                       (page[-1].datestamp, page[-1].identifier))
        return self._respond(params, body)

    # element builders -------------------------------------------------------

    def _header_element(self, rec: OaiRecord) -> ET.Element:
        header = ET.Element("header")
        if rec.deleted:
            header.set("status", "deleted")
        _text(header, "identifier", rec.identifier)
        _text(header, "datestamp", format_ts(rec.datestamp))
        for s in sorted(rec.set_specs):
            _text(header, "setSpec", s)
        return header

    def _record_element(self, rec: OaiRecord, with_metadata: bool) -> ET.Element:
        record = ET.Element("record")
        record.append(self._header_element(rec))
        if with_metadata and not rec.deleted:
            try:
                payload, _media, _path = self.repo.get_dissemination(
                    rec.source_object, rec.format
                )
            except (NotFound, FormatUnavailable) as exc:
                raise _OaiError("cannotDisseminateFormat", str(exc)) from exc
            metadata = ET.SubElement(record, "metadata")
            metadata.append(ET.fromstring(payload))
        return record

    # response plumbing ------------------------------------------------------

    def _reject_extra_args(self, params, allowed: set, required: set = frozenset()):
        extra = set(params) - allowed - {"verb"}
        if extra:
            raise _OaiError("badArgument", f"illegal arguments {sorted(extra)}")
        missing = required - set(params)
        if missing:
            raise _OaiError("badArgument", f"missing arguments {sorted(missing)}")

    def _envelope(self, params, include_attrs=True) -> ET.Element:
        root = ET.Element("OAI-PMH", xmlns=OAI_NS)
        root.set("xmlns:xsi", XSI_NS)
        root.set("xsi:schemaLocation", f"{OAI_NS} {OAI_SCHEMA}")
        _text(root, "responseDate", format_ts(self.repo.store.clock.now()))
        request = ET.SubElement(root, "request")
        if include_attrs:
            for k, v in params.items():
                request.set(k, v)
        request.text = self.base_url
        return root

    def _respond(self, params, body: ET.Element) -> bytes:
        root = self._envelope(params)
        root.append(body)
        return _serialize(root)

    def _error_response(self, params, code, message) -> bytes:
        # badVerb/badArgument responses must not echo illegal request attrs
        root = self._envelope(params,
                              include_attrs=code not in ("badVerb", "badArgument"))
        err = ET.SubElement(root, "error", code=code)
        err.text = message
        return _serialize(root)


class _OaiError(Exception):
    def __init__(self, code, message):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


def _text(parent, tag, value):
    el = ET.SubElement(parent, tag)
    el.text = value
    return el


def _serialize(root: ET.Element) -> bytes:
    return b'<?xml version="1.0" encoding="UTF-8"?>\n' + ET.tostring(
        root, encoding="unicode"
    ).encode("utf-8")
