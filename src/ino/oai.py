"""OAI-PMH 2.0 data provider over a materialized record cache.

One rule, ``_derive``, gives an object its records from the store alone, from
its live version or, once purged, its tombstone: if typed Metadata, one per
format in its ``sources``, in the sets its memberOf relationships name, dated
``modified``, and deleted exactly when it is a tombstone; else none. The
store fixes an object's types at its create and keeps a format until the
purge, whose tombstone keeps it too (``check_formats``), so an object's
records only ever grow and deleted records persist
(``deletedRecord=persistent``). ``rebuild_cache`` applies the rule to every
live object and tombstone, ``catch_up`` to each object the new change events
touch; neither reads a payload.

Each request takes its ``responseDate`` from the store's ``now``, then runs
``catch_up``, then reads the cache, so no writer calls ``catch_up``. A commit
holds the store lock, which ``now`` takes, from its own ``now`` until its
events are appended: an answer holds every commit dated before its
``responseDate``, and each commit it lacks is dated at or after it.

The cache is two views of the same records. ``records`` maps (identifier,
format) to a record for GetRecord; ``catch_up`` writes it one key at a time
under the repository lock and never pops a key, so a lookup never misses a
live record. ``sequences`` holds, per format, every record (deleted ones too)
sorted by (datestamp, identifier) in chunks of about ``CHUNK_SIZE``, so its
keys are the known formats; a published chunk is never changed, so a
catch-up copies only the chunks it touches and then publishes a new
sequence. Lists, Identify and ListMetadataFormats read only the sequences, so
no request iterates ``records``; one takes a lock only to catch up. A list
page is a bisect plus a slice; resumption tokens are stateless cursors over
the sequences. Record payloads are disseminated at response time.

A record holds one copy of each value it shares: its datestamp and source
id are its object's, its identifier is one string for all its formats, its
format id is interned, and equal set-spec sets are one ``frozenset``, from a
weak pool that keeps a set only while a record holds it.

A response is written as text: a verb returns its body as strings, joined
once with the envelope. A payload is written as ``payload_text`` gives it:
spliced in as it is, or re-serialized by ElementTree when it has a
declaration, a DOCTYPE or another encoding. No response parses a payload:
the commit parsed it once (``check_formats``), and a crosswalk writes
well-formed XML by construction, so a crosswalked record costs only the
crosswalk's read of its source. A deleted record is written as a header
alone.
"""

from __future__ import annotations

import base64
import json
import os
import re
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from datetime import datetime, timedelta
from itertools import accumulate, chain, islice
from operator import attrgetter, itemgetter
from weakref import WeakValueDictionary
from xml.sax.saxutils import escape

from .dissemination import OAI_DC_NS, payload_text, sources
from .errors import (BadResumptionToken, FormatUnavailable, InvalidObject,
                     NotFound, TransformError)
from .model import (
    DELETED,
    MEMBER_OF,
    OBJECT_TYPE,
    REPRESENTED_BY,
    Term,
    format_ts,
    local_id,
    parse_ts,
    type_iri,
)
from .store import _fsync_path

OAI_NS = "http://www.openarchives.org/OAI/2.0/"
OAI_SCHEMA = "http://www.openarchives.org/OAI/2.0/OAI-PMH.xsd"
XSI_NS = "http://www.w3.org/2001/XMLSchema-instance"

REPOSITORY_NAME = "ino-repo"
IDENTIFIER_PREFIX = "oai:ndr.local:"
TOKEN_VERSION = "v2"

# records per chunk of a RecordSequence: a chunk holds from half of this to
# twice this, so an update copies O(n / CHUNK_SIZE + CHUNK_SIZE) references
CHUNK_SIZE = 256

_FORMAT_NAMESPACES = {
    "oai_dc": (OAI_DC_NS, "http://www.openarchives.org/OAI/2.0/oai_dc.xsd"),
}

# each verb's arguments: those it takes, and those of them it needs unless
# it is given a resumptionToken, which stands alone (OAI-PMH 2.0 §3.4)
_ARGUMENTS = {verb: (frozenset(takes.split()), frozenset(needs.split()))
              for verb, takes, needs in (
    ("Identify", "", ""),
    ("ListMetadataFormats", "identifier", ""),
    ("ListSets", "resumptionToken", ""),
    ("GetRecord", "identifier metadataPrefix", "identifier metadataPrefix"),
    ("ListIdentifiers", "metadataPrefix set from until resumptionToken", "metadataPrefix"),
    ("ListRecords", "metadataPrefix set from until resumptionToken", "metadataPrefix"),
)}

# the characters XML 1.0 forbids that a request argument can hold
_NOT_XML_CHAR = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\ufffe\uffff]")


@dataclass(frozen=True, slots=True)
class OaiRecord:
    identifier: str
    format: str
    datestamp: datetime
    set_specs: frozenset[str]
    deleted: bool
    source_object: str


# the sort key of a sequence, and its datestamp part, for bisect's ``key``
_key = attrgetter("datestamp", "identifier")
_stamp = attrgetter("datestamp")


def _split(part: list[OaiRecord]) -> list[tuple[OaiRecord, ...]]:
    """``part`` as chunks of ``CHUNK_SIZE`` to ``2 * CHUNK_SIZE`` records
    (one shorter chunk when ``part`` is short); none for an empty ``part``."""
    n = len(part)
    k = n // CHUNK_SIZE or (1 if n else 0)
    return [tuple(part[n * j // k : n * (j + 1) // k]) for j in range(k)]


class RecordSequence:
    """The records of one format sorted by (datestamp, identifier): a tuple
    of sorted chunks with the last record and first position of each. A
    sequence is never changed once built; ``updated`` builds the next one
    and shares every chunk it does not touch."""

    __slots__ = ("chunks", "lasts", "starts")

    def __init__(self, chunks: tuple[tuple[OaiRecord, ...], ...] = ()):
        self.chunks = chunks
        self.lasts = tuple(map(itemgetter(-1), chunks))
        self.starts = tuple(accumulate(map(len, chunks), initial=0))

    @classmethod
    def of(cls, records) -> RecordSequence:
        # by identifier, then stably by datestamp: the (datestamp, identifier)
        # order at half the cost of building a key tuple per record
        ordered = sorted(records, key=attrgetter("identifier"))
        ordered.sort(key=_stamp)
        return cls(tuple(_split(ordered)))

    def __len__(self) -> int:
        return self.starts[-1]

    def position(self, x, find=bisect_left, key=_key) -> int:
        """Where ``find`` (``bisect_left`` or ``bisect_right``) puts ``x``,
        compared with each record's ``key``, in the whole sequence."""
        c = find(self.lasts, x, key=key)
        if c == len(self.chunks):
            return len(self)
        return self.starts[c] + find(self.chunks[c], x, key=key)

    def walk(self, lo: int, hi: int):
        """The records at positions ``lo`` to ``hi - 1``, in order."""
        c = bisect_right(self.starts, lo) - 1
        while lo < hi:
            part = self.chunks[c][lo - self.starts[c] : hi - self.starts[c]]
            yield from part
            lo += len(part)
            c += 1

    def updated(self, removed, added) -> RecordSequence:
        """This sequence without ``removed`` (records it holds) and with
        ``added``. Each edit goes to the chunk whose range takes its key; a
        touched chunk that falls under half of ``CHUNK_SIZE`` joins the one
        before it, and one that reaches twice that splits."""
        chunks = list(self.chunks) or [()]
        edits: dict[int, list[OaiRecord]] = {}
        for recs, put in ((removed, False), (added, True)):
            for rec in recs:
                k = _key(rec)
                c = min(bisect_left(self.lasts, k, key=_key), len(chunks) - 1)
                if c not in edits:
                    edits[c] = list(chunks[c])
                part = edits[c]
                i = bisect_left(part, k, key=_key)
                if put:
                    part.insert(i, rec)
                else:
                    del part[i]
        out: list[tuple[OaiRecord, ...]] = []
        done = 0
        for c in sorted(edits):
            out += chunks[done:c]
            part = edits[c]
            if out and len(part) < CHUNK_SIZE // 2:
                part = [*out.pop(), *part]
            out += _split(part)
            done = c + 1
        out += chunks[done:]
        return RecordSequence(tuple(out))


_EMPTY = RecordSequence()


@dataclass(frozen=True)
class Page:
    """One list page: up to ``page_size`` records past the cursor, whether
    more follow, and, for a list without a set, the list's size and how many
    of its records come before the page (``None`` with a set: counting them
    would mean a scan)."""
    records: list[OaiRecord]
    more: bool
    size: int | None
    cursor: int | None


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
        day = parse_ts(value + "T00:00:00Z")  # an ASCII shape, as for seconds
        return day + timedelta(days=end_of_day, seconds=-end_of_day)
    return None if value is None else parse_ts(value)


class OaiProvider:
    def __init__(self, repo, page_size: int = 100,
                 base_url: str = "http://ndr.local/oai"):
        self.repo = repo
        self.page_size = page_size
        self.base_url = base_url
        self.records: dict[tuple[str, str], OaiRecord] = {}
        self.sequences: dict[str, RecordSequence] = {}  # by format
        self.last_applied_seq = 0
        # one copy of each set-spec set, kept while a record holds it
        self._set_specs = WeakValueDictionary()

    # ----------------------------------------------------------- cache build

    def _records_of(self, identifier: str) -> dict[str, OaiRecord]:
        """The records of ``identifier`` in ``records``, by format."""
        records = self.records
        return {f: rec for f in self.sequences
                if (rec := records.get((identifier, f))) is not None}

    def _derive(self, obj) -> dict[str, OaiRecord]:
        """The module's rule: the records, by format, of ``obj``, a live
        object or a tombstone."""
        if "Metadata" not in obj.types:
            return {}
        identifier = IDENTIFIER_PREFIX + local_id(obj.id)
        sets = frozenset(local_id(t.object.value) for t in obj.relationships
                         if t.predicate == MEMBER_OF)
        sets = self._set_specs.setdefault(sets, sets)
        return {fmt: OaiRecord(identifier, fmt, obj.modified, sets,
                               obj.state == DELETED, obj.id)
                for fmt in map(sys.intern, sources(obj))}

    def _publish(self, records: dict, seq: int) -> None:
        """Publish ``records`` whole, with one sort per format."""
        by_format: dict[str, list[OaiRecord]] = {}
        for rec in records.values():
            by_format.setdefault(rec.format, []).append(rec)
        self.sequences = {f: RecordSequence.of(recs)
                          for f, recs in by_format.items()}
        self.records = records
        self.last_applied_seq = seq

    def rebuild_cache(self) -> int:
        """Apply the module's rule to every live object and every tombstone,
        into new maps; the cache this replaces is not read. Return the number
        of records."""
        with self.repo._lock:
            store = self.repo.store
            records = {(rec.identifier, rec.format): rec
                       for obj in chain(store.objects(), store.tombstones())
                       for rec in self._derive(obj).values()}
            self._publish(records, store.current_seq)
        return len(records)

    def catch_up(self) -> int:
        """Apply the store's events past the last applied seq: write each
        record the module's rule gives an object they touch over its key,
        then publish each changed format's sequence. Return the number of
        events."""
        if self.last_applied_seq == self.repo.store.current_seq:
            return 0  # no new events: a request after no write takes no lock
        with self.repo._lock:
            events = self.repo.changes_since(self.last_applied_seq)
            replaced: dict[str, list[OaiRecord]] = {}
            added: dict[str, list[OaiRecord]] = {}
            for object_id in dict.fromkeys(event.object_id for event in events):
                for fmt, rec in self._derive(self.repo.store.latest(object_id)).items():
                    key = (rec.identifier, fmt)
                    old = self.records.get(key)
                    if old != rec:
                        self.records[key] = rec
                        if old is not None:
                            replaced.setdefault(fmt, []).append(old)
                        added.setdefault(fmt, []).append(rec)
            sequences = dict(self.sequences)
            for fmt, recs in added.items():
                sequences[fmt] = sequences.get(fmt, _EMPTY).updated(
                    replaced.get(fmt, ()), recs)
            # ``sequences`` first, so the unlocked test above never passes
            # before they hold the events; the store numbers events gap-free
            self.sequences = sequences
            self.last_applied_seq += len(events)
        return len(events)

    # ------------------------------------------------------- cache persistence

    def save_cache(self, path) -> None:
        """Write the cache to ``path`` through a temporary file and a rename,
        so a crash leaves the old file or the new one; fsynced when the store
        is durable."""
        with self.repo._lock:  # catch_up writes ``records`` in place
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
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(data))
        if self.repo.store.durable:
            _fsync_path(tmp)
        os.replace(tmp, path)
        if self.repo.store.durable:
            _fsync_path(path.parent)

    def load_cache(self, path) -> None:
        data = json.loads(path.read_text())
        records = {}
        for d in data["records"]:
            sets = frozenset(d["setSpecs"])
            rec = OaiRecord(
                d["identifier"], sys.intern(d["format"]), parse_ts(d["datestamp"]),
                self._set_specs.setdefault(sets, sets), d["deleted"],
                d["sourceObject"],
            )
            records[(rec.identifier, rec.format)] = rec
        self._publish(records, data["lastAppliedSeq"])

    # --------------------------------------------------------------- requests

    def handle_request(self, params: dict[str, str],
                       repeated: frozenset[str] = frozenset()) -> bytes:
        """The response to ``params``, one value per argument; ``repeated``
        names the arguments the request gave more than once."""
        stamp = self.repo.store.now()
        self.catch_up()
        verb = params.get("verb")
        try:
            if "verb" in repeated:
                raise _OaiError("badVerb", "verb is repeated")
            if _NOT_XML_CHAR.search("".join(chain.from_iterable(params.items()))):
                # a response that names it would not parse
                raise _OaiError("badArgument", "a character XML forbids")
            if verb not in _ARGUMENTS:
                raise _OaiError("badVerb", f"unknown verb {verb!r}")
            _check_arguments(*_ARGUMENTS[verb], params, repeated)
            body = getattr(self, "_verb_" + verb)(params)
        except _OaiError as exc:
            # badVerb/badArgument responses must not echo illegal request attrs
            echo = exc.code not in ("badVerb", "badArgument")
            return self._respond(stamp, params if echo else {}, [
                f'<error code="{exc.code}">{escape(exc.message)}</error>'])
        return self._respond(stamp, params, [f"<{verb}>", *body, f"</{verb}>"])

    # verb handlers return their body as XML strings; ``handle_request`` has
    # checked the argument names, so the request element echoes only those

    def _verb_Identify(self, params):
        earliest = min((seq.chunks[0][0].datestamp
                        for seq in self.sequences.values()), default=None)
        return [_el(tag, value) for tag, value in (
            ("repositoryName", REPOSITORY_NAME),
            ("baseURL", self.base_url),
            ("protocolVersion", "2.0"),
            ("adminEmail", "admin@ndr.local"),
            ("earliestDatestamp",
             format_ts(earliest) if earliest else "1970-01-01T00:00:00Z"),
            ("deletedRecord", "persistent"),
            ("granularity", "YYYY-MM-DDThh:mm:ssZ"),
        )]

    def _verb_ListMetadataFormats(self, params):
        identifier = params.get("identifier")
        if identifier is not None:
            formats = sorted(self._records_of(identifier))
            if not formats:
                raise _OaiError("idDoesNotExist", identifier)
        else:
            formats = sorted(self.sequences)
        out = []
        for f in formats:
            ns, schema = _FORMAT_NAMESPACES.get(
                f, (f"http://ndr.local/format/{f}#",
                    f"http://ndr.local/format/{f}.xsd"))
            out.append(f"<metadataFormat>{_el('metadataPrefix', f)}"
                       f"{_el('schema', schema)}"
                       f"{_el('metadataNamespace', ns)}</metadataFormat>")
        return out

    def _verb_ListSets(self, params):
        if "resumptionToken" in params:  # ListSets is never paged
            raise _OaiError("badResumptionToken", "ListSets issues no tokens")
        aggs = sorted(self.repo.subjects(OBJECT_TYPE,
                                         Term.iri(type_iri("Aggregation"))))
        out = []
        for agg in aggs:
            name = agg
            try:
                obj = self.repo.get_object(agg)
                for t in obj.relationships:
                    if t.predicate == REPRESENTED_BY:
                        proxy = self.repo.get_object(t.object.value)
                        ds = proxy.datastream("content")
                        if ds is not None and ds.is_surrogate:
                            name = ds.surrogate
            except NotFound:
                pass
            out.append(f"<set>{_el('setSpec', local_id(agg))}"
                       f"{_el('setName', name)}</set>")
        return out

    def _verb_GetRecord(self, params):
        identifier = params["identifier"]
        prefix = params["metadataPrefix"]
        rec = self.records.get((identifier, prefix))
        if rec is None:
            if self._records_of(identifier):
                raise _OaiError("cannotDisseminateFormat", prefix)
            raise _OaiError("idDoesNotExist", identifier)
        return [self._record(rec)]

    def _verb_ListIdentifiers(self, params):
        return self._list_verb(params, _header)

    def _verb_ListRecords(self, params):
        return self._list_verb(params, self._record)

    # list machinery ---------------------------------------------------------

    def select(self, fmt: str, set_spec: str | None = None,
               from_ts: datetime | None = None,
               until_ts: datetime | None = None,
               after: tuple[datetime, str] | None = None) -> Page:
        """The page of the list (``fmt``, ``set_spec``, ``from_ts``,
        ``until_ts``) that follows the (datestamp, identifier) ``after``:
        bisects find the window and the cursor in the format's sequence;
        without a set the page is a slice, with one the walk stops at the
        first record past the page."""
        seq = self.sequences.get(fmt, _EMPTY)
        lo = 0 if from_ts is None else seq.position(from_ts, bisect_left, _stamp)
        hi = (len(seq) if until_ts is None
              else seq.position(until_ts, bisect_right, _stamp))
        # an updated or purged record gets a newer datestamp, so it moves past
        # the cursor: a harvester may see it twice, but never misses a record
        start = lo if after is None else max(lo, seq.position(after, bisect_right))
        records = seq.walk(start, hi)
        if set_spec is not None:
            records = (r for r in records if set_spec in r.set_specs)
        page = list(islice(records, self.page_size + 1))
        counted = set_spec is None
        return Page(page[:self.page_size], len(page) > self.page_size,
                    hi - lo if counted else None,
                    start - lo if counted else None)

    def _list_verb(self, params, write):
        """A list page with each record written by ``write``."""
        token = params.get("resumptionToken")
        if token is not None:
            try:
                fmt, set_spec, from_s, until_s, after = decode_token(token)
            except BadResumptionToken as exc:
                raise _OaiError("badResumptionToken", str(exc)) from exc
        else:
            fmt, set_spec = params["metadataPrefix"], params.get("set")
            from_s, until_s = params.get("from"), params.get("until")
            after = None
        try:
            from_ts, until_ts = _parse_window(from_s, until_s)
        except ValueError as exc:
            raise _OaiError("badArgument" if token is None
                            else "badResumptionToken", str(exc)) from exc

        page = self.select(fmt, set_spec, from_ts, until_ts, after)
        if not page.records:
            if fmt not in self.sequences:
                raise _OaiError("cannotDisseminateFormat", fmt)
            raise _OaiError("noRecordsMatch", "empty selection")

        out = [write(rec) for rec in page.records]
        if page.more or token is not None:
            # completeListSize and cursor are optional: sent where bisects
            # give them, that is, on lists without a set
            counts = ("" if page.size is None else
                      f' completeListSize="{page.size}" cursor="{page.cursor}"')
            last = page.records[-1]
            text = (encode_token(fmt, set_spec, from_s, until_s,
                                 (last.datestamp, last.identifier))
                    if page.more else "")
            out.append(f"<resumptionToken{counts}>{text}</resumptionToken>")
        return out

    # writers ----------------------------------------------------------------

    def _record(self, rec: OaiRecord) -> str:
        # <oai:metadata> undeclares the default namespace, so an element the
        # payload leaves unprefixed is in none (Namespaces in XML 1.0, §6.2)
        metadata = ("" if rec.deleted else
                    f'<oai:metadata xmlns="">{self._metadata(rec)}</oai:metadata>')
        return f"<record>{_header(rec)}{metadata}</record>"

    def _metadata(self, rec: OaiRecord) -> str:
        """The payload of ``rec`` as ``payload_text`` writes it.
        ``cannotDisseminateFormat`` when it cannot be had or written."""
        try:
            return payload_text(self.repo.get_dissemination(rec.source_object,
                                                            rec.format)[0])
        except (NotFound, FormatUnavailable, TransformError, InvalidObject) as exc:
            raise _OaiError("cannotDisseminateFormat",
                            f"{rec.identifier}: {exc}") from exc

    def _respond(self, stamp: datetime, params, body: list[str]) -> bytes:
        """``body`` in the envelope dated ``stamp``; ``params`` the request's attributes."""
        attrs = "".join(f' {k}="{_attr(v)}"' for k, v in params.items())
        return "".join([
            _HEAD, "<responseDate>", format_ts(stamp),
            f"</responseDate><request{attrs}>{escape(self.base_url)}</request>",
            *body, "</OAI-PMH>",
        ]).encode()


class _OaiError(Exception):
    def __init__(self, code, message):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


_HEAD = ('<?xml version="1.0" encoding="UTF-8"?>\n'
         f'<OAI-PMH xmlns="{OAI_NS}" xmlns:oai="{OAI_NS}" xmlns:xsi="{XSI_NS}" '
         f'xsi:schemaLocation="{OAI_NS} {OAI_SCHEMA}">')


def _check_arguments(takes: frozenset[str], needs: frozenset[str], params,
                     repeated: frozenset[str]) -> None:
    """``badArgument`` unless ``params`` gives each argument once, only those
    the verb ``takes``, and a resumptionToken alone or all the verb ``needs``."""
    given = params.keys() - {"verb"}
    token = "resumptionToken" in given
    for kind, names in (("repeated", repeated), ("illegal", given - takes),
                        ("missing", () if token else needs - given)):
        if names:
            raise _OaiError("badArgument", f"{kind} arguments {sorted(names)}")
    if token and len(given) > 1:
        raise _OaiError("badArgument", "resumptionToken is an exclusive argument")


def _attr(value: str) -> str:
    """``value`` escaped for a double-quoted attribute, as ElementTree
    escapes it."""
    return (escape(value).replace('"', "&quot;").replace("\r", "&#13;")
            .replace("\n", "&#10;").replace("\t", "&#09;"))


def _el(tag: str, value: str) -> str:
    return f"<{tag}>{escape(value)}</{tag}>"


def _header(rec: OaiRecord) -> str:
    sets = "".join([_el("setSpec", s) for s in sorted(rec.set_specs)])
    status = ' status="deleted"' if rec.deleted else ""
    return (f"<header{status}>{_el('identifier', rec.identifier)}"
            f"<datestamp>{format_ts(rec.datestamp)}</datestamp>{sets}</header>")
