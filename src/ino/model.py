"""Core domain types: digital objects, datastreams, triples; the log record
and canonical XML.

An object is stored as one log record, a JSON array of plain values
(``serialize_object``), whose bytes depend only on the object, so that
serialize(deserialize(serialize(o))) is the identity on bytes. Canonical XML
(``canonical_xml``) is written only by ``export``, and never read. The
commit sequence number is store bookkeeping derived from the event log and
is deliberately kept out of the record and out of value equality.

An object holds many values that other objects hold too, so each is kept
once. The closed vocabularies (predicates, types, kinds, states, media types
and datastream ids) are interned by ``make_draft`` and
``deserialize_object``. A relationship target's ``Term`` is shared through a
pool: the index's term table for a write (``TripleIndex.term``), and for a
read of a whole log the ``pool`` and ``stamps`` maps that the reader hands
each ``deserialize_object`` call, which also share ids and timestamps.
"""

from __future__ import annotations

import base64
import hashlib
import json
import re
import sys
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from itertools import product
from typing import NamedTuple
from xml.sax.saxutils import escape, quoteattr

from .errors import InvalidObject

# Namespace for system predicates and built-in relationship types.
INO_NS = "info:ino/def#"

OBJECT_TYPE = INO_NS + "objectType"
CREATED_DATE = INO_NS + "createdDate"
MODIFIED_DATE = INO_NS + "modifiedDate"
STATE = INO_NS + "state"
HAS_DATASTREAM = INO_NS + "hasDatastream"
MEDIA_TYPE = INO_NS + "mediaType"
LOCATION = INO_NS + "location"

MEMBER_OF = INO_NS + "memberOf"
METADATA_FOR = INO_NS + "metadataFor"
REPRESENTED_BY = INO_NS + "representedBy"
AGGREGATOR_FOR = INO_NS + "aggregatorFor"
PROVIDED_BY = INO_NS + "providedBy"
SOURCE_RECORD_ID = INO_NS + "sourceRecordId"
SOURCE_BASE_URL = INO_NS + "sourceBaseUrl"
SOURCE_SET = INO_NS + "sourceSet"

ID_PREFIX = "info:ino/"
_LOCAL_ID_RE = re.compile(r"[a-z0-9._-]{1,64}$")
DS_ID_MAX = 32  # characters in a datastream id
_DS_ID_RE = re.compile(rf"[a-zA-Z0-9_]{{1,{DS_ID_MAX}}}$")

ACTIVE = "Active"
DELETED = "Deleted"


def is_valid_object_id(value: str) -> bool:
    return (
        isinstance(value, str)
        and value.startswith(ID_PREFIX)
        and bool(_LOCAL_ID_RE.match(value[len(ID_PREFIX):]))
    )


def local_id(object_id: str) -> str:
    return object_id[len(ID_PREFIX):]


def type_iri(name: str) -> str:
    return INO_NS + name


def shard_path(object_id: str) -> str:
    """Relative file path for an object: objects/<h0h1>/<h2h3>/<local>.xml."""
    if not is_valid_object_id(object_id):
        raise InvalidObject(f"id: not a valid object IRI: {object_id!r}")
    digest = hashlib.sha256(object_id.encode("utf-8")).hexdigest()
    return f"objects/{digest[0:2]}/{digest[2:4]}/{local_id(object_id)}.xml"


def format_ts(ts: datetime) -> str:
    """``ts`` in UTC as ``YYYY-MM-DDThh:mm:ssZ``, as ``strftime`` writes it
    for a four-digit year; formatted by hand, since every OAI record header
    calls it."""
    if ts.tzinfo is not timezone.utc:
        ts = ts.astimezone(timezone.utc)
    return "%04d-%02d-%02dT%02d:%02d:%02dZ" % (
        ts.year, ts.month, ts.day, ts.hour, ts.minute, ts.second)


_TS_SHAPE = re.compile(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ", re.ASCII)


def parse_ts(text: str) -> datetime:
    """The inverse of ``format_ts``: exactly ``YYYY-MM-DDThh:mm:ssZ`` in ASCII
    digits and a real date and time, else ``ValueError``."""
    # fromisoformat also takes other ISO forms, so the shape is checked first
    if _TS_SHAPE.fullmatch(text):
        try:
            return datetime.fromisoformat(text[:-1]).replace(tzinfo=timezone.utc)
        except ValueError:
            pass  # no such date or time
    raise ValueError(f"bad timestamp {text!r}")


def parse_int(text: str, limit: int) -> int | None:
    """The one reader of an integer from outside text: None unless ``text``
    is one or more ASCII digits, and ``limit + 1`` for a value over
    ``limit``. It converts no more digits than ``limit`` has, so text of
    any length reads in linear time and never meets ``int``'s limit of 4300
    digits."""
    if not (text.isascii() and text.isdigit()):
        return None
    digits = text.lstrip("0")
    if len(digits) > len(str(limit)):
        return limit + 1
    return min(int(digits or "0"), limit + 1)


# the characters XML 1.0 forbids: the C0 controls but tab, LF and CR, lone
# surrogates, U+FFFE and U+FFFF
NOT_XML_CHAR = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def config_lines(text: str):
    """The one reader of config text: each line's number and its stripped
    text, skipping blank lines and comments. A value or an IRI may hold
    ``#``, so a comment is a whole line that starts with it."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


class Clock:
    """Wall clock, truncated to whole seconds UTC."""

    def now(self) -> datetime:
        return datetime.now(timezone.utc).replace(microsecond=0)


class VirtualClock(Clock):
    """Deterministic clock for tests and corpus generation; ticks per call."""

    EPOCH = datetime(2006, 1, 1, tzinfo=timezone.utc)

    def __init__(self, start: datetime | None = None, step_seconds: int = 1):
        self._step = timedelta(seconds=step_seconds)
        # one step back, so that the first call reads ``start``
        self._current = (start or self.EPOCH).replace(microsecond=0) - self._step

    def now(self) -> datetime:
        self._current += self._step
        return self._current


class Term(NamedTuple):
    """An IRI or a literal. Equal bytes in different kinds are different terms.

    A tuple, so building, hashing and comparing run in C; it orders by kind,
    then value, and equals a plain ``(kind, value)`` tuple, so the two must
    not be mixed in one set or map."""

    kind: str  # "iri" | "literal"
    value: str

    @staticmethod
    def iri(value: str) -> "Term":
        return Term("iri", value)

    @staticmethod
    def literal(value: str) -> "Term":
        return Term("literal", value)

    @property
    def is_iri(self) -> bool:
        return self.kind == "iri"


class Triple(NamedTuple):
    subject: str  # IRI
    predicate: str  # IRI
    object: Term


@dataclass(frozen=True, slots=True)
class Datastream:
    ds_id: str
    media_type: str
    content: bytes | None = None  # inline bytes
    surrogate: str | None = None  # absolute http(s) URL

    @property
    def is_surrogate(self) -> bool:
        return self.surrogate is not None


_URL_RE = re.compile(r"https?://[^\s]+$")


@dataclass(frozen=True, slots=True)
class DigitalObject:
    id: str
    types: tuple[str, ...]
    created: datetime
    modified: datetime
    state: str = ACTIVE
    datastreams: tuple[Datastream, ...] = ()
    relationships: tuple[Triple, ...] = ()
    seq: int = field(default=0, compare=False)

    def datastream(self, ds_id: str) -> Datastream | None:
        for ds in self.datastreams:
            if ds.ds_id == ds_id:
                return ds
        return None


def _xml_text(name: str, *values: str) -> None:
    """Raise InvalidObject naming field ``name`` when one of ``values`` holds
    a character that ``canonical_xml`` could not write."""
    for value in values:
        if NOT_XML_CHAR.search(value):
            raise InvalidObject(f"{name}: a character XML 1.0 forbids in {value!r}")


def validate_object(obj: DigitalObject) -> None:
    """Raise InvalidObject naming the violated field."""
    if not is_valid_object_id(obj.id):
        raise InvalidObject(f"id: malformed object IRI {obj.id!r}")
    if obj.state not in (ACTIVE, DELETED):
        raise InvalidObject(f"state: unknown state {obj.state!r}")
    if obj.state == ACTIVE:
        if not obj.types:
            raise InvalidObject("types: must be non-empty")
    if len(set(obj.types)) != len(obj.types):
        raise InvalidObject("types: duplicate type names")
    _xml_text("types", *obj.types)
    if obj.modified < obj.created:
        raise InvalidObject("modified: earlier than created")
    seen = set()
    for ds in obj.datastreams:
        if not _DS_ID_RE.match(ds.ds_id):
            raise InvalidObject(f"datastreams: malformed dsId {ds.ds_id!r}")
        if ds.ds_id in seen:
            raise InvalidObject(f"datastreams: duplicate dsId {ds.ds_id!r}")
        seen.add(ds.ds_id)
        if (ds.content is None) == (ds.surrogate is None):
            raise InvalidObject(
                f"datastreams: {ds.ds_id} must be exactly one of inline/surrogate"
            )
        if ds.surrogate is not None and not _URL_RE.match(ds.surrogate):
            raise InvalidObject(
                f"datastreams: {ds.ds_id} surrogate URL not absolute http(s)"
            )
        if not ds.media_type:
            raise InvalidObject(f"datastreams: {ds.ds_id} missing mediaType")
        _xml_text(f"datastreams: {ds.ds_id}", ds.media_type, ds.surrogate or "")
    for t in obj.relationships:
        if t.subject != obj.id:
            raise InvalidObject(
                f"relationships: triple subject {t.subject!r} != object id"
            )
        if not t.predicate:
            raise InvalidObject("relationships: empty predicate")
        _xml_text("relationships", t.predicate, t.object.value)
    if len(set(obj.relationships)) != len(obj.relationships):
        raise InvalidObject("relationships: duplicate triple")


def make_draft(
    object_id: str,
    types,
    datastreams=(),
    relationships=(),
) -> DigitalObject:
    """Build an unstored draft; the store assigns timestamps and seq. Its
    types, datastream ids, media types and predicates are interned."""
    epoch = datetime(1970, 1, 1, tzinfo=timezone.utc)
    return DigitalObject(
        id=object_id,
        types=_interned(types),
        created=epoch,
        modified=epoch,
        datastreams=tuple(Datastream(sys.intern(ds.ds_id),
                                     ds.media_type and sys.intern(ds.media_type),
                                     ds.content, ds.surrogate)
                          for ds in datastreams),
        relationships=tuple(Triple(s, sys.intern(p), o)
                            for s, p, o in relationships),
    )


def _interned(strings) -> tuple[str, ...]:
    """``strings`` as a tuple of interned strings: the same tuple when it is
    one already, so a constant tuple of types stays one object."""
    strings = tuple(strings)
    if all(sys.intern(s) is s for s in strings):
        return strings
    return tuple(map(sys.intern, strings))


# --- the log record and canonical XML ---

def serialize_object(obj: DigitalObject) -> bytes:
    """The object as one log record: a JSON array of plain values, ``[id,
    state, created, modified, [type...], [[dsId, mediaType, surrogate|null,
    base64|null]...], [[predicate, kind, value]...]]``, in ASCII. JSON's
    bytes depend only on the value, so a re-encode is byte-stable."""
    return json.dumps([
        obj.id, obj.state, format_ts(obj.created), format_ts(obj.modified), obj.types,
        [[ds.ds_id, ds.media_type, ds.surrogate,
          None if ds.content is None else base64.b64encode(ds.content).decode("ascii")]
         for ds in obj.datastreams],
        [[t.predicate, t.object.kind, t.object.value] for t in obj.relationships],
    ], separators=(",", ":")).encode("ascii")


# the JSON types that each kind of row of a record holds, item by item
_ROWS = {
    "record": {(str, str, str, str, list, list, list)},
    "datastream": set(product([str], [str], *[(str, type(None))] * 2)),
    "triple": {(str, str, str)},
}


def _row(value, name: str) -> list:
    """``value`` if it is a JSON array of the types a ``name`` row holds."""
    if type(value) is list and tuple(map(type, value)) in _ROWS[name]:
        return value
    raise ValueError(f"not a {name}: {value!r:.80}")


def deserialize_object(data: bytes, pool: dict | None = None,
                       stamps: dict[str, datetime] | None = None, *,
                       seq: int = 0) -> DigitalObject:
    """The object that ``serialize_object`` wrote as ``data``, numbered
    ``seq``; ``InvalidObject`` naming ``seq`` for anything else.

    A reader of many records passes the same ``pool`` and ``stamps`` to
    every call, so that equal values come out as one object: ``pool`` maps
    each object id and ``Term`` read to its first copy, ``stamps`` each
    timestamp's text to its datetime. Both grow with what is read, so keep
    them no longer than the read."""
    pool = {} if pool is None else pool
    stamps = {} if stamps is None else stamps
    try:
        object_id, state, created, modified, types, streams, links = _row(
            json.loads(data), "record")
        if {*map(type, types)} - {str}:
            raise ValueError(f"not a list of types: {types!r:.80}")
        object_id = pool.setdefault(object_id, object_id)
        for text in (created, modified):
            if text not in stamps:
                stamps[text] = parse_ts(text)
        datastreams = tuple(
            Datastream(sys.intern(ds_id), sys.intern(media), None if content is None
                       else base64.b64decode(content, validate=True), surrogate)
            for ds_id, media, surrogate, content in (_row(d, "datastream") for d in streams))
        relationships = []
        for predicate, kind, value in (_row(t, "triple") for t in links):
            if kind not in ("iri", "literal"):
                raise ValueError(f"bad triple kind {kind!r}")
            # an iri is an object id, maybe read before as one
            term = Term(sys.intern(kind), pool.setdefault(value, value) if kind == "iri" else value)
            term = pool.setdefault(term, term)
            relationships.append(Triple(object_id, sys.intern(predicate), term))
        obj = DigitalObject(object_id, tuple(map(sys.intern, types)), stamps[created],
                            stamps[modified], sys.intern(state), datastreams,
                            tuple(relationships), seq)
        validate_object(obj)
    # RecursionError: arrays nested deeper than json reads
    except (ValueError, RecursionError, InvalidObject) as exc:
        raise InvalidObject(f"seq {seq}: bad record: {exc}") from None
    return obj


# a parser reads a raw CR as LF, so text escapes it, as quoteattr does
_CR = {"\r": "&#13;"}


def canonical_xml(obj: DigitalObject) -> bytes:
    """The object as a canonical XML document, Fedora's interchange form:
    UTF-8, LF and a fixed element and attribute order. Only ``export``
    writes it; nothing reads it back."""
    def section(name: str, lines: list[str]) -> str:
        body = "".join(f"    {line}\n" for line in lines)
        return f"  <{name}>\n{body}  </{name}>\n" if lines else f"  <{name}/>\n"

    types = "".join(f"<type>{escape(t, _CR)}</type>" for t in obj.types)
    streams = ["<datastream id=%s mediaType=%s>%s</datastream>" % (
        quoteattr(ds.ds_id), quoteattr(ds.media_type),
        f"<surrogate href={quoteattr(ds.surrogate)}/>" if ds.is_surrogate else
        f'<inline encoding="base64">{base64.b64encode(ds.content).decode("ascii")}</inline>')
        for ds in obj.datastreams]
    triples = ["<triple predicate=%s object=%s kind=%s/>" % (
        quoteattr(t.predicate), quoteattr(t.object.value), quoteattr(t.object.kind))
        for t in obj.relationships]
    return "".join([
        '<?xml version="1.0" encoding="UTF-8"?>\n',
        "<inoObject id=%s state=%s created=%s modified=%s>\n" % (
            quoteattr(obj.id), quoteattr(obj.state),
            quoteattr(format_ts(obj.created)), quoteattr(format_ts(obj.modified))),
        f"  <types>{types}</types>\n" if types else "  <types/>\n",
        section("datastreams", streams),
        section("relationships", triples),
        "</inoObject>\n",
    ]).encode("utf-8")
