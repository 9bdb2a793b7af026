"""Core domain types: digital objects, datastreams, triples, canonical XML.

Objects serialize to a canonical XML document (UTF-8, LF, fixed element and
attribute order) so that serialize(deserialize(serialize(o))) is the identity
on bytes. The commit sequence number is store bookkeeping derived from the
event log and is deliberately kept out of the XML and out of value equality.

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
import re
import sys
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from itertools import islice
from typing import NamedTuple
from xml.etree import ElementTree as ET
from xml.sax.saxutils import escape, quoteattr

from .errors import InvalidObject, ParseError

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
    for t in obj.relationships:
        if t.subject != obj.id:
            raise InvalidObject(
                f"relationships: triple subject {t.subject!r} != object id"
            )
        if not t.predicate:
            raise InvalidObject("relationships: empty predicate")
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


# --- canonical XML ---

_KNOWN_ELEMENTS = {
    "inoObject", "types", "type", "datastreams", "datastream",
    "surrogate", "inline", "relationships", "triple",
}


def serialize_object(obj: DigitalObject) -> bytes:
    """Canonical, deterministic XML bytes for an object."""
    out = ['<?xml version="1.0" encoding="UTF-8"?>\n']
    out.append(
        "<inoObject id=%s state=%s created=%s modified=%s>\n"
        % (
            quoteattr(obj.id),
            quoteattr(obj.state),
            quoteattr(format_ts(obj.created)),
            quoteattr(format_ts(obj.modified)),
        )
    )
    if obj.types:
        body = "".join(f"<type>{escape(t)}</type>" for t in obj.types)
        out.append(f"  <types>{body}</types>\n")
    else:
        out.append("  <types/>\n")
    if obj.datastreams:
        out.append("  <datastreams>\n")
        for ds in obj.datastreams:
            if ds.is_surrogate:
                inner = f"<surrogate href={quoteattr(ds.surrogate)}/>"
            else:
                b64 = base64.b64encode(ds.content).decode("ascii")
                inner = f'<inline encoding="base64">{b64}</inline>'
            out.append(
                "    <datastream id=%s mediaType=%s>%s</datastream>\n"
                % (quoteattr(ds.ds_id), quoteattr(ds.media_type), inner)
            )
        out.append("  </datastreams>\n")
    else:
        out.append("  <datastreams/>\n")
    if obj.relationships:
        out.append("  <relationships>\n")
        for t in obj.relationships:
            out.append(
                "    <triple predicate=%s object=%s kind=%s/>\n"
                % (
                    quoteattr(t.predicate),
                    quoteattr(t.object.value),
                    quoteattr(t.object.kind),
                )
            )
        out.append("  </relationships>\n")
    else:
        out.append("  <relationships/>\n")
    out.append("</inoObject>\n")
    return "".join(out).encode("utf-8")


def _parse_error(message: str, data: bytes, at: ET.Element | tuple[int, int],
                 root: ET.Element | None = None) -> ParseError:
    """A ``ParseError`` for a bad stored document ``data``, at the given line
    and column or, best effort, at the element ``at`` of ``root``: the n-th
    start tag of its name in the text, where ``at`` is the n-th element of
    that name in document order."""
    if not isinstance(at, tuple):
        n = next(i for i, e in enumerate(root.iter(at.tag)) if e is at)
        tags = re.finditer(b"<" + re.escape(at.tag.encode("utf-8")) + rb"[\s/>]", data)
        found = next(islice(tags, n, None), None)
        i = found.start() if found else -1
        at = (0, 0) if i < 0 else (data.count(b"\n", 0, i) + 1,
                                   i - data.rfind(b"\n", 0, i) - 1)
    return ParseError(message, *at)


def deserialize_object(data: bytes, pool: dict | None = None,
                       stamps: dict[str, datetime] | None = None, *,
                       seq: int = 0) -> DigitalObject:
    """The object that ``serialize_object`` wrote as ``data``, numbered
    ``seq``; ``ParseError`` or ``InvalidObject`` for anything else.

    A reader of many documents passes the same ``pool`` and ``stamps`` to
    every call, so that equal values come out as one object: ``pool`` maps
    each object id and ``Term`` read to its first copy, ``stamps`` each
    timestamp's text to its datetime. Both grow with what is read, so keep
    them no longer than the read."""
    pool = {} if pool is None else pool
    stamps = {} if stamps is None else stamps
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        raise _parse_error(f"malformed XML: {exc.msg if hasattr(exc, 'msg') else exc}",
                           data, getattr(exc, "position", (0, 0))) from exc
    for elem in root.iter():
        if elem.tag not in _KNOWN_ELEMENTS:
            raise _parse_error(f"unknown element {elem.tag!r}", data, elem, root)
    if root.tag != "inoObject":
        raise _parse_error(f"unexpected root element {root.tag!r}", data, root, root)

    def attr(elem, name):
        value = elem.get(name)
        if value is None:
            raise _parse_error(f"missing attribute {name!r} on {elem.tag}",
                               data, elem, root)
        return value

    def stamp(name):
        text = attr(root, name)
        if text not in stamps:
            stamps[text] = parse_ts(text)
        return stamps[text]

    object_id = attr(root, "id")
    object_id = pool.setdefault(object_id, object_id)
    state = sys.intern(attr(root, "state"))
    try:
        created = stamp("created")
        modified = stamp("modified")
    except ValueError as exc:
        raise _parse_error(str(exc), data, root, root) from exc

    types: list[str] = []
    datastreams: list[Datastream] = []
    relationships: list[Triple] = []
    for section in root:
        if section.tag == "types":
            types = [sys.intern(t.text or "") for t in section]
        elif section.tag == "datastreams":
            for d in section:
                ds_id = sys.intern(attr(d, "id"))
                media = sys.intern(attr(d, "mediaType"))
                if len(d) != 1:
                    raise _parse_error(
                        f"datastream {ds_id!r} needs exactly one content element",
                        data, d, root)
                inner = d[0]
                if inner.tag == "surrogate":
                    datastreams.append(
                        Datastream(ds_id, media, surrogate=attr(inner, "href"))
                    )
                else:
                    if inner.get("encoding") != "base64":
                        raise _parse_error(
                            "inline content must declare base64 encoding",
                            data, inner, root)
                    try:
                        content = base64.b64decode(inner.text or "", validate=True)
                    except Exception as exc:
                        raise _parse_error(f"bad base64 in datastream {ds_id!r}",
                                           data, inner, root) from exc
                    datastreams.append(Datastream(ds_id, media, content=content))
        elif section.tag == "relationships":
            for t in section:
                kind = sys.intern(attr(t, "kind"))
                if kind not in ("iri", "literal"):
                    raise _parse_error(f"bad triple kind {kind!r}", data, t, root)
                value = attr(t, "object")
                if kind == "iri":  # an object id, maybe read before as one
                    value = pool.setdefault(value, value)
                term = Term(kind, value)
                relationships.append(
                    Triple(object_id, sys.intern(attr(t, "predicate")),
                           pool.setdefault(term, term))
                )

    obj = DigitalObject(
        id=object_id,
        types=tuple(types),
        state=state,
        created=created,
        modified=modified,
        datastreams=tuple(datastreams),
        relationships=tuple(relationships),
        seq=seq,
    )
    validate_object(obj)
    return obj
