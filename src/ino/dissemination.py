"""Datastream disseminations. An object's format ``f`` is stored in its
``format_<f>`` datastream, built by ``format_stream``, and crosswalked one hop
through the fixed ``CROSSWALKS`` table. ``sources`` is the one map of which
datastream serves each format. Transforms are pure functions over bytes.

A payload is parsed once, when the store commits it (``check_formats``).
After that, ``payload_text`` only tests its bytes, so a response splices it
in without parsing it again. A crosswalk's output needs no check: it writes
fixed tags around escaped text, so it is well-formed by construction.
"""

from __future__ import annotations

import re
import sys
import time
from collections import deque
from typing import Callable
from xml.etree import ElementTree as ET
from xml.parsers import expat
from xml.sax.saxutils import escape

from .errors import FormatUnavailable, InvalidObject, TransformError
from .model import DS_ID_MAX, Datastream, DigitalObject

LITERAL = "Literal"
TRANSFORMED = "Transformed"

# latency samples kept per dissemination path; older samples are dropped
METRICS_MAXLEN = 10_000

FORMAT_DS_PREFIX = "format_"
# "format_" and the format id must fit in one datastream id
_FORMAT_ID_RE = re.compile(
    rf"[a-z0-9_]{{1,{DS_ID_MAX - len(FORMAT_DS_PREFIX)}}}$")

DC_ELEMENTS = (
    "title", "creator", "subject", "description", "publisher", "contributor",
    "date", "type", "format", "identifier", "source", "language", "relation",
    "coverage", "rights",
)
_DC_SET = frozenset(DC_ELEMENTS)

OAI_DC_NS = "http://www.openarchives.org/OAI/2.0/oai_dc/"
DC_NS = "http://purl.org/dc/elements/1.1/"


def is_format_id(value: str) -> bool:
    return bool(_FORMAT_ID_RE.match(value))


def payload_text(payload: bytes) -> str:
    """``payload``, which the commit checked (``check_formats``), as text to
    write into a UTF-8 XML document. It is written as it is when it starts
    with ``<`` past any whitespace, has no XML declaration and no DOCTYPE,
    and is UTF-8; else it is re-serialized by ElementTree (which reads a
    declaration's encoding and expands a DOCTYPE's entities).
    ``InvalidObject`` when ElementTree cannot read it."""
    # a declaration or a DOCTYPE may only open a document; a byte order mark
    # or a NUL byte (never in well-formed UTF-8 XML) means another encoding
    if (payload.lstrip()[:1] == b"<" and not payload.startswith(b"<?xml")
            and b"<!DOCTYPE" not in payload and b"\0" not in payload):
        return payload.decode().strip()
    try:
        return ET.tostring(ET.fromstring(payload), encoding="unicode")
    except ET.ParseError as exc:
        raise _not_xml(exc) from exc


def _not_xml(exc: Exception) -> InvalidObject:
    return InvalidObject(f"payload: not well-formed XML ({exc})")


def format_stream(format_id: str, payload: bytes) -> Datastream:
    """The datastream that holds ``payload`` in format ``format_id``; the
    commit that stores it checks it (``check_formats``). Its id is interned,
    as ``make_draft`` interns every datastream id."""
    return Datastream(sys.intern(FORMAT_DS_PREFIX + format_id), "text/xml",
                      content=payload)


def check_formats(old: DigitalObject | None, new: DigitalObject) -> None:
    """``InvalidObject`` unless ``new``, a live version over ``old`` (or None),
    keeps every ``format_`` datastream of ``old`` and each new or changed one
    holds, under a well-formed id, inline bytes that pass a namespace-aware
    expat parse (every prefix bound) and that ``payload_text`` can write.
    This is the one parse a payload gets."""
    stored = {ds.ds_id: ds for ds in old.datastreams} if old else {}
    for ds in new.datastreams:
        if ds.ds_id.startswith(FORMAT_DS_PREFIX) and stored.pop(ds.ds_id, None) != ds:
            if not ds.content:
                raise InvalidObject("payload: must be non-empty")
            try:
                expat.ParserCreate(namespace_separator=" ").Parse(ds.content, True)
            except expat.ExpatError as exc:
                raise _not_xml(exc) from exc
            payload_text(ds.content)
            if not is_format_id(fmt := ds.ds_id[len(FORMAT_DS_PREFIX):]):
                raise InvalidObject(f"formatId: malformed {fmt!r}")
    dropped = [i for i in stored if i.startswith(FORMAT_DS_PREFIX)]
    if dropped:
        raise InvalidObject(f"datastreams: a modify may not drop {', '.join(dropped)}")


def _localname(tag: str) -> str:
    return tag.rsplit("}", 1)[1] if tag.startswith("{") else tag


def nsdl_dc_to_oai_dc(data: bytes) -> bytes:
    """Keep the 15 unqualified Dublin Core elements from a flat source document,
    in input order, with namespace qualifiers stripped; drop everything else."""
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        raise TransformError(f"malformed source document: {exc}") from exc
    lines = [
        '<oai_dc:dc xmlns:oai_dc="%s" xmlns:dc="%s">' % (OAI_DC_NS, DC_NS)
    ]
    for child in root:
        name = _localname(child.tag)
        if name in _DC_SET:
            text = escape(child.text or "")
            lines.append(f"  <dc:{name}>{text}</dc:{name}>")
    lines.append("</oai_dc:dc>")
    return ("\n".join(lines) + "\n").encode("utf-8")


# source format -> target format -> transform. One hop only: no target is
# also a source, so a crosswalk never reads another's output.
CROSSWALKS: dict[str, dict[str, Callable[[bytes], bytes]]] = {
    "nsdl_dc": {"oai_dc": nsdl_dc_to_oai_dc},
}


def sources(obj: DigitalObject) -> dict[str, tuple[Datastream, Callable | None]]:
    """Each format of ``obj`` to its source: a ``format_<id>`` datastream and
    the crosswalk from it, ``None`` for the datastream's own format. A
    format's own datastream wins over a crosswalk."""
    out = {}
    for ds in obj.datastreams:
        if ds.ds_id.startswith(FORMAT_DS_PREFIX):
            f = ds.ds_id[len(FORMAT_DS_PREFIX):]
            out[f] = (ds, None)
            for to, crosswalk in CROSSWALKS.get(f, {}).items():
                out.setdefault(to, (ds, crosswalk))
    return out


class Disseminator:
    """Stateless apart from its metrics."""

    def __init__(self, get_object: Callable[[str], DigitalObject]):
        self._get_object = get_object
        self.metrics: dict[str, deque[float]] = {
            LITERAL: deque(maxlen=METRICS_MAXLEN),
            TRANSFORMED: deque(maxlen=METRICS_MAXLEN),
        }

    def list_formats(self, object_id: str) -> set[str]:
        return set(sources(self._get_object(object_id)))  # raises NotFound

    def get(self, object_id: str, format_id: str) -> tuple[bytes, str, str]:
        """Return (bytes, media_type, path) where path is Literal|Transformed."""
        obj = self._get_object(object_id)
        start = time.perf_counter()
        ds, transform = sources(obj).get(format_id, (None, None))
        if ds is None:
            raise FormatUnavailable(f"{object_id} has no dissemination for {format_id!r}")
        if transform is None:
            out, media, path = ds.content, ds.media_type, LITERAL
        else:
            out, media, path = transform(ds.content), "text/xml", TRANSFORMED
        self.metrics[path].append((time.perf_counter() - start) * 1000.0)
        return out, media, path
