"""Datastream disseminations: serve stored format datastreams literally, or
through a registered single-hop crosswalk transform. Transforms are pure
functions over bytes; the only built-in is the nsdl_dc -> oai_dc crosswalk.
"""

from __future__ import annotations

import re
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable
from xml.etree import ElementTree as ET
from xml.parsers import expat
from xml.sax.saxutils import escape

from .errors import FormatUnavailable, InvalidObject, InvalidRule, TransformError
from .model import DigitalObject

LITERAL = "Literal"
TRANSFORMED = "Transformed"

# latency samples kept per dissemination path; older samples are dropped
METRICS_MAXLEN = 10_000

FORMAT_DS_PREFIX = "format_"
_FORMAT_ID_RE = re.compile(r"[a-z0-9_]{1,32}$")

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
    """``payload`` as text to write into a UTF-8 XML document. It must be a
    well-formed XML document with every prefix bound. It is written as it is
    when it starts with ``<`` past any whitespace, has no XML declaration and
    no DOCTYPE, and is UTF-8; else it is re-serialized by ElementTree (which
    reads a declaration's encoding and expands a DOCTYPE's entities).
    ``InvalidObject`` when it is neither, so no response can carry it."""
    try:
        expat.ParserCreate(namespace_separator=" ").Parse(payload, True)
        # a declaration or a DOCTYPE may only open a document; a byte order
        # mark or a NUL byte (never in well-formed UTF-8 XML) means another
        # encoding
        if (payload.lstrip()[:1] == b"<" and not payload.startswith(b"<?xml")
                and b"<!DOCTYPE" not in payload and b"\0" not in payload):
            return payload.decode().strip()
        return ET.tostring(ET.fromstring(payload), encoding="unicode")
    except (expat.ExpatError, ET.ParseError) as exc:
        raise InvalidObject(f"payload: not well-formed XML ({exc})") from exc


def is_writable(payload: bytes) -> bool:
    """Whether ``payload_text`` can write ``payload``."""
    try:
        payload_text(payload)
    except InvalidObject:
        return False
    return True


def stored_formats(obj: DigitalObject, keep=None) -> set[str]:
    """``obj``'s formats, without those whose inline payload ``keep`` rejects."""
    return {
        ds.ds_id[len(FORMAT_DS_PREFIX):]
        for ds in obj.datastreams
        if ds.ds_id.startswith(FORMAT_DS_PREFIX)
        and (keep is None or ds.content is None or keep(ds.content))
    }


@dataclass(frozen=True)
class Crosswalk:
    from_format: str
    to_format: str
    transform_id: str
    transform: Callable[[bytes], bytes]


def _localname(tag: str) -> str:
    if tag.startswith("{"):
        return tag.rsplit("}", 1)[1]
    if ":" in tag:
        return tag.rsplit(":", 1)[1]
    return tag


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


class CrosswalkRegistry:
    def __init__(self):
        self._by_pair: dict[tuple[str, str], Crosswalk] = {}
        self.register("nsdl_dc", "oai_dc", "nsdl_dc_to_oai_dc", nsdl_dc_to_oai_dc)

    def register(self, from_format: str, to_format: str, transform_id: str,
                 transform: Callable[[bytes], bytes]) -> None:
        pair = (from_format, to_format)
        if pair in self._by_pair:
            raise InvalidRule(f"crosswalk {from_format}->{to_format} already registered")
        # single hop only: a crosswalk may not feed or consume another
        for existing_from, existing_to in self._by_pair:
            if to_format == existing_from or from_format == existing_to:
                raise InvalidRule(
                    f"crosswalk {from_format}->{to_format} would form a chain"
                )
        self._by_pair[pair] = Crosswalk(from_format, to_format, transform_id, transform)

    def targets_of(self, from_format: str) -> dict[str, Crosswalk]:
        return {
            to: cw for (frm, to), cw in self._by_pair.items() if frm == from_format
        }


class Disseminator:
    """Stateless apart from the immutable crosswalk registry and metrics."""

    def __init__(self, get_object: Callable[[str], DigitalObject]):
        self._get_object = get_object
        self.registry = CrosswalkRegistry()
        self.metrics: dict[str, deque[float]] = {
            LITERAL: deque(maxlen=METRICS_MAXLEN),
            TRANSFORMED: deque(maxlen=METRICS_MAXLEN),
        }

    def list_formats(self, object_id: str) -> set[str]:
        return self.formats_of(self._get_object(object_id))  # raises NotFound

    def formats_of(self, obj: DigitalObject, keep=None) -> set[str]:
        """``obj``'s stored formats, as ``keep`` filters them, and their
        crosswalks' targets."""
        stored = stored_formats(obj, keep)
        reachable = set()
        for f in stored:
            reachable |= set(self.registry.targets_of(f))
        return stored | reachable

    def get(self, object_id: str, format_id: str) -> tuple[bytes, str, str]:
        """Return (bytes, media_type, path) where path is Literal|Transformed."""
        obj = self._get_object(object_id)
        start = time.perf_counter()
        ds = obj.datastream(FORMAT_DS_PREFIX + format_id)
        if ds is not None and ds.content is not None:
            elapsed = (time.perf_counter() - start) * 1000.0
            self.metrics[LITERAL].append(elapsed)
            return ds.content, ds.media_type, LITERAL
        for f in stored_formats(obj):
            cw = self.registry.targets_of(f).get(format_id)
            if cw is not None:
                source = obj.datastream(FORMAT_DS_PREFIX + f)
                out = cw.transform(source.content)
                elapsed = (time.perf_counter() - start) * 1000.0
                self.metrics[TRANSFORMED].append(elapsed)
                return out, "text/xml", TRANSFORMED
        raise FormatUnavailable(f"{object_id} has no dissemination for {format_id!r}")
