import random
import sys
from dataclasses import replace
from datetime import datetime, timedelta, timezone
from xml.etree import ElementTree as ET

import pytest

from ino.errors import InvalidObject
from ino.model import (
    Datastream,
    DigitalObject,
    Term,
    Triple,
    canonical_xml,
    deserialize_object,
    format_ts,
    parse_int,
    parse_ts,
    serialize_object,
    shard_path,
    validate_object,
)
from util import random_object

T0 = datetime(2006, 1, 1, tzinfo=timezone.utc)

CANONICAL = b"""<?xml version="1.0" encoding="UTF-8"?>
<inoObject id="info:ino/r1" state="Active" created="2006-01-01T00:00:00Z" modified="2006-01-01T00:00:00Z">
  <types><type>Resource</type></types>
  <datastreams>
    <datastream id="content" mediaType="text/html"><surrogate href="http://example.org/page"/></datastream>
    <datastream id="note" mediaType="text/plain"><inline encoding="base64">aGk=</inline></datastream>
  </datastreams>
  <relationships>
    <triple predicate="info:ino/def#memberOf" object="info:ino/agg1" kind="iri"/>
  </relationships>
</inoObject>
"""


def canonical_object():
    return DigitalObject(
        id="info:ino/r1",
        types=("Resource",),
        created=T0,
        modified=T0,
        datastreams=(
            Datastream("content", "text/html", surrogate="http://example.org/page"),
            Datastream("note", "text/plain", content=b"hi"),
        ),
        relationships=(
            Triple("info:ino/r1", "info:ino/def#memberOf",
                   Term.iri("info:ino/agg1")),
        ),
    )


def test_canonical_serialization_matches_grammar_example():
    assert canonical_xml(canonical_object()) == CANONICAL


def test_minimal_object_has_empty_sections():
    obj = DigitalObject(id="info:ino/r1", types=("Resource",), created=T0,
                        modified=T0)
    data = canonical_xml(obj)
    assert b"<datastreams/>" in data and b"<relationships/>" in data
    assert deserialize_object(serialize_object(obj)) == obj


def test_roundtrip_seeded_random_objects():
    """1,000 seeded objects decode equal and re-encode to the same bytes."""
    rng = random.Random(42)
    for _ in range(1000):
        obj = random_object(rng)
        validate_object(obj)
        data = serialize_object(obj)
        assert deserialize_object(data) == obj
        assert serialize_object(deserialize_object(data)) == data


def test_serialize_is_identity_on_bytes():
    data = serialize_object(canonical_object())
    assert serialize_object(deserialize_object(data)) == data


def test_escaping_roundtrip():
    text = 'a "quoted" <literal> & more\t\n\u00e9'
    obj = DigitalObject(
        id="info:ino/r1", types=("Resource",), created=T0, modified=T0,
        relationships=(
            Triple("info:ino/r1", "info:ino/def#memberOf", Term.literal(text)),
        ),
    )
    triple = ET.fromstring(canonical_xml(obj)).find("relationships/triple")
    assert triple.get("object") == text
    assert deserialize_object(serialize_object(obj)) == obj


# each kind of character XML 1.0 forbids: a C0 control, a lone surrogate, U+FFFF
FORBIDDEN = ["\u0001", "\ud800", "\uffff"]


@pytest.mark.parametrize("char", FORBIDDEN, ids=["c0", "surrogate", "uffff"])
@pytest.mark.parametrize("field, change", [
    ("types", lambda o, c: replace(o, types=("Resource" + c,))),
    ("datastreams: note", lambda o, c: replace(o, datastreams=(
        Datastream("note", "text/plain" + c, content=b"hi"),))),
    ("datastreams: content", lambda o, c: replace(o, datastreams=(
        Datastream("content", "text/html", surrogate="http://a.org/" + c),))),
    ("relationships", lambda o, c: replace(o, relationships=(
        Triple(o.id, "info:ino/def#p" + c, Term.iri("info:ino/agg1")),))),
    ("relationships", lambda o, c: replace(o, relationships=(
        Triple(o.id, "info:ino/def#p", Term.literal("x" + c)),))),
], ids=["type", "media-type", "surrogate", "predicate", "literal"])
def test_a_character_xml_forbids_is_invalid(field, change, char):
    """A string that canonical XML could not hold is refused, naming its
    field, so that every stored version can be exported."""
    with pytest.raises(InvalidObject, match=f"^{field}: a character XML 1.0 forbids"):
        validate_object(change(canonical_object(), char))


def test_every_valid_object_exports_well_formed_xml():
    """A seeded object whose strings draw on forbidden, escaped and
    non-ASCII characters either is invalid or exports as XML that reads
    back its values."""
    rng = random.Random(5)
    alphabet = ["a", "<", "&", '"', "\t", "\n", "\r", "\u00e9", "\U0001f600",
                "\ufffd", *FORBIDDEN, "\x1f", "\x7f"]
    valid = 0
    for _ in range(500):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 4)))
        obj = replace(random_object(rng), types=("Resource" + text,))
        obj = replace(obj, relationships=(
            *obj.relationships, Triple(obj.id, "info:ino/def#p", Term.literal(text))))
        try:
            validate_object(obj)
        except InvalidObject:
            continue
        valid += 1
        root = ET.fromstring(canonical_xml(obj))
        assert [t.text for t in root.find("types")] == list(obj.types)
        assert [t.get("object") for t in root.find("relationships")] == [
            t.object.value for t in obj.relationships]
    assert 100 < valid < 500


def test_validate_rejects_bad_objects():
    good = canonical_object()
    cases = [
        dict(id="info:ino/UPPER"),
        dict(types=()),
        dict(types=("Resource", "Resource")),
        dict(modified=datetime(2005, 1, 1, tzinfo=timezone.utc)),
        dict(datastreams=(Datastream("a b", "text/plain", content=b"x"),)),
        dict(datastreams=(Datastream("x", "text/plain"),)),
        dict(datastreams=(Datastream("x", "text/plain", surrogate="ftp://n"),)),
        dict(relationships=(Triple("info:ino/other", "p", Term.iri("i")),)),
    ]
    for overrides in cases:
        with pytest.raises(InvalidObject):
            validate_object(replace(good, **overrides))


# pinned with an independent sha256sum run:
#   sha256("info:ino/r1")  = 21d05387...
#   sha256("info:ino/abc") = 01148396...
def test_shard_path_pinned_values():
    assert shard_path("info:ino/r1") == "objects/21/d0/r1.xml"
    assert shard_path("info:ino/abc") == "objects/01/14/abc.xml"


def test_shard_path_deterministic_and_distinct():
    assert shard_path("info:ino/r1") == shard_path("info:ino/r1")
    assert shard_path("info:ino/r1") != shard_path("info:ino/r2")


def strptime_ts(text):
    """The earlier parser, kept as the reference: whatever it rejects,
    ``parse_ts`` rejects."""
    return datetime.strptime(text, "%Y-%m-%dT%H:%M:%SZ").replace(tzinfo=timezone.utc)


@pytest.mark.parametrize("text", [
    "2006-02-30T00:00:00Z", "2006-01-01T24:00:00Z", "2006-01-01T00:60:00Z",
    "2006-01-01T00:00:60Z", "2006-01-01 00:00:00Z", "2006-01-01T00:00:00",
    "2006-01-01T00:00:00+00:00", "2006-01-01", "2006-W01-1T00:00:00Z",
    "20060101T000000Z", "0000-01-01T00:00:00Z", " 2006-01-01T00:00:00Z", "",
    # taken by strptime, never written by format_ts
    "2006-1-1T0:0:0Z", "2006-01-01T00:00:0Z",
    "\u0662\u0660\u0660\u0666-01-01T00:00:00Z",  # Arabic-Indic digits
])
def test_parse_ts_rejects(text):
    with pytest.raises(ValueError):
        parse_ts(text)


def test_parse_ts_is_no_looser_than_strptime():
    rng = random.Random(7)
    alphabet = "0123456789-T:Z +W\u0663"
    for _ in range(3000):
        ts = datetime.fromtimestamp(rng.randrange(0, 2 ** 32), timezone.utc)
        text = list(format_ts(ts))
        assert parse_ts("".join(text)) == ts
        for _ in range(rng.randrange(1, 3)):
            text[rng.randrange(len(text))] = rng.choice(alphabet)
        text = "".join(text)
        try:
            expected = strptime_ts(text)
        except ValueError:
            with pytest.raises(ValueError):
                parse_ts(text)
            continue
        try:
            assert parse_ts(text) == expected
        except ValueError:
            assert format_ts(expected) != text  # a form format_ts never writes


@pytest.mark.parametrize("text, limit, value", [
    ("0", 10, 0), ("10", 10, 10), ("11", 10, 11), ("007", 10, 7),
    ("12345", 10, 11),
    ("0" * 5000 + "7", 10, 7),  # int() refuses over 4300 digits
    ("9" * 5000, 10, 11),
    ("65535", 65535, 65535), ("65536", 65535, 65536),
    (str(sys.maxsize), sys.maxsize - 1, sys.maxsize),
    ("9" * 20, sys.maxsize, sys.maxsize + 1),
])
def test_parse_int_caps_at_one_past_the_limit(text, limit, value):
    assert parse_int(text, limit) == value


@pytest.mark.parametrize("text", [
    "", " 1", "1 ", "-1", "+1", "1.0", "1e3", "0x10", "1_000",
    "\u0663", "1\u0663", "\u00b2",  # an Arabic-Indic three, a superscript two
])
def test_parse_int_takes_ascii_digits_only(text):
    assert parse_int(text, 10) is None


def test_format_ts_matches_strftime():
    """``format_ts`` writes what ``strftime`` writes, for any offset and any
    microseconds, over the UTC years 1000 to 9999; ``parse_ts`` reads it back
    to the second."""
    rng = random.Random(11)
    lo = datetime(1000, 1, 1, tzinfo=timezone.utc)
    span = int((datetime(9999, 12, 31, 23, 59, 59, tzinfo=timezone.utc)
                - lo).total_seconds())
    zones = [timezone.utc, timezone(timedelta(0)), timezone(timedelta(hours=5, minutes=30))]
    for _ in range(3000):
        utc = lo + timedelta(seconds=rng.randint(0, span),
                             microseconds=rng.randrange(10 ** 6))
        zone = rng.choice([*zones, timezone(timedelta(minutes=rng.randint(-1439, 1439)))])
        ts = utc.astimezone(zone)
        text = format_ts(ts)
        assert text == ts.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
        assert parse_ts(text) == utc.replace(microsecond=0)
        assert format_ts(parse_ts(text)) == text
