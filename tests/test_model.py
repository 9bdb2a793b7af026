import random
import sys
from datetime import datetime, timedelta, timezone

import pytest

from ino.errors import InvalidObject, ParseError
from ino.model import (
    Datastream,
    DigitalObject,
    Term,
    Triple,
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
    assert serialize_object(canonical_object()) == CANONICAL


def test_minimal_object_has_empty_sections():
    obj = DigitalObject(id="info:ino/r1", types=("Resource",), created=T0,
                        modified=T0)
    data = serialize_object(obj)
    assert b"<datastreams/>" in data and b"<relationships/>" in data
    assert deserialize_object(data) == obj


def test_roundtrip_seeded_random_objects():
    rng = random.Random(42)
    for _ in range(1000):
        obj = random_object(rng)
        validate_object(obj)
        assert deserialize_object(serialize_object(obj)) == obj


def test_serialize_is_identity_on_bytes():
    data = serialize_object(canonical_object())
    assert serialize_object(deserialize_object(data)) == data


def test_unknown_element_is_parse_error():
    bad = CANONICAL.replace(b"<types>", b"<bogus/><types>")
    with pytest.raises(ParseError) as exc:
        deserialize_object(bad)
    assert "bogus" in str(exc.value)
    assert exc.value.line > 0


@pytest.mark.parametrize("old, new, message, line, column", [
    (b' state="Active"', b"", "missing attribute 'state' on inoObject", 2, 0),
    (CANONICAL, b'<?xml version="1.0" encoding="UTF-8"?>\n'
                b"<types><type>Resource</type></types>\n",
     "unexpected root element 'types'", 2, 0),
    (b'created="2006-01-01', b'created="2006-13-01',
     "bad timestamp '2006-13-01T00:00:00Z'", 2, 0),
    (b'<surrogate href="http://example.org/page"/>',
     b'<surrogate href="http://example.org/page"/>' * 2,
     "datastream 'content' needs exactly one content element", 5, 4),
    # an element is placed at its own tag, not at one its name begins
    (b"</type></types>", b"</type><typ/></types>", "unknown element 'typ'",
     3, 30),
    (b'<inline encoding="base64">', b"<inline>",
     "inline content must declare base64 encoding", 6, 49),
    (b"aGk=", b"a!k=", "bad base64 in datastream 'note'", 6, 49),
    (b'kind="iri"', b'kind="uri"', "bad triple kind 'uri'", 9, 4),
    # the second of two triples is placed on its own line
    (b'kind="iri"/>\n', b'kind="iri"/>\n    <triple predicate="info:ino/def#'
                       b'memberOf" object="info:ino/agg2" kind="uri"/>\n',
     "bad triple kind 'uri'", 10, 4),
    (b"</inoObject>", b"</inoObjekt>",
     "malformed XML: mismatched tag: line 11, column 2", 11, 2),
], ids=["missing-attribute", "unexpected-root", "bad-timestamp",
        "two-content-elements", "unknown-element-in-a-section",
        "inline-not-base64", "bad-base64", "bad-triple-kind",
        "bad-second-triple-kind", "malformed-xml"])
def test_bad_document_is_a_parse_error_at_its_element(old, new, message,
                                                     line, column):
    with pytest.raises(ParseError) as exc:
        deserialize_object(CANONICAL.replace(old, new, 1))
    assert str(exc.value) == f"{message} (line {line}, column {column})"
    assert (exc.value.line, exc.value.column) == (line, column)


def test_malformed_xml_reports_position():
    with pytest.raises(ParseError):
        deserialize_object(b"<inoObject")


def test_escaping_roundtrip():
    obj = DigitalObject(
        id="info:ino/r1", types=("Resource",), created=T0, modified=T0,
        relationships=(
            Triple("info:ino/r1", "info:ino/def#memberOf",
                   Term.literal('a "quoted" <literal> & more')),
        ),
    )
    assert deserialize_object(serialize_object(obj)) == obj


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
    from dataclasses import replace
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
