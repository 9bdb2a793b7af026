import random
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
