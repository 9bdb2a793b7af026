"""Shared helpers: seeded random object and query generators, and a clock
a test sets by hand."""

import random
import string

from ino.model import (
    INO_NS,
    Clock,
    Datastream,
    DigitalObject,
    Term,
    Triple,
    make_draft,
)

TYPE_NAMES = ("Resource", "Metadata", "Agent", "Aggregation")


def random_local_id(rng: random.Random) -> str:
    n = rng.randint(1, 12)
    return "".join(rng.choice("abcdefghij0123456789._-") for _ in range(n)).strip(
        "."
    ) or "x"


def random_object(rng: random.Random, object_id=None) -> DigitalObject:
    oid = object_id or f"info:ino/{random_local_id(rng)}"
    types = rng.sample(TYPE_NAMES, rng.randint(1, 3))
    streams = []
    used = set()
    for _ in range(rng.randint(0, 3)):
        ds_id = "".join(rng.choice(string.ascii_lowercase) for _ in range(5))
        if ds_id in used:
            continue
        used.add(ds_id)
        if rng.random() < 0.5:
            streams.append(
                Datastream(ds_id, "text/plain",
                           content=bytes(rng.randrange(256) for _ in range(8)))
            )
        else:
            streams.append(
                Datastream(ds_id, "text/html",
                           surrogate=f"http://example.org/{ds_id}")
            )
    rels = []
    for _ in range(rng.randint(0, 3)):
        pred = INO_NS + rng.choice(("memberOf", "annotates", "relatedTo"))
        if rng.random() < 0.5:
            obj = Term.iri(f"info:ino/{random_local_id(rng)}")
        else:
            obj = Term.literal("lit-" + random_local_id(rng))
        rels.append(Triple(oid, pred, obj))
    return make_draft(oid, types, streams, rels)


class SteppedClock(Clock):
    """A clock that reads ``at`` until a test moves it, either way."""

    def __init__(self, at):
        self.at = at

    def now(self):
        return self.at
