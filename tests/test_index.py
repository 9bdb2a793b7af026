import itertools
import random
import tracemalloc
from collections import Counter
from dataclasses import replace
from datetime import timedelta

import pytest

import ino.index as index_mod
from ino import Repository, VirtualClock
from ino.corpus import CorpusProfile, generate_corpus
from ino.errors import OracleTooLarge, QuerySyntaxError, QueryTooLarge
from ino.index import (
    ConjunctiveQuery,
    SolutionRow,
    TripleIndex,
    TriplePattern,
    Var,
    extract_triples,
    parse_query,
    triple_count_formula,
)
from ino.model import (
    INO_NS,
    MEMBER_OF,
    METADATA_FOR,
    OBJECT_TYPE,
    STATE,
    Datastream,
    Term,
    Triple,
    make_draft,
    type_iri,
)
from util import random_object

RELATED_TO = INO_NS + "relatedTo"


def obj(local, types=("Resource",), **kw):
    return make_draft(f"info:ino/{local}", types, **kw)


def test_extract_triples_minimal_count():
    assert len(extract_triples(obj("r1"))) == 4  # 1 type + 3 system literals


def test_extract_triples_formula_example():
    o = obj(
        "r1", types=("Resource", "Metadata"),
        datastreams=[Datastream("content", "text/html",
                                surrogate="http://example.org/x")],
        relationships=[
            Triple("info:ino/r1", MEMBER_OF, Term.iri("info:ino/a")),
            Triple("info:ino/r1", METADATA_FOR, Term.iri("info:ino/b")),
        ],
    )
    triples = extract_triples(o)
    assert len(triples) == 10 == triple_count_formula(o)
    # system triples come first, relationships last
    assert triples[-2:] == list(o.relationships)


def test_extract_triples_formula_random_objects():
    rng = random.Random(3)
    for _ in range(1000):
        o = random_object(rng)
        # independent count: types + dates/state + per-datastream + rels
        expected = (
            len(o.types) + 3 + len(o.relationships)
            + sum(3 if ds.is_surrogate else 2 for ds in o.datastreams)
        )
        assert len(extract_triples(o)) == expected


def test_index_match_state(store):
    idx = TripleIndex()
    idx.index_object(store.create(obj("r1")))
    hits = idx.match(TriplePattern(Var("?s"), Term.iri(STATE),
                                   Term.literal("Active")))
    assert {t.subject for t in hits} == {"info:ino/r1"}


def test_deindex_inverse(store):
    idx = TripleIndex()
    o = store.create(obj("r1"))
    idx.index_object(o)
    idx.deindex_object(o.id)
    assert idx.size() == 0
    assert idx.match(TriplePattern(Term.iri(o.id), Var("?p"), Var("?o"))) == set()


def test_reindex_replaces(store):
    idx = TripleIndex()
    o = store.create(obj("r1"))
    idx.index_object(o)
    o2 = store.modify(o.id, relationships=[
        Triple(o.id, MEMBER_OF, Term.iri("info:ino/agg"))
    ])
    idx.index_object(o2)
    modified = Term.literal(o.modified.strftime("%Y-%m-%dT%H:%M:%SZ"))
    assert Triple(o.id, MEMBER_OF, Term.iri("info:ino/agg")) in idx.triple_set()
    assert not any(t.object == modified for t in idx.triple_set()
                   if t.predicate.endswith("modifiedDate"))


def test_match_ground_and_unknown():
    idx = TripleIndex()
    idx.index_object(obj("r1"))
    t = Triple("info:ino/r1", OBJECT_TYPE, Term.iri(type_iri("Resource")))
    assert idx.match(TriplePattern(Term.iri(t.subject), Term.iri(t.predicate),
                                   t.object)) == {t}
    assert idx.match(TriplePattern(Var("?s"), Term.iri("info:ino/def#nope"),
                                   Var("?o"))) == set()


def metadata_fixture():
    idx = TripleIndex()
    idx.index_object(obj("r1"))
    m = obj("m1", types=("Metadata",), relationships=[
        Triple("info:ino/m1", METADATA_FOR, Term.iri("info:ino/r1")),
    ])
    idx.index_object(m)
    return idx


def metadata_query():
    return ConjunctiveQuery(
        (
            TriplePattern(Var("?m"), Term.iri(METADATA_FOR),
                          Term.iri("info:ino/r1")),
            TriplePattern(Var("?m"), Term.iri(OBJECT_TYPE),
                          Term.iri(type_iri("Metadata"))),
        ),
        ("?m",),
    )


def test_evaluate_metadata_join():
    idx = metadata_fixture()
    rows = idx.evaluate(metadata_query())
    assert rows == {SolutionRow.of({"?m": Term.iri("info:ino/m1")})}
    assert rows == idx.evaluate_brute_force(metadata_query())


def test_evaluate_no_match_projection():
    idx = metadata_fixture()
    q = ConjunctiveQuery(
        (TriplePattern(Var("?x"), Term.iri(METADATA_FOR),
                       Term.iri("info:ino/absent")),),
        ("?x",),
    )
    assert idx.evaluate(q) == set() == idx.evaluate_brute_force(q)


def test_join_order_independence():
    idx = metadata_fixture()
    q = metadata_query()
    for perm in itertools.permutations(q.patterns):
        assert idx.evaluate(ConjunctiveQuery(perm, q.projected)) == idx.evaluate(q)


def test_monotonic_counts():
    idx = TripleIndex()
    rng = random.Random(11)
    objects = [random_object(rng, object_id=f"info:ino/o{i}") for i in range(50)]
    total = 0
    for o in objects:
        idx.index_object(o)
        total += triple_count_formula(o)
        # duplicate triples inside one object collapse in the set view only
        assert idx.size() == total
    for o in objects:
        idx.deindex_object(o.id)
        total -= triple_count_formula(o)
        assert idx.size() == total


def test_query_too_large(monkeypatch):
    monkeypatch.setattr(index_mod, "RESULT_CAP", 5)
    idx = TripleIndex()
    for i in range(10):
        idx.index_object(obj(f"r{i}"))
    q = ConjunctiveQuery(
        (TriplePattern(Var("?s"), Term.iri(OBJECT_TYPE),
                       Term.iri(type_iri("Resource"))),),
        ("?s",),
    )
    with pytest.raises(QueryTooLarge):
        idx.evaluate(q)


def test_oracle_guard(monkeypatch):
    idx = metadata_fixture()
    monkeypatch.setattr(index_mod, "ORACLE_TRIPLE_CAP", 2)
    with pytest.raises(OracleTooLarge):
        idx.evaluate_brute_force(metadata_query())


def test_rebuild_equivalence_random(store):
    rng = random.Random(5)
    idx = TripleIndex()
    live = {}
    for i in range(200):
        roll = rng.random()
        if roll < 0.6 or not live:
            o = store.create(random_object(rng, object_id=f"info:ino/o{i}"))
            idx.index_object(o)
            live[o.id] = o
        elif roll < 0.85:
            oid = rng.choice(sorted(live))
            o = store.modify(oid, relationships=[])
            idx.index_object(o)
            live[oid] = o
        else:
            oid = rng.choice(sorted(live))
            store.purge(oid)
            idx.deindex_object(oid)
            del live[oid]
    fresh = TripleIndex()
    fresh.rebuild(store.objects())
    assert fresh.triple_set() == idx.triple_set()
    assert fresh.size() == idx.size()


def test_rebuild_empty():
    idx = TripleIndex()
    idx.rebuild([])
    assert idx.size() == 0


# ------------------------------------------------------------- query grammar

def test_parse_query_roundtrip():
    q = parse_query(
        'SELECT ?m WHERE ?m <info:ino/def#metadataFor> <info:ino/r1> ; '
        '?m <info:ino/def#objectType> <info:ino/def#Metadata>'
    )
    assert len(q.patterns) == 2
    assert q.projected == ("?m",)
    assert q.patterns[0].object == Term.iri("info:ino/r1")


def test_parse_query_literal_escapes():
    q = parse_query(r'SELECT ?s WHERE ?s <info:ino/def#state> "say \"hi\""')
    assert q.patterns[0].object == Term.literal('say "hi"')


@pytest.mark.parametrize("text", [
    "WHERE ?s <a> <b>",
    "SELECT ?s WHERE",
    "SELECT ?s WHERE ?s <a>",
    "SELECT ?s WHERE ?s <a> <b> extra junk",
    "SELECT ?Q WHERE ?q <a> <b>",
    "SELECT ?x WHERE ?s <a> <b>",  # projected var unused
])
def test_parse_query_errors(text):
    with pytest.raises(QuerySyntaxError):
        parse_query(text)


def test_pattern_count_limit():
    patterns = tuple(
        TriplePattern(Var("?s"), Term.iri(f"info:ino/p{i}"), Var("?o"))
        for i in range(9)
    )
    with pytest.raises(QuerySyntaxError):
        ConjunctiveQuery(patterns, ("?s",))


# ------------------------------------------- differential and bound tests

def _random_index(rng, n=40):
    """Random objects, plus a self-loop and a literal that spells the IRI
    of a subject, so kinds and repeated variables are exercised."""
    idx = TripleIndex()
    objects = [random_object(rng, object_id=f"info:ino/o{i}") for i in range(n)]
    oid = objects[0].id
    objects[0] = make_draft(oid, objects[0].types, objects[0].datastreams, [
        Triple(oid, RELATED_TO, Term.iri(oid)),
        Triple(oid, RELATED_TO, Term.literal(objects[1].id)),
        Triple(oid, MEMBER_OF, Term.iri(objects[2].id)),
    ])
    for i in range(3, n):
        if rng.random() < 0.5:  # links between objects, for chains
            objects[i] = make_draft(objects[i].id, objects[i].types, (), [
                Triple(objects[i].id, MEMBER_OF,
                       Term.iri(rng.choice(objects[:i]).id))])
    for o in objects:
        idx.index_object(o)
    return idx


_ABSENT_TERMS = (Term.iri("info:ino/none"), Term.literal("nope"),
                 Term.literal("info:ino/o3"))


def _random_patterns(rng, triples, by_subject):
    """1-3 patterns from indexed triples that share a subject (a star) or
    link an object to a subject (a chain). Each position is a constant, a
    variable named after its term (so shared terms join), another variable,
    or now and then a constant that no triple uses."""
    chosen = [rng.choice(triples)]
    for _ in range(rng.randint(0, 2)):
        base = rng.choice(chosen)
        pool = by_subject[base.subject]
        if base.object.is_iri and rng.random() < 0.5:
            pool = by_subject.get(base.object.value, pool)
        chosen.append(rng.choice(pool))
    names: dict[Term, str] = {}
    patterns = []
    for t in chosen:
        atoms = []
        for value in (Term.iri(t.subject), Term.iri(t.predicate), t.object):
            roll = rng.random()
            if roll < 0.05:
                atoms.append(rng.choice(_ABSENT_TERMS))
            elif roll < 0.4:
                atoms.append(value)
            elif roll < 0.5 and names:
                atoms.append(Var(rng.choice(sorted(names.values()))))
            else:
                atoms.append(Var(names.setdefault(value, f"?v{len(names)}")))
        patterns.append(TriplePattern(*atoms))
    return tuple(patterns)


def test_evaluate_equals_brute_force_in_every_order():
    rng = random.Random(7)
    idx = _random_index(rng)
    triples = idx.all_triples()
    by_subject: dict[str, list[Triple]] = {}
    for t in triples:
        by_subject.setdefault(t.subject, []).append(t)
    checked = nonempty = joins = 0
    while checked < 300:
        patterns = _random_patterns(rng, triples, by_subject)
        used = sorted(set().union(*(p.variables() for p in patterns)))
        cost = 1
        for p in patterns:
            cost *= max(idx.estimate(p), 1)
        if cost > 50_000:  # keep the nested-loop oracle cheap
            continue
        projected = tuple(rng.sample(used, rng.randint(0, len(used))))
        expected = idx.evaluate_brute_force(ConjunctiveQuery(patterns, projected))
        for perm in itertools.permutations(patterns):
            assert idx.evaluate(ConjunctiveQuery(perm, projected)) == expected, perm
        checked += 1
        nonempty += bool(expected)
        joins += bool(expected) and len(patterns) > 1
    assert nonempty >= 100 and joins >= 50, (nonempty, joins)


@pytest.mark.parametrize("patterns, projected", [
    # a variable predicate
    ([(Var("?s"), Var("?p"), Term.iri("info:ino/o2"))], ("?s", "?p")),
    # a variable twice in one pattern: the self-loop only
    ([(Var("?x"), Var("?p"), Var("?x"))], ("?x", "?p")),
    ([(Var("?x"), Var("?x"), Var("?o"))], ("?x",)),
    # a literal bound to a variable that a later pattern uses as a subject:
    # its text is an IRI subject's, but a literal is no subject
    ([(Term.iri("info:ino/o0"), Var("?p"), Var("?o")),
      (Var("?o"), Term.iri(OBJECT_TYPE), Var("?t"))], ("?o", "?t")),
    # a chain and a star
    ([(Var("?a"), Term.iri(MEMBER_OF), Var("?b")),
      (Var("?b"), Term.iri(OBJECT_TYPE), Var("?t")),
      (Var("?b"), Term.iri(STATE), Var("?st"))], ("?a", "?t", "?st")),
    # constants that no triple uses, in each position
    ([(Var("?s"), Term.iri("info:ino/nope"), Var("?o"))], ("?s",)),
    ([(Term.literal("info:ino/o0"), Var("?p"), Var("?o"))], ("?p",)),
    ([(Var("?s"), Term.iri(STATE), Var("?o")),
      (Var("?s"), Var("?p"), Term.literal("nope"))], ("?s",)),
])
def test_evaluate_shapes_equal_brute_force(patterns, projected):
    idx = _random_index(random.Random(8))
    q = ConjunctiveQuery(tuple(TriplePattern(*p) for p in patterns), projected)
    expected = idx.evaluate_brute_force(q)
    for perm in itertools.permutations(q.patterns):
        assert idx.evaluate(ConjunctiveQuery(perm, projected)) == expected


def test_terms_linked_by_several_predicates():
    """Two terms linked by three predicates: a subject- or object-led step
    that knows both terms finds all three, as the oracle does."""
    preds = [Term.iri(INO_NS + name) for name in ("cites", "annotates", "extends")]
    idx = TripleIndex()
    idx.index_object(obj("a", types=("Thing",), relationships=[
        Triple("info:ino/a", p.value, Term.iri("info:ino/b")) for p in preds]))
    idx.index_object(obj("b", types=("Other",)))
    a, b = Term.iri("info:ino/a"), Term.iri("info:ino/b")
    thing = TriplePattern(Var("?s"), Term.iri(OBJECT_TYPE), Term.iri(type_iri("Thing")))
    other = TriplePattern(Var("?o"), Term.iri(OBJECT_TYPE), Term.iri(type_iri("Other")))
    queries = [
        ((TriplePattern(a, Var("?p"), b),), ("?p",)),
        ((thing, other, TriplePattern(Var("?s"), Var("?p"), Var("?o"))),
         ("?s", "?p", "?o")),
        ((thing, TriplePattern(Var("?s"), Var("?p"), b)), ("?s", "?p")),
        ((other, TriplePattern(a, Var("?p"), Var("?o"))), ("?o", "?p")),
    ]
    for patterns, projected in queries:
        expected = idx.evaluate_brute_force(ConjunctiveQuery(patterns, projected))
        assert {row["?p"] for row in expected} == set(preds)
        for perm in itertools.permutations(patterns):
            assert idx.evaluate(ConjunctiveQuery(perm, projected)) == expected
    assert idx.match(TriplePattern(a, Var("?p"), b)) == {
        Triple(a.value, p.value, b) for p in preds}


def test_self_loop_and_literal_rows():
    idx = _random_index(random.Random(8))
    loop = ConjunctiveQuery((TriplePattern(Var("?x"), Var("?p"), Var("?x")),),
                            ("?x",))
    assert idx.evaluate(loop) == {SolutionRow.of({"?x": Term.iri("info:ino/o0")})}
    lit = ConjunctiveQuery((
        TriplePattern(Term.iri("info:ino/o0"), Term.iri(RELATED_TO), Var("?o")),
        TriplePattern(Var("?o"), Term.iri(OBJECT_TYPE), Var("?t"))), ("?o",))
    assert idx.evaluate(lit) == {SolutionRow.of({"?o": Term.iri("info:ino/o0")})}


def _term_table(idx):
    live = [t for t in idx._terms if t is not None]
    assert len(live) == len(idx._ids) == len(idx._terms) - len(idx._free)
    return set(live)


@pytest.mark.parametrize("seed", range(5))
def test_term_table_equals_rebuild_after_churn(seed):
    rng = random.Random(seed)
    idx = TripleIndex()
    live = {}
    for i in range(300):
        roll = rng.random()
        if roll < 0.4 or not live:
            o = random_object(rng, object_id=f"info:ino/o{i}")
        elif roll < 0.85:  # modify: a new modifiedDate and new links
            old = live[rng.choice(sorted(live))]
            fresh = random_object(rng, object_id=old.id)
            o = replace(old, modified=old.modified + timedelta(seconds=i),
                        datastreams=fresh.datastreams,
                        relationships=fresh.relationships)
        else:
            oid = rng.choice(sorted(live))
            idx.deindex_object(oid)
            del live[oid]
            continue
        idx.index_object(o)
        live[o.id] = o
    fresh = TripleIndex()
    fresh.rebuild(live.values())
    assert _term_table(idx) == _term_table(fresh)
    assert idx.triple_set() == fresh.triple_set()
    assert idx.size() == fresh.size()


def test_term_table_empties_when_every_object_goes():
    rng = random.Random(4)
    idx = TripleIndex()
    objects = [random_object(rng, object_id=f"info:ino/o{i}") for i in range(30)]
    for o in objects:
        idx.index_object(o)
        idx.index_object(o)  # re-indexing replaces
    for o in objects:
        idx.deindex_object(o.id)
    assert idx.size() == 0 and _term_table(idx) == set()


# ---------------------------------------------------------------- explain

def _aggregation_fixture(aggregations=6, resources=60):
    """The bench's shape: resources and their metadata, each a member of
    one aggregation; aggregation 0 has few members."""
    idx = TripleIndex()
    for i in range(resources):
        agg = Term.iri(f"info:ino/agg{0 if i < 3 else 1 + i % (aggregations - 1)}")
        r, m = f"info:ino/r{i}", f"info:ino/m{i}"
        idx.index_object(obj(f"r{i}", relationships=[Triple(r, MEMBER_OF, agg)]))
        if i % 4:
            idx.index_object(obj(f"m{i}", types=("Metadata",), relationships=[
                Triple(m, METADATA_FOR, Term.iri(r)), Triple(m, MEMBER_OF, agg)]))
    return idx


def _join_query(agg):
    return ConjunctiveQuery((
        TriplePattern(Var("?r"), Term.iri(MEMBER_OF), Term.iri(agg)),
        TriplePattern(Var("?m"), Term.iri(METADATA_FOR), Var("?r")),
        TriplePattern(Var("?m"), Term.iri(OBJECT_TYPE),
                      Term.iri(type_iri("Metadata"))),
    ), ("?m",))


@pytest.mark.parametrize("agg", ["info:ino/agg0", "info:ino/agg1"])
def test_explain_join(agg):
    idx = _aggregation_fixture()
    q = _join_query(agg)
    plan = idx.explain(q)
    assert len(plan) == 3
    assert sorted(step["pattern"] for step in plan) == sorted([
        f"?r <{MEMBER_OF}> <{agg}>", f"?m <{METADATA_FOR}> ?r",
        f"?m <{OBJECT_TYPE}> <{type_iri('Metadata')}>"])
    # the last step holds the join's rows before projection
    every_variable = ConjunctiveQuery(q.patterns, ("?m", "?r"))
    assert plan[-1]["rows"] == len(idx.evaluate_brute_force(every_variable)) > 0
    # the first step's estimate is the pattern's exact count
    first = next(p for p in q.patterns if _render_of(p) == plan[0]["pattern"])
    assert plan[0]["estimate"] == idx.estimate(first)
    assert idx.evaluate(q) == idx.evaluate_brute_force(q)


def _render_of(p):
    return " ".join(a.name if isinstance(a, Var) else f"<{a.value}>"
                    for a in (p.subject, p.predicate, p.object))


def test_explain_starts_from_a_selective_constant_pattern():
    idx = _aggregation_fixture()
    for q in (_join_query("info:ino/agg0"),
              ConjunctiveQuery(tuple(reversed(_join_query("info:ino/agg0").patterns)),
                               ("?m",))):
        plan = idx.explain(q)
        assert plan[0]["pattern"] == f"?r <{MEMBER_OF}> <info:ino/agg0>"
        assert plan[0]["estimate"] == plan[0]["rows"] == 5  # 3 resources, 2 metadata


def test_explain_with_an_absent_constant():
    idx = _aggregation_fixture()
    plan = idx.explain(_join_query("info:ino/none"))
    assert plan[0] == {"pattern": f"?r <{MEMBER_OF}> <info:ino/none>",
                       "estimate": 0, "rows": 0}
    assert [step["rows"] for step in plan] == [0, 0, 0]


def test_solution_row_getitem():
    row = SolutionRow.of({"?a": Term.iri("x"), "?b": Term.literal("y")})
    assert row["?b"] == Term.literal("y") and row["?a"] == Term.iri("x")
    with pytest.raises(KeyError):
        row["?c"]


# ------------------------------------------------------ leaves and counts

def _bare_zero_store(position):
    """An index whose term id 0, the object of the first triple indexed, is
    the only match of a pattern in ``position``: it sits there as a bare
    leaf. Returns the index and that pattern's atoms, the variable ``?x``
    where id 0 is."""
    first = obj("a", types=("Thing",))  # id 0 is the IRI of type Thing
    zero = Term.iri(type_iri("Thing"))
    if position == 0:
        other = make_draft(zero.value, ("Class",))
        atoms = (Var("?x"), Term.iri(OBJECT_TYPE), Term.iri(type_iri("Class")))
    elif position == 1:
        other = obj("b", relationships=[
            Triple("info:ino/b", zero.value, Term.literal("v"))])
        atoms = (Term.iri("info:ino/b"), Var("?x"), Term.literal("v"))
    else:
        other = obj("b", types=("Agent",))
        atoms = (Term.iri("info:ino/a"), Term.iri(OBJECT_TYPE), Var("?x"))
    idx = TripleIndex()
    for o in (first, other):
        idx.index_object(o)
    assert idx._terms[0] == zero
    return idx, atoms


@pytest.mark.parametrize("position", [0, 1, 2])
def test_term_id_zero_as_a_bare_leaf(position):
    idx, atoms = _bare_zero_store(position)
    pattern = TriplePattern(*atoms)
    found = idx.match(pattern)
    assert len(found) == 1 and idx.estimate(pattern) == 1
    assert found == {t for t in idx.all_triples()
                     if index_mod._merge(pattern, t, {}) is not None}
    (t,) = found
    ground = (Term.iri(t.subject), Term.iri(t.predicate), t.object)
    # through the leaf on the pattern's own path, then reached from a
    # variable ?k bound before it in each of the other two positions
    other = [Var("?s"), Var("?p"), Var("?o")]
    other[position] = Var("?x")
    queries = [(pattern, TriplePattern(*other))]
    for k in {0, 1, 2} - {position}:
        pin, open_ = list(ground), list(atoms)
        pin[k] = open_[k] = Var("?k")
        queries.append((TriplePattern(*pin), TriplePattern(*open_)))
    for patterns in queries:
        expected = idx.evaluate_brute_force(ConjunctiveQuery(patterns, ("?x",)))
        assert expected == {SolutionRow.of({"?x": Term.iri(type_iri("Thing"))})}
        for perm in itertools.permutations(patterns):
            assert idx.evaluate(ConjunctiveQuery(perm, ("?x",))) == expected


def _churned_index(seed):
    """An index after 300 seeded creates, modifies and purges, and the
    objects left live."""
    rng = random.Random(seed)
    idx = TripleIndex()
    live = {}
    for i in range(300):
        roll = rng.random()
        if roll < 0.4 or not live:
            o = random_object(rng, object_id=f"info:ino/o{i}")
        elif roll < 0.85:
            old = live[rng.choice(sorted(live))]
            fresh = random_object(rng, object_id=old.id)
            o = replace(old, modified=old.modified + timedelta(seconds=i),
                        datastreams=fresh.datastreams,
                        relationships=fresh.relationships)
        else:
            oid = rng.choice(sorted(live))
            idx.deindex_object(oid)
            del live[oid]
            continue
        idx.index_object(o)
        live[o.id] = o
    return idx, live


def _by_term(idx):
    """The stored maps (PSO, POS) and the per-position counts with every id
    turned into its term, a leaf kept as its shape: a bare term, or a set of
    them. A count column gives its nonzero entries, and each column is a
    recount of the triples (``_check_counts``)."""
    terms = idx._terms

    def leaf(x):
        return terms[x] if isinstance(x, int) else {terms[i] for i in x}
    maps = [{terms[a]: {terms[b]: leaf(c) for b, c in inner.items()}
             for a, inner in m.items()} for m in (idx._pso, idx._pos)]
    _check_counts(idx)
    counts = [{terms[a]: n for a, n in enumerate(c) if n} for c in idx._counts]
    return maps, counts


def _members(leaf):
    return (leaf,) if isinstance(leaf, int) else leaf


def _check_counts(idx):
    """Each count column is as long as the id space, holds a recount of the
    triples in PSO at each id that has them in its position and 0 at every
    other id (so a stale count fails), and each distinct counter is its
    column's nonzero entries. Returns the triples."""
    triples = [(s, p, o) for p, inner in idx._pso.items()
               for s, objs in inner.items() for o in _members(objs)]
    for pos, counts in enumerate(idx._counts):
        recount = Counter(t[pos] for t in triples)
        assert list(counts) == [recount[i] for i in range(len(idx._terms))]
        assert idx._distinct[pos] == len(recount) == sum(1 for n in counts if n)
    return triples


@pytest.mark.parametrize("seed", range(5))
def test_leaves_and_counts_hold_after_churn(seed):
    idx, live = _churned_index(seed)
    for m in (idx._pso, idx._pos):
        for inner in m.values():
            assert inner
            for leaf in inner.values():
                assert isinstance(leaf, int) or len(leaf) >= 2
    # both maps hold the same triples, and the counts of each position are
    # a recount of them (a stale count fails too)
    triples = _check_counts(idx)
    assert len(triples) == idx.size()
    assert set(triples) == {(s, p, o) for p, inner in idx._pos.items()
                            for o, subjects in inner.items()
                            for s in _members(subjects)}
    fresh = TripleIndex()
    fresh.rebuild(live.values())
    assert _by_term(idx) == _by_term(fresh)
    assert _term_table(idx) == _term_table(fresh)


# ------------------------------------------------------------ object order

HUB, AGG = Term.iri("info:ino/hub"), Term.iri("info:ino/agg")


def _hub_index(seed):
    """A churned index in which at least 50 subjects link to ``HUB``, some
    by two predicates; a third of them are members of ``AGG`` and a sixth
    link to themselves. Then some of them drop their links and some objects
    are deindexed."""
    idx, live = _churned_index(seed)
    rng = random.Random(seed)
    for i in range(90):
        o = random_object(rng, object_id=f"info:ino/h{i}")
        rels = [*o.relationships, Triple(o.id, RELATED_TO, HUB)]
        if i % 3 == 0:
            rels.append(Triple(o.id, MEMBER_OF, AGG))
        if i % 5 == 0:
            rels.append(Triple(o.id, MEMBER_OF, HUB))
        if i % 6 == 0:
            rels.append(Triple(o.id, RELATED_TO, Term.iri(o.id)))
        live[o.id] = replace(o, relationships=tuple(rels))
        idx.index_object(live[o.id])
    hubbed = sorted(oid for oid in live if oid.startswith("info:ino/h"))
    for oid in rng.sample(hubbed, 10):
        live[oid] = replace(live[oid], relationships=(),
                            modified=live[oid].modified + timedelta(seconds=1))
        idx.index_object(live[oid])
    for oid in rng.sample(sorted(live), 15):
        idx.deindex_object(oid)
        del live[oid]
    return idx, live


def _q(text):
    return parse_query(text.replace("<hub>", f"<{HUB.value}>")
                       .replace("<agg>", f"<{AGG.value}>")
                       .replace("<memberOf>", f"<{MEMBER_OF}>"))


@pytest.mark.parametrize("seed", range(3))
def test_object_led_shapes_equal_brute_force_after_churn(seed):
    idx, live = _hub_index(seed)
    subjects = {t.subject for t in idx.match(
        _q("SELECT ?s WHERE ?s ?p <hub>").patterns[0])}
    assert len(subjects) >= 50
    two = next(s for s in sorted(subjects) if len(idx.match(
        _q(f"SELECT ?p WHERE <{s}> ?p <hub>").patterns[0])) == 2)
    none = next(oid for oid in sorted(live) if oid not in subjects)
    member = next(oid for oid in sorted(live) if len(idx.match(
        _q(f"SELECT ?o WHERE <{oid}> <memberOf> ?o").patterns[0])) == 2)
    in_agg = next(oid for oid in sorted(live) if len(idx.match(
        _q(f"SELECT ?p WHERE <{oid}> ?p <agg>").patterns[0])) == 1)
    q = _q(f"SELECT ?p WHERE <{none}> ?p <hub>")
    assert idx.evaluate(q) == set() == idx.evaluate_brute_force(q)
    queries = [
        # (query, the pattern of the step that must run last, or None)
        ("SELECT ?s ?p WHERE ?s ?p <hub>", None),
        (f"SELECT ?p WHERE <{two}> ?p <hub>", None),
        # ?o bound by the cheaper first step, then the object-led step
        (f"SELECT ?p ?o WHERE <{member}> <memberOf> ?o ; <{two}> ?p ?o",
         f"<{two}> ?p ?o"),
        ("SELECT ?m ?p WHERE ?m <memberOf> <agg> ; ?m ?p <hub>",
         f"?m ?p <{HUB.value}>"),
        # the predicate bound by an earlier step too: with ?s bound, then
        # with the subject a constant
        ("SELECT ?s ?p WHERE ?s ?p <agg> ; ?s ?p <hub>", f"?s ?p <{HUB.value}>"),
        (f"SELECT ?p WHERE <{in_agg}> ?p <agg> ; <{two}> ?p <hub>",
         f"<{two}> ?p <{HUB.value}>"),
        ("SELECT ?x ?p WHERE ?x ?p ?x", None),
        ("SELECT ?x ?p WHERE ?x <memberOf> <agg> ; ?x ?p ?x", "?x ?p ?x"),
        ("SELECT ?x ?p ?q WHERE ?x ?q <hub> ; ?x ?p ?x", None),
    ]
    for text, last in queries:
        q = _q(text)
        expected = idx.evaluate_brute_force(q)
        for perm in itertools.permutations(q.patterns):
            permuted = ConjunctiveQuery(perm, q.projected)
            assert idx.evaluate(permuted) == expected, text
            if last is not None:
                assert idx.explain(permuted)[-1]["pattern"] == last
        assert expected, text


@pytest.mark.parametrize("seed", range(3))
def test_subject_led_shapes_equal_brute_force_after_churn(seed):
    idx, live = _hub_index(seed)
    member = next(oid for oid in sorted(live) if len(idx.match(
        _q(f"SELECT ?o WHERE <{oid}> <memberOf> ?o").patterns[0])) == 2)
    two = next(oid for oid in sorted(live) if len(idx.match(
        _q(f"SELECT ?p WHERE <{oid}> ?p <hub>").patterns[0])) == 2)
    gone = next(oid for oid in (f"info:ino/o{i}" for i in range(300))
                if oid not in live)
    # a subject's own triples, from the object that gave them
    for text, expected in [
        (f"SELECT ?p ?o WHERE <{member}> ?p ?o",
         [t for t in extract_triples(live[member]) if t.subject == member]),
        (f"SELECT ?p WHERE <{two}> ?p <hub>",
         [t for t in extract_triples(live[two]) if t.object == HUB]),
        (f"SELECT ?p ?o WHERE <{gone}> ?p ?o", []),
        ("SELECT ?p ?o WHERE <hub> ?p ?o", []),  # a term only as object
    ]:
        p = _q(text).patterns[0]
        assert idx.match(p) == set(expected), text
        assert idx.estimate(p) == len(expected), text
    queries = [
        # (query, the pattern of the step that must run last, or None)
        (f"SELECT ?p ?o WHERE <{member}> ?p ?o", None),
        (f"SELECT ?p WHERE <{two}> ?p <hub>", None),
        (f"SELECT ?p ?o WHERE <{gone}> ?p ?o", None),
        ("SELECT ?p ?o WHERE <hub> ?p ?o", None),
        # ?s bound by the cheaper first step, then the subject-led step
        ("SELECT ?s ?p ?o WHERE ?s <memberOf> <agg> ; ?s ?p ?o", "?s ?p ?o"),
        ("SELECT ?s ?p WHERE ?s <memberOf> <agg> ; ?s ?p <hub>", None),
        (f"SELECT ?p ?o WHERE <{member}> ?p ?o ; ?o ?q <hub>", None),
    ]
    nonempty = 0
    for text, last in queries:
        q = _q(text)
        for p in q.patterns:
            assert idx.estimate(p) == len(idx.match(p)), text
        expected = idx.evaluate_brute_force(q)
        for perm in itertools.permutations(q.patterns):
            permuted = ConjunctiveQuery(perm, q.projected)
            assert idx.evaluate(permuted) == expected, text
            if last is not None:
                assert idx.explain(permuted)[-1]["pattern"] == last
        nonempty += bool(expected)
    assert nonempty >= 4


def test_object_only_term_leaves_with_its_last_triple():
    target, lit = Term.iri("info:ino/only-object"), Term.literal("only-object")
    a = obj("a", relationships=[Triple("info:ino/a", RELATED_TO, target),
                                Triple("info:ino/a", RELATED_TO, lit)])
    b = obj("b", relationships=[Triple("info:ino/b", RELATED_TO, target)])
    idx = TripleIndex()
    for o in (a, b):
        idx.index_object(o)
    idx.index_object(replace(a, relationships=()))  # a drops both links
    assert lit not in _term_table(idx) and target in _term_table(idx)
    idx.deindex_object(b.id)
    assert target not in _term_table(idx)
    assert idx.estimate(TriplePattern(Var("?s"), Var("?p"), target)) == 0
    fresh = TripleIndex()
    fresh.rebuild([replace(a, relationships=())])
    assert _term_table(idx) == _term_table(fresh)


def test_a_reused_id_counts_from_zero_in_every_position():
    """A subject, a predicate and an object lose their last triple, and new
    terms take their ids: each count starts from 0, so the columns, the
    estimates and the plans are those of a rebuild, also after one."""
    only_p = INO_NS + "onlyPredicate"
    gone = obj("a", relationships=[
        Triple("info:ino/a", only_p, Term.iri("info:ino/only-target")),
        Triple("info:ino/a", RELATED_TO, Term.literal("only-literal"))])
    kept = obj("b", relationships=[Triple("info:ino/b", RELATED_TO, AGG)])
    idx = TripleIndex()
    for o in (gone, kept):
        idx.index_object(o)
    ids = [idx._ids[k] for k in ("info:ino/a", only_p, "info:ino/only-target")]
    ids.append(idx._ids[Term.literal("only-literal")])
    idx.deindex_object(gone.id)
    assert set(ids) <= set(idx._free)
    q = _q(f"SELECT ?x ?z WHERE ?x <{RELATED_TO}> ?z ; ?x <{OBJECT_TYPE}> ?t ; "
           f"?v <{OBJECT_TYPE}> ?t")
    fresh = TripleIndex()
    fresh.rebuild([kept])
    _check_counts(idx)
    for perm in itertools.permutations(q.patterns):  # the free ids count for none
        permuted = ConjunctiveQuery(perm, q.projected)
        assert idx.explain(permuted) == fresh.explain(permuted)
    new_p = INO_NS + "newPredicate"
    newcomer = obj("n", relationships=[
        *(Triple("info:ino/n", new_p, Term.iri(f"info:ino/new{i}"))
          for i in range(4)),
        Triple("info:ino/n", RELATED_TO, Term.literal("new-literal")),
        Triple("info:ino/n", RELATED_TO, AGG)])
    idx.index_object(newcomer)
    assert all(idx._terms[i] is not None for i in ids)  # every id reused
    live = {kept.id: kept, newcomer.id: newcomer}
    fresh = TripleIndex()
    fresh.rebuild(live.values())
    assert _by_term(idx) == _by_term(fresh)
    n, p, t = Term.iri(newcomer.id), Term.iri(new_p), Term.iri("info:ino/new0")
    x, y, z = Var("?x"), Var("?y"), Var("?z")
    for pattern in [TriplePattern(n, y, z), TriplePattern(x, p, z),
                    TriplePattern(x, y, t), TriplePattern(x, y, AGG),
                    TriplePattern(x, Term.iri(RELATED_TO), Term.literal("new-literal")),
                    TriplePattern(x, y, Term.literal("only-literal"))]:
        assert idx.estimate(pattern) == fresh.estimate(pattern)
    q = _q(f"SELECT ?x ?z WHERE ?x <{new_p}> ?z ; ?x <{RELATED_TO}> ?w ; "
           f"?v <{RELATED_TO}> ?w")
    for perm in itertools.permutations(q.patterns):
        permuted = ConjunctiveQuery(perm, q.projected)
        assert idx.explain(permuted) == fresh.explain(permuted)
    idx.rebuild(live.values())
    assert _by_term(idx) == _by_term(fresh)


# ------------------------------------------------------------- leaf shapes

SMALL = index_mod.SMALL_LEAF


def _shape_holds(leaf):
    """A leaf's shape fits its size: a bare id, a tuple of 2 to SMALL_LEAF,
    or a _Big of more than SMALL_LEAF // 2 whose byte map marks exactly its
    members, which it holds in ascending order."""
    if isinstance(leaf, int):
        return True
    if isinstance(leaf, tuple):
        return 2 <= len(leaf) <= SMALL and len(set(leaf)) == len(leaf)
    ids = list(leaf.ids)
    return (isinstance(leaf, index_mod._Big) and len(ids) > SMALL // 2
            and ids == sorted(set(ids)) and list(leaf) == ids
            and {k for k, b in enumerate(leaf.has) if b} == set(ids))


def _agg_leaf(idx):
    """The leaf of ``memberOf agg`` in POS, or None."""
    return idx._pos.get(idx._ids.get(MEMBER_OF), {}).get(idx._ids.get(AGG.value))


def _member(i, types=("Resource",)):
    return obj(f"m{i}", types=types,
               relationships=[Triple(f"info:ino/m{i}", MEMBER_OF, AGG)])


def _check_against_rebuild(idx, live):
    for m in (idx._pso, idx._pos):
        for inner in m.values():
            assert all(_shape_holds(leaf) for leaf in inner.values())
    fresh = TripleIndex()
    fresh.rebuild(live.values())
    assert _by_term(idx) == _by_term(fresh)
    q = _q("SELECT ?m WHERE ?m <memberOf> <agg>")
    assert idx.evaluate(q) == idx.evaluate_brute_force(q) == fresh.evaluate(q)


def test_a_leaf_grows_past_small_leaf_and_churns_back():
    """``memberOf agg`` grows one member at a time to a _Big, and keeps that
    shape down to SMALL_LEAF // 2 + 1 members, also when it grows again on
    the way; each step matches a rebuild."""
    idx, live = TripleIndex(), {}
    shapes = []

    def add(i):
        live[f"info:ino/m{i}"] = _member(i)
        idx.index_object(live[f"info:ino/m{i}"])

    def drop(i):
        idx.deindex_object(f"info:ino/m{i}")
        del live[f"info:ino/m{i}"]

    steps = ([(add, i) for i in range(SMALL + 6)]
             + [(drop, i) for i in range(SMALL // 2)]
             + [(add, i) for i in range(SMALL + 6, SMALL + 16)]
             + [(drop, i) for i in range(SMALL // 2, SMALL + 16)])
    for step, i in steps:
        step(i)
        leaf = _agg_leaf(idx)
        shapes.append((len(live), type(leaf).__name__))
        _check_against_rebuild(idx, live)
    kinds = [kind for _n, kind in shapes]
    assert shapes[:2] == [(1, "int"), (2, "tuple")]
    assert shapes[SMALL - 1:SMALL + 1] == [(SMALL, "tuple"), (SMALL + 1, "_Big")]
    # once big, it stays big above SMALL_LEAF // 2, then shrinks to a tuple
    first_big = kinds.index("_Big")
    back = kinds.index("tuple", first_big)
    assert set(kinds[first_big:back]) == {"_Big"}
    assert shapes[back - 1][0] == SMALL // 2 + 1 and shapes[back][0] == SMALL // 2
    assert shapes[-1] == (0, "NoneType") and kinds[-2] == "int"


def test_a_reused_id_is_no_member_of_a_big_leaf_that_held_it():
    """A member's id, freed when its object goes and given to a new term,
    does not read as a member of the _Big whose byte map marked it."""
    idx, live = TripleIndex(), {}
    for i in range(SMALL + 10):
        live[f"info:ino/m{i}"] = _member(i)
        idx.index_object(live[f"info:ino/m{i}"])
    leaf = _agg_leaf(idx)
    assert isinstance(leaf, index_mod._Big)
    gone = "info:ino/m7"
    freed = idx._ids[gone]
    assert leaf.has[freed]
    idx.deindex_object(gone)
    del live[gone]
    assert freed in idx._free and not leaf.has[freed]
    newcomer = obj("n1", types=("Thing",))  # not a member of agg
    idx.index_object(newcomer)
    live[newcomer.id] = newcomer
    assert idx._terms[freed] is not None  # the id went to one of its terms
    _check_against_rebuild(idx, live)
    for text in [f"SELECT ?p WHERE <{newcomer.id}> ?p <agg>",
                 "SELECT ?m WHERE ?m ?p <agg>",
                 "SELECT ?m ?t WHERE ?m <objectType> ?t ; ?m <memberOf> <agg>",
                 "SELECT ?m ?p WHERE ?m <objectType> ?t ; ?m ?p <agg>"]:
        q = _q(text.replace("<objectType>", f"<{OBJECT_TYPE}>"))
        expected = idx.evaluate_brute_force(q)
        for perm in itertools.permutations(q.patterns):
            assert idx.evaluate(ConjunctiveQuery(perm, q.projected)) == expected
    assert idx.estimate(TriplePattern(Term.iri(newcomer.id), Term.iri(MEMBER_OF),
                                      AGG)) == 0


def test_term_id_zero_in_a_big_leaf():
    """Term id 0, the first object indexed, as a member of a _Big: found by
    the leaf's own path and by a join's check against the leaf, and gone
    when its triple goes. A constant no triple uses is never found."""
    first = obj("a", types=("Thing",))  # id 0 is the IRI of type Thing
    zero = Term.iri(type_iri("Thing"))
    targets = [zero] + [Term.iri(f"info:ino/t{i}") for i in range(SMALL + 4)]
    hub = obj("hub", relationships=[Triple("info:ino/hub", RELATED_TO, t)
                                    for t in targets])
    idx = TripleIndex()
    for o in (first, hub):
        idx.index_object(o)
    assert idx._terms[0] == zero
    leaf = idx._pso[idx._ids[RELATED_TO]][idx._ids["info:ino/hub"]]
    assert isinstance(leaf, index_mod._Big) and leaf.ids[0] == 0 and leaf.has[0]
    ground = TriplePattern(Term.iri("info:ino/hub"), Term.iri(RELATED_TO), zero)
    assert idx.estimate(ground) == 1 and len(idx.match(ground)) == 1
    # a constant that no triple uses is no member either
    absent = replace(ground, object=Term.iri("info:ino/none"))
    assert idx.estimate(absent) == 0 and idx.match(absent) == set()
    q = parse_query(f"SELECT ?o WHERE <info:ino/a> <{OBJECT_TYPE}> ?o ; "
                    f"<info:ino/hub> <{RELATED_TO}> ?o")
    assert idx.explain(q)[-1]["pattern"] == f"<info:ino/hub> <{RELATED_TO}> ?o"
    expected = {SolutionRow.of({"?o": zero})}
    assert idx.evaluate(q) == idx.evaluate_brute_force(q) == expected
    fewer = replace(hub, relationships=hub.relationships[1:])
    idx.index_object(fewer)  # hub drops its link to id 0
    assert idx._terms[0] == zero and not idx.estimate(ground)
    assert idx.evaluate(q) == set() == idx.evaluate_brute_force(q)
    fresh = TripleIndex()
    fresh.rebuild([first, fewer])
    assert _by_term(idx) == _by_term(fresh)


def test_a_join_checks_big_leaves_by_one_leaf_and_by_term_node():
    """``?m memberOf agg`` first, then a check of each row against the _Big
    of ``objectType Resource`` (one leaf) and against ``agg``'s node, whose
    ``memberOf`` leaf is a _Big (``_TermNode.get``); some rows fail each."""
    idx, live = TripleIndex(), {}
    for i in range(SMALL + 20):
        o = _member(i, types=("Resource",) if i % 4 else ("Thing",))
        if i % 3 == 0:
            o = replace(o, relationships=(
                *o.relationships, Triple(o.id, RELATED_TO, AGG)))
        live[o.id] = o
    for i in range(SMALL + 5):  # resources outside agg
        live[f"info:ino/r{i}"] = obj(f"r{i}")
    idx.rebuild(live.values())
    resource = idx._pos[idx._ids[OBJECT_TYPE]][idx._ids[type_iri("Resource")]]
    assert isinstance(resource, index_mod._Big)
    assert isinstance(_agg_leaf(idx), index_mod._Big)
    q = _q(f"SELECT ?m ?p WHERE ?m <memberOf> <agg> ; "
           f"?m <{OBJECT_TYPE}> <{type_iri('Resource')}> ; ?m ?p <agg>")
    expected = idx.evaluate_brute_force(q)
    assert len({row["?m"] for row in expected}) == (SMALL + 20) * 3 // 4
    assert len(expected) > len({row["?m"] for row in expected})  # two ?p
    for perm in itertools.permutations(q.patterns):
        permuted = ConjunctiveQuery(perm, q.projected)
        assert idx.evaluate(permuted) == expected
        assert idx.explain(permuted)[0]["pattern"] == f"?m <{MEMBER_OF}> <{AGG.value}>"


# Bytes per triple that a TripleIndex holds over a 500-resource corpus, by
# tracemalloc: about 147 to 149 on Python 3.10, 3.11 and 3.13 with the
# per-position counts in array('i') columns by term id (133 at 10k
# resources, on 3.11). With those counts in dicts it was about 162 to 164
# (152 at 10k); about 188 with set leaves, about 225 with an SPO map stored
# for the subject-led order, and about 365 with a third map stored for the
# object-led one. The bound keeps a margin of 10 or more on each of them.
INDEX_BYTES_PER_TRIPLE = 160


def test_index_memory_per_triple(tmp_path):
    repo = Repository(tmp_path / "data", clock=VirtualClock(), durable=False)
    generate_corpus(repo, CorpusProfile(resources=500, seed=1))
    objects = list(repo.store.objects())
    repo.close()
    tracemalloc.start()
    try:
        idx = TripleIndex()
        idx.rebuild(objects)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert idx.size() > 7000
    assert held / idx.size() <= INDEX_BYTES_PER_TRIPLE


# ------------------------------------------------------------- tuple types

def test_term_kinds_stay_distinct_and_hash_by_value():
    iri, lit = Term.iri("info:ino/x"), Term.literal("info:ino/x")
    assert iri != lit and iri == Term("iri", "info:ino/x")
    assert hash(iri) == hash(Term("iri", "info:ino/x"))
    assert len({iri, lit, Term.iri("info:ino/x")}) == 2
    idx = TripleIndex()
    idx.index_object(obj("a", relationships=[
        Triple("info:ino/a", RELATED_TO, iri), Triple("info:ino/a", RELATED_TO, lit)]))
    assert idx.estimate(TriplePattern(Var("?s"), Term.iri(RELATED_TO), lit)) == 1
    q = ConjunctiveQuery((TriplePattern(Var("?s"), Term.iri(RELATED_TO), Var("?o")),),
                         ("?o",))
    assert idx.evaluate(q) == {SolutionRow.of({"?o": iri}), SolutionRow.of({"?o": lit})}


def test_solution_row_accessors():
    a, b = Term.iri("info:ino/a"), Term.literal("b")
    row = SolutionRow.of({"?b": b, "?a": a})
    assert row.items == (("?a", a), ("?b", b))
    assert row.bindings == {"?a": a, "?b": b}
    assert row["?a"] == a and row["?b"] == b
    assert row == SolutionRow.of({"?a": a, "?b": b})
    assert hash(row) == hash(SolutionRow.of({"?a": a, "?b": b}))
    assert SolutionRow.of({}).items == ()
