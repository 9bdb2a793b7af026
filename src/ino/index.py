"""Triple index over live objects, single-pattern matching, and conjunctive
(join) query evaluation, with a naive brute-force reference evaluator used as
an oracle in tests.

Each term is interned to an int id when a triple is indexed, and two maps on
ids store the predicate-led orders PSO and POS. A leaf of one member is that
bare id, a leaf of 2 to ``SMALL_LEAF`` a tuple, and a larger one a ``_Big``:
its members sorted in an ``array('i')`` and a byte map indexed by id, so a
membership test is one index in C whatever the leaf's size. No leaf is a
hash set. The term-led orders are views of them: SOP of PSO and OSP of POS.
A term's node is its leaves under each predicate, a set the ontology keeps
closed and small, and a step that knows the second key checks those few
leaves, so no step's cost per row grows with a term's fan-out. A triple
count is kept for each term in each position, in columns indexed by id, so
a pattern's exact count is one lookup at any depth, and a term leaves the
table when its last count goes. That table is the one long-lived pool of
terms: ``term`` gives a writer the index's own copy of a relationship
target, and an IRI indexed as an object keeps the ``Term`` its object holds,
so an object and the index share each term. ``_choose_path`` picks the order
that serves a pattern's known positions; ``match``, ``estimate`` and the
join are built on it. A join runs on tuple rows with a fixed slot per
variable, takes next the pattern with the fewest estimated matches given the
variables already bound, and builds ``Term``s only at projection.
"""

from __future__ import annotations

import re
from array import array
from bisect import bisect_left, insort
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

from .errors import OracleTooLarge, QuerySyntaxError, QueryTooLarge
from .model import (
    CREATED_DATE,
    HAS_DATASTREAM,
    LOCATION,
    MEDIA_TYPE,
    MODIFIED_DATE,
    OBJECT_TYPE,
    STATE,
    DigitalObject,
    Term,
    Triple,
    format_ts,
    type_iri,
)

_VAR_RE = re.compile(r"\?[a-z][a-z0-9]*$")

MAX_PATTERNS = 8
RESULT_CAP = 10_000_000  # rows in an intermediate join result
ORACLE_TRIPLE_CAP = 1_000_000
SMALL_LEAF = 64  # the most members a tuple leaf holds

# the id of a constant that no indexed triple uses: past every id an
# ``array('i')`` holds, so a byte-map probe ``k < len(has)`` misses it
_ABSENT = 1 << 31
_ORDERS = ((1, 0, 2), (1, 2, 0), (0, 2, 1), (2, 0, 1))  # PSO, POS, SOP, OSP


def _choose_path(bound: int, const: int) -> tuple[int, tuple[int, ...]]:
    """The access path for a pattern whose positions in the bit set ``bound``
    (bit 0 subject, 1 predicate, 2 object) are known, those in ``const``
    being constants: the first order (0 PSO, 1 POS, 2 SOP, 3 OSP) whose
    keys begin with the bound positions and with the most constants, which
    a join step looks up once and not once per row, and its key order."""
    best = None
    for i, order in enumerate(_ORDERS):
        if sum(1 << pos for pos in order[:bound.bit_count()]) == bound:
            lead = 0
            while lead < 3 and const >> order[lead] & 1:
                lead += 1
            if best is None or lead > best[0]:
                best = (lead, i, order)
    return best[1], best[2]


# the path of every (bound, const) pair, so a pattern's is one lookup
_PATHS = {(b, c): _choose_path(b, c)
          for b in range(8) for c in range(8) if c & ~b == 0}


@dataclass(frozen=True)
class Var:
    name: str  # includes the leading '?'

    def __post_init__(self):
        if not _VAR_RE.match(self.name):
            raise QuerySyntaxError(f"bad variable name {self.name!r}")


Atom = Term | Var


@dataclass(frozen=True)
class TriplePattern:
    subject: Atom
    predicate: Atom
    object: Atom

    def variables(self) -> set[str]:
        return {a.name for a in (self.subject, self.predicate, self.object)
                if isinstance(a, Var)}


@dataclass(frozen=True)
class ConjunctiveQuery:
    patterns: tuple[TriplePattern, ...]
    projected: tuple[str, ...]

    def __post_init__(self):
        if not self.patterns or len(self.patterns) > MAX_PATTERNS:
            raise QuerySyntaxError(
                f"query must have 1..{MAX_PATTERNS} patterns"
            )
        available = set()
        for p in self.patterns:
            available |= p.variables()
        for v in self.projected:
            if v not in available:
                raise QuerySyntaxError(
                    f"projected variable {v} not used in any pattern"
                )


class SolutionRow(NamedTuple):
    items: tuple[tuple[str, Term], ...]  # sorted by variable name

    @staticmethod
    def of(bindings: dict[str, Term]) -> "SolutionRow":
        return SolutionRow(tuple(sorted(bindings.items())))

    @property
    def bindings(self) -> dict[str, Term]:
        return dict(self.items)

    def __getitem__(self, var: str) -> Term:
        return self.bindings[var]


def extract_triples(obj: DigitalObject) -> list[Triple]:
    """System triples (types, dates, state, datastreams) then relationships."""
    oid = obj.id
    triples = [Triple(oid, OBJECT_TYPE, Term.iri(type_iri(t))) for t in obj.types]
    triples.append(Triple(oid, CREATED_DATE, Term.literal(format_ts(obj.created))))
    triples.append(Triple(oid, MODIFIED_DATE, Term.literal(format_ts(obj.modified))))
    triples.append(Triple(oid, STATE, Term.literal(obj.state)))
    for ds in obj.datastreams:
        ds_iri = f"{oid}/{ds.ds_id}"
        triples.append(Triple(oid, HAS_DATASTREAM, Term.iri(ds_iri)))
        triples.append(Triple(ds_iri, MEDIA_TYPE, Term.literal(ds.media_type)))
        if ds.is_surrogate:
            triples.append(Triple(ds_iri, LOCATION, Term.literal(ds.surrogate)))
    triples.extend(obj.relationships)
    return triples


def triple_count_formula(obj: DigitalObject) -> int:
    return (
        len(obj.types)
        + 3
        + sum(2 + (1 if ds.is_surrogate else 0) for ds in obj.datastreams)
        + len(obj.relationships)
    )


class _TermOrder:
    """A term-led order as a view of a predicate-led map: SOP of PSO, OSP
    of POS. ``get(t)`` looks ``t`` up under each predicate, a set the
    ontology keeps closed and small, and gives its node, or None where no
    triple has ``t`` in the map's second position."""

    __slots__ = ("_map",)

    def __init__(self, by_predicate):
        self._map = by_predicate

    def get(self, t):
        leaves = [(p, leaf) for p, inner in self._map.items()
                  if (leaf := inner.get(t)) is not None]
        return _TermNode(leaves) if leaves else None


class _TermNode:
    """``SOP[s]`` or ``OSP[o]``: the term's leaves under each predicate that
    has it. ``get(k)`` checks those leaves for ``k``, so a row costs the
    number of such predicates, never the term's fan-out."""

    __slots__ = ("_leaves",)

    def __init__(self, leaves):
        self._leaves = leaves

    def get(self, k):
        """The predicates between the term and ``k`` as a leaf, or None."""
        found = [p for p, leaf in self._leaves if _child(leaf, k, 2)]
        if len(found) > 1:
            return tuple(found)
        return found[0] if found else None

    def items(self):
        """Each ``(k, p)`` under the term, ``p`` as a bare leaf."""
        return [(k, p) for p, leaf in self._leaves for k in _leaf(leaf)]


class TripleIndex:
    """In-memory index with two predicate-major maps, and a subject- and an
    object-major view of them, keyed on interned term ids."""

    def __init__(self):
        # a term's key is an IRI's text or a literal's Term, so a subject or
        # predicate is looked up without building a Term
        self._ids: dict[str | Term, int] = {}
        self._terms: list[Term | None] = []  # id -> Term; None while free
        self._free: list[int] = []  # ids of dropped terms, reused first
        # predicate -> key -> leaf: one id bare, a tuple of 2 to SMALL_LEAF
        # or a _Big
        self._pso: dict[int, dict[int, int | tuple[int, ...] | _Big]] = {}
        self._pos: dict[int, dict[int, int | tuple[int, ...] | _Big]] = {}
        # the triples that have each term in position i (0 subject, 1
        # predicate, 2 object), a column indexed by term id (0 for a free
        # id), and the distinct terms there, the column's nonzero entries
        self._counts = (array("i"), array("i"), array("i"))
        self._distinct = [0, 0, 0]
        self._maps = (self._pso, self._pos,  # as _ORDERS
                      _TermOrder(self._pso), _TermOrder(self._pos))
        self._count = 0

    # ------------------------------------------------------------ maintenance

    def _intern(self, key, term: Term) -> int:
        i = self._ids.get(key)
        if i is None:
            if self._free:
                i = self._free.pop()
                self._terms[i] = term
            else:
                i = len(self._terms)
                self._terms.append(term)
                for counts in self._counts:
                    counts.append(0)
            self._ids[key] = i
        elif key is not term:
            # an IRI, keyed by its text: keep the Term an object holds, and
            # not one made for the same IRI as a subject
            self._terms[i] = term
        return i

    def _id(self, term: Term) -> int:
        """A constant's id; ``_ABSENT`` when no indexed triple uses it."""
        return self._ids.get(term.value if term.kind == "iri" else term, _ABSENT)

    def term(self, term: Term) -> Term:
        """The index's own ``Term`` equal to ``term``, or ``term`` itself when
        no indexed triple uses it. A writer that takes its relationship
        targets from here holds one copy of each with the index."""
        i = self._ids.get(term.value if term.kind == "iri" else term)
        return term if i is None else self._terms[i]

    def _add(self, t: Triple) -> None:
        ids = self._ids
        o = t.object
        o = self._intern(o.value if o.kind == "iri" else o, o)
        s = ids.get(t.subject)
        if s is None:
            s = self._intern(t.subject, Term.iri(t.subject))
        p = ids.get(t.predicate)
        if p is None:
            p = self._intern(t.predicate, Term.iri(t.predicate))
        subjects = self._pso.get(p)
        if subjects is not None and (leaf := subjects.get(s)) is not None \
                and _child(leaf, o, 2):
            return
        _link(self._pso, p, s, o)
        _link(self._pos, p, o, s)
        cs, cp, co = self._counts
        distinct = self._distinct  # each count going 0 -> 1 adds a term
        distinct[0] += not cs[s]
        distinct[1] += not cp[p]
        distinct[2] += not co[o]
        cs[s] += 1
        cp[p] += 1
        co[o] += 1
        self._count += 1

    def _remove(self, s: int, p: int, o: int) -> None:
        _unlink(self._pso, p, s, o)
        _unlink(self._pos, p, o, s)
        distinct = self._distinct
        for pos, counts, i in zip(range(3), self._counts, (s, p, o)):
            counts[i] -= 1
            distinct[pos] -= counts[i] == 0  # a count going 1 -> 0
        self._count -= 1

    def index_object(self, obj: DigitalObject) -> None:
        self.deindex_object(obj.id)
        for t in extract_triples(obj):
            self._add(t)

    def deindex_object(self, object_id: str) -> None:
        """Remove the triples whose subject is the object or one of its
        datastreams, ``{id}/{dsId}`` under hasDatastream. A local id holds no
        ``/``, so these are exactly the triples ``extract_triples`` gave."""
        by_subject, by_predicate, by_object = self._counts
        oid = self._ids.get(object_id)
        if oid is None or not by_subject[oid]:
            return
        terms = self._terms
        datastreams = self._pso.get(self._ids.get(HAS_DATASTREAM), {}).get(oid, ())
        subjects = [oid] + [o for o in _leaf(datastreams) if by_subject[o]
                            and terms[o].value.startswith(object_id + "/")]
        touched = set(subjects)
        for s in subjects:
            for o, p in self._maps[2].get(s).items():  # from SOP
                self._remove(s, p, o)
                touched.update((p, o))
        # a term whose last triple went leaves the table, so it stays bounded
        for i in touched:
            if not (by_subject[i] or by_predicate[i] or by_object[i]):
                term = terms[i]
                del self._ids[term.value if term.kind == "iri" else term]
                terms[i] = None
                self._free.append(i)

    def rebuild(self, objects) -> None:
        for m in (self._ids, self._terms, self._free, self._pso, self._pos):
            m.clear()
        for counts in self._counts:
            del counts[:]
        self._distinct[:] = (0, 0, 0)
        self._count = 0
        for obj in objects:
            self.index_object(obj)

    def size(self) -> int:
        return self._count

    def all_triples(self) -> list[Triple]:
        terms = self._terms
        return [Triple(terms[s].value, terms[p].value, terms[o])
                for p, subjects in self._pso.items()
                for s, objs in subjects.items() for o in _leaf(objs)]

    def triple_set(self) -> set[Triple]:
        return set(self.all_triples())

    # ---------------------------------------------------------- access paths

    def _lookup(self, key, bound: int = 0):
        """Look up a pattern on its access path: ``key`` holds the ids of
        its constants by position (None where open), and the bit set
        ``bound`` adds the positions that bound variables fill. Returns the
        node under the path's leading constants, or None if no triple has
        them, the path's key order, and the number of leading constants."""
        const = ((key[0] is not None) | (key[1] is not None) << 1
                 | (key[2] is not None) << 2)
        i, order = _PATHS[bound | const, const]
        node = self._maps[i]
        depth = 0
        while depth < 3 and key[order[depth]] is not None:
            node = _child(node, key[order[depth]], depth)
            if node is None:
                return None, order, depth
            depth += 1
        return node, order, depth

    def _constants(self, atoms) -> tuple:
        s, p, o = atoms
        return (None if isinstance(s, Var) else self._id(s),
                None if isinstance(p, Var) else self._id(p),
                None if isinstance(o, Var) else self._id(o))

    def _matches(self, key) -> int:
        node, order, depth = self._lookup(key)
        if node is None:
            return 0
        if depth == 3:
            return 1
        if depth == 2:
            return len(_leaf(node))
        if depth == 1:
            return self._counts[order[0]][key[order[0]]]
        return self._count

    def estimate(self, p: TriplePattern) -> int:
        """Exact number of triples that match the pattern's constants."""
        return self._matches(self._constants(_atoms(p)))

    def match(self, p: TriplePattern) -> set[Triple]:
        """The triples that match the pattern's constants."""
        key = self._constants(_atoms(p))
        node, order, depth = self._lookup(key)
        if node is None:
            return set()
        prefix = tuple(key[pos] for pos in order[:depth])
        at = [order.index(pos) for pos in range(3)]
        terms = self._terms
        out = set()
        for rest in _expand(node, 3 - depth):
            ids = prefix + rest
            out.add(Triple(terms[ids[at[0]]].value, terms[ids[at[1]]].value,
                           terms[ids[at[2]]]))
        return out

    # ------------------------------------------------------------- evaluation

    def evaluate(self, q: ConjunctiveQuery) -> set[SolutionRow]:
        rows, slot = self._join(q)
        names = sorted(set(q.projected))
        if not rows:
            return set()
        if not names:
            return {SolutionRow(())}
        terms = self._terms
        keys = set(map(itemgetter(*[slot[v] for v in names]), rows))
        new = tuple.__new__  # a SolutionRow without its Python-level __new__
        if len(names) == 1:
            name = names[0]
            return {new(SolutionRow, (((name, terms[k]),),)) for k in keys}
        return {new(SolutionRow, (tuple(zip(names, map(terms.__getitem__, k))),))
                for k in keys}

    def explain(self, q: ConjunctiveQuery) -> list[dict]:
        """One entry per join step, in the order run: the pattern, its
        estimated matches per row given the variables bound before it, and
        the rows after the step."""
        plan: list[dict] = []
        self._join(q, plan)
        return plan

    def _join(self, q: ConjunctiveQuery, plan: list | None = None):
        """Join the patterns of ``q`` on tuple rows. Each next pattern is the
        one with the fewest estimated matches per row given the variables
        bound so far: its exact count over its constants, divided, for each
        position a bound variable fills, by the number of distinct terms in
        that position. Returns the rows and each variable's slot in them."""
        atoms = [_atoms(p) for p in q.patterns]
        keys = [self._constants(a) for a in atoms]
        counts: dict[int, int] = {}
        slot: dict[str, int] = {}
        rows: list[tuple] = [()]

        def fanout(i):
            if i not in counts:
                counts[i] = self._matches(keys[i])
            est = counts[i]
            for pos, atom in enumerate(atoms[i]):
                if isinstance(atom, Var) and atom.name in slot:
                    est /= self._distinct[pos] or 1  # distinct terms there
            return est

        todo = list(range(len(atoms)))
        while todo:
            i = todo[0] if len(todo) == 1 else min(todo, key=lambda i: (fanout(i), i))
            todo.remove(i)
            if plan is not None:
                plan.append({"pattern": _render(q.patterns[i]),
                             "estimate": fanout(i)})
            rows = self._step(rows, atoms[i], keys[i], slot)
            if plan is not None:
                plan[-1]["rows"] = len(rows)
        return rows, slot

    def _step(self, rows, atoms, key, slot):
        """Extend every row by each match of one pattern; its new variables
        take the next slots."""
        bound = known = 0  # the positions bound variables fill; all known
        for pos in range(3):
            if key[pos] is None and atoms[pos].name in slot:
                bound |= 1 << pos
            known += key[pos] is not None or bound >> pos & 1
        node, order, depth = self._lookup(key, bound)  # once for the step
        if node is None:
            return []
        names = [atoms[pos].name for pos in order[known:]]
        for name in names:
            slot.setdefault(name, len(slot))
        free = 3 - known
        cap = RESULT_CAP
        if depth == known:
            ext = _expand(node, free, names)
            if len(rows) * len(ext) > cap:
                raise QueryTooLarge(f"intermediate result exceeds {cap} rows")
            return [row + e for row in rows for e in ext]
        # the rest of the bound key, per row: a variable's slot, or
        # (None, id) for a constant after a variable
        first, *rest = [slot[atoms[pos].name] if key[pos] is None
                        else (None, key[pos]) for pos in order[depth:known]]
        if not rest and not free:  # a check against one leaf
            if node.__class__ is _Big:
                has = node.has
                n = len(has)
                return [row for row in rows if (k := row[first]) < n and has[k]]
            members = _leaf(node)
            return [row for row in rows if row[first] in members]
        get = node.get
        out: list[tuple] = []
        append = out.append
        if not rest and free == 1:  # the common shape: one new variable
            for row in rows:
                n = get(row[first])
                if n is not None:
                    for x in _leaf(n):
                        append(row + (x,))
                    if len(out) > cap:
                        raise QueryTooLarge(
                            f"intermediate result exceeds {cap} rows")
            return out
        for row in rows:
            n = get(row[first])
            for d, k in enumerate(rest, depth + 1):
                if n is None:
                    break
                n = _child(n, k[1] if isinstance(k, tuple) else row[k], d)
            if n is None:
                continue
            if not free:
                append(row)
            elif free == 1:
                for x in _leaf(n):
                    append(row + (x,))
            else:
                out += [row + e for e in _expand(n, free, names)]
            if len(out) > cap:
                raise QueryTooLarge(f"intermediate result exceeds {cap} rows")
        return out

    def evaluate_brute_force(self, q: ConjunctiveQuery) -> set[SolutionRow]:
        """Semantics-defining reference: filter the full triple list per pattern,
        then join naively in the given pattern order."""
        if self._count > ORACLE_TRIPLE_CAP:
            raise OracleTooLarge(f"{self._count} triples exceeds oracle guard")
        all_triples = self.all_triples()
        rows: list[dict[str, Term]] = [{}]
        for pattern in q.patterns:
            matching = [t for t in all_triples if _merge(pattern, t, {}) is not None]
            rows = [ext for row in rows for t in matching
                    if (ext := _merge(pattern, t, row)) is not None]
        return {
            SolutionRow.of({v: row[v] for v in q.projected if v in row})
            for row in rows
        }


def _atoms(p: TriplePattern) -> tuple[Atom, Atom, Atom]:
    return p.subject, p.predicate, p.object


def _child(node, key, depth):
    """One key down from ``node``, which lies ``depth`` keys under a map's
    root: a dict or a leaf, or for the third key True if the leaf holds it;
    None where absent (test ``is None``: a bare leaf may be the falsy 0)."""
    if depth < 2:
        return node.get(key)
    if node.__class__ is _Big:
        return True if key < len(node.has) and node.has[key] else None
    return True if (node == key if node.__class__ is int else key in node) else None


def _leaf(leaf):
    """The members of a leaf: a bare id stands for a leaf of one."""
    return (leaf,) if leaf.__class__ is int else leaf


class _Big:
    """A leaf of more than ``SMALL_LEAF`` members: ``ids``, the members in
    ascending order, to iterate, and ``has``, a byte per term id that is 1
    for a member, so a membership test is ``k < len(has) and has[k]``, one
    index in C. ``has`` grows to the largest member's id, and ``_unlink``
    clears a member's byte when it leaves, since a freed id is given to the
    next new term. A ``_Big`` turns back into a tuple once it holds
    ``SMALL_LEAF // 2`` members or fewer, so a leaf that goes back and forth
    across ``SMALL_LEAF`` does not change shape at each step."""

    __slots__ = ("ids", "has")

    def __init__(self, members):
        self.ids = array("i", sorted(members))
        self.has = bytearray(self.ids[-1] + 1)
        for k in self.ids:
            self.has[k] = 1

    def __len__(self):
        return len(self.ids)

    def __iter__(self):
        return iter(self.ids)


def _expand(node, free: int, names=()) -> list[tuple]:
    """Every key tuple of the ``free`` levels under ``node``. Where a
    variable in ``names`` (one per level) repeats, only the tuples whose
    values agree there, each value once."""
    if free == 0:
        return [()]
    if free == 1:
        return [(x,) for x in _leaf(node)]
    if free == 2:
        ext = [(x, y) for x, leaf in node.items() for y in _leaf(leaf)]
    else:
        ext = [(x, y, z) for x, mid in node.items()
               for y, leaf in mid.items() for z in _leaf(leaf)]
    first = [names.index(n) for n in names]
    if first == list(range(len(names))):
        return ext
    keep = sorted(set(first))
    return [tuple(e[j] for j in keep) for e in ext
            if all(e[j] == e[f] for j, f in enumerate(first))]


def _link(m, a: int, b: int, c: int) -> None:
    """Add the triple ``(a, b, c)``, not yet held, in ``m``'s key order; a
    leaf's second member turns it from a bare id into a tuple, and its
    member past ``SMALL_LEAF`` into a ``_Big``."""
    inner = m.get(a)
    if inner is None:
        m[a] = {b: c}
        return
    leaf = inner.get(b)
    if leaf is None:
        inner[b] = c
    elif leaf.__class__ is int:
        inner[b] = (leaf, c)
    elif leaf.__class__ is tuple:
        inner[b] = leaf + (c,) if len(leaf) < SMALL_LEAF else _Big(leaf + (c,))
    else:
        has = leaf.has
        if c < len(has):
            insort(leaf.ids, c)
        else:  # past the byte map, so past every member
            has += bytes(c + 1 - len(has))
            leaf.ids.append(c)
        has[c] = 1


def _unlink(m, a: int, b: int, c: int) -> None:
    """Remove the triple ``(a, b, c)`` in ``m``'s key order; a leaf left
    with one member becomes that bare id, and a ``_Big`` left with
    ``SMALL_LEAF // 2`` a tuple."""
    inner = m[a]
    leaf = inner[b]
    if leaf.__class__ is tuple:
        if len(leaf) == 2:
            inner[b] = leaf[leaf[0] == c]  # the other member
        else:
            i = leaf.index(c)
            inner[b] = leaf[:i] + leaf[i + 1:]
    elif leaf.__class__ is _Big:
        leaf.has[c] = 0
        ids = leaf.ids
        del ids[bisect_left(ids, c)]
        if len(ids) <= SMALL_LEAF // 2:
            inner[b] = tuple(ids)
    elif len(inner) > 1:  # the bare id ``c``
        del inner[b]
    else:  # ``a``'s last triple
        del m[a]


def _render(p: TriplePattern) -> str:
    def atom(a):
        if isinstance(a, Var):
            return a.name
        if a.is_iri:
            return f"<{a.value}>"
        return '"' + a.value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    return " ".join(atom(a) for a in _atoms(p))


def _merge(p: TriplePattern, t: Triple, row: dict[str, Term]):
    """``row`` extended by the bindings that make ``p`` match ``t``, or None
    where a constant or an earlier binding disagrees."""
    # check compatibility before paying for the row copy
    pairs: dict[str, Term] = {}
    for atom, value in (
        (p.subject, Term.iri(t.subject)),
        (p.predicate, Term.iri(t.predicate)),
        (p.object, t.object),
    ):
        if isinstance(atom, Var):
            existing = row.get(atom.name, pairs.get(atom.name))
            if existing is not None and existing != value:
                return None
            pairs[atom.name] = value
        elif atom != value:
            return None
    ext = dict(row)
    ext.update(pairs)
    return ext


# ------------------------------------------------------------- query grammar

_TOKEN_RE = re.compile(
    r"""
    \s*(
        \?[a-z][a-z0-9]*        |   # variable
        <[^<>\s]+>              |   # iri
        "(?:[^"\\]|\\.)*"       |   # literal with escapes
        ;                           # pattern separator
    )
    """,
    re.VERBOSE,
)


def _parse_atom(tok: str) -> Atom:
    if tok.startswith("?"):
        return Var(tok)
    if tok.startswith("<") and tok.endswith(">"):
        return Term.iri(tok[1:-1])
    if tok.startswith('"') and tok.endswith('"'):
        return Term.literal(tok[1:-1].replace('\\"', '"').replace("\\\\", "\\"))
    raise QuerySyntaxError(f"bad term {tok!r}")


def parse_query(text: str) -> ConjunctiveQuery:
    """Parse ``SELECT ?a ?b WHERE <pattern> ; <pattern> ...``."""
    m = re.match(r"\s*SELECT\s+(.*?)\s+WHERE\s+(.*)$", text, re.DOTALL)
    if not m:
        raise QuerySyntaxError("expected SELECT ... WHERE ...")
    projected = tuple(m.group(1).split())
    for v in projected:
        if not _VAR_RE.match(v):
            raise QuerySyntaxError(f"bad projected variable {v!r}")

    body = m.group(2)
    tokens: list[str] = []
    pos = 0
    while pos < len(body):
        tm = _TOKEN_RE.match(body, pos)
        if not tm:
            if body[pos:].strip():
                raise QuerySyntaxError(f"unexpected input at {body[pos:pos+20]!r}")
            break
        tokens.append(tm.group(1))
        pos = tm.end()

    patterns: list[TriplePattern] = []
    current: list[str] = []
    for tok in tokens + [";"]:
        if tok != ";":
            current.append(tok)
        elif len(current) == 3:
            patterns.append(TriplePattern(*map(_parse_atom, current)))
            current = []
        elif current:
            raise QuerySyntaxError(
                f"pattern needs exactly three terms, got {current!r}")
    if not patterns:
        raise QuerySyntaxError("query has no patterns")
    return ConjunctiveQuery(tuple(patterns), projected)
