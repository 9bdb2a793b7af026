"""Registry of object types and relationship predicates with domain, range,
and cardinality rules. Built-in rules model the aggregation graph (memberOf,
metadataFor, representedBy, aggregatorFor); ``load`` always adds the built-in
extension rules that metadata provenance and the harvester need, then the
types and predicates of a line-oriented config. The registry is immutable
after load.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass

from .errors import (
    BuiltinRedefinition,
    CardinalityViolation,
    DomainViolation,
    InvalidRule,
    NotFound,
    ParseError,
    RangeViolation,
    UnknownPredicate,
)
from .model import (
    AGGREGATOR_FOR,
    MEMBER_OF,
    METADATA_FOR,
    PROVIDED_BY,
    REPRESENTED_BY,
    SOURCE_BASE_URL,
    SOURCE_RECORD_ID,
    SOURCE_SET,
    parse_int,
)

BUILTIN_TYPES = frozenset({"Resource", "Metadata", "Agent", "Aggregation"})

UNBOUNDED = None  # max cardinality sentinel


@dataclass(frozen=True)
class PredicateRule:
    predicate: str
    domain: frozenset[str]
    range_types: frozenset[str]  # empty iff allows_literal
    allows_literal: bool
    min_per_subject: int
    max_per_subject: int | None  # None = unbounded

    def __post_init__(self):
        if self.max_per_subject is not None and self.min_per_subject > self.max_per_subject:
            raise InvalidRule(
                f"{self.predicate}: min {self.min_per_subject} > max {self.max_per_subject}"
            )


def _rule(pred, domain, range_types, minc, maxc, literal=False):
    return PredicateRule(
        pred, frozenset(domain), frozenset(range_types), literal, minc, maxc
    )


BUILTIN_RULES = (
    _rule(MEMBER_OF, {"Resource", "Metadata"}, {"Aggregation"}, 0, UNBOUNDED),
    _rule(METADATA_FOR, {"Metadata"}, {"Resource"}, 1, 1),
    _rule(REPRESENTED_BY, {"Aggregation"}, {"Resource"}, 1, 1),
    _rule(AGGREGATOR_FOR, {"Agent"}, {"Aggregation"}, 0, UNBOUNDED),
)

# Built-in extensions: not part of the aggregation figure, but required by the
# metadata provenance linkage and the harvester's idempotence bookkeeping.
EXTENSION_RULES = (
    _rule(PROVIDED_BY, {"Metadata"}, {"Agent"}, 1, 1),
    _rule(SOURCE_RECORD_ID, {"Metadata"}, (), 0, 1, literal=True),
    _rule(SOURCE_BASE_URL, {"Agent"}, (), 0, 1, literal=True),
    _rule(SOURCE_SET, {"Aggregation"}, (), 0, 1, literal=True),
)

_CONFIG_LINE_RE = re.compile(
    r"predicate\s+<([^<>\s]+)>\s+domain\s+(\S+)\s+range\s+(\S+)\s+card\s+([0-9]+)\.\.([0-9]+|\*)$"
)
_TYPE_LINE_RE = re.compile(r"type\s+([A-Za-z][A-Za-z0-9]*)$")


class OntologyRegistry:
    def __init__(self, rules, types):
        self._rules: dict[str, PredicateRule] = {r.predicate: r for r in rules}
        self._types: frozenset[str] = frozenset(types)

    @classmethod
    def load(cls, config_text: str = "") -> "OntologyRegistry":
        rules = [*BUILTIN_RULES, *EXTENSION_RULES]
        builtin_iris = {r.predicate for r in rules}
        types = set(BUILTIN_TYPES)

        # first pass: extension type declarations
        lines = []
        for lineno, raw in enumerate(config_text.splitlines(), start=1):
            line = raw.strip()
            # '#' also appears inside predicate IRIs, so comments are
            # whole-line only
            if not line or line.startswith("#"):
                continue
            lines.append((lineno, line))
        for lineno, line in lines:
            m = _TYPE_LINE_RE.match(line)
            if m:
                name = m.group(1)
                if name in BUILTIN_TYPES:
                    raise BuiltinRedefinition(f"line {lineno}: type {name}")
                types.add(name)

        seen = dict()
        for lineno, line in lines:
            if _TYPE_LINE_RE.match(line):
                continue
            m = _CONFIG_LINE_RE.match(line)
            if not m:
                raise ParseError(f"unrecognized ontology line: {line!r}", lineno, 0)
            predicate, domain_s, range_s, min_s, max_s = m.groups()
            if predicate in builtin_iris:
                raise BuiltinRedefinition(f"line {lineno}: {predicate}")
            if predicate in seen:
                raise InvalidRule(f"line {lineno}: duplicate predicate {predicate}")
            domain = set(domain_s.split(","))
            for t in domain:
                if t not in types:
                    raise InvalidRule(f"line {lineno}: unknown type {t!r}")
            allows_literal = range_s == "Literal"
            range_types = set()
            if not allows_literal:
                range_types = set(range_s.split(","))
                for t in range_types:
                    if t not in types:
                        raise InvalidRule(f"line {lineno}: unknown type {t!r}")
            min_c, max_c = (UNBOUNDED if s == "*" else parse_int(s, sys.maxsize)
                            for s in (min_s, max_s))
            if max(min_c, max_c or 0) > sys.maxsize:
                raise InvalidRule(f"line {lineno}: card bound over {sys.maxsize}")
            rule = _rule(predicate, domain, range_types, min_c, max_c,
                         literal=allows_literal)
            seen[predicate] = rule
        rules += list(seen.values())
        return cls(rules, types)

    # ---------------------------------------------------------------- queries

    @property
    def rules(self) -> dict[str, PredicateRule]:
        return dict(self._rules)

    @property
    def types(self) -> frozenset[str]:
        return self._types

    def rule(self, predicate: str) -> PredicateRule:
        r = self._rules.get(predicate)
        if r is None:
            raise UnknownPredicate(f"unregistered predicate {predicate}")
        return r

    def is_registered(self, predicate: str) -> bool:
        return predicate in self._rules

    # ------------------------------------------------------------- validation

    def validate_relationship(self, subj_types, predicate: str,
                              obj_types=None, literal: bool = False) -> None:
        """obj_types: the target object's type set, or literal=True for a
        literal object. Polymorphic ends validate if any type fits."""
        rule = self.rule(predicate)
        if not (set(subj_types) & rule.domain):
            raise DomainViolation(
                f"domain violation on {predicate}: subject types "
                f"{sorted(subj_types)} not in domain {sorted(rule.domain)}"
            )
        if literal:
            if not rule.allows_literal:
                raise RangeViolation(
                    f"range violation on {predicate}: literal object not allowed")
        else:
            if rule.allows_literal:
                raise RangeViolation(
                    f"range violation on {predicate}: range is Literal, got object")
            if not (set(obj_types or ()) & rule.range_types):
                raise RangeViolation(
                    f"range violation on {predicate}: object types "
                    f"{sorted(obj_types or ())} not in range {sorted(rule.range_types)}"
                )

    def check_cardinality(self, predicate: str, current_count: int,
                          delta: int) -> None:
        rule = self.rule(predicate)
        attempted = current_count + delta
        if attempted < rule.min_per_subject:
            raise CardinalityViolation(
                predicate, f"min {rule.min_per_subject}", attempted
            )
        if rule.max_per_subject is not None and attempted > rule.max_per_subject:
            raise CardinalityViolation(
                predicate, f"max {rule.max_per_subject}", attempted
            )

    def violations(self, subj_types, triples, types_of):
        """Yield, as exceptions, every rule broken by a subject of
        ``subj_types`` whose whole relationship list is ``triples``.
        ``types_of(iri)`` gives a target's types, or None if no live object
        has that id; such a dangling target is NotFound. Each triple yields
        at most one violation; cardinality is checked for every rule whose
        domain fits the subject."""
        counts: dict[str, int] = {}
        for t in triples:
            counts[t.predicate] = counts.get(t.predicate, 0) + 1
            try:
                if t.object.is_iri:
                    target = types_of(t.object.value)
                    if target is None:
                        raise NotFound(
                            f"dangling target {t.object.value} of {t.predicate}")
                    self.validate_relationship(subj_types, t.predicate, target)
                else:
                    self.validate_relationship(subj_types, t.predicate, literal=True)
            except (NotFound, UnknownPredicate, DomainViolation, RangeViolation) as exc:
                yield exc
        subj = set(subj_types)
        for predicate, rule in self._rules.items():
            if subj & rule.domain:
                try:
                    self.check_cardinality(predicate, counts.get(predicate, 0), 0)
                except CardinalityViolation as exc:
                    yield exc
