import sys

import pytest

from ino.errors import (
    BuiltinRedefinition,
    CardinalityViolation,
    DomainViolation,
    InvalidRule,
    NotFound,
    ParseError,
    RangeViolation,
    UnknownPredicate,
)
from ino.model import (
    AGGREGATOR_FOR,
    MEMBER_OF,
    METADATA_FOR,
    PROVIDED_BY,
    SOURCE_RECORD_ID,
    Term,
    Triple,
)
from ino.ontology import BUILTIN_RULES, BUILTIN_TYPES, OntologyRegistry

ANNOTATES = "info:ino/def#annotates"
ANNOTATES_LINE = f"predicate <{ANNOTATES}> domain Resource range Resource card 0..*"


def test_empty_config_builtins_only():
    registry = OntologyRegistry(BUILTIN_RULES, BUILTIN_TYPES)
    assert len(registry.rules) == 4
    assert registry.is_registered(MEMBER_OF)
    assert registry.is_registered(METADATA_FOR)


def test_extensions_included_by_default():
    registry = OntologyRegistry.load()
    assert registry.is_registered(PROVIDED_BY)
    assert registry.rule(PROVIDED_BY).min_per_subject == 1


def test_extension_rule_added():
    registry = OntologyRegistry.load(ANNOTATES_LINE)
    assert len(registry.rules) == len(OntologyRegistry.load().rules) + 1
    rule = registry.rule(ANNOTATES)
    assert rule.domain == {"Resource"} and rule.max_per_subject is None


def test_builtin_redefinition_rejected():
    line = f"predicate <{METADATA_FOR}> domain Metadata range Resource card 0..*"
    with pytest.raises(BuiltinRedefinition):
        OntologyRegistry.load(line)


def test_config_errors():
    with pytest.raises(ParseError):
        OntologyRegistry.load("nonsense line")
    with pytest.raises(InvalidRule):
        OntologyRegistry.load(
            "predicate <info:x> domain Widget range Resource card 0..*"
        )
    with pytest.raises(InvalidRule):
        OntologyRegistry.load(
            "predicate <info:x> domain Resource range Resource card 2..1"
        )
    with pytest.raises(InvalidRule):
        OntologyRegistry.load(ANNOTATES_LINE + "\n" + ANNOTATES_LINE)


@pytest.mark.parametrize("card", [
    f"0..{sys.maxsize + 1}", f"{'9' * 20}..*", f"0..{'9' * 5000}",
    f"{'9' * 5000}..*"], ids=["max-maxsize+1", "min-20-digits", "max-5000-digits",
                              "min-5000-digits"])
def test_card_bound_past_maxsize_is_an_invalid_rule(card):
    """The bound is named with its line, also past int()'s 4300 digits."""
    config = f"type Thing\npredicate <info:x> domain Thing range Thing card {card}"
    with pytest.raises(InvalidRule, match=f"^line 2: card bound over {sys.maxsize}$"):
        OntologyRegistry.load(config)


def test_card_takes_ascii_digits_only():
    with pytest.raises(ParseError, match="unrecognized ontology line"):
        OntologyRegistry.load(
            "predicate <info:x> domain Resource range Resource card \u0660..\u0661")
    rule = OntologyRegistry.load(
        f"predicate <info:x> domain Resource range Resource card 007..{sys.maxsize}"
    ).rule("info:x")
    assert (rule.min_per_subject, rule.max_per_subject) == (7, sys.maxsize)


def test_extension_type_declaration():
    config = (
        "type LearningObject\n"
        "predicate <info:ino/def#standardFor> domain LearningObject "
        "range Resource card 0..*\n"
    )
    registry = OntologyRegistry.load(config)
    assert "LearningObject" in registry.types
    registry.validate_relationship({"LearningObject"},
                                   "info:ino/def#standardFor", {"Resource"})


def test_comments_and_blank_lines():
    registry = OntologyRegistry.load("# just a comment\n\n  \n")
    assert registry.rules == OntologyRegistry.load().rules


def test_validate_relationship():
    registry = OntologyRegistry.load()
    registry.validate_relationship({"Metadata"}, METADATA_FOR, {"Resource"})
    with pytest.raises(DomainViolation):
        registry.validate_relationship({"Resource"}, METADATA_FOR, {"Resource"})
    # polymorphic subject: any type fitting the domain suffices
    registry.validate_relationship({"Resource", "Metadata"}, MEMBER_OF,
                                   {"Aggregation"})
    with pytest.raises(RangeViolation):
        registry.validate_relationship({"Metadata"}, METADATA_FOR, {"Agent"})
    with pytest.raises(RangeViolation):
        registry.validate_relationship({"Metadata"}, METADATA_FOR, literal=True)
    with pytest.raises(UnknownPredicate):
        registry.validate_relationship({"Resource"}, "info:ino/def#nope",
                                       {"Resource"})


def test_check_cardinality():
    registry = OntologyRegistry.load()
    with pytest.raises(CardinalityViolation):
        registry.check_cardinality(METADATA_FOR, 1, +1)
    registry.check_cardinality(MEMBER_OF, 5, +1)
    with pytest.raises(CardinalityViolation):
        registry.check_cardinality(METADATA_FOR, 1, -1)


M, R, A, AGG = "info:ino/m", "info:ino/r", "info:ino/a", "info:ino/agg"
LIVE = {R: ("Resource",), A: ("Agent",), AGG: ("Aggregation",)}


def test_violations_clean_object_yields_nothing():
    registry = OntologyRegistry.load()
    triples = [
        Triple(M, METADATA_FOR, Term.iri(R)),
        Triple(M, PROVIDED_BY, Term.iri(A)),
        Triple(M, MEMBER_OF, Term.iri(AGG)),
        Triple(M, SOURCE_RECORD_ID, Term.literal("oai:x:1")),
    ]
    assert list(registry.violations({"Metadata"}, triples, LIVE.get)) == []


def test_violations_yield_each_broken_rule_once():
    registry = OntologyRegistry.load()
    triples = [
        Triple(M, AGGREGATOR_FOR, Term.iri(AGG)),  # domain is Agent
        Triple(M, MEMBER_OF, Term.iri(R)),  # range is Aggregation
        Triple(M, PROVIDED_BY, Term.iri("info:ino/ghost")),  # dangling
        Triple(M, "info:ino/def#nope", Term.iri(R)),  # unregistered
        Triple(M, SOURCE_RECORD_ID, Term.literal("a")),
        Triple(M, SOURCE_RECORD_ID, Term.literal("b")),  # max 1
    ]  # and no metadataFor: min 1
    found = list(registry.violations({"Metadata"}, triples, LIVE.get))
    assert sorted(type(e).__name__ for e in found) == [
        "CardinalityViolation", "CardinalityViolation", "DomainViolation",
        "NotFound", "RangeViolation", "UnknownPredicate",
    ]
    bounds = {(e.predicate, e.bound) for e in found
              if isinstance(e, CardinalityViolation)}
    assert bounds == {(SOURCE_RECORD_ID, "max 1"), (METADATA_FOR, "min 1")}
    messages = {type(e): str(e) for e in found}
    assert messages[DomainViolation].startswith(f"domain violation on {AGGREGATOR_FOR}")
    assert messages[RangeViolation].startswith(f"range violation on {MEMBER_OF}")
    assert messages[UnknownPredicate] == "unregistered predicate info:ino/def#nope"
    assert "info:ino/ghost" in messages[NotFound]
