"""Exception hierarchy for the repository."""


class InoError(Exception):
    """Base class for all repository errors."""


# --- object store ---

class DuplicateId(InoError):
    pass


class InvalidObject(InoError):
    """An object violates a structural invariant; message names the field."""


class NotFound(InoError):
    pass


class ParseError(InoError):
    def __init__(self, message, line=0, column=0):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class SeqOutOfRange(InoError):
    pass


class StoreLocked(InoError):
    pass


class StoreFailed(InoError):
    """Writes are refused: the store is closed, or a commit or compaction
    failed at its write (reopening the store reads what reached the log)."""


class OldStoreLayout(InoError):
    """The data directory holds the one-file-per-object layout of an older
    version, which is not read."""


# --- triple index / queries ---

class QueryTooLarge(InoError):
    pass


class OracleTooLarge(InoError):
    pass


class QuerySyntaxError(InoError):
    pass


# --- ontology ---

class BuiltinRedefinition(InoError):
    pass


class InvalidRule(InoError):
    pass


class UnknownPredicate(InoError):
    pass


class DomainViolation(InoError):
    pass


class RangeViolation(InoError):
    pass


class CardinalityViolation(InoError):
    def __init__(self, predicate, bound, attempted):
        super().__init__(
            f"cardinality of {predicate} violated: bound {bound}, attempted {attempted}"
        )
        self.predicate = predicate
        self.bound = bound
        self.attempted = attempted


# --- high-level API ---

class UnknownAggregation(InoError):
    pass


class UnknownResource(InoError):
    pass


class UnknownAgent(InoError):
    pass


class UnknownMember(InoError):
    pass


class HasDependents(InoError):
    def __init__(self, dependents):
        super().__init__(f"object has dependents: {sorted(dependents)}")
        self.dependents = list(dependents)


# --- dissemination ---

class FormatUnavailable(InoError):
    pass


class TransformError(InoError):
    pass


# --- OAI provider / harvester ---

class EventOutOfOrder(InoError):
    pass


class BadResumptionToken(InoError):
    pass


class RemoteProtocolError(InoError):
    pass


class NotEmpty(InoError):
    pass


class ConfigError(InoError):
    pass
