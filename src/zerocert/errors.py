"""Shared error types.

Each error carries a short ``slug`` used by the CLI when mapping failures
to exit codes and report lines.
"""


class EngineError(Exception):
    """Base class for failures the engine can name."""

    slug = "engine-error"


class DomainError(EngineError):
    """Arguments outside an operation's stated domain."""

    slug = "domain-error"


class NotSummable(EngineError):
    """An integral against a charge does not converge absolutely."""

    slug = "not-summable"


class InvalidModel(EngineError):
    """A growth model failed its construction-time checks."""

    slug = "invalid-model"


class InvalidPotential(EngineError):
    """Potential data inconsistent with a unit-mass Jensen measure."""

    slug = "invalid-potential"


class PreconditionViolation(EngineError):
    """A geometric precondition fails (e.g. an enlarged disk exits the domain)."""

    slug = "precondition-violation"


class GenusOverflow(EngineError):
    """No admissible genus at or below the cap gives a convergent product."""

    slug = "genus-overflow"


class SchemaError(EngineError):
    """Scenario JSON does not match the schema."""

    slug = "schema-violation"

    def __init__(self, messages):
        if isinstance(messages, str):
            messages = [messages]
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))
