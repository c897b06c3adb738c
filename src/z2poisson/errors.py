"""Exception hierarchy shared across the package."""


class Z2PoissonError(Exception):
    """Base class for all library errors."""


class DiagramSyntaxError(Z2PoissonError):
    """Raised on malformed diagram DSL input; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DiagramValidationError(Z2PoissonError):
    """A structurally invalid diagram: names the violated invariant."""


class AlgebraValidationError(Z2PoissonError):
    """A structure-constant description that is malformed or not a Lie
    algebra."""


class UnsupportedPairError(Z2PoissonError):
    """The requested pair is outside the catalog, or has no structure-level
    realization (exceptional types exist only at the diagram layer)."""


class BudgetError(Z2PoissonError):
    """A symbolic computation exceeded its configured size budget."""


class GenericityError(Z2PoissonError):
    """Random sampling failed to produce a generic point within the retry
    budget: a sampled certificate whose two bounds do not meet."""


class PolyParseError(Z2PoissonError):
    """Raised on malformed polynomial text input."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position
