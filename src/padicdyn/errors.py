"""The package's one exception for calls outside a function's stated domain."""


class PreconditionError(ValueError):
    """An operation was invoked outside its stated domain."""
