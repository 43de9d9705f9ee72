"""The marker base of the declared domain errors.

Each declared error stays in the module that raises it and keeps its own
base too (`class NotRigid(DomainError, ValueError)`), so the batch front
end catches every one (exit status 1) without importing the modules that
define them.
"""


class DomainError(Exception):
    """A property of the input that the pipeline decided: not a fault."""
