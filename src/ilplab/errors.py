"""Shared exception types."""


class BudgetExceededError(RuntimeError):
    """An enumeration or solver exceeded its configured work budget."""


class UnboundedSearchError(RuntimeError):
    """An integral enumeration reached a variable with no finite LP upper bound.

    The search branches over each node's exact LP range, so it cannot go on
    when that range has no top.  A column in no row at a positive cost is
    the one exception: it is 0 in every optimum.
    """


class EmbeddingError(RuntimeError):
    """An exact feasibility assertion of a bin-packing embedding failed."""


class ClaimFalsifiedError(RuntimeError):
    """A verified inequality failed on a concrete witness.

    Either the claimed inequality is wrong or there is a bug upstream;
    the witness is attached so the failure can be replayed.
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness
