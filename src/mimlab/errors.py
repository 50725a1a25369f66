"""Shared exception types."""


class BudgetExceededError(RuntimeError):
    """An exact computation ran past its configured work budget.

    Raised instead of returning a heuristic or truncated answer: every
    consumer that sees a result may treat it as exact.  `kind` names the
    limit in the message: a work budget unless the caller says otherwise.
    """

    def __init__(self, what: str, budget: int, kind: str = "work budget"):
        super().__init__(f"{what}: {kind} of {budget} exceeded")
        self.what = what
        self.budget = budget
