"""Exception taxonomy shared across the toolkit.

The CLI maps these onto its exit-code contract: InputError and
ContractError are usage/contract problems (exit 2), BudgetExceeded is a
resource signal (exit 3).  OracleUnavailable never reaches it: the one
suite that runs the oracle reports a declined run in its checks.
AnomalyError flags a mathematical expectation that failed inside the
machinery; it is never silently reconciled.
"""


class InputError(ValueError):
    """Malformed input: bad dimensions, unknown names, out-of-range indices."""


class ContractError(ValueError):
    """An operation was invoked outside its stated hypotheses."""


class BudgetExceeded(RuntimeError):
    """An enumeration exceeded its entry budget, or a catalog was asked of
    a representation-infinite instance; a signal, not a crash."""


class OracleUnavailable(RuntimeError):
    """An independent oracle declined to run (size cap exceeded)."""


class AnomalyError(RuntimeError):
    """A structural invariant the theory guarantees failed to hold."""


class WindowOverflow(RuntimeError):
    """A computation needed layers beyond the configured window."""
