"""Exception taxonomy shared by every module.

The command line maps these onto exit codes: InputError to 2,
PreconditionFailure to 1, ResourceLimitError to 3. InternalConsistencyError
signals that a derived identity failed at runtime and is never caught.
"""

#: Default node budget of each backtracking search: the nef partition search
#: and the admissible family search, which counts one node per image set it
#: tries. Each search counts its own nodes against the budget it is given
#: (`--node-budget` on the command line); exceeding it raises
#: ResourceLimitError.
DEFAULT_NODE_BUDGET = 2_000_000


class InputError(ValueError):
    """Malformed or out-of-contract input (bad schema, bad index, bad shape)."""


class ResourceLimitError(RuntimeError):
    """A configured cap or budget was exceeded; the answer is undetermined."""


class PreconditionFailure(Exception):
    """A named hypothesis required by a construction does not hold."""

    def __init__(self, hypothesis: str, message: str, witness=None):
        super().__init__(message)
        self.hypothesis = hypothesis
        self.witness = witness


class InternalConsistencyError(RuntimeError):
    """An identity that the theory guarantees failed on concrete data."""
