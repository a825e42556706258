"""Exception taxonomy shared by every module.

The command line maps these onto exit codes: InputError to 2,
PreconditionFailure to 1, ResourceLimitError to 3. InternalConsistencyError
signals that a derived identity failed at runtime and is never caught.
"""

from typing import Callable

#: Default node budget of each search: the nef partition search, the
#: admissible family search, which counts one node per image set it tries,
#: and their references in `wciq.oracles`. Each search counts its own nodes
#: against the budget it is given (`--node-budget` on the command line);
#: exceeding it raises ResourceLimitError. The non-contracting map search
#: counts one node per assignment it tries, and the minimal non-face
#: search one per set it tries, always against this default.
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


def node_budget(limit: int, search: str) -> Callable[[], None]:
    """A `spend()` for one run of a search, to call once per node. Past
    `limit` calls it raises ResourceLimitError naming the search."""
    nodes = 0

    def spend() -> None:
        nonlocal nodes
        nodes += 1
        if nodes > limit:
            raise ResourceLimitError(f"{search} exceeded the node budget {limit}")

    return spend
