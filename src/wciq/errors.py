"""Exception taxonomy shared by every module, and the metered search loop.

The command line maps these onto exit codes: InputError to 2,
PreconditionFailure to 1, ResourceLimitError to 3. InternalConsistencyError
signals that a derived identity failed at runtime and is never caught.
"""

from typing import Callable, Iterator

#: Default node budget of each search. The nef partition search, the
#: admissible family search and the non-contracting map search all run in
#: `backtrack`, which spends one node per candidate a level yields; the
#: first two count against the budget they are given (`--node-budget` on
#: the command line), the map search always against this default. The
#: minimal non-face search and the references in `wciq.oracles` spend
#: through `node_budget`. Exceeding a budget raises ResourceLimitError.
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


def backtrack(depth: int, level: Callable[[int], Iterator[bool]], limit: int,
              search: str) -> bool:
    """Depth-first search over `depth` levels in one loop. `level(i)` is a
    generator, started each time level i - 1 goes deeper, that undoes a
    candidate's changes when resumed; each value it yields spends one
    node, True going on to level i + 1 and False dropping the candidate.
    True once the last level goes deeper, False once level 0 runs out;
    past `limit` nodes raises ResourceLimitError naming the search."""
    levels: list[Iterator[bool]] = []
    nodes = 0
    while len(levels) < depth:
        levels.append(level(len(levels)))
        while levels:
            for deeper in levels[-1]:
                nodes += 1
                if nodes > limit:
                    raise ResourceLimitError(f"{search} exceeded the node budget {limit}")
                if deeper:
                    break
            else:  # the level ran out: back to the one above
                levels.pop()
                continue
            break  # a candidate goes deeper
        else:
            return False
    return True
