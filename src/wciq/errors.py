"""Exception taxonomy shared by every module, `checked_ints` (the one rule
for an integer argument), and the metered search loop.

The command line maps these onto exit codes: InputError to 2,
PreconditionFailure to 1, ResourceLimitError to 3. InternalConsistencyError
signals that a derived identity failed at runtime and is never caught.
"""

from typing import Callable, Iterable, Iterator

#: Default node budget of each search. Every search counts one node per
#: candidate it tries, through `node_budget`; in `backtrack` (the nef
#: partition, admissible family and non-contracting map searches) a
#: candidate is a value a level yields. The map search, the minimal
#: non-face search, the base complex and divisibility searches, the
#: strict-regularity sweep and the divisibility facet expansion always
#: count against this default, the others against the budget they are
#: given (`--node-budget` on the command line). Exceeding a budget raises
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


def checked_ints(values: Iterable, what: str, least: int = 0,
                 stop: int | None = None) -> list[int]:
    """The values, when each is an exact int (a bool or another int
    subclass is not) from least, 0 or 1, to below stop where one is given;
    InputError naming the first that is not, as `what`, otherwise."""
    values = list(values)
    for value in values:
        if type(value) is not int or value < least or stop is not None and value >= stop:
            raise InputError(
                f"{what} {value!r} outside {least}..{stop - 1}" if stop is not None
                else f"{what} must be a non-negative integer, got {value!r}" if not least
                else f"{what} must be an integer, got {value!r}" if type(value) is not int
                else f"{what} must be positive, got {value!r}")
    return values


def node_budget(limit: int, search: str) -> Callable[[int], int]:
    """A `spend(n=1)` for one run of a search: it charges n nodes, one per
    node or a counted batch at once, and returns the nodes spent so far.
    Past `limit` it raises ResourceLimitError naming the search."""
    nodes = 0

    def spend(n: int = 1) -> int:
        nonlocal nodes
        nodes += n
        if nodes > limit:
            raise ResourceLimitError(f"{search} exceeded the node budget {limit}")
        return nodes

    return spend


def backtrack(depth: int, level: Callable[[int], Iterator[bool]],
              spend: Callable[..., int]) -> bool:
    """Depth-first search over `depth` levels in one loop. `level(i)` is a
    generator, started each time level i - 1 goes deeper, that undoes a
    candidate's changes when resumed; each value it yields is a candidate
    and calls `spend`, a `node_budget` of the search, once: True going on
    to level i + 1 and False dropping it. True once the last level goes
    deeper, at once when `depth` is 0; False once level 0 runs out."""
    levels: list[Iterator[bool]] = []
    while len(levels) < depth:
        levels.append(level(len(levels)))
        while levels:
            for deeper in levels[-1]:
                spend()
                if deeper:
                    break
            else:  # the level ran out: back to the one above
                levels.pop()
                continue
            break  # a candidate goes deeper
        else:
            return False
    return True
