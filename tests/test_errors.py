import signal
import sys

import pytest

from wciq.arith import DegreeTuple, WeightTuple, is_representable, representable_degrees
from wciq.complexes import Complex, WeightedComplex, base_complex
from wciq.errors import InputError, ResourceLimitError, backtrack, node_budget
from wciq.nef import find_nef_partition
from wciq.realize import contraction_instance, first_primes, realize_map_instance, skeleton
from wciq.regularity import is_strictly_regular

EDGE = Complex.from_facets(2, [{0, 1}])

#: Every public integer argument: a call passing v as it, the name its
#: message gives it, and the least value it takes.
INT_ARGUMENTS = {
    "weight entry": (lambda v: WeightTuple((2, v)), "weight", 1),
    "degree entry": (lambda v: DegreeTuple((4, v)), "degree", 1),
    "is_representable target": (lambda v: is_representable(v, [2, 3]), "target", 0),
    "is_representable dp_cap":
        (lambda v: is_representable(7, [2, 3], dp_cap=v), "dp_cap", 0),
    "representable_degrees dp_cap":
        (lambda v: representable_degrees([2, 3], [7], dp_cap=v), "dp_cap", 0),
    "base_complex dp_cap": (lambda v: base_complex([2, 3], 7, dp_cap=v), "dp_cap", 0),
    "is_strictly_regular dp_cap":
        (lambda v: is_strictly_regular([2, 3], [6], dp_cap=v), "dp_cap", 0),
    "base_complex degree": (lambda v: base_complex([2, 3], v), "degree", 1),
    "find_nef_partition node_budget":
        (lambda v: find_nef_partition([1, 1, 2], [2], node_budget=v), "node_budget", 0),
    "WeightedComplex weight":
        (lambda v: WeightedComplex(EDGE, {0: 2, 1: v}), "vertex weight", 1),
    "from_facets n_vertices": (lambda v: Complex.from_facets(v, []), "n_vertices", 0),
    "first_primes count": (lambda v: first_primes(v), "prime count", 0),
    "first_primes offset": (lambda v: first_primes(3, v), "prime offset", 0),
    "skeleton n_vertices": (lambda v: skeleton(v, 0), "n_vertices", 0),
    "skeleton dim": (lambda v: skeleton(3, v), "dim", 0),
    "contraction_instance l": (lambda v: contraction_instance(v, 2, 0, 9), "l", 0),
    "contraction_instance N": (lambda v: contraction_instance(1, v, 0, 9), "N", 0),
    "contraction_instance m": (lambda v: contraction_instance(1, 2, v, 9), "m", 0),
    "contraction_instance t": (lambda v: contraction_instance(1, 2, 0, v), "t", 0),
    "realize_map_instance pad":
        (lambda v: realize_map_instance(EDGE, EDGE, {0: 0, 1: 1}, pad=v, ones=0), "pad", 0),
    "realize_map_instance ones":
        (lambda v: realize_map_instance(EDGE, EDGE, {0: 0, 1: 1}, pad=0, ones=v), "ones", 0),
}


def _hung(signum, frame):
    raise TimeoutError("no answer within 5 s")


@pytest.mark.parametrize("argument,value", [
    (argument, value) for argument, (_, _, least) in INT_ARGUMENTS.items()
    for value in [True, 2.5, -1] + [0] * least])
def test_integer_arguments_follow_one_rule(argument, value):
    call, what, least = INT_ARGUMENTS[argument]
    problem = ("a non-negative integer" if not least
               else "an integer" if type(value) is not int else "positive")
    # first_primes(2.5) once counted primes forever
    previous = signal.signal(signal.SIGALRM, _hung)
    signal.alarm(5)
    try:
        with pytest.raises(InputError) as exc:
            call(value)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert str(exc.value) == f"{what} must be {problem}, got {value!r}"


def test_int_subclass_refused_as_weight_and_degree():
    class Int(int):
        pass

    for entries in (WeightTuple, DegreeTuple):
        with pytest.raises(InputError, match="must be an integer, got 3$"):
            entries((Int(3),))


def never(i):
    raise AssertionError(f"level {i} started")


def binary(i):
    """Two candidates per level, the first dropped, the second going on."""
    yield False
    yield True


class TestBacktrack:
    def test_depth_zero_is_true_at_no_cost(self):
        assert backtrack(0, never, node_budget(0, "empty search")) is True

    @pytest.mark.parametrize("k", [0, 1, 5])
    def test_dropped_candidates_spend_one_node_each(self, k):
        def level(i):
            yield from [False] * k

        assert backtrack(1, level, node_budget(k, "dead end")) is False
        if k:
            with pytest.raises(ResourceLimitError,
                               match=f"^dead end exceeded the node budget {k - 1}$"):
                backtrack(1, level, node_budget(k - 1, "dead end"))

    def test_exact_budget_passes_and_one_less_raises(self):
        # three levels of two candidates: 2 * 3 nodes to the bottom
        assert backtrack(3, binary, node_budget(6, "binary search")) is True
        with pytest.raises(ResourceLimitError,
                           match="^binary search exceeded the node budget 5$"):
            backtrack(3, binary, node_budget(5, "binary search"))

    def test_exhausted_search_backs_up_and_answers_false(self):
        # level 1 drops both candidates below each of level 0's two
        def level(i):
            yield from [True, True] if not i else [False, False]

        assert backtrack(2, level, node_budget(6, "refuted search")) is False
        with pytest.raises(ResourceLimitError):
            backtrack(2, level, node_budget(5, "refuted search"))

    def test_depth_is_not_bounded_by_the_stack(self):
        assert 10_000 > sys.getrecursionlimit()
        assert backtrack(10_000, binary, node_budget(20_000, "deep search")) is True
