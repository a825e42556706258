import sys

import pytest

from wciq.errors import ResourceLimitError, backtrack, node_budget


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
