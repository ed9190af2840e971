"""Property test of the shared backtracking kernel `groups.backtrack`."""

import itertools

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from crossedprod.groups import backtrack  # noqa: E402


@settings(max_examples=300, deadline=None)
@given(
    domains=st.lists(st.lists(st.integers(0, 2), max_size=3), max_size=5),
    banned=st.sets(st.lists(st.integers(0, 2), min_size=1, max_size=4).map(tuple)),
)
@example(domains=[], banned=set())
@example(domains=[[0, 1], [], [2]], banned=set())
def test_backtrack_equals_filtered_product(domains, banned):
    def accept(k, vals):
        return tuple(vals[:k + 1]) not in banned

    want = [
        t for t in itertools.product(*domains)
        if all(t[:k + 1] not in banned for k in range(len(t)))
    ]
    assert list(backtrack(domains, accept)) == want
