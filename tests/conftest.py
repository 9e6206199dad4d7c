"""Helpers shared by the tests of ``compute_description``'s pool.

``compute_description`` builds its entries on several threads when some
entry is wide, so spies record calls per thread and a test matches the
calls to entries by the matrices they return, never by a global order.
While the pool runs, numpy's bundled OpenBLAS is set to one thread.
"""

import threading

import pytest

from shallowcheck import description


class ThreadStreams:
    """Calls recorded in one list per thread.

    A recorded call is a tuple whose last item is the matrix a call of
    ``_conjugate_hermitian`` returned, ``None`` for any other call.
    """

    def __init__(self):
        self.calls = {}

    def mine(self) -> list:
        """The calling thread's list."""
        return self.calls.setdefault(threading.get_ident(), [])

    def by_entry(self, d) -> dict:
        """Each thread's calls cut after every last step, keyed by entry.

        The entry of a last step is the projection of ``d`` whose matrix
        is the one it returned.  Fails unless every thread's stream is a
        concatenation of whole entries and every entry that has steps
        appears exactly once.
        """
        entry_of = {id(p.matrix): t for t, p in enumerate(d.projections)}
        found = {}
        for calls in self.calls.values():
            start = 0
            for i, call in enumerate(calls):
                if call[-1] is not None:
                    t = entry_of[id(call[-1])]
                    assert t not in found
                    found[t] = calls[start:i + 1]
                    start = i + 1
            assert start == len(calls)
        return found


@pytest.fixture
def streams():
    return ThreadStreams()


@pytest.fixture
def blas_threads():
    """numpy's bundled OpenBLAS on two threads; yields its count getter
    and restores the count the test found."""
    blas = description._openblas()
    if blas is None:
        pytest.skip("numpy does not run on its bundled OpenBLAS")
    get, set_ = blas
    before = get()
    set_(2)
    yield get
    set_(before)
