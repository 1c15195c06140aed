"""The whole-buffer RCT/APT passes against byte-at-a-time references.

:class:`RepetitionCountTest` and :class:`AdaptiveProportionTest` screen a
buffer in a fixed number of numpy passes.  The references below walk the
same stream one sample at a time, the way SP 800-90B §4.4 states the
tests, and must agree on every buffer of every split: the returned offset
and the state carried into the next buffer.  Streams come from small
alphabets with runs planted across the buffer boundaries, so both tests
fire often and at every kind of position.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.robust.health import AdaptiveProportionTest, RepetitionCountTest, rct_cutoff


class ReferenceRCT:
    """Repetition Count Test, one sample at a time."""

    def __init__(self, cutoff: int) -> None:
        self.cutoff = cutoff
        self.last: int | None = None
        self.run = 0

    def update(self, data: np.ndarray) -> int | None:
        fail_at = None
        for i, sample in enumerate(data.tolist()):
            self.run = self.run + 1 if sample == self.last else 1
            self.last = sample
            if fail_at is None and self.run >= self.cutoff:
                fail_at = i
        return fail_at


class ReferenceAPT:
    """Adaptive Proportion Test, one sample at a time.

    The verdict is read where the window or the buffer ends, and a failing
    buffer stops there with the failing window left in place.  A window
    that failed after all its samples were seen fails again at offset -1
    of the next non-empty buffer, before that buffer's first sample.
    """

    def __init__(self, cutoff: int, window: int) -> None:
        self.cutoff = cutoff
        self.window = window
        self.ref: int | None = None
        self.seen = 0
        self.count = 0

    def update(self, data: np.ndarray) -> int | None:
        n = data.size
        if n and self.ref is not None and self.seen == self.window:
            return -1
        for i, sample in enumerate(data.tolist()):
            if self.ref is None:
                self.ref, self.seen, self.count = sample, 1, 1
                continue
            self.seen += 1
            self.count += sample == self.ref
            if self.seen == self.window or i == n - 1:
                if self.count >= self.cutoff:
                    return i
                if self.seen == self.window:
                    self.ref = None
        return None


@st.composite
def split_streams(draw) -> list[np.ndarray]:
    """A byte stream cut into buffers (empty and 1-byte ones included),
    with runs planted across some of the cuts."""
    alphabet = draw(st.sampled_from([1, 2, 3, 256]))
    raw = draw(st.binary(max_size=1600))
    data = (np.frombuffer(raw, dtype=np.uint8).astype(np.int64) % alphabet).astype(np.uint8)
    cuts = sorted(draw(st.lists(st.integers(0, data.size), max_size=16)))
    for cut in cuts:
        plant = draw(st.none() | st.tuples(st.integers(0, 40), st.integers(0, 40),
                                           st.integers(0, 255)))
        if plant is not None:
            before, after, value = plant
            data[max(cut - before, 0) : cut + after] = value
    return np.split(data, cuts)


#: ``(cutoff, entropy_per_sample)``; ``alpha = 2^-(H (C - 1))`` gives
#: exactly that RCT cutoff, and a spread of APT cutoffs per window.
cutoff_params = st.tuples(st.integers(2, 31), st.sampled_from([1.0, 2.0, 4.0, 8.0]))


def alpha_for(cutoff: int, entropy_per_sample: float) -> float:
    return 2.0 ** -(entropy_per_sample * (cutoff - 1))


class TestRepetitionCountVectorised:
    @settings(max_examples=300, deadline=None)
    @given(buffers=split_streams(), params=cutoff_params, reset_on_fail=st.booleans())
    def test_matches_reference(self, buffers, params, reset_on_fail):
        cutoff, h = params
        alpha = alpha_for(cutoff, h)
        assert rct_cutoff(alpha, h) == cutoff
        rct, ref = RepetitionCountTest(alpha, h), ReferenceRCT(cutoff)
        for buf in buffers:
            at = rct.update(buf)
            assert at == ref.update(buf)
            assert (rct._last, rct._run) == (ref.last, ref.run)
            if at is not None and reset_on_fail:
                rct.reset()
                ref = ReferenceRCT(cutoff)

    def test_run_carried_through_one_byte_buffers(self):
        rct = RepetitionCountTest(alpha_for(6, 8.0), 8.0)
        hits = [rct.update(np.array([9], np.uint8)) for _ in range(8)]
        assert hits == [None] * 5 + [0, 0, 0]
        assert (rct._last, rct._run) == (9, 8)


class TestAdaptiveProportionVectorised:
    @settings(max_examples=300, deadline=None)
    @given(
        buffers=split_streams(),
        params=cutoff_params,
        window=st.sampled_from([2, 7, 512]),
        reset_on_fail=st.booleans(),
    )
    def test_matches_reference(self, buffers, params, window, reset_on_fail):
        cutoff, h = params
        apt = AdaptiveProportionTest(alpha_for(cutoff, h), h, window)
        ref = ReferenceAPT(apt.cutoff, window)
        for buf in buffers:
            at = apt.update(buf)
            assert at == ref.update(buf)
            assert apt._ref == ref.ref
            if ref.ref is not None:
                assert (apt._seen, apt._count) == (ref.seen, ref.count)
            if at is not None and reset_on_fail:
                apt.reset()
                ref = ReferenceAPT(apt.cutoff, window)

    def test_failure_reports_window_end_and_keeps_window(self):
        apt = AdaptiveProportionTest(0.5, 1.0, window=7)
        assert apt.cutoff == 5
        data = np.array([1, 2, 3, 4, 5, 6, 7] * 2 + [8, 8, 0, 8, 8, 9, 8, 1], np.uint8)
        assert apt.update(data) == 20  # end of the third window, five 8s
        assert (apt._ref, apt._seen, apt._count) == (8, 7, 5)
