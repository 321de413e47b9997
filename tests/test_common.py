"""Tests for repro.common: types, virtual time, RNG, errors."""

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import DeadlockError, ReproError, ResourceExhaustedError
from repro.common.rng import DeterministicRNG
from repro.common.types import (
    CollectiveKind,
    CollectiveSpec,
    DataType,
    DeviceId,
    LinkType,
    ReduceOp,
)
from repro.common.vtime import VirtualClock
from repro.gpusim.interconnect import LinkSpec


class TestDataType:
    def test_byte_sizes(self):
        assert DataType.FLOAT32.byte_size(10) == 40
        assert DataType.FLOAT16.byte_size(10) == 20
        assert DataType.INT64.byte_size(3) == 24

    @pytest.mark.parametrize("dtype", list(DataType))
    def test_all_dtypes_have_positive_width(self, dtype):
        assert dtype.nbytes > 0


class TestCollectiveSpec:
    def test_nbytes(self):
        spec = CollectiveSpec(CollectiveKind.ALL_REDUCE, count=1024)
        assert spec.nbytes == 4096

    def test_validate_rejects_non_positive_count(self):
        with pytest.raises(ValueError):
            CollectiveSpec(CollectiveKind.ALL_REDUCE, count=0).validate()

    def test_validate_rejects_negative_root(self):
        with pytest.raises(ValueError):
            CollectiveSpec(CollectiveKind.BROADCAST, count=4, root=-1).validate()

    def test_validate_passes_for_valid_spec(self):
        spec = CollectiveSpec(CollectiveKind.REDUCE, count=16, op=ReduceOp.MAX, root=2)
        assert spec.validate() is spec

    @pytest.mark.parametrize("kind,expected", [
        (CollectiveKind.ALL_REDUCE, True),
        (CollectiveKind.REDUCE_SCATTER, True),
        (CollectiveKind.REDUCE, True),
        (CollectiveKind.ALL_GATHER, False),
        (CollectiveKind.BROADCAST, False),
    ])
    def test_reduces_flag(self, kind, expected):
        assert kind.reduces is expected


class TestLinkType:
    def test_transfer_time_includes_alpha(self):
        rdma = LinkSpec.of(LinkType.RDMA)
        assert rdma.transfer_time_us(0) == pytest.approx(LinkType.RDMA.alpha_us)

    def test_transfer_time_monotonic_in_size(self):
        pix = LinkSpec.of(LinkType.SHM_PIX)
        assert pix.transfer_time_us(1 << 20) > pix.transfer_time_us(1 << 10)

    def test_faster_links_are_faster(self):
        nbytes = 4 << 20
        assert (LinkSpec.of(LinkType.NVLINK).transfer_time_us(nbytes)
                < LinkSpec.of(LinkType.SHM_PIX).transfer_time_us(nbytes)
                < LinkSpec.of(LinkType.RDMA).transfer_time_us(nbytes))


class TestDeviceId:
    def test_str(self):
        assert str(DeviceId(1, 3)) == "node1:gpu3"

    def test_hashable_and_equal(self):
        assert DeviceId(0, 1) == DeviceId(0, 1)
        assert len({DeviceId(0, 1), DeviceId(0, 1), DeviceId(0, 2)}) == 2


class TestVirtualClock:
    def test_advance(self):
        clock = VirtualClock()
        clock.advance(5.0)
        clock.advance(2.5)
        assert clock.now == pytest.approx(7.5)

    def test_advance_rejects_negative(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1.0)

    def test_advance_to_never_goes_backwards(self):
        clock = VirtualClock(10.0)
        clock.advance_to(5.0)
        assert clock.now == 10.0
        clock.advance_to(15.0)
        assert clock.now == 15.0


class TestDeterministicRNG:
    def test_same_seed_same_sequence(self):
        a = DeterministicRNG(42)
        b = DeterministicRNG(42)
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_children_are_independent_of_creation_order(self):
        root1 = DeterministicRNG(7)
        root2 = DeterministicRNG(7)
        _ = root1.child("x")
        a = root1.child("target").random()
        b = root2.child("target").random()
        assert a == b

    def test_bernoulli_extremes(self):
        rng = DeterministicRNG(1)
        assert rng.bernoulli(0.0) is False
        assert rng.bernoulli(1.0) is True

    def test_permutation_is_a_permutation(self):
        rng = DeterministicRNG(3)
        perm = rng.permutation(10)
        assert sorted(perm) == list(range(10))

    @given(st.integers(min_value=0, max_value=2**32), st.integers(1, 50))
    def test_randint_in_range(self, seed, high):
        rng = DeterministicRNG(seed)
        value = rng.randint(0, high)
        assert 0 <= value <= high


class TestErrors:
    def test_hierarchy(self):
        assert issubclass(DeadlockError, ReproError)
        assert issubclass(ResourceExhaustedError, ReproError)

    def test_deadlock_error_carries_wait_graph(self):
        error = DeadlockError("boom", wait_graph={"a": ["k"]}, blocked=["a"])
        assert error.wait_graph == {"a": ["k"]}
        assert error.blocked == ["a"]


class TestGlobalRngIsolationFixture:
    @pytest.mark.uses_global_rng
    def test_marked_tests_may_touch_global_rng(self):
        """The escape hatch: marked tests may consume the global stream (the
        autouse fixture still restores the state afterwards)."""
        import random

        before = random.getstate()
        random.random()
        assert random.getstate() != before

    def test_deterministic_rng_does_not_touch_global_state(self):
        """Library randomness is isolated: DeterministicRNG draws never move
        the module-level stream (the autouse fixture would fail this test
        loudly if they did)."""
        import random

        before = random.getstate()
        rng = DeterministicRNG(1234)
        rng.child("probe").uniform(0.0, 1.0)
        rng.randint(0, 10)
        assert random.getstate() == before
