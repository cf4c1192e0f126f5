"""Structured mask construction, validation, composition, serialisation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subsetprune import (
    ChannelBlocked,
    Composite,
    FilterRemoval,
    Mask4,
    ParameterError,
    Tensor4,
    channel_blocked_mask,
    compose,
    filter_removal_mask,
    mask_from_bytes,
    mask_to_bytes,
    sign_split_mask,
    validate_structure,
)


class TestChannelBlocked:
    def test_definition_example(self):
        # d=1, c=2, n=2: kernels 0,1 belong to channel 0; kernels 2,3 to channel 1
        mask = channel_blocked_mask(1, 2, 2)
        assert mask.shape == (1, 1, 2, 4)
        assert np.array_equal(mask.bits[0, 0, 0], [1, 1, 0, 0])
        assert np.array_equal(mask.bits[0, 0, 1], [0, 0, 1, 1])

    def test_trivial_single_block(self):
        mask = channel_blocked_mask(1, 1, 1)
        assert mask.bits.shape == (1, 1, 1, 1)
        assert mask.bits[0, 0, 0, 0] == 1

    def test_each_kernel_sees_exactly_its_owner_channel(self):
        d, c, n = 3, 4, 5
        mask = channel_blocked_mask(d, c, n)
        for kernel in range(c * n):
            ones = int(mask.bits[:, :, :, kernel].sum())
            assert ones == d * d
            assert mask.bits[:, :, kernel // n, kernel].all()

    def test_validates(self):
        mask = channel_blocked_mask(2, 3, 4)
        assert validate_structure(mask).valid


class TestSignSplit:
    def test_positive_pair_keeps_first_block_only(self):
        # c=1, n=1: values (0.4, 0.7); 0.7 sits in the non-positive block, dropped
        blocked = Tensor4(np.array([0.4, 0.7]).reshape(1, 1, 1, 2))
        mask = sign_split_mask(blocked, 1)
        assert mask.kind == FilterRemoval(kept=(0,))
        assert np.array_equal(mask.bits[0, 0, 0], [1, 0])

    def test_negative_pair_keeps_second_block_only(self):
        blocked = Tensor4(np.array([-0.4, -0.7]).reshape(1, 1, 1, 2))
        mask = sign_split_mask(blocked, 1)
        assert mask.kind == FilterRemoval(kept=(1,))

    def test_exact_zero_kept_in_both_blocks(self):
        blocked = Tensor4(np.zeros((1, 1, 1, 2)))
        mask = sign_split_mask(blocked, 1)
        assert mask.kind == FilterRemoval(kept=(0, 1))

    def test_output_validates_as_filter_removal(self):
        rng = np.random.default_rng(3)
        c, n = 2, 3
        blocked_mask = channel_blocked_mask(1, c, 2 * n)
        values = blocked_mask.apply(Tensor4(rng.standard_normal((1, 1, c, 2 * n * c))))
        mask = sign_split_mask(values, n)
        report = validate_structure(mask)
        assert report.valid and isinstance(mask.kind, FilterRemoval)

    def test_sign_separation_after_application(self):
        rng = np.random.default_rng(4)
        c, n = 3, 4
        blocked_mask = channel_blocked_mask(1, c, 2 * n)
        values = blocked_mask.apply(Tensor4(rng.standard_normal((1, 1, c, 2 * n * c))))
        masked = sign_split_mask(values, n).apply(values)
        for t in range(c):
            base = t * 2 * n
            first = masked.data[0, 0, :, base : base + n]
            second = masked.data[0, 0, :, base + n : base + 2 * n]
            assert (first >= 0.0).all()
            assert (second <= 0.0).all()


class TestFilterRemoval:
    def test_all_and_none(self):
        shape = (2, 2, 3, 4)
        assert filter_removal_mask(shape, range(4)).bits.all()
        assert not filter_removal_mask(shape, ()).bits.any()

    def test_single_kernel(self):
        mask = filter_removal_mask((1, 1, 1, 3), [1])
        assert np.array_equal(mask.bits[0, 0, 0], [0, 1, 0])

    def test_out_of_range_rejected(self):
        with pytest.raises(ParameterError):
            filter_removal_mask((1, 1, 1, 3), [3])


class TestCompose:
    def test_identity_and_idempotence(self):
        mask = channel_blocked_mask(2, 2, 3)
        all_ones = filter_removal_mask(mask.shape, range(mask.shape[3]))
        assert np.array_equal(compose(mask, all_ones).bits, mask.bits)
        assert np.array_equal(compose(mask, mask).bits, mask.bits)

    def test_commutative_and_associative_bits(self):
        rng = np.random.default_rng(9)
        shape = (2, 2, 2, 6)
        masks = [
            Mask4(rng.integers(0, 2, shape).astype(np.uint8), FilterRemoval(kept=()))
            for _ in range(3)
        ]
        a, b, c = masks
        assert np.array_equal(compose(a, b).bits, compose(b, a).bits)
        assert np.array_equal(
            compose(compose(a, b), c).bits, compose(a, compose(b, c)).bits
        )

    def test_blocked_and_removal_ones_count(self):
        d, c, n = 2, 2, 3
        blocked = channel_blocked_mask(d, c, n)
        kept = (0, 4)
        removal = filter_removal_mask(blocked.shape, kept)
        combined = compose(blocked, removal)
        # each kept kernel retains its d*d owner-channel entries
        assert combined.ones_count() == len(kept) * d * d
        assert isinstance(combined.kind, Composite)
        assert validate_structure(combined).valid

    def test_two_filter_removals_intersect(self):
        shape = (1, 1, 2, 4)
        a = filter_removal_mask(shape, (0, 1, 2))
        b = filter_removal_mask(shape, (1, 2, 3))
        combined = compose(a, b)
        assert combined.kind == FilterRemoval(kept=(1, 2))
        assert validate_structure(combined).valid


class TestValidate:
    def test_corrupted_bit_is_localised(self):
        mask = channel_blocked_mask(2, 2, 2)
        bits = mask.bits.copy()
        bits[1, 0, 1, 2] ^= 1
        report = validate_structure(Mask4(bits, mask.kind))
        assert not report.valid
        assert report.violations == ((1, 0, 1, 2),)

    def test_shape_incompatible_kind(self):
        bits = np.ones((1, 1, 2, 3), dtype=np.uint8)
        report = validate_structure(Mask4(bits, ChannelBlocked(2)))
        assert not report.valid and "kernels" in report.message

    def test_mislabelled_filter_removal(self):
        mask = channel_blocked_mask(1, 2, 2)  # not all-or-nothing per kernel column
        report = validate_structure(Mask4(mask.bits, FilterRemoval(kept=(0, 1, 2, 3))))
        assert not report.valid

    @pytest.mark.parametrize("bad", [0.5, 2.0, -1.0, np.nan])
    def test_bits_other_than_zero_and_one_are_rejected(self, bad):
        bits = np.ones((1, 1, 1, 2))
        bits[0, 0, 0, 1] = bad
        with pytest.raises(ValueError, match="0 or 1"):
            Mask4(bits, FilterRemoval(kept=(0, 1)))

    def test_bool_bits_are_accepted(self):
        mask = Mask4(np.array([True, False]).reshape(1, 1, 1, 2), FilterRemoval(kept=(0,)))
        assert mask.bits.dtype == np.uint8 and mask.bits.ravel().tolist() == [1, 0]
        assert validate_structure(mask).valid


@given(
    d=st.integers(1, 2),
    c=st.integers(1, 3),
    n=st.integers(1, 3),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=30, deadline=None)
def test_serialisation_round_trip(d, c, n, seed):
    rng = np.random.default_rng(seed)
    blocked = channel_blocked_mask(d, c, n)
    kept = [k for k in range(c * n) if rng.random() < 0.5]
    removal = filter_removal_mask(blocked.shape, kept)
    for mask in (blocked, removal, compose(blocked, removal)):
        back = mask_from_bytes(mask_to_bytes(mask))
        assert np.array_equal(back.bits, mask.bits)
        assert back.kind == mask.kind


def test_bad_blob_rejected():
    mask = channel_blocked_mask(1, 1, 2)
    blob = mask_to_bytes(mask)
    with pytest.raises(ValueError):
        mask_from_bytes(b"XXXX" + blob[4:])
    with pytest.raises(ValueError):
        mask_from_bytes(blob + b"\x00")
    with pytest.raises(ValueError, match="truncated"):
        mask_from_bytes(b"SPM1\x01")

