"""Tensor arithmetic against independent oracles and stated invariants."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subsetprune import tensors
from subsetprune import (
    FeatureMap,
    ShapeError,
    Tensor4,
    conv,
    neg_part,
    norm_l1,
    pos_part,
)


def direct_conv_oracle(kernel: np.ndarray, fmap: np.ndarray) -> np.ndarray:
    """Defining formula, one scalar accumulation at a time, zero padding."""
    d, dp, c_in, c_out = kernel.shape
    height, width, _ = fmap.shape
    out = np.zeros((height, width, c_out))
    for r in range(height):
        for s in range(width):
            for ell in range(c_out):
                acc = 0.0
                for i in range(d):
                    for j in range(dp):
                        for t in range(c_in):
                            rr, ss = r - i, s - j
                            if 0 <= rr < height and 0 <= ss < width:
                                acc += kernel[i, j, t, ell] * fmap[rr, ss, t]
                out[r, s, ell] = acc
    return out


def test_conv_one_by_one_kernel_is_scalar_multiplication():
    kernel = Tensor4(np.full((1, 1, 1, 1), 2.0))
    fmap = FeatureMap(np.array([[1.0, -1.0], [0.0, 3.0]])[:, :, None])
    out = conv(kernel, fmap)
    assert np.array_equal(out.data[:, :, 0], [[2.0, -2.0], [0.0, 6.0]])


def test_conv_all_ones_window():
    kernel = Tensor4(np.ones((2, 2, 1, 1)))
    fmap = FeatureMap(np.array([[1.0, 2.0], [3.0, 4.0]])[:, :, None])
    out = conv(kernel, fmap)
    # frozen from the direct index-summation oracle with zero padding
    assert np.array_equal(out.data[:, :, 0], [[1.0, 3.0], [4.0, 10.0]])


def test_conv_zero_kernel_gives_zero_map():
    kernel = Tensor4(np.zeros((3, 3, 2, 4)))
    fmap = FeatureMap(np.arange(2 * 5 * 5, dtype=float).reshape(5, 5, 2))
    assert not conv(kernel, fmap).data.any()


@pytest.mark.parametrize("case", range(6))
def test_conv_matches_direct_oracle(case):
    rng = np.random.default_rng(1000 + case)
    d = int(rng.integers(1, 4))
    c_in = int(rng.integers(1, 4))
    c_out = int(rng.integers(1, 4))
    height = int(rng.integers(d, 7))
    kernel = rng.standard_normal((d, d, c_in, c_out))
    fmap = rng.standard_normal((height, height, c_in))
    got = conv(Tensor4(kernel), FeatureMap(fmap)).data
    want = direct_conv_oracle(kernel, fmap)
    assert np.array_equal(got, want)


def _oracle_case(rng, kernel_shape, map_shape, kind):
    """A kernel and a map of one kind: normal, or a ReLU'd map (so +-0.0 products)
    under a half-zero or an all-negative kernel."""
    kernel = rng.standard_normal(kernel_shape)
    fmap = rng.standard_normal(map_shape)
    if kind != "normal":
        fmap = np.maximum(fmap, 0.0)
    if kind == "half-zero":
        kernel[rng.random(kernel_shape) < 0.5] = 0.0
    if kind == "negative":
        kernel = -np.abs(kernel)
    return kernel, fmap


_BIT_FOR_BIT_CASES = [
    ((4, 3, 2, 2), (2, 2, 2), "normal"),  # kernel larger than the map
    ((3, 1, 1, 1), (1, 5, 1), "normal"),
    ((2, 2, 70, 1), (4, 4, 70), "normal"),  # c_in >= 64
    ((2, 2, 64, 3), (3, 3, 64), "normal"),
    ((1, 1, 1, 12), (4, 4, 1), "normal"),  # c_out > 1, one term per cell
    ((2, 3, 3, 4), (5, 3, 3), "normal"),  # H != W
    ((2, 2, 3, 2), (3, 6, 3), "half-zero"),  # +-0.0 products on ReLU'd input
    ((3, 2, 4, 3), (4, 5, 4), "negative"),  # -0.0 products on ReLU'd input
    ((2, 2, 65, 2), (4, 4, 65), "negative"),
    ((1, 1, 1, 192), (4, 4, 1), "normal"),  # one term over 3,072 cells: summed row by row
    ((2, 2, 2, 64), (4, 4, 2), "negative"),  # 8 terms over 1,024 cells, row by row
    ((1, 1, 1, 3), (4, 4, 1), "negative"),  # cells whose only term is -0.0 still sum to +0.0
]


@pytest.mark.parametrize("kernel_shape, map_shape, kind", _BIT_FOR_BIT_CASES)
def test_conv_matches_direct_oracle_bit_for_bit(kernel_shape, map_shape, kind):
    rng = np.random.default_rng(sum(kernel_shape) * 31 + sum(map_shape))
    kernel, fmap = _oracle_case(rng, kernel_shape, map_shape, kind)
    got = conv(Tensor4(kernel), FeatureMap(fmap)).data
    want = direct_conv_oracle(kernel, fmap)
    assert got.tobytes() == want.tobytes()  # signed zeros included


@pytest.mark.parametrize("rows_per_cell", [1, 10**9])  # every stack row by row / accumulated
@pytest.mark.parametrize("kernel_shape, map_shape, kind", _BIT_FOR_BIT_CASES)
def test_conv_summation_paths_match_direct_oracle(
    monkeypatch, rows_per_cell, kernel_shape, map_shape, kind
):
    monkeypatch.setattr(tensors, "_ROWS_PER_CELL_SUM", rows_per_cell)
    test_conv_matches_direct_oracle_bit_for_bit(kernel_shape, map_shape, kind)


@pytest.mark.parametrize("stack_bytes", [1, 600, 3000])
def test_conv_in_blocks_matches_direct_oracle(monkeypatch, stack_bytes):
    # a small cap forces one term per pass, and runs that split or span kernel offsets
    monkeypatch.setattr(tensors, "_STACK_BYTES", stack_bytes)
    rng = np.random.default_rng(stack_bytes)
    kernel = -np.abs(rng.standard_normal((3, 2, 5, 2)))
    fmap = np.maximum(rng.standard_normal((4, 3, 5)), 0.0)
    got = conv(Tensor4(kernel), FeatureMap(fmap)).data
    assert got.tobytes() == direct_conv_oracle(kernel, fmap).tobytes()


@pytest.mark.parametrize("rows_per_cell", [1, 10**9])  # row sums / accumulate in every pass
@pytest.mark.parametrize("terms_per_pass", [1, 3, 9, 30, 10**6])
@pytest.mark.parametrize("kernel_shape, map_shape", [
    ((3, 3, 4, 2), (4, 5, 4)),  # 36 terms: 30 per pass take seven offsets,
                                # 9 two offsets, 3 three channels of one offset
    ((5, 4, 3, 1), (3, 2, 3)),  # kernel larger than the map: 18 terms reach it
])
def test_conv_passes_match_direct_oracle(
    monkeypatch, rows_per_cell, terms_per_pass, kernel_shape, map_shape
):
    cells, kernels = map_shape[0] * map_shape[1], kernel_shape[3]
    # a pass holds the running sum, and per term a stack row and a gathered row
    stack_bytes = 8 * cells * (kernels + terms_per_pass * (kernels + 1))
    monkeypatch.setattr(tensors, "_STACK_BYTES", stack_bytes)
    monkeypatch.setattr(tensors, "_ROWS_PER_CELL_SUM", rows_per_cell)
    rng = np.random.default_rng(terms_per_pass)
    kernel = -np.abs(rng.standard_normal(kernel_shape))
    fmap = np.maximum(rng.standard_normal(map_shape), 0.0)  # -0.0 products where it is 0
    before = fmap.copy()
    got = conv(Tensor4(kernel), FeatureMap(fmap)).data
    assert got.tobytes() == direct_conv_oracle(kernel, fmap).tobytes()
    assert fmap.tobytes() == before.tobytes()


@given(
    seed=st.integers(0, 2**32 - 1),
    kernel_rc=st.tuples(st.integers(1, 5), st.integers(1, 5)),  # up to larger than the map
    map_hw=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    channels=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    kind=st.sampled_from(["normal", "half-zero", "negative"]),
    stack_bytes=st.sampled_from([1, 200, 1000, 1 << 22]),  # one term a pass up to one pass
)
@settings(max_examples=60, deadline=None)
def test_conv_sweep_matches_direct_oracle(seed, kernel_rc, map_hw, channels, kind, stack_bytes):
    rng = np.random.default_rng(seed)
    kernel, fmap = _oracle_case(rng, (*kernel_rc, *channels), (*map_hw, channels[0]), kind)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tensors, "_STACK_BYTES", stack_bytes)
        got = conv(Tensor4(kernel), FeatureMap(fmap)).data
    assert got.tobytes() == direct_conv_oracle(kernel, fmap).tobytes()


@pytest.mark.parametrize("stack_bytes", [5_000, 16_000, 64_000])
def test_conv_holds_its_byte_cap(monkeypatch, stack_bytes):
    # one pass of all 72 terms would take about 190 KB; the caps fit 1, 5 and 24
    monkeypatch.setattr(tensors, "_STACK_BYTES", stack_bytes)
    rng = np.random.default_rng(stack_bytes)
    kernel = Tensor4(rng.standard_normal((3, 3, 8, 4)))
    fmap = FeatureMap(rng.standard_normal((8, 8, 8)))
    conv(kernel, fmap)  # caches the window index before the measurement
    # a broadcast multiply also holds numpy's buffers, up to 2 x 8 x bufsize
    # bytes (128 KB by default) whatever the cap; a small bufsize keeps them
    # below the caps measured here
    bufsize = np.setbufsize(256)
    tracemalloc.start()
    try:
        out = conv(kernel, fmap)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        np.setbufsize(bufsize)
    index = tensors._window_index(8, 8, 8, 3, 3)
    slack = fmap.data.nbytes + 2 * 8 * 256 + 4096  # the padded map, ufunc buffers, small temporaries
    assert peak <= stack_bytes + out.data.nbytes + index.nbytes + slack
    assert out.data.tobytes() == direct_conv_oracle(kernel.data, fmap.data).tobytes()


def test_conv_channel_mismatch_raises():
    with pytest.raises(ShapeError):
        conv(Tensor4(np.ones((1, 1, 2, 1))), FeatureMap(np.ones((3, 3, 3))))


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_conv_is_linear(seed):
    rng = np.random.default_rng(seed)
    k1 = rng.standard_normal((2, 2, 2, 3))
    k2 = rng.standard_normal((2, 2, 2, 3))
    x = FeatureMap(rng.standard_normal((4, 4, 2)))
    a, b = rng.standard_normal(2)
    lhs = conv(Tensor4(a * k1 + b * k2), x).data
    rhs = a * conv(Tensor4(k1), x).data + b * conv(Tensor4(k2), x).data
    scale = np.abs(rhs).max() + 1.0
    assert np.abs(lhs - rhs).max() <= 1e-9 * scale


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_conv_inequality(seed):
    rng = np.random.default_rng(seed)
    kernel = Tensor4(rng.standard_normal((2, 3, 2, 2)))
    fmap = FeatureMap(rng.standard_normal((5, 4, 2)))
    out_max, in_max = np.abs(conv(kernel, fmap).data).max(), np.abs(fmap.data).max()
    assert out_max <= norm_l1(kernel) * in_max + 1e-12


def test_pos_neg_part_examples():
    fmap = FeatureMap(np.array([2.0, -3.0, 0.0]).reshape(1, 1, 3))
    assert np.array_equal(pos_part(fmap).data.ravel(), [2.0, 0.0, 0.0])
    assert np.array_equal(neg_part(fmap).data.ravel(), [0.0, 3.0, 0.0])


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_pos_neg_decomposition(seed):
    rng = np.random.default_rng(seed)
    t = Tensor4(rng.standard_normal((2, 2, 2, 2)))
    plus, minus = pos_part(t), neg_part(t)
    assert np.array_equal(plus.data - minus.data, t.data)
    assert (plus.data >= 0.0).all() and (minus.data >= 0.0).all()
    assert not (plus.data * minus.data).any()  # disjoint supports


def test_norm_examples():
    fmap = FeatureMap(np.array([3.0, -4.0]).reshape(1, 1, 2))
    assert norm_l1(fmap) == 7.0
    assert norm_l1(Tensor4(np.zeros((1, 2, 3, 4)))) == 0.0


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_norm_chain(seed):
    t = Tensor4(np.random.default_rng(seed).standard_normal((2, 2, 3, 2)))
    assert np.abs(t.data).max() <= norm_l1(t) + 1e-12


def test_tensor_validation():
    with pytest.raises(ShapeError):
        FeatureMap(np.ones((2, 2)))
    with pytest.raises(ShapeError):
        Tensor4(np.ones((2, 2, 2)))
    with pytest.raises(ValueError):
        FeatureMap(np.array([[[np.nan]]]))
    with pytest.raises(ShapeError):
        Tensor4(np.ones((0, 1, 1, 1)))
