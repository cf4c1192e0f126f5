"""ReLU-free decomposition, layer pruning, network composition, bundles."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subsetprune import (
    FeatureMap,
    CardinalityMode,
    Mask4,
    NetworkSpec,
    ParameterError,
    PruneParams,
    PrunedNetworkBundle,
    SeedSpec,
    ShapeError,
    Strategy,
    StructureError,
    Tensor4,
    bundle_probe_error,
    channel_blocked_mask,
    compose,
    composition_bound,
    conv,
    default_k_budget,
    drop_relu_decompose,
    evaluate_network,
    filter_removal_mask,
    load_bundle,
    make_probes,
    neg_part,
    norm_l1,
    pos_part,
    probe_error,
    prune_network,
    prune_random_layer,
    prune_single_layer,
    sample_normal_tensor,
    sample_uniform_map,
    save_bundle,
    single_layer_output,
    validate_structure,
)
from subsetprune import pruning
from subsetprune.pruning import report_mismatch
from subsetprune.masks import ChannelBlocked, Composite, FilterRemoval


def unit_l1(shape, seed):
    raw = sample_normal_tensor(shape, seed)
    return Tensor4(raw.data / norm_l1(raw))


def full_width_chain(kernels, fmap, masks=None):
    """The oracle for compact evaluation: every kernel at full width, masked
    entrywise first, ReLU between convolutions, one probe at a time."""
    x = fmap
    for i, kernel in enumerate(kernels):
        if masks is not None and masks[i] is not None:
            kernel = masks[i].apply(kernel)
        x = conv(kernel, x)
        if i + 1 < len(kernels):
            x = FeatureMap(np.maximum(x.data, 0.0))
    return x


def drop_relu_sides(expansion, blocked_mask, probe):
    _, combined = drop_relu_decompose(expansion, blocked_mask)
    masked = combined.apply(expansion)
    lhs = np.maximum(conv(masked, probe).data, 0.0)
    rhs = (
        conv(pos_part(masked), pos_part(probe)).data
        + conv(neg_part(masked), neg_part(probe)).data
    )
    return lhs, rhs


class TestDropRelu:
    def test_positive_pair_keeps_first_kernel(self):
        expansion = Tensor4(np.array([0.8, 0.3]).reshape(1, 1, 1, 2))
        blocked = channel_blocked_mask(1, 1, 2)
        sign_mask, combined = drop_relu_decompose(expansion, blocked)
        assert sign_mask.kind == FilterRemoval(kept=(0,))
        probe = sample_uniform_map(3, 3, 1, SeedSpec(1))
        lhs, rhs = drop_relu_sides(expansion, blocked, probe)
        assert np.array_equal(lhs, rhs)

    def test_zero_expansion(self):
        expansion = Tensor4(np.zeros((1, 1, 2, 8)))
        blocked = channel_blocked_mask(1, 2, 4)
        probe = sample_uniform_map(4, 4, 2, SeedSpec(2))
        lhs, rhs = drop_relu_sides(expansion, blocked, probe)
        assert not lhs.any() and not rhs.any()

    @pytest.mark.parametrize("trial", range(20))
    def test_identity_on_random_instances(self, trial):
        rng = np.random.default_rng(4000 + trial)
        c = int(rng.integers(1, 4))
        n = int(rng.integers(1, 5))
        spatial = int(rng.integers(2, 7))
        expansion = Tensor4(rng.standard_normal((1, 1, c, 2 * n * c)))
        blocked = channel_blocked_mask(1, c, 2 * n)
        probe = FeatureMap(rng.uniform(-1.0, 1.0, (spatial, spatial, c)))
        lhs, rhs = drop_relu_sides(expansion, blocked, probe)
        scale = np.abs(rhs).max() + 1.0
        assert np.abs(lhs - rhs).max() <= 1e-9 * scale

    def test_requires_valid_blocked_mask(self):
        expansion = Tensor4(np.zeros((1, 1, 1, 2)))
        bad_bits = np.ones((1, 1, 1, 2), dtype=np.uint8)
        bad_bits[0, 0, 0, 0] = 0
        with pytest.raises(StructureError):
            drop_relu_decompose(expansion, Mask4(bad_bits, ChannelBlocked(2)))
        with pytest.raises(StructureError):
            # odd block width cannot be a doubled mask
            drop_relu_decompose(
                Tensor4(np.zeros((1, 1, 2, 6))),
                channel_blocked_mask(1, 2, 3),
            )


class TestEvaluateNetwork:
    def test_single_identity_kernel(self):
        kernel = Tensor4(np.ones((1, 1, 1, 1)))
        probe = sample_uniform_map(4, 4, 1, SeedSpec(3))
        out = evaluate_network([kernel], probe)
        assert np.array_equal(out.data, probe.data)

    def test_all_ones_masks_change_nothing(self):
        rng = np.random.default_rng(7)
        kernels = [
            Tensor4(rng.standard_normal((2, 2, 1, 3))),
            Tensor4(rng.standard_normal((2, 2, 3, 2))),
        ]
        masks = [
            Mask4(np.ones(k.shape, dtype=np.uint8), FilterRemoval(kept=tuple(range(k.shape[3]))))
            for k in kernels
        ]
        probe = sample_uniform_map(4, 4, 1, SeedSpec(4))
        a = evaluate_network(kernels, probe)
        b = evaluate_network([m.apply(k) for m, k in zip(masks, kernels)], probe)
        assert np.array_equal(a.data, b.data)

    def test_matches_hand_rolled_composition(self):
        rng = np.random.default_rng(8)
        k1 = Tensor4(rng.standard_normal((2, 2, 2, 3)))
        k2 = Tensor4(rng.standard_normal((3, 3, 3, 1)))
        probe = FeatureMap(rng.uniform(-1, 1, (5, 5, 2)))
        nested = conv(k2, FeatureMap(np.maximum(conv(k1, probe).data, 0.0)))
        chained = evaluate_network([k1, k2], probe)
        assert np.abs(nested.data - chained.data).max() <= 1e-12

    @pytest.mark.parametrize("case", ["signed-zero-columns", "dropped-layer", "one-output"])
    def test_matches_public_chain_bytes(self, case):
        rng = np.random.default_rng(90)
        shapes = [(1, 1, 2, 6), (2, 2, 6, 3), (2, 1, 3, 2)]
        if case == "one-output":
            shapes = [(2, 2, 2, 1), (1, 1, 1, 1), (2, 2, 1, 1)]
        data = [rng.standard_normal(shape) for shape in shapes]
        if case == "signed-zero-columns":  # a -0.0 column and an all-zero one are dropped
            data[0][..., 1] = -0.0
            data[0][..., 4] = 0.0
            data[1][:, :, :, 0] = -np.abs(data[1][:, :, :, 0])  # -0.0 products after the ReLU
        if case == "dropped-layer":  # the second layer keeps no column: +0.0 out
            data[1][:] = -0.0
        kernels = [Tensor4(d) for d in data]
        for probe in signed_zero_probes((4, 3, 2), 3, 90):
            got = evaluate_network(kernels, probe)
            assert got.data.tobytes() == full_width_chain(kernels, probe).data.tobytes()
            if case == "dropped-layer":
                assert not got.data.any() and not np.signbit(got.data).any()

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_intermediate_overflow_raises(self, sign):
        # the first map overflows to +-inf; a ReLU would clear -inf, but the
        # overflow is an error either way, as it is for the public conv
        first = Tensor4(np.full((2, 2, 1, 1), sign * 1e308))
        kernels = [first, Tensor4(np.ones((1, 1, 1, 1)))]
        probe = FeatureMap(np.ones((3, 3, 1)))
        with np.errstate(over="ignore"), pytest.raises(ValueError):
            evaluate_network(kernels, probe)
        with np.errstate(over="ignore"), pytest.raises(ValueError):
            full_width_chain(kernels, probe)


class TestSingleLayer:
    def test_zero_target_removes_everything(self):
        seed = SeedSpec(50)
        expansion = sample_normal_tensor((1, 1, 1, 16), seed.substream(0))
        mixing = sample_normal_tensor((2, 2, 16, 1), seed.substream(1))
        target = Tensor4(np.zeros((2, 2, 1, 1)))
        result = prune_single_layer(mixing, expansion, target, PruneParams(epsilon=0.25))
        assert result.kept_kernels == ()
        assert result.fully_successful
        assert not result.pruned_first.data.any()
        probe = sample_uniform_map(4, 4, 1, seed.substream(2))
        out = single_layer_output(mixing, result.pruned_first, probe)
        assert not out.data.any()  # exactly zero error against the zero target

    def test_easy_regime_hits_and_reverifies(self):
        # 1-D flattened targets: n=32, eps=0.25 succeeds routinely
        seed = SeedSpec(60)
        d, c0, c1, n = 1, 1, 1, 32
        expansion = sample_normal_tensor((1, 1, c0, 2 * n * c0), seed.substream(0))
        mixing = sample_normal_tensor((d, d, 2 * n * c0, c1), seed.substream(1))
        params = PruneParams(epsilon=0.25, probe_count=16)
        rows = np.transpose(mixing.data, (2, 0, 1, 3)).reshape(2 * n * c0, -1)
        full_successes = 0
        for t in range(20):
            target = unit_l1((d, d, c0, c1), seed.substream(100 + t))
            result = prune_single_layer(mixing, expansion, target, params, seed.substream(200 + t))
            for solve in result.channel_solves:
                if not solve.success:
                    continue
                # independent re-verification by direct subtraction
                masked = result.mask.apply(expansion).data[0, 0, solve.channel]
                values = np.where(masked > 0, masked, 0.0) if solve.sign > 0 else np.where(
                    masked < 0, -masked, 0.0
                )
                achieved = np.zeros(rows.shape[1])
                for kernel in solve.selected:
                    achieved = achieved + rows[kernel] * values[kernel]
                flat_target = solve.sign * target.data[:, :, solve.channel, :].reshape(-1)
                assert np.abs(achieved - flat_target).max() <= solve.tolerance + 1e-12
            if result.fully_successful:
                full_successes += 1
                probes = make_probes(4, 4, c0, 8, seed.substream(300 + t))
                worst = max(
                    float(np.abs(conv(target, p).data
                                 - single_layer_output(mixing, result.pruned_first, p).data).max())
                    for p in probes
                )
                # per-entry tolerance times the contributing window terms
                assert worst <= d * d * c1 * c0 * result.tolerance * params.magnitude_bound + 1e-9
                assert worst <= params.epsilon * params.magnitude_bound
        # at d=1, c0=c1=1 every unit-L1 target is exactly +-1; with this seed
        # the +1 targets all succeed and the -1 ones are honestly infeasible
        assert full_successes == 12

    def test_emitted_mask_structure(self):
        seed = SeedSpec(70)
        expansion = sample_normal_tensor((1, 1, 2, 24), seed.substream(0))
        mixing = sample_normal_tensor((2, 2, 24, 1), seed.substream(1))
        target = unit_l1((2, 2, 2, 1), seed.substream(2))
        result = prune_single_layer(mixing, expansion, target, PruneParams(epsilon=0.5))
        report = validate_structure(result.mask)
        assert report.valid
        assert isinstance(result.mask.kind, Composite)
        kinds = [type(p) for p in result.mask.kind.parts]
        assert kinds == [ChannelBlocked, FilterRemoval]
        assert result.mask.kind.parts[0].n == 12  # doubled block width 2n

    def test_dropped_kernels_zero_next_layer_channels(self):
        seed = SeedSpec(80)
        expansion = sample_normal_tensor((1, 1, 1, 16), seed.substream(0))
        mixing = sample_normal_tensor((2, 2, 16, 2), seed.substream(1))
        target = unit_l1((2, 2, 1, 2), seed.substream(2))
        result = prune_single_layer(mixing, expansion, target, PruneParams(epsilon=0.5))
        kept, _, _ = pruning._kept_channels(result.pruned_first.data, mixing.data)
        assert 0 < len(result.kept_kernels) < 16
        assert tuple(kept) == result.kept_kernels
        probe = sample_uniform_map(4, 4, 1, seed.substream(3))
        compact = single_layer_output(mixing, result.pruned_first, probe)
        assert compact.data.tobytes() == full_width_chain([result.pruned_first, mixing],
                                                          probe).data.tobytes()

    def test_target_l1_precondition(self):
        seed = SeedSpec(90)
        expansion = sample_normal_tensor((1, 1, 1, 8), seed.substream(0))
        mixing = sample_normal_tensor((1, 1, 8, 1), seed.substream(1))
        big = Tensor4(np.full((1, 1, 1, 1), 2.0))
        with pytest.raises(ParameterError):
            prune_single_layer(mixing, expansion, big, PruneParams(epsilon=0.25))

    def test_default_k_budget_formula(self):
        assert default_k_budget(48, 2, 0.25) == 4
        assert default_k_budget(96, 2, 0.25) == 5
        assert default_k_budget(1, 1, 0.5) == 1


def cold_prune(mixing, expansion, target, params, seed):
    """prune_single_layer on fresh copies with no prepared pair left over."""
    pruning._last_prepared = None
    return prune_single_layer(Tensor4(mixing.data.copy()), Tensor4(expansion.data.copy()),
                              target, params, seed)


def assert_same_result(got, expected):
    assert got.channel_solves == expected.channel_solves
    assert np.array_equal(got.mask.bits, expected.mask.bits)
    assert got.kept_kernels == expected.kept_kernels
    assert np.array_equal(got.pruned_first.data, expected.pruned_first.data)
    assert got.occupancy_warnings == expected.occupancy_warnings


def random_pair(master, n=12, c1=1):
    seed = SeedSpec(master)
    expansion = sample_normal_tensor((1, 1, 1, 2 * n), seed.substream(0))
    mixing = sample_normal_tensor((2, 2, 2 * n, c1), seed.substream(1))
    return mixing, expansion, unit_l1((2, 2, 1, c1), seed.substream(2))


class TestPreparedLayer:
    """prune_single_layer keeps the last pair's prepared layer, keyed by the
    bytes and shapes of its kernels."""

    @pytest.mark.parametrize("which", ["mixing", "expansion"])
    def test_in_place_mutation_prepares_anew(self, which):
        mixing, expansion, target = random_pair(150)
        params = PruneParams(epsilon=0.25)
        prune_single_layer(mixing, expansion, target, params, SeedSpec(1))
        tensor = mixing if which == "mixing" else expansion
        np.negative(tensor.data, out=tensor.data)  # same shapes, other bytes
        got = prune_single_layer(mixing, expansion, target, params, SeedSpec(1))
        assert_same_result(got, cold_prune(mixing, expansion, target, params, SeedSpec(1)))

    def test_alternating_pairs_match_cold_calls(self):
        (mix_a, exp_a, target), (mix_b, exp_b, _) = random_pair(151), random_pair(152)
        params = PruneParams(epsilon=0.25)
        calls = [(mix_a, exp_a, 1), (mix_b, exp_b, 2), (mix_a, exp_a, 3)]
        expected = [cold_prune(m, e, target, params, SeedSpec(s)) for m, e, s in calls]
        pruning._last_prepared = None
        for (m, e, s), cold in zip(calls, expected):
            assert_same_result(prune_single_layer(m, e, target, params, SeedSpec(s)), cold)

    def test_pruning_another_pair_frees_the_indices(self):
        (mix_a, exp_a, target), (mix_b, exp_b, _) = random_pair(153), random_pair(154)
        params = PruneParams(epsilon=0.25)
        prune_single_layer(mix_a, exp_a, target, params)
        held = [weakref.ref(pool[-1]) for pool in pruning._last_prepared[1].pools]
        assert held
        prune_single_layer(mix_b, exp_b, target, params)
        gc.collect()
        assert all(ref() is None for ref in held)


class TestNetwork:
    def test_depth_one_reduces_to_single_layer(self):
        seed = SeedSpec(111)
        expansion = sample_normal_tensor((1, 1, 1, 32), seed.substream(0))
        mixing = sample_normal_tensor((1, 1, 32, 1), seed.substream(1))
        target = unit_l1((1, 1, 1, 1), seed.substream(2))
        params = PruneParams(epsilon=0.5, probe_count=4)
        bundle = prune_network([expansion, mixing], [target], params, seed.substream(3), spatial=3)
        direct = prune_single_layer(
            mixing,
            expansion,
            target,
            dataclasses.replace(params, epsilon=0.25),  # eps / (2 * 1)
            seed.substream(3).substream(1000),
        )
        assert np.array_equal(bundle.masks[0].bits, direct.mask.bits)
        assert bundle.report.layers[0].channel_solves == direct.channel_solves
        assert bundle.report.theoretical_bound == composition_bound(0.5, 1)
        assert bundle.report.empirical_max_error == bundle_probe_error(bundle)

    def test_all_zero_targets_give_zero_error(self):
        seed = SeedSpec(112)
        shapes = [(1, 1, 1, 12), (2, 2, 12, 2), (1, 1, 2, 24), (2, 2, 24, 1)]
        randoms = [sample_normal_tensor(s, seed.substream(i)) for i, s in enumerate(shapes)]
        zeros = [Tensor4(np.zeros((2, 2, 1, 2))), Tensor4(np.zeros((2, 2, 2, 1)))]
        params = PruneParams(epsilon=0.5, probe_count=8)
        report = prune_network(randoms, zeros, params, seed.substream(10), spatial=4).report
        assert report.fully_successful
        assert report.empirical_max_error == 0.0
        assert report.empirical_max_error <= report.theoretical_bound + 1e-9

    def test_fully_successful_run_respects_composed_bound(self):
        # depth-2 chain with 1-D per-channel targets so every solve hits
        seed = SeedSpec(113)
        shapes = [(1, 1, 1, 96), (1, 1, 96, 1), (1, 1, 1, 96), (1, 1, 96, 1)]
        randoms = [sample_normal_tensor(s, seed.substream(i)) for i, s in enumerate(shapes)]
        targets = [unit_l1((1, 1, 1, 1), seed.substream(100 + i)) for i in range(2)]
        params = PruneParams(epsilon=0.5, probe_count=32)
        bundle = prune_network(randoms, targets, params, seed.substream(10), spatial=4)
        report = bundle.report
        assert report.fully_successful
        assert report.empirical_max_error <= report.theoretical_bound + 1e-9
        per_layer = [
            sum(
                (params.epsilon / 4.0) * (1.0 + params.epsilon / 4.0) ** (j - 1)
                for j in range(1, i + 1)
            )
            for i in range(1, 3)
        ]
        assert report.empirical_max_error <= per_layer[-1] + 1e-9
        for mask in bundle.masks:
            assert validate_structure(mask).valid

    def test_partial_failure_is_reported_not_hidden(self):
        seed = SeedSpec(114)
        shapes = [(1, 1, 1, 24), (2, 2, 24, 2), (1, 1, 2, 48), (2, 2, 48, 1)]
        randoms = [sample_normal_tensor(s, seed.substream(i)) for i, s in enumerate(shapes)]
        targets = [
            unit_l1((2, 2, 1, 2), seed.substream(100)),
            unit_l1((2, 2, 2, 1), seed.substream(101)),
        ]
        params = PruneParams(epsilon=0.25, probe_count=4)
        report = prune_network(randoms, targets, params, seed.substream(10), spatial=4).report
        statuses = [s.status for layer in report.layers for s in layer.channel_solves]
        assert not report.fully_successful
        assert all(s in {"hit", "not-found", "proven-infeasible"} for s in statuses)
        assert any(s != "hit" for s in statuses)

    def test_shape_mismatch_rejected(self):
        seed = SeedSpec(115)
        expansion = sample_normal_tensor((1, 1, 1, 8), seed)
        mixing = sample_normal_tensor((2, 2, 8, 1), seed)
        target = unit_l1((2, 2, 1, 1), seed)
        with pytest.raises(ParameterError):
            prune_network([expansion], [target], PruneParams(epsilon=0.5))


class TestPruneRandomLayer:
    @pytest.mark.parametrize(
        "master, d, c0, c1, n, strategy",
        [
            (130, 2, 1, 1, 16, Strategy.EXHAUSTIVE),
            (131, 2, 2, 2, 12, Strategy.EXHAUSTIVE),
            (132, 2, 1, 1, 24, Strategy.GREEDY_SWAP),
        ],
    )
    def test_matches_the_hand_written_layout(self, master, d, c0, c1, n, strategy):
        seed = SeedSpec(master)
        params = PruneParams(epsilon=0.25, magnitude_bound=1.5, strategy=strategy, probe_count=6)
        expansion = sample_normal_tensor((1, 1, c0, 2 * n * c0), seed.substream(0))
        mixing = sample_normal_tensor((d, d, 2 * n * c0, c1), seed.substream(1))
        target = unit_l1((d, d, c0, c1), seed.substream(2))
        direct = prune_single_layer(mixing, expansion, target, params, seed.substream(3))
        by_hand = PrunedNetworkBundle((expansion, mixing), (target,), (direct.mask,), params,
                                      seed, spatial=3)

        bundle = prune_random_layer(d, c0, c1, n, params, seed, spatial=3)
        assert np.array_equal(bundle.random_kernels[0].data, expansion.data)
        assert np.array_equal(bundle.random_kernels[1].data, mixing.data)
        assert np.array_equal(bundle.target_kernels[0].data, target.data)
        assert np.array_equal(bundle.masks[0].bits, direct.mask.bits)
        assert bundle.masks[0].kind == direct.mask.kind
        layer = bundle.report.layers[0]
        assert layer.channel_solves == direct.channel_solves
        assert (len(layer.kept_kernels), layer.mask.shape[3]) == (len(direct.kept_kernels),
                                                                  expansion.kernels)
        assert bundle.report.empirical_max_error == bundle_probe_error(by_hand)
        assert bundle.report.theoretical_bound == 0.25 * 1.5
        assert bundle.report.fully_successful == direct.fully_successful
        assert (bundle.seed, bundle.spatial) == (seed, 3)

    def test_spec_targets_are_unit_l1_substreams(self):
        seed = SeedSpec(133)
        spec = NetworkSpec(2, 4, (1, 2, 1), (2, 1), (4, 4))
        targets = spec.sample_targets(seed)
        for i, (got, shape) in enumerate(zip(targets, spec.target_kernel_shapes())):
            assert np.array_equal(got.data, unit_l1(shape, seed.substream(100 + i)).data)


def spec_network(spec, seed):
    """``prune-net``'s run: the spec's random net and targets, pruned at eps 0.5."""
    return prune_network(spec.sample_random_net(seed.substream(0)), spec.sample_targets(seed),
                         PruneParams(epsilon=0.5, probe_count=16), seed.substream(1), spec.spatial)


def signed_zero_probes(shape, count, seed):
    """Uniform probes with about a quarter of their entries +0.0 and a quarter -0.0."""
    rng = np.random.default_rng(seed)
    probes = []
    for _ in range(count):
        data = rng.uniform(-1.0, 1.0, shape)
        draw = rng.random(shape)
        data[draw < 0.25] = 0.0
        data[draw > 0.75] = -0.0
        probes.append(FeatureMap(data))
    return probes


class TestCompactEvaluation:
    """Kept-channel evaluation against the full-width oracle, bit for bit."""

    SPECS = {
        1: NetworkSpec(1, 4, (2, 2), (2,), (3,)),
        2: NetworkSpec(2, 4, (1, 2, 1), (2, 1), (4, 3)),
        3: NetworkSpec(3, 4, (1, 2, 2, 1), (2, 1, 3), (3, 2, 3)),
    }

    def layer_masks(self, spec, kept, seed):
        """One mask per target layer; ``kept`` says which keep no column."""
        rng = np.random.default_rng(seed)
        masks = []
        for i, shape in enumerate(spec.random_kernel_shapes()[::2]):
            blocked = channel_blocked_mask(1, shape[2], shape[3] // shape[2])
            if kept == "full":
                masks.append(blocked)
            elif (kept == "empty-first" and i == 0) or (kept == "empty-last" and i == spec.depth - 1):
                masks.append(filter_removal_mask(shape, []))
            else:
                some = [0, *rng.choice(shape[3], size=max(1, shape[3] // 3), replace=False)]
                masks.append(compose(blocked, filter_removal_mask(shape, some)))
        return masks

    @pytest.mark.parametrize("kept", ["empty-first", "empty-last", "partial", "full"])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_matches_full_width_oracle(self, depth, kept):
        spec = self.SPECS[depth]
        seed = SeedSpec(140 + depth)
        randoms = spec.sample_random_net(seed)
        if kept == "partial":  # a column kept by the mask whose data are all -0.0 is dropped too
            randoms[0] = Tensor4(np.where(np.arange(randoms[0].kernels) == 0, -0.0, randoms[0].data))
        targets = spec.sample_targets(seed)
        masks = self.layer_masks(spec, kept, 150 + depth)
        eval_masks = [m for mask in masks for m in (mask, None)]
        probes = signed_zero_probes((4, 4, spec.channels[0]), 4, 160 + depth)
        worst = 0.0
        for probe in probes:
            want = full_width_chain(randoms, probe, eval_masks)
            got = evaluate_network([k if m is None else m.apply(k)
                                    for m, k in zip(eval_masks, randoms)], probe)
            assert got.data.tobytes() == want.data.tobytes()
            if kept.startswith("empty"):
                assert not got.data.any() and not np.signbit(got.data).any()
            fx = full_width_chain(targets, probe)
            worst = max(worst, float(np.abs(fx.data - want.data).max()))
        assert probe_error(targets, randoms, masks, probes) == worst
        for i, mask in enumerate(masks):
            expansion, mixing = mask.apply(randoms[2 * i]), randoms[2 * i + 1]
            for x in signed_zero_probes((4, 4, expansion.channels_in), 2, 170 + i):
                want = full_width_chain([expansion, mixing], x)
                assert single_layer_output(mixing, expansion, x).data.tobytes() == \
                    want.data.tobytes()

    def test_kept_columns_are_decided_from_the_data(self):
        masked = Tensor4(np.array([[[[0.0, 1.0, -0.0, 0.0], [0.0, 0.0, -0.0, 2.0]]]]))
        mixing = Tensor4(np.arange(2 * 2 * 4 * 3, dtype=float).reshape(2, 2, 4, 3))
        kept, small, following = pruning._kept_channels(masked.data, mixing.data)
        assert list(kept) == [1, 3]
        assert np.array_equal(small, masked.data[..., [1, 3]])
        assert np.array_equal(following, mixing.data[:, :, [1, 3]])
        empty = pruning._kept_channels(-np.zeros((1, 1, 2, 4)), mixing.data)
        assert empty[0].size == 0 and empty[1:] == (None, None)

    def test_shape_mismatch_raises_even_when_nothing_is_kept(self):
        expansion = Tensor4(np.zeros((1, 1, 1, 4)))
        with pytest.raises(ShapeError):
            evaluate_network([filter_removal_mask((1, 1, 1, 4), []).apply(expansion),
                              Tensor4(np.ones((2, 2, 3, 1)))], FeatureMap(np.ones((4, 4, 1))))
        with pytest.raises(ShapeError):
            single_layer_output(Tensor4(np.ones((2, 2, 4, 1))), expansion, FeatureMap(np.ones((4, 4, 2))))


class TestProbeError:
    @pytest.mark.parametrize("magnitude", [1.0, 1.5])
    @pytest.mark.parametrize("trial", range(3))
    def test_single_layer_matches_explicit_loop(self, trial, magnitude):
        seed = SeedSpec(120 + trial)
        expansion = sample_normal_tensor((1, 1, 2, 24), seed.substream(0))
        mixing = sample_normal_tensor((2, 2, 24, 2), seed.substream(1))
        target = unit_l1((2, 2, 2, 2), seed.substream(2))
        result = prune_single_layer(mixing, expansion, target, PruneParams(epsilon=0.25),
                                    seed.substream(3))
        probes = make_probes(4, 4, 2, 6, seed.substream(4), magnitude)
        worst = 0.0
        for probe in probes:
            fx = conv(target, probe)
            gx = single_layer_output(mixing, result.pruned_first, probe)
            worst = max(worst, float(np.abs(fx.data - gx.data).max()))
        assert worst > 0.0
        assert probe_error((target,), (expansion, mixing), (result.mask,), probes) == worst

    @pytest.mark.parametrize("count", [0, 1, 254])
    @pytest.mark.parametrize("shape, magnitude", [((4, 4, 1), 1.0), ((3, 5, 2), 0.25),
                                                  ((1, 1, 1), 3.0)])
    def test_probes_are_the_per_probe_draws(self, count, shape, magnitude):
        seed = SeedSpec(61, count)
        expected = [sample_uniform_map(*shape, seed.substream(i), magnitude) for i in range(count)]
        expected += [FeatureMap(np.full(shape, sign * magnitude)) for sign in (1.0, -1.0)]
        probes = make_probes(*shape, count, seed, magnitude)
        assert [p.shape for p in probes] == [e.shape for e in expected]
        assert [p.data.tobytes() for p in probes] == [e.data.tobytes() for e in expected]

    def test_probe_draw_checks_are_the_per_probe_ones(self):
        with pytest.raises(ShapeError):
            make_probes(0, 4, 1, 3, SeedSpec(1))
        with pytest.raises(ParameterError):
            make_probes(4, 4, 1, 3, SeedSpec(1), 0.0)
        assert len(make_probes(4, 4, 1, 0, SeedSpec(1), 0.0)) == 2  # no probe drawn

    def test_mask_count_must_match_the_layers(self):
        seed = SeedSpec(124)
        randoms = NetworkSpec(1, 4, (1, 1), (2,), (4,)).sample_random_net(seed)
        probes = make_probes(4, 4, 1, 2, seed.substream(5))
        with pytest.raises(ShapeError):
            probe_error((unit_l1((2, 2, 1, 1), seed),), randoms, (), probes)

    def test_network_error_and_bound_scale_with_magnitude(self, tmp_path):
        # bias-free ReLU chains are positively homogeneous, and scaling by 2 is exact
        seed = SeedSpec(123)
        shapes = [(1, 1, 1, 12), (2, 2, 12, 2), (1, 1, 2, 24), (2, 2, 24, 1)]
        randoms = [sample_normal_tensor(s, seed.substream(i)) for i, s in enumerate(shapes)]
        targets = [
            unit_l1((2, 2, 1, 2), seed.substream(100)),
            unit_l1((2, 2, 2, 1), seed.substream(101)),
        ]
        unit = PruneParams(epsilon=0.5, probe_count=8)
        double = dataclasses.replace(unit, magnitude_bound=2.0)
        report_1 = prune_network(randoms, targets, unit, seed.substream(10), spatial=4).report
        bundle = prune_network(randoms, targets, double, seed.substream(10), spatial=4)
        report_2 = bundle.report
        assert report_1.empirical_max_error > 0.0
        assert report_2.empirical_max_error == 2.0 * report_1.empirical_max_error
        assert report_2.theoretical_bound == 2.0 * composition_bound(0.5, 2)
        path = tmp_path / "bundle.json"
        save_bundle(path, bundle)
        back = load_bundle(path)
        assert bundle_probe_error(back) == back.report.empirical_max_error


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_drop_relu_identity_property(seed):
    rng = np.random.default_rng(seed)
    c = int(rng.integers(1, 3))
    n = int(rng.integers(1, 3))
    expansion = Tensor4(rng.standard_normal((1, 1, c, 2 * n * c)))
    blocked = channel_blocked_mask(1, c, 2 * n)
    probe = FeatureMap(rng.uniform(-1, 1, (3, 3, c)))
    lhs, rhs = drop_relu_sides(expansion, blocked, probe)
    assert np.abs(lhs - rhs).max() <= 1e-9 * (np.abs(rhs).max() + 1.0)


class TestBundle:
    def test_round_trip(self, tmp_path):
        seed = SeedSpec(116)
        expansion = sample_normal_tensor((1, 1, 1, 16), seed.substream(0))
        mixing = sample_normal_tensor((2, 2, 16, 1), seed.substream(1))
        target = unit_l1((2, 2, 1, 1), seed.substream(2))
        params = PruneParams(epsilon=0.5, probe_count=4)
        bundle = prune_network([expansion, mixing], [target], params, seed.substream(3), spatial=3)
        path = tmp_path / "bundle.json"
        save_bundle(path, bundle)
        back = load_bundle(path)
        assert np.array_equal(back.random_kernels[0].data, expansion.data)
        assert np.array_equal(back.random_kernels[1].data, mixing.data)
        assert np.array_equal(back.masks[0].bits, bundle.masks[0].bits)
        assert back.params == params
        assert back.seed == seed.substream(3)
        # the stored empirical error reproduces from kernels + masks + seed
        assert bundle_probe_error(back) == bundle.report.empirical_max_error
        again = tmp_path / "again.json"
        save_bundle(again, back)
        assert again.read_bytes() == path.read_bytes()

    def test_load_rejects_mask_count_mismatch(self, tmp_path):
        seed = SeedSpec(117)
        expansion = sample_normal_tensor((1, 1, 1, 8), seed.substream(0))
        mixing = sample_normal_tensor((1, 1, 8, 1), seed.substream(1))
        target = unit_l1((1, 1, 1, 1), seed.substream(2))
        bundle = prune_network([expansion, mixing], [target], PruneParams(epsilon=0.5), seed)
        path = tmp_path / "bundle.json"
        save_bundle(path, dataclasses.replace(bundle, masks=bundle.masks * 2))
        with pytest.raises(ValueError, match="one mask per target"):
            load_bundle(path)

    @pytest.mark.parametrize("run", [
        lambda: prune_random_layer(2, 1, 1, 48, PruneParams(epsilon=0.25), SeedSpec(20240801)),
        lambda: prune_random_layer(2, 1, 1, 48, PruneParams(epsilon=0.25,
                                   strategy=Strategy.GREEDY_SWAP), SeedSpec(3)),
        lambda: prune_random_layer(2, 1, 1, 48, PruneParams(epsilon=0.25, k_budget=30,
                                   mode=CardinalityMode.EXACT), SeedSpec(5)),
        lambda: prune_random_layer(1, 1, 1, 64, PruneParams(epsilon=0.9, k_budget=4), SeedSpec(1)),
        lambda: prune_random_layer(2, 2, 2, 12, PruneParams(epsilon=0.25, magnitude_bound=1.5),
                                   SeedSpec(14)),
        lambda: spec_network(NetworkSpec(2, 4, (1, 2, 1), (2, 2), (48, 48)), SeedSpec(7)),
        lambda: spec_network(NetworkSpec(3, 4, (1, 2, 2, 1), (2, 2, 2), (16, 16, 16)),
                             SeedSpec(4)),
    ], ids=["layer", "greedy", "exact-k30", "fully-successful", "warnings", "net-depth2",
            "net-depth3"])
    def test_loaded_report_is_the_run_report(self, tmp_path, run):
        bundle = run()
        path, again = tmp_path / "bundle.json", tmp_path / "again.json"
        save_bundle(path, bundle)
        back = load_bundle(path)
        assert len(back.report.layers) == len(bundle.report.layers)
        for loaded, ran in zip(back.report.layers, bundle.report.layers):
            # pools included: each solve's kernel ids are the run's, not made up
            assert loaded.channel_solves == ran.channel_solves
            assert (loaded.kept_kernels, loaded.tolerance, loaded.k_budget,
                    loaded.occupancy_warnings) == (ran.kept_kernels, ran.tolerance,
                                                   ran.k_budget, ran.occupancy_warnings)
            assert loaded.pruned_first.data.tobytes() == ran.pruned_first.data.tobytes()
        assert (back.report.empirical_max_error, back.report.theoretical_bound) == (
            bundle.report.empirical_max_error, bundle.report.theoretical_bound)
        assert report_mismatch(back) is None
        save_bundle(again, back)
        assert again.read_bytes() == path.read_bytes()

    def test_fully_successful_bundle_is_checked_on_hits(self):
        report = prune_random_layer(1, 1, 1, 64, PruneParams(epsilon=0.9, k_budget=4),
                                    SeedSpec(1)).report
        assert report.fully_successful
        assert all(s.status == "hit" for s in report.layers[0].channel_solves)

    def test_bundle_without_report_round_trips(self, tmp_path):
        seed = SeedSpec(118)
        expansion = sample_normal_tensor((1, 1, 1, 8), seed.substream(0))
        mixing = sample_normal_tensor((1, 1, 8, 1), seed.substream(1))
        bundle = PrunedNetworkBundle((expansion, mixing), (unit_l1((1, 1, 1, 1), seed),),
                                     (channel_blocked_mask(1, 1, 8),), PruneParams(epsilon=0.5),
                                     seed, spatial=2)
        path, again = tmp_path / "bundle.json", tmp_path / "again.json"
        save_bundle(path, bundle)
        back = load_bundle(path)
        assert back.report is None and report_mismatch(back) is None
        save_bundle(again, back)
        assert again.read_bytes() == path.read_bytes()

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "other"}')
        with pytest.raises(ValueError):
            load_bundle(path)
