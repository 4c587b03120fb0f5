import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import recoding as r
from oracles import oracle_conditional_entropy, oracle_entropy_rate, oracle_stationary


def binary_entropy(p):
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


class TestAlphabet:
    def test_distinct_labels_required(self):
        with pytest.raises(r.ParameterError):
            r.Alphabet(("a", "a"))

    def test_encode_decode_roundtrip(self):
        a = r.Alphabet(("x", "y", "z"))
        seq = a.encode("xyzzy")
        assert a.decode(seq) == "xyzzy"

    def test_unknown_symbol(self):
        a = r.Alphabet.of_size(2)
        with pytest.raises(r.AlphabetError):
            a.encode("012")


class TestSampleKernel:
    def test_rows_normalized(self):
        k = r.sample_kernel(2, 2, 0.5, 0)
        assert k.probs.shape == (4, 2)
        assert np.allclose(k.probs.sum(axis=1), 1.0, atol=1e-12)

    def test_experiment_scale_kernel(self):
        k = r.sample_kernel(2, 12, 0.4, 3)
        assert k.probs.shape == (4096, 2)
        assert np.all(k.probs >= 0)

    def test_four_symbol_kernel(self):
        k = r.sample_kernel(4, 1, 0.5, 5)
        assert k.probs.shape == (4, 4)

    def test_deterministic_in_seed(self):
        a = r.sample_kernel(3, 1, 0.7, 9)
        b = r.sample_kernel(3, 1, 0.7, 9)
        assert np.array_equal(a.probs, b.probs)

    def test_bad_alpha(self):
        with pytest.raises(r.ParameterError):
            r.sample_kernel(2, 1, 0.0, 0)
        with pytest.raises(r.ParameterError):
            r.sample_kernel(2, 1, -1.0, 0)


class TestStationaryLaw:
    def test_uniform_iid(self, uniform_iid):
        law = r.stationary_law(uniform_iid)
        assert np.allclose(law.pi, [0.5, 0.5], atol=1e-12)

    def test_hand_balance(self, hand_kernel):
        law = r.stationary_law(hand_kernel)
        assert np.allclose(law.pi, [4 / 7, 3 / 7], atol=1e-12)

    def test_order_zero_is_marginal(self):
        k = r.sample_kernel(3, 0, 1.0, 2)
        law = r.stationary_law(k)
        assert np.allclose(law.pi, [1.0])

    def test_invariance_residual(self):
        from recoding.sources import _context_step

        for seed in range(5):
            k = r.sample_kernel(3, 2, 0.5, seed)
            pi = r.stationary_law(k).pi
            stepped = _context_step(k, pi)
            assert 0.5 * np.abs(stepped - pi).sum() < 1e-10

    def test_matches_linear_solve_oracle(self):
        k = r.sample_kernel(2, 2, 0.5, 7)
        pi = r.stationary_law(k).pi
        ref = oracle_stationary(k)
        for i, c in enumerate(sorted(ref)):
            assert pi[i] == pytest.approx(ref[c], abs=1e-10)

    def test_golden_stationary(self, golden):
        g = golden["source_b2_k2_seed7"]
        k = r.sample_kernel(**{k_: v for k_, v in g["params"].items() if k_ != "seed"},
                            seed=g["params"]["seed"])
        pi = r.stationary_law(k).pi
        for key, val in g["stationary"].items():
            code = int(key, 2)
            assert pi[code] == pytest.approx(val, abs=1e-10)

    def test_reducible_raises(self, binary):
        identity = r.TransitionKernel(binary, 1, np.eye(2))
        with pytest.raises(r.ErgodicityError):
            r.stationary_law(identity)

    def test_periodic_chain_converges(self, binary):
        cycle = r.TransitionKernel(binary, 1, np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(r.stationary_law(cycle).pi, [0.5, 0.5], atol=1e-12)

    def test_slow_mixing_kernel(self):
        # tiny spectral gap: power iteration alone cannot reach tolerance
        k = r.sample_kernel(2, 12, 0.4, 1)
        pi = r.stationary_law(k).pi
        stepped = (pi[:, None] * k.probs).reshape(2, 2**11, 2).sum(axis=0).reshape(-1)
        assert 0.5 * np.abs(stepped - pi).sum() < 1e-10


class TestSampleSequence:
    def test_deterministic_cycle_sequence(self, binary):
        cycle = r.TransitionKernel(binary, 1, np.array([[0.0, 1.0], [1.0, 0.0]]))
        seq = r.sample_sequence(cycle, 50, 0)
        assert np.all(seq[1:] != seq[:-1])  # strict alternation

    def test_seeded_repeatability(self, hand_kernel):
        a = r.sample_sequence(hand_kernel, 1000, 123)
        b = r.sample_sequence(hand_kernel, 1000, 123)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self, hand_kernel):
        a = r.sample_sequence(hand_kernel, 1000, 1)
        b = r.sample_sequence(hand_kernel, 1000, 2)
        assert not np.array_equal(a, b)

    def test_order_zero_sampling(self):
        k = r.sample_kernel(4, 0, 1.0, 3)
        seq = r.sample_sequence(k, 5000, 4)
        assert seq.min() >= 0 and seq.max() < 4

    def test_n_must_be_positive(self, hand_kernel):
        with pytest.raises(r.ParameterError):
            r.sample_sequence(hand_kernel, 0, 0)

    def test_empirical_frequencies(self, hand_kernel):
        seq = r.sample_sequence(hand_kernel, 200_000, 11)
        assert np.mean(seq) == pytest.approx(3 / 7, abs=0.01)


class TestConditionalEntropy:
    def test_uniform_iid_any_window(self, uniform_iid):
        for w in range(4):
            assert r.conditional_entropy(uniform_iid, w) == pytest.approx(1.0, abs=1e-12)

    def test_hand_values(self, hand_kernel):
        expect_w1 = (4 / 7) * binary_entropy(0.3) + (3 / 7) * binary_entropy(0.4)
        assert r.conditional_entropy(hand_kernel, 1) == pytest.approx(expect_w1, abs=1e-12)
        assert r.conditional_entropy(hand_kernel, 0) == pytest.approx(
            binary_entropy(3 / 7), abs=1e-12)

    def test_non_increasing_in_w(self):
        for seed in range(4):
            k = r.sample_kernel(3, 2, 0.5, seed)
            values = [r.conditional_entropy(k, w) for w in range(k.order + 3)]
            for lo, hi in zip(values[1:], values[:-1]):
                assert lo <= hi + 1e-12

    def test_plateau_at_order(self):
        for seed in range(4):
            k = r.sample_kernel(2, 2, 0.5, seed)
            rate = r.conditional_entropy(k, 2)
            for w in range(2, 9):
                assert r.conditional_entropy(k, w) == pytest.approx(rate, abs=1e-12)

    def test_matches_oracle(self):
        for seed in range(3):
            k = r.sample_kernel(2, 2, 0.5, seed)
            for w in range(4):
                assert r.conditional_entropy(k, w) == pytest.approx(
                    oracle_conditional_entropy(k, w), abs=1e-10)

    def test_golden(self, golden):
        g = golden["source_b2_k2_seed7"]
        k = r.sample_kernel(2, 2, 0.5, 7)
        assert r.conditional_entropy(k, 1) == pytest.approx(
            g["conditional_entropy_w1"], abs=1e-10)

    def test_capacity_error(self, hand_kernel):
        with pytest.raises(r.CapacityError):
            r.conditional_entropy(hand_kernel, 64)

    def test_negative_w(self, hand_kernel):
        with pytest.raises(r.ParameterError):
            r.conditional_entropy(hand_kernel, -1)


class TestEntropyRate:
    def test_deterministic_cycle_rate_zero(self, binary):
        cycle = r.TransitionKernel(binary, 1, np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert r.entropy_rate(cycle) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_rate(self):
        k = r.TransitionKernel(r.Alphabet.of_size(4), 1, np.full((4, 4), 0.25))
        assert r.entropy_rate(k) == pytest.approx(2.0, abs=1e-12)

    def test_matches_direct_summation_oracle(self):
        for seed in range(4):
            k = r.sample_kernel(2, 3, 0.4, seed)
            assert r.entropy_rate(k) == pytest.approx(oracle_entropy_rate(k), abs=1e-9)

    def test_empirical_log_loss_converges(self):
        k = r.sample_kernel(2, 2, 0.5, 13)
        seq = r.sample_sequence(k, 10**6, 14)
        pred = r.optimal_predictor(k, k.order)
        assert abs(r.log_loss(pred, seq) - r.entropy_rate(k)) < 0.01


class TestMinTransitionProb:
    def test_uniform(self, uniform_iid):
        assert r.min_transition_prob(uniform_iid) == 0.5

    def test_hand_kernel(self, hand_kernel):
        assert r.min_transition_prob(hand_kernel) == pytest.approx(0.3)

    def test_zero_entry_flagged(self, binary):
        k = r.TransitionKernel(binary, 1, np.array([[1.0, 0.0], [0.5, 0.5]]))
        assert r.min_transition_prob(k) == 0.0


class TestKernelIO:
    def test_json_roundtrip(self, tmp_path, hand_kernel):
        path = tmp_path / "kernel.json"
        hand_kernel.save(path)
        back = r.TransitionKernel.load(path)
        assert back.order == 1
        assert np.array_equal(back.probs, hand_kernel.probs)
        assert back.alphabet.symbols == hand_kernel.alphabet.symbols

    def test_sequence_roundtrip(self, tmp_path, hand_kernel):
        seq = r.sample_sequence(hand_kernel, 500, 3)
        path = tmp_path / "seq.bin"
        r.write_sequence(path, seq, hand_kernel.alphabet)
        back, alphabet = r.read_sequence(path)
        assert np.array_equal(back, seq)
        assert alphabet.symbols == hand_kernel.alphabet.symbols

    @pytest.mark.parametrize("sidecar", ["not json {", '{"alphabet": ["0", "1"]}',
                                         '{"alphabet": "01", "length": 3}'])
    def test_bad_sequence_sidecar(self, tmp_path, hand_kernel, sidecar):
        path = tmp_path / "seq.bin"
        r.write_sequence(path, r.sample_sequence(hand_kernel, 3, 0), hand_kernel.alphabet)
        (tmp_path / "seq.bin.json").write_text(sidecar)
        with pytest.raises(r.FormatError):
            r.read_sequence(path)

    def test_bad_rows_rejected(self, binary):
        with pytest.raises(r.FormatError):
            r.TransitionKernel(binary, 1, np.array([[0.6, 0.6], [0.4, 0.6]]))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), order=st.integers(0, 2),
       size=st.sampled_from([2, 3]))
def test_sampled_kernels_have_valid_stationary_laws(seed, order, size):
    k = r.sample_kernel(size, order, 0.8, seed)
    pi = r.stationary_law(k).pi
    assert pi.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(pi >= 0)
