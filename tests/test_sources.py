import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import recoding as r
import recoding.sources as sources
from oracles import (oracle_conditional_entropy, oracle_context_step, oracle_entropy_rate,
                     oracle_stationary)
from scipy.sparse import csr_matrix


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

    def test_unknown_label_is_named(self):
        a = r.Alphabet(("x", "yy"))
        for data in ("xz", ["x", "zz"]):
            with pytest.raises(r.AlphabetError, match="unknown symbol 'zz?'"):
                a.encode(data)

    def test_encode_each_input_form(self):
        a = r.Alphabet(("x", "yy", "z"))
        empty = a.encode("")
        assert empty.dtype == np.int32 and empty.size == 0
        for data in ("zxz", ["z", "x", "z"], [2, 0, 2], (2, 0, 2), np.array([2, 0, 2])):
            idx = a.encode(data)
            assert idx.dtype == np.int32 and idx.tolist() == [2, 0, 2]
        assert a.encode(["yy", "x"]).tolist() == [1, 0]
        assert a.encode([]).dtype == np.int32
        with pytest.raises(r.AlphabetError):
            a.encode([0, 3])


    def test_index_arrays_kept_narrow_and_checked_before_narrowing(self):
        a = r.Alphabet(("x", "yy", "z"))
        for dtype in (np.uint8, np.int16, np.uint32):
            idx = np.array([2, 0, 2], dtype=dtype)
            assert a.encode(idx) is idx
        assert a.encode(np.array([2, 0, 2])).dtype == np.int32
        with pytest.raises(r.AlphabetError):
            a.encode(np.array([2**32 + 1]))  # 1 once cut to 32 bits


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

    def test_table_over_budget_refused_before_drawing(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("the kernel stream was opened")

        monkeypatch.setattr(sources, "generator", no_draw)
        # 2**28, 11**8 and 2**41 entries, each over the 10**8 budget
        for size, order in ((2, 27), (11, 7), (2, 40)):
            with pytest.raises(r.CapacityError):
                r.sample_kernel(size, order, 0.5, 0)


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
        for seed in range(5):
            k = r.sample_kernel(3, 2, 0.5, seed)
            pi = r.stationary_law(k).pi
            stepped = oracle_context_step(k, pi)
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
        # an assumption violation, exit code 4 on the command line
        assert issubclass(r.ErgodicityError, r.AssumptionViolationError)

    def test_periodic_chain_converges(self, binary):
        cycle = r.TransitionKernel(binary, 1, np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(r.stationary_law(cycle).pi, [0.5, 0.5], atol=1e-12)

    def test_slow_mixing_kernel(self):
        # tiny spectral gap: power iteration alone cannot reach tolerance
        k = r.sample_kernel(2, 12, 0.4, 1)
        pi = r.stationary_law(k).pi
        stepped = (pi[:, None] * k.probs).reshape(2, 2**11, 2).sum(axis=0).reshape(-1)
        assert 0.5 * np.abs(stepped - pi).sum() < 1e-10


def dense_stationary(p: np.ndarray) -> np.ndarray:
    """pi with pi P = pi and sum 1, for a dense row-stochastic P, by a dense
    least-squares solve."""
    n = len(p)
    system = np.vstack([p.T - np.eye(n), np.ones(n)])
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    return np.linalg.lstsq(system, rhs, rcond=None)[0]


class TestChain:
    """`_chain` is the context chain's transposed transition matrix."""

    @pytest.mark.parametrize("size,top", [(2, 12), (3, 6), (4, 5), (5, 4), (8, 3), (16, 2),
                                          (300, 1)])
    def test_step_equals_the_reshape_step(self, size, top):
        """Bit for bit from order 1 on, where each new context sums its A
        predecessors in the same order.  (At order 0 the one context sums
        A terms in a different order, but the law there is [1.0].)"""
        rng = np.random.default_rng(size)
        for order in range(1, top + 1):
            kernel = r.sample_kernel(size, order, 0.5, order)
            pi = rng.random(kernel.context_count)
            pi /= pi.sum()
            stepped = sources._chain(kernel) @ pi
            assert np.array_equal(stepped, oracle_context_step(kernel, pi))

    def test_zero_probabilities_are_not_stored(self, binary):
        probs = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0], [0.25, 0.75]])
        chain = sources._chain(r.TransitionKernel(binary, 2, probs))
        assert chain.nnz == 6
        assert np.array_equal(chain.toarray().T, [[1, 0, 0, 0], [0, 0, 0.5, 0.5],
                                                  [0, 1, 0, 0], [0, 0, 0.25, 0.75]])


class TestStationaryOfAnyChain:
    """`_stationary` solves chains that are not context chains."""

    def test_random_sparse_chain(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            n = 60
            p = rng.random((n, n)) * (rng.random((n, n)) < 0.1)  # mostly zero
            p[np.arange(n), (np.arange(n) + 1) % n] += 0.1  # a cycle makes it irreducible
            p /= p.sum(axis=1, keepdims=True)
            law = sources._stationary(csr_matrix(p.T))
            assert np.allclose(law.pi, dense_stationary(p), rtol=0, atol=1e-12)

    def test_periodic_chain(self):
        rng = np.random.default_rng(3)
        p = np.zeros((8, 8))
        p[:4, 4:] = rng.random((4, 4))  # period 2: the halves alternate
        p[4:, :4] = rng.random((4, 4))
        p /= p.sum(axis=1, keepdims=True)
        law = sources._stationary(csr_matrix(p.T))
        assert np.allclose(law.pi, dense_stationary(p), rtol=0, atol=1e-12)
        assert law.pi[:4].sum() == pytest.approx(0.5, abs=1e-12)

    def test_two_nearly_closed_blocks_take_the_solve(self):
        rng = np.random.default_rng(5)
        m = 20
        p = np.full((2 * m, 2 * m), 1e-9)
        p[:m, :m] = rng.random((m, m))
        p[m:, m:] = rng.random((m, m))
        p /= p.sum(axis=1, keepdims=True)
        chain = csr_matrix(p.T)
        law = sources._stationary(chain)
        assert law.solved
        assert 0.5 * np.abs(chain @ law.pi - law.pi).sum() < 1e-10
        assert law.pi.sum() == pytest.approx(1.0, abs=1e-12)

    def test_reducible_chain_raises(self):
        p = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.5, 0.5]])
        with pytest.raises(r.ErgodicityError, match="2 strongly connected"):
            sources._stationary(csr_matrix(p.T))


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

    def test_exactly_flat_beyond_order(self, hand_kernel):
        """For w >= k only the last k symbols are read, so every value is
        the entropy rate, bit for bit, at any w."""
        kernels = [hand_kernel] + [r.sample_kernel(a, k, 0.5, 3) for a, k in
                                   [(2, 0), (3, 2), (2, 12)]]
        for k in kernels:
            rate = r.entropy_rate(k)
            for w in (k.order, k.order + 1, k.order + 7, 64, 10**6):
                assert r.conditional_entropy(k, w) == rate

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

    @pytest.mark.parametrize("row", [[np.nan, np.nan], [np.nan, 1.0], [np.inf, 0.0]])
    def test_non_finite_rows_rejected(self, binary, row):
        # NaN compares false, so a check written as "reject if < 0" passes it
        with pytest.raises(r.FormatError):
            r.TransitionKernel(binary, 1, np.array([row, [0.5, 0.5]]))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), order=st.integers(0, 2),
       size=st.sampled_from([2, 3]))
def test_sampled_kernels_have_valid_stationary_laws(seed, order, size):
    k = r.sample_kernel(size, order, 0.8, seed)
    pi = r.stationary_law(k).pi
    assert pi.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(pi >= 0)
