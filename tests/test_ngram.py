import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import recoding as r
from recoding import ngram
from recoding.ngram import _count_table, rank_codes, window_codes
from oracles import (oracle_count_table, oracle_dense_predictor, oracle_fit, oracle_log_loss,
                     oracle_row_log_loss_total, oracle_window_law)



def _order2_zero_entries() -> r.TransitionKernel:
    """Order 2 over three symbols: after context code c = 3 * c1 + c2 the
    symbol (c1 + c2) mod 3 never comes, the next one comes with
    probability (c + 1) / 10."""
    probs = np.zeros((9, 3))
    for c in range(9):
        z = (c // 3 + c % 3) % 3
        probs[c, (z + 1) % 3] = 0.1 * (c + 1)
        probs[c, (z + 2) % 3] = 1 - 0.1 * (c + 1)
    return r.TransitionKernel(r.Alphabet.of_size(3), 2, probs)


# Irreducible kernels with zero entries: contexts beyond the order that
# the stationary process never visits get the uniform row in the dense
# oracle, so rows are compared only where the context has positive mass.
ZERO_ENTRY_KERNELS = [
    # golden mean shift: a 1 is always followed by a 0
    r.TransitionKernel(r.Alphabet.of_size(2), 1, np.array([[0.5, 0.5], [1.0, 0.0]])),
    _order2_zero_entries(),
]


class TestFit:
    def test_hand_counts(self, binary):
        # "0101", w=1: two 0->1 transitions out of two visits to context 0
        pred = r.fit("0101", 1, 0.5, binary)
        assert pred.rows_for([0])[0] == pytest.approx([0.5 / 3, 2.5 / 3])

    def test_unsmoothed_frequencies(self, binary):
        pred = r.fit("00100100", 1, 0.0, binary)
        row0 = pred.rows_for([0])[0]
        # context 0 seen 5 times: 0->0 three times, 0->1 twice
        assert row0[0] == pytest.approx(3 / 5)
        assert row0[1] == pytest.approx(2 / 5)

    def test_empty_sequence_uniform(self, binary):
        pred = r.fit("", 2, 0.5, binary)
        assert np.allclose(pred.rows_for([0, 3]), [[0.5, 0.5], [0.5, 0.5]])

    def test_rows_sum_to_one(self, binary):
        seq = r.sample_sequence(r.sample_kernel(2, 2, 0.5, 0), 5000, 1)
        pred = r.fit(seq, 3, 0.5, binary)
        for code in range(8):
            assert pred.rows_for([code])[0].sum() == pytest.approx(1.0, abs=1e-12)

    def test_table_over_budget(self, binary, monkeypatch):
        monkeypatch.setattr(ngram, "DEFAULT_TABLE_BUDGET", 2**4)
        assert r.fit("0110", 3, 0.5, binary).table.size == 2**4
        with pytest.raises(r.CapacityError):
            r.fit("0110", 4, 0.5, binary)

    def test_positivity_floor(self, binary):
        seq = r.sample_sequence(r.sample_kernel(2, 1, 0.5, 2), 1000, 3)
        pred = r.fit(seq, 1, 0.5, binary)
        n = len(seq)
        assert pred.positivity_floor() >= 0.5 / (n + 0.5 * 2)
        assert pred.positivity_floor() > 0


class TestFitMatchesOracle:
    """fit, log_loss and in_sample_log_loss against the dict-based fit of
    `oracles.oracle_fit`; contexts the sequence never holds get the
    uniform row."""

    @staticmethod
    def draw_case(data):
        a = data.draw(st.sampled_from([2, 3, 36]), label="A")
        w = data.draw(st.integers(0, 3 if a < 36 else 2), label="w")
        alpha = data.draw(st.sampled_from([0.0, 0.5, 1.0, 2.5]), label="alpha")
        top = data.draw(st.integers(0, a - 1), label="largest symbol")
        seq = data.draw(st.lists(st.integers(0, top), min_size=w + 1, max_size=150), label="seq")
        return a, w, alpha, np.array(seq, dtype=np.int32)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_rows_and_losses(self, data):
        a, w, alpha, seq = self.draw_case(data)
        alphabet = r.Alphabet.of_size(a)
        pred = r.fit(seq, w, alpha, alphabet)
        ref = oracle_fit(seq, w, alpha, a)
        codes = np.arange(a**w)
        expected = np.array([ref.get(c, np.full(a, 1.0 / a)) for c in codes.tolist()])
        assert np.allclose(pred.rows_for(codes), expected, rtol=0, atol=1e-12)
        order = data.draw(st.permutations(codes.tolist()), label="query order")
        assert np.array_equal(pred.rows_for(np.array(order, dtype=np.int64)), pred.rows_for(codes)[order])
        assert np.array_equal(pred.rows_for(codes[-1:]), pred.rows_for(codes)[-1:])
        assert pred.positivity_floor() == expected.min()
        loss = oracle_log_loss(ref, seq, w, a)
        assert r.log_loss(pred, seq) == pytest.approx(loss, rel=0, abs=1e-12)
        assert r.in_sample_log_loss(seq, w, alpha, alphabet) == pytest.approx(loss, rel=0, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(data=st.data(), eta=st.sampled_from([1e-6, 0.01, 0.5]))
    def test_smoothed_rows(self, data, eta):
        a, w, alpha, seq = self.draw_case(data)
        pred = r.fit(seq, w, alpha, r.Alphabet.of_size(a)).smoothed(eta)
        ref = oracle_fit(seq, w, alpha, a)
        codes = np.arange(a**w)
        expected = np.array([(1 - eta) * ref[c] + eta / a if c in ref else np.full(a, 1.0 / a)
                             for c in codes.tolist()])
        assert np.allclose(pred.rows_for(codes), expected, rtol=0, atol=1e-12)
        assert pred.positivity_floor() == pytest.approx(expected.min(), rel=0, abs=1e-15)

    def test_unseen_contexts_between_and_beyond_rows(self, binary):
        # "0011" at w=2 holds contexts 00 and 01 only: 10 and 11 lie past the
        # last row, and a query list mixes hits and misses
        pred = r.fit("0011", 2, 0.0, binary)
        rows = pred.rows_for(np.array([3, 0, 2, 1, 0]))
        assert rows.tolist() == [[0.5, 0.5], [0.0, 1.0], [0.5, 0.5], [0.0, 1.0], [0.0, 1.0]]
        pred = r.fit("1100", 2, 0.0, binary)  # contexts 10 and 11; 00 and 01 lie before
        assert pred.rows_for(np.array([0, 1, 2, 3])).tolist() == [
            [0.5, 0.5], [0.5, 0.5], [1.0, 0.0], [1.0, 0.0]]


class TestLogLoss:
    def test_uniform_predictor_exact(self, binary):
        pred = r.ContextPredictor(binary, 1, np.full((2, 2), 0.5))
        seq = r.sample_sequence(r.sample_kernel(2, 1, 0.5, 4), 1000, 5)
        assert r.log_loss(pred, seq) == pytest.approx(1.0, abs=1e-12)

    def test_true_kernel_reaches_entropy_rate(self, hand_kernel):
        seq = r.sample_sequence(hand_kernel, 10**6, 6)
        pred = r.optimal_predictor(hand_kernel, 1)
        assert abs(r.log_loss(pred, seq) - r.entropy_rate(hand_kernel)) < 0.01

    def test_fitted_self_loss_near_rate(self):
        k = r.sample_kernel(2, 2, 0.5, 8)
        seq = r.sample_sequence(k, 200_000, 9)
        pred = r.fit(seq, 2, 0.5, k.alphabet)
        assert r.log_loss(pred, seq) <= r.entropy_rate(k) + 0.02

    def test_zero_probability_reports_infinity(self, binary):
        pred = r.fit("0000", 1, 0.0, binary)
        assert r.log_loss(pred, "0001") == math.inf

    def test_sequence_too_short(self, binary):
        pred = r.fit("0101", 2, 0.5, binary)
        with pytest.raises(r.DataError):
            r.log_loss(pred, "01")


class TestLogLossTotalMatchesRows:
    """Bit for bit against the total that read every context's row, for
    exact, fitted and unsmoothed fitted predictors (infinite where a
    symbol gets probability 0)."""

    @pytest.mark.parametrize("a", [2, 3, 5])
    @pytest.mark.parametrize("w", [1, 2, 3, 4])
    def test_bit_for_bit(self, a, w):
        k = r.sample_kernel(a, 2, 0.5, 50 + a)
        seq = r.sample_sequence(k, 100_000, 50 + a)
        totals = []
        for q in (r.optimal_predictor(k, w), r.fit(seq[:2000], w, 0.5, k.alphabet),
                  r.fit(seq[:2000], w, 0.0, k.alphabet)):
            totals.append(r.log_loss_total(q, seq))
            assert totals[-1] == oracle_row_log_loss_total(q, seq)
        assert math.isfinite(totals[0]) and math.isfinite(totals[1])


class TestCountTable:
    """Counts over the whole code space when it is at most twice the
    number of codes, a sort otherwise: the same codes and counts as the
    sort oracle, bit for bit, on both sides."""

    @pytest.mark.parametrize("a, w, n, counted", [
        (2, 3, 150, True), (2, 0, 1, True), (5, 2, 3000, True),
        (36, 3, 150, False), (2, 12, 150, False), (300, 1, 500, False),
    ])
    def test_matches_sort(self, a, w, n, counted):
        assert (a ** (w + 1) <= 2 * (n - w)) == counted
        seq = np.random.default_rng(a * 100 + w).integers(0, a, size=n).astype(np.int32)
        _, _, codes, counts = _count_table(seq, w, 0.5, r.Alphabet.of_size(a))
        want_codes, want_counts = oracle_count_table(seq, w, a)
        for got, want in ((codes, want_codes), (counts, want_counts)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(0, 300),
           space=st.sampled_from([1, 7, 64, 600, 2**40]))
    def test_rank_codes(self, seed, n, space):
        codes = np.random.default_rng(seed).integers(0, space, size=n)
        distinct, index, counts = rank_codes(codes, space, index=True)
        want = np.unique(codes, return_inverse=True, return_counts=True)
        for got, expected in zip((distinct, index, counts), want):
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)
        assert rank_codes(codes, space)[1] is None


class TestInSampleLogLoss:
    """in_sample_log_loss against its definition, log_loss(fit(...))."""

    @staticmethod
    def reference(seq, w, alpha, alphabet=None):
        pred = r.fit(seq, w, alpha, alphabet)
        return r.log_loss(pred, seq)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_sequences(self, seed):
        rng = np.random.default_rng(seed)
        a = int(rng.integers(2, 6))
        w = int(rng.integers(0, 5))
        alpha = float(rng.choice([0.0, 0.5, 1.0, 2.5]))
        seq = rng.integers(0, a, size=int(rng.integers(w + 1, 3000))).astype(np.int32)
        alphabet = r.Alphabet.of_size(a)
        assert r.in_sample_log_loss(seq, w, alpha, alphabet) == pytest.approx(
            self.reference(seq, w, alpha, alphabet), abs=1e-12)

    @pytest.mark.parametrize("w", [0, 1, 3])
    def test_unsmoothed_markov(self, binary, w):
        seq = r.sample_sequence(r.sample_kernel(2, 2, 0.5, 5), 20_000, 6)
        assert r.in_sample_log_loss(seq, w, 0.0, binary) == pytest.approx(
            self.reference(seq, w, 0.0, binary), abs=1e-12)

    def test_string_input(self):
        text = "the cat sat on the mat and the rat sat on the cat"
        for w in (0, 2):
            assert r.in_sample_log_loss(text, w, 0.5) == pytest.approx(
                self.reference(text, w, 0.5), abs=1e-12)

    def test_single_target_contexts(self, binary):
        # every context of "0101..." has one successor, so unsmoothed loss is 0
        seq = "01" * 50
        assert r.in_sample_log_loss(seq, 1, 0.0, binary) == 0.0
        assert r.in_sample_log_loss(seq, 2, 0.5, binary) == pytest.approx(
            self.reference(seq, 2, 0.5, binary), abs=1e-12)

    def test_sequence_too_short(self, binary):
        for seq in ("01", ""):
            with pytest.raises(r.DataError):
                r.in_sample_log_loss(seq, 2, 0.5, binary)


class TestOptimalPredictor:
    def test_rows_equal_kernel_rows_at_order(self, hand_kernel):
        pred = r.optimal_predictor(hand_kernel, 1)
        assert np.allclose(pred.rows_for([0, 1]), hand_kernel.probs, atol=1e-12)

    def test_lifted_rows_beyond_order(self, hand_kernel):
        pred = r.optimal_predictor(hand_kernel, 3)
        assert pred.table.shape == (2, 2)  # one row per last symbol
        # the context 101 ends in symbol 1 -> kernel row 1; 110 -> row 0
        for context, row in (([1, 0, 1], 1), ([1, 1, 0], 0)):
            codes = pred.context_codes(np.array(context))
            assert codes.size == 1
            assert np.allclose(pred.rows_for(codes)[0], hand_kernel.probs[row], atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_rows_match_dense_oracle(self, data):
        """Up to six symbols beyond the order k the table holds
        A**min(w, k) rows, which equal those of the dense table over every
        length-w context on each context of positive mass."""
        kernel = data.draw(st.one_of(
            st.sampled_from(ZERO_ENTRY_KERNELS),
            st.builds(r.sample_kernel, st.integers(2, 3), st.integers(0, 2),
                      st.sampled_from([0.3, 1.0]), st.integers(0, 1000))))
        a, k = kernel.alphabet_size, kernel.order
        w = data.draw(st.integers(0, k + 6))
        pred = r.optimal_predictor(kernel, w)
        assert pred.table.shape == (a ** min(w, k), a)
        dense = oracle_dense_predictor(kernel, w)
        contexts = np.array(list(itertools.product(range(a), repeat=w)), dtype=np.int32)
        codes = np.concatenate([pred.context_codes(c) for c in contexts])
        live = r.window_law(kernel, w) > 0
        assert np.abs(pred.rows_for(codes) - dense.table)[live].max() <= 1e-12
        # a row's minimum is at most 1/A, so the dense table's uniform
        # rows never set its floor
        assert abs(pred.positivity_floor() - dense.positivity_floor()) <= 1e-12

    def test_w0_is_stationary_marginal(self, hand_kernel):
        pred = r.optimal_predictor(hand_kernel, 0)
        assert np.allclose(pred.rows_for([0])[0], [4 / 7, 3 / 7], atol=1e-12)

    def test_marginalized_against_oracle(self):
        k = r.sample_kernel(2, 2, 0.5, 11)
        pred = r.optimal_predictor(k, 1)
        joint = oracle_window_law(k, 2)
        for ctx in (0, 1):
            tot = joint[(ctx, 0)] + joint[(ctx, 1)]
            for y in (0, 1):
                assert pred.rows_for([ctx])[0][y] == pytest.approx(joint[(ctx, y)] / tot, abs=1e-10)

    def test_monotone_loss_in_w(self):
        k = r.sample_kernel(2, 2, 0.5, 21)
        seq = r.sample_sequence(k, 200_000, 22)
        losses = [r.log_loss(r.optimal_predictor(k, w), seq) for w in range(4)]
        for lo, hi in zip(losses[1:], losses[:-1]):
            assert lo <= hi + 0.005

    def test_loss_converges_to_conditional_entropy(self):
        k = r.sample_kernel(2, 2, 0.5, 30)
        seq = r.sample_sequence(k, 10**6, 31)
        for w in (0, 1, 2):
            emp = r.log_loss(r.optimal_predictor(k, w), seq)
            assert abs(emp - r.conditional_entropy(k, w)) < 0.01


class TestWindowCodes:
    def test_matches_manual_encoding(self):
        seq = np.array([1, 0, 1, 1, 0], dtype=np.int32)
        codes = window_codes(seq, 2, 2)
        assert codes.tolist() == [0b10, 0b01, 0b11, 0b110 & 0b11]

    @pytest.mark.parametrize("a", [2, 3, 36])
    @pytest.mark.parametrize("w", [1, 5, 12])
    def test_matches_python_reference(self, a, w):
        rng = np.random.default_rng(100 * a + w)
        for n, dtype in ((w - 1, np.int64), (w, np.uint8), (300, np.int64), (301, np.uint8)):
            seq = rng.integers(0, a, size=n).astype(dtype)
            before = seq.copy()
            if a**w > 1 << 62:  # 36**12
                with pytest.raises(r.CapacityError):
                    window_codes(seq, w, a)
                continue
            expected = []
            for j in range(n - w + 1):
                code = 0
                for sym in seq[j : j + w].tolist():
                    code = code * a + sym
                expected.append(code)
            codes = window_codes(seq, w, a)
            assert codes.dtype == np.int64 and codes.tolist() == expected
            assert np.array_equal(seq, before)  # the input is never written

    def test_w0(self):
        seq = np.zeros(5, dtype=np.int32)
        assert window_codes(seq, 0, 2).tolist() == [0] * 6

    def test_capacity(self):
        seq = np.zeros(10, dtype=np.int32)
        with pytest.raises(r.CapacityError):
            window_codes(seq, 80, 3)
