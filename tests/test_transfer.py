import math

import numpy as np
import pytest

import recoding as r
import recoding.transfer as transfer
from oracles import oracle_next_token_distribution, oracle_row_evaluate, oracle_token_losses
from recoding.rng import generator


@pytest.fixture(scope="module")
def k1():
    return r.sample_kernel(2, 1, 0.5, 3)


@pytest.fixture(scope="module")
def smoothed_q(k1):
    return r.optimal_predictor(k1, 1).smoothed(0.01)


@pytest.fixture(scope="module")
def fig_stream(k1, fig_vocab):
    seq = r.sample_sequence(k1, 50_000, 7)
    return seq, r.greedy_parse(fig_vocab, seq)


class TestSmooth:
    def test_arithmetic(self, binary):
        pred = r.ContextPredictor(binary, 1, np.array([[1.0, 0.0], [0.0, 1.0]]))
        sm = pred.smoothed(0.01)
        assert sm.rows_for([0])[0][0] == pytest.approx(0.995)
        assert sm.positivity_floor() >= 0.005

    def test_uniform_fixed_point(self, binary):
        pred = r.ContextPredictor(binary, 1, np.full((2, 2), 0.5))
        sm = pred.smoothed(0.3)
        assert np.allclose(sm.rows_for([0])[0], [0.5, 0.5])

    def test_small_eta_limit(self, k1):
        q = r.optimal_predictor(k1, 1)
        sm = q.smoothed(1e-9)
        assert np.allclose(sm.rows_for([0])[0], q.rows_for([0])[0], atol=1e-8)

    def test_range_checked(self, k1):
        q = r.optimal_predictor(k1, 1)
        for eta in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(r.ParameterError):
                q.smoothed(eta)


class TestSeqExtend:
    """The probability q gives a string following a history, as the
    transferred predictor's next-token distribution reads it for a token
    nothing extends after a token nothing extends (stop and end factors
    are then 1)."""

    def test_single_symbol(self, hand_kernel, binary):
        vocab = r.PrefixVocabulary(binary, [])
        tp = r.TransferredPredictor(r.optimal_predictor(hand_kernel, 1), vocab, 2)
        zero, one = vocab.entries.index((0,)), vocab.entries.index((1,))
        dist = oracle_next_token_distribution(tp, [zero, one])
        assert dist[zero] == pytest.approx(0.4)

    def test_two_factor_product(self, hand_kernel, binary):
        vocab = r.PrefixVocabulary(binary, ["01"])
        tp = r.TransferredPredictor(r.optimal_predictor(hand_kernel, 1), vocab, 2)
        zero_one, one = vocab.entries.index((0, 1)), vocab.entries.index((1,))
        # history "011" ends in 1: q(0|1) * q(1|0) = 0.4 * 0.3
        dist = oracle_next_token_distribution(tp, [zero_one, one])
        assert dist[zero_one] == pytest.approx(0.12)

    def test_short_history_rejected(self, hand_kernel, fig_vocab):
        # a gate below q.w would score windows holding fewer than q.w symbols
        q = r.optimal_predictor(hand_kernel, 2)
        with pytest.raises(r.ParameterError):
            r.TypicalPredictor(r.TransferredPredictor(q, fig_vocab, 2), 1)


class TestTransferConstruction:
    def test_identity_vocab_equals_source(self, k1, smoothed_q, binary):
        vocab = r.PrefixVocabulary(binary, [])
        seq = r.sample_sequence(k1, 5000, 8)
        stream = r.greedy_parse(vocab, seq)
        tp = r.TransferredPredictor(smoothed_q, vocab, 2)
        bd = tp.token_log_losses(stream)
        # token i predicts symbol i with the same context: losses match
        # the per-symbol source losses exactly over the shared range
        codes = seq[1:-1].astype(np.int64)
        from recoding.ngram import window_codes
        ctx = window_codes(seq, 1, 2)
        expect = []
        for i in range(2, len(seq) - 1):
            expect.append(-math.log2(smoothed_q.rows_for([ctx[i - 1]])[0][seq[i]]))
        assert np.allclose(bd.losses, expect, atol=1e-12)

    def test_positivity_required(self, k1, fig_vocab):
        exact = r.optimal_predictor(k1, 1)
        if exact.positivity_floor() > 0:
            exact = r.ContextPredictor(k1.alphabet, 1, np.array([[1.0, 0.0], [0.4, 0.6]]))
        with pytest.raises(r.PositivityError):
            r.TransferredPredictor(exact, fig_vocab, 2)

    def test_normalization_over_legal_tokens(self, smoothed_q, fig_vocab, fig_stream):
        _, stream = fig_stream
        tp = r.TransferredPredictor(smoothed_q, fig_vocab, 2)
        rng = generator(0, 93)
        for _ in range(1000):
            i = int(rng.integers(2, len(stream.ids)))
            dist = oracle_next_token_distribution(tp, stream.ids[i - 2 : i])
            assert dist.sum() == pytest.approx(1.0, abs=1e-9)

    def test_greedy_consistency_zero_probability(self, smoothed_q, fig_vocab, fig_stream):
        _, stream = fig_stream
        tp = r.TransferredPredictor(smoothed_q, fig_vocab, 2)
        ids = stream.ids
        for i in range(2, 40):
            dist = oracle_next_token_distribution(tp, ids[i - 2 : i])
            prev = ids[i - 1]
            for eid in range(fig_vocab.size):
                if fig_vocab.ext_mask[prev, fig_vocab.first_symbols[eid]]:
                    assert dist[eid] == 0.0

    def test_stop_probabilities_bounded(self, smoothed_q, fig_vocab, fig_stream):
        _, stream = fig_stream
        tp = r.TransferredPredictor(smoothed_q, fig_vocab, 2)
        bd = tp.token_log_losses(stream)
        stops = bd.stops[bd.valid]
        assert np.all(stops >= tp.lambda_q - 1e-12)
        assert np.all(stops <= 1.0 + 1e-12)

    def test_losses_match_enumeration_oracle(self, smoothed_q, fig_vocab, k1):
        seq = r.sample_sequence(k1, 3000, 17)
        stream = r.greedy_parse(fig_vocab, seq)
        tp = r.TransferredPredictor(smoothed_q, fig_vocab, 2)
        bd = tp.token_log_losses(stream)

        def q_row(ctx):
            code = 0
            for s in ctx:
                code = code * 2 + int(s)
            return smoothed_q.rows_for([code])[0]

        tokens = [fig_vocab.entries[i] for i in stream.ids]
        ref = oracle_token_losses(q_row, set(fig_vocab.entries), 2, tokens, 2, 1)
        assert np.allclose(bd.losses, ref, atol=1e-9)

    def test_mismatched_stream_rejected(self, smoothed_q, fig_vocab, binary, k1):
        other = r.PrefixVocabulary(binary, ["11"])
        seq = r.sample_sequence(k1, 1000, 18)
        stream = r.greedy_parse(other, seq)
        tp = r.TransferredPredictor(smoothed_q, fig_vocab, 2)
        with pytest.raises(r.ParameterError):
            tp.token_log_losses(stream)


class TestEvaluateMatchesNextTokenDistribution:
    """At every evaluated position of a greedy parse, the vectorized loss
    equals -log2 of `oracle_next_token_distribution` at the realised token, and
    each distribution sums to one; windows spanning fewer than q.w
    symbols are uniform on both paths."""

    @pytest.mark.parametrize("case", ["fig_vocab", "lzw"])
    def test_losses_and_normalization(self, case, k1, smoothed_q, fig_vocab):
        if case == "fig_vocab":
            vocab, q, w = fig_vocab, smoothed_q, 2
            seq = r.sample_sequence(k1, 400, 31)
        else:
            k = r.sample_kernel(2, 2, 0.5, 32)
            seq = r.sample_sequence(k, 20_000, 33)
            vocab = r.train_lzw(seq[:10_000], 32, k.alphabet)
            q, w = r.optimal_predictor(k, 3).smoothed(0.01), 1
            seq = seq[10_000:10_600]
        stream = r.greedy_parse(vocab, seq)
        tp = r.TransferredPredictor(q, vocab, w)
        bd = tp.token_log_losses(stream)
        ids = stream.ids
        assert bd.losses.size == len(ids) - 1 - w
        for j, i in enumerate(range(w, len(ids) - 1)):
            dist = oracle_next_token_distribution(tp, ids[i - w : i])
            assert abs(dist.sum() - 1.0) <= 1e-12
            assert abs(bd.losses[j] + math.log2(dist[ids[i]])) <= 1e-12
        if case == "lzw":
            assert 0 < bd.bad_window_fraction() < 1  # both paths are exercised


@pytest.fixture(scope="module", params=[2, 3, 5])
def long_stream(request):
    """An order-2 source over A symbols, 300,000 of its symbols, and their
    parse by BPE at A + 2 units: more tokens than one of `_evaluate`'s
    slices holds."""
    a = request.param
    k = r.sample_kernel(a, 2, 0.5, 40 + a)
    seq = r.sample_sequence(k, 300_000, 40 + a)
    vocab = r.train_bpe(seq[:20_000], a + 2, k.alphabet)
    return k, vocab, r.greedy_parse(vocab, seq)


class TestEvaluateMatchesRows:
    """Losses, stops, valid mask, alpha and total bit for bit against the
    evaluation that read every context's (n, A) row, with every window
    valid and with a gate that some windows miss."""

    @pytest.mark.parametrize("w", [1, 2, 3, 4])
    def test_bit_for_bit(self, long_stream, w):
        k, vocab, stream = long_stream
        tp = r.TransferredPredictor(r.optimal_predictor(k, w).smoothed(1e-3), vocab, w)
        for gate in (w, w + 1):
            got = r.TypicalPredictor(tp, gate).token_log_losses(stream)
            want = oracle_row_evaluate(tp, stream, gate)
            assert np.array_equal(got.losses, want["losses"])
            assert np.array_equal(got.stops, want["stops"], equal_nan=True)
            assert np.array_equal(got.valid, want["valid"])
            assert got.alpha == want["alpha"]
            assert got.total() == float(want["losses"].sum())
            if gate == w:
                assert got.valid.sum() > transfer._SLICE
            else:
                assert 0 < got.bad_window_fraction() < 1


class TestEvaluateInSlices:
    """`_evaluate` taken a few source symbols at a time: each slice
    expands its own tokens and carries the cumulative log-loss on, so
    every value is still that of the one-pass evaluation over rows, bit
    for bit.  LZW tokens are longer than a slice, so some slices hold one
    token and reach back over several for their context."""

    @pytest.mark.parametrize("a", [2, 3])
    @pytest.mark.parametrize("method", ["bpe", "lzw"])
    @pytest.mark.parametrize("w", [1, 2, 4])
    def test_bit_for_bit(self, monkeypatch, a, method, w):
        monkeypatch.setattr(transfer, "_SLICE", 3)
        k = r.sample_kernel(a, 2, 0.5, 60 + a)
        seq = r.sample_sequence(k, 2000, 60 + a)
        vocab = r.train_vocabularies(seq[:1000], k.alphabet, [(method, a + 12)])[0]
        stream = r.greedy_parse(vocab, seq)
        for ws in (w, 6):
            tp = r.TransferredPredictor(r.optimal_predictor(k, ws).smoothed(1e-3), vocab, w)
            for gate in (ws, ws + 3):
                got = r.TypicalPredictor(tp, gate).token_log_losses(stream)
                want = oracle_row_evaluate(tp, stream, gate)
                assert np.array_equal(got.losses, want["losses"])
                assert np.array_equal(got.stops, want["stops"], equal_nan=True)
                assert np.array_equal(got.valid, want["valid"])
                assert got.alpha == want["alpha"]

    def test_no_valid_window(self, monkeypatch):
        """A gate above every span leaves every token at the uniform loss."""
        monkeypatch.setattr(transfer, "_SLICE", 3)
        k = r.sample_kernel(2, 2, 0.5, 61)
        seq = r.sample_sequence(k, 500, 61)
        vocab = r.train_lzw(seq, 16, k.alphabet)
        stream = r.greedy_parse(vocab, seq)
        tp = r.TransferredPredictor(r.optimal_predictor(k, 2).smoothed(1e-3), vocab, 2)
        got = r.TypicalPredictor(tp, 501).token_log_losses(stream)
        assert not got.valid.any()
        assert np.all(got.losses == math.log2(vocab.size))
        assert np.isnan(got.stops).all()


class TestBoundedDifference:
    def test_difference_does_not_grow(self, k1, smoothed_q, fig_vocab):
        diffs = []
        for n in (10**3, 10**4, 10**5):
            seq = r.sample_sequence(k1, n, 19)
            rep = r.loss_comparison(smoothed_q, fig_vocab, seq, 2)
            diffs.append(rep["difference"])
        lam = smoothed_q.positivity_floor()
        spread = max(diffs) - min(diffs)
        assert spread < 2 * math.log2(1 / lam) + 8
        # slope per symbol is statistically zero
        assert abs(diffs[-1] - diffs[0]) / 10**5 < 0.005

    def test_report_fields(self, k1, smoothed_q, fig_vocab):
        seq = r.sample_sequence(k1, 2000, 20)
        rep = r.loss_comparison(smoothed_q, fig_vocab, seq, 2)
        for key in ("n", "source_loss_bits", "token_loss_bits", "difference",
                    "bound_2log_1_over_lambda", "per_symbol_losses"):
            assert key in rep


class TestTypicalPredictor:
    def test_all_valid_matches_transferred(self, k1, smoothed_q, fig_vocab, fig_stream):
        _, stream = fig_stream
        tp = r.TransferredPredictor(smoothed_q, fig_vocab, 2)
        typ = r.TypicalPredictor(tp, 1)
        a = tp.token_log_losses(stream)
        b = typ.token_log_losses(stream)
        assert np.array_equal(a.losses, b.losses)
        assert a.bad_window_fraction() == 0.0

    def test_all_bad_uniform_loss(self, k1, smoothed_q, fig_vocab, fig_stream):
        _, stream = fig_stream
        tp = r.TransferredPredictor(smoothed_q, fig_vocab, 2)
        typ = r.TypicalPredictor(tp, 10**9)
        bd = typ.token_log_losses(stream)
        assert np.allclose(bd.losses, math.log2(fig_vocab.size))
        assert bd.bad_window_fraction() == 1.0

    def test_gate_must_cover_context(self, k1, fig_vocab):
        q = r.optimal_predictor(k1, 4).smoothed(1e-6)
        tp = r.TransferredPredictor(q, fig_vocab, 2)
        with pytest.raises(r.ParameterError):
            r.TypicalPredictor(tp, 2)

    def test_mixed_stream_bound(self):
        k = r.sample_kernel(2, 2, 0.5, 23)
        seq = r.sample_sequence(k, 200_000, 24)
        vocab = r.train_lzw(seq[:100_000], 64, k.alphabet)
        stream = r.greedy_parse(vocab, seq)
        w, ws = 2, 8
        q = r.optimal_predictor(k, ws).smoothed(1e-6)
        typ = r.TypicalPredictor(r.TransferredPredictor(q, vocab, w), ws)
        bd = typ.token_log_losses(stream)
        eps = bd.bad_window_fraction()
        assert 0 < eps < 1  # genuinely mixed
        _, rate = r.compression_stats(stream)
        bound = r.conditional_entropy(k, ws) + eps * rate * math.log2(2)
        assert bd.per_source_symbol() <= bound + 3 * bd.per_source_symbol_se()


class TestPerSourceSymbolLoss:
    def test_uniform_predictor_rate_identity(self, k1, smoothed_q, binary):
        seq = r.sample_sequence(k1, 20_000, 25)
        vocab = r.PrefixVocabulary(binary, ["01", "011"])
        stream = r.greedy_parse(vocab, seq)
        # gated above every span, the typical predictor is uniform over tokens
        uni = r.TypicalPredictor(r.TransferredPredictor(smoothed_q, vocab, 2), 10**9)
        alpha, rate = r.compression_stats(stream)
        got = uni.token_log_losses(stream).per_source_symbol()
        assert got == pytest.approx(rate * math.log2(2), abs=1e-12)

    def test_identity_vocab_true_kernel(self, k1, binary):
        vocab = r.PrefixVocabulary(binary, [])
        seq = r.sample_sequence(k1, 10**6, 26)
        stream = r.greedy_parse(vocab, seq)
        q = r.optimal_predictor(k1, 1).smoothed(1e-9)
        tp = r.TransferredPredictor(q, vocab, 2)
        got = tp.token_log_losses(stream).per_source_symbol()
        assert abs(got - r.entropy_rate(k1)) < 0.01

    def test_transferred_meets_source_context_loss(self):
        # spans >= ws at evaluation: token loss tracks the ws-context loss
        k = r.sample_kernel(2, 12, 0.4, 0)
        seq = r.sample_sequence(k, 10**6, 42)
        vocab = r.train_lzw(seq[:500_000], 1024, k.alphabet)
        stream = r.greedy_parse(vocab, seq)
        ws = r.worst_case_span(stream, 4)
        assert ws >= 12
        q = r.optimal_predictor(k, 12).smoothed(1e-6)
        typ = r.TypicalPredictor(r.TransferredPredictor(q, vocab, 4), 12)
        got = typ.token_log_losses(stream).per_source_symbol()
        assert got <= r.entropy_rate(k) + 0.02
