import hashlib
import itertools
import json
import math
from dataclasses import fields

import numpy as np
import pytest

import recoding as r
import recoding.spans as spans
from oracles import oracle_p_max, oracle_sorted_span_stats
from recoding.rng import generator


@pytest.fixture(scope="module")
def parsed_stream(fig_vocab):
    return r.greedy_parse(fig_vocab, "0101110100")


@pytest.fixture(scope="module")
def lzw_setup():
    k = r.sample_kernel(2, 2, 2.0, 3)
    seq = r.sample_sequence(k, 300_000, 9)
    vocab = r.train_lzw(seq, 256, k.alphabet)
    stream = r.greedy_parse(vocab, seq)
    return k, vocab, stream


class TestSourceSpan:
    """A window's source span is the length of its expansion."""

    def test_reference_window(self, fig_vocab):
        window = [fig_vocab.entries.index((0, 1, 0)), fig_vocab.entries.index((1,))]
        assert len(r.expand(fig_vocab, window)) == 4

    def test_single_symbol_tokens(self, binary):
        vocab = r.PrefixVocabulary(binary, [])
        assert len(r.expand(vocab, [0, 1, 0])) == 3

    def test_empty_window(self, fig_vocab):
        assert len(r.expand(fig_vocab, [])) == 0


class TestSpanDistribution:
    def test_identity_vocab_point_mass(self, binary):
        vocab = r.PrefixVocabulary(binary, [])
        seq = r.sample_sequence(r.sample_kernel(2, 1, 0.5, 1), 500, 2)
        stream = r.greedy_parse(vocab, seq)
        rep = r.span_distribution(stream, 3)
        assert rep.span_histogram == {3: 1.0}
        assert rep.worst_case_span == 3

    def test_fixed_length_tokens(self, binary):
        vocab = r.PrefixVocabulary(binary, ["00", "01", "10", "11"])
        seq = r.sample_sequence(r.sample_kernel(2, 1, 2.0, 3), 2000, 4)
        stream = r.greedy_parse(vocab, seq)
        rep = r.span_distribution(stream, 4)
        assert rep.span_histogram == {8: 1.0}

    def test_histogram_sums_to_one(self, lzw_setup):
        _, _, stream = lzw_setup
        rep = r.span_distribution(stream, 4)
        assert sum(rep.span_histogram.values()) == pytest.approx(1.0, abs=1e-9)

    def test_mean_span_is_window_times_alpha(self, lzw_setup):
        _, _, stream = lzw_setup
        for w in (2, 4, 8):
            rep = r.span_distribution(stream, w)
            mean = sum(s * p for s, p in rep.span_histogram.items())
            assert mean == pytest.approx(w * rep.alpha, rel=0.01)

    def test_too_short(self, fig_vocab, parsed_stream):
        with pytest.raises(r.DataError):
            r.span_distribution(parsed_stream, 5)


class TestWorstCaseSpan:
    """The empirical worst case against w times the shortest entry, the
    minimum over all w-tuples of entries, which ignores whether a tuple
    can occur in a greedy parse."""

    def test_identity_vocab(self, binary):
        vocab = r.PrefixVocabulary(binary, [])
        seq = r.sample_sequence(r.sample_kernel(2, 1, 0.5, 1), 500, 2)
        assert r.worst_case_span(r.greedy_parse(vocab, seq), 7) == 7

    def test_reference_empirical(self, fig_vocab, parsed_stream):
        assert r.worst_case_span(parsed_stream, 2) == 2

    def test_reference_exhaustive(self, fig_vocab):
        assert 2 * fig_vocab.lengths.min() == 2

    def test_exhaustive_matches_tuple_enumeration(self, fig_vocab):
        best = min(
            sum(len(e) for e in combo)
            for combo in itertools.product(fig_vocab.entries, repeat=2)
        )
        assert 2 * fig_vocab.lengths.min() == best

    def test_exhaustive_lower_bounds_empirical(self, lzw_setup):
        _, vocab, stream = lzw_setup
        for w in (1, 2, 4):
            assert w * vocab.lengths.min() <= r.worst_case_span(stream, w)


class TestHistogramMatchesSortedSpans:
    """Every span statistic read off the histogram against the same
    statistic read off the span array, exactly, with the histogram counted
    in slices of 7 windows."""

    def streams(self, binary, lzw_setup):
        _, _, lzw = lzw_setup
        seq = r.sample_sequence(r.sample_kernel(2, 1, 0.5, 1), 500, 2)
        bpe = r.train_bpe(seq, 6, binary)
        return [r.greedy_parse(r.PrefixVocabulary(binary, []), seq), r.greedy_parse(bpe, seq),
                lzw]

    @pytest.mark.parametrize("w", [1, 2, 4, 9])
    def test_statistics(self, monkeypatch, binary, lzw_setup, w):
        monkeypatch.setattr(spans, "_SLICE", 7)
        k = r.sample_kernel(2, 1, 0.5, 1)
        for stream in self.streams(binary, lzw_setup):
            report = r.span_distribution(stream, w)
            longest = max(report.span_histogram)
            sweep = [0, 1, 2, report.worst_case_span, report.worst_case_span + 1, longest,
                     longest + 1, longest + 50]
            # a scale ell_d of about 7 symbols puts the window threshold
            # inside the LZW stream's span range
            hh = r.heavy_hitting_report(k, stream, 0.99, 2**40, w)
            want = oracle_sorted_span_stats(stream, w, sweep, hh.window_span_threshold)
            assert report.span_histogram == want["histogram"]
            assert report.worst_case_span == r.worst_case_span(stream, w) == want["worst"]
            curve = r.slack_curve(stream, w, sweep)
            assert curve == report.slack(sweep)
            assert [eps for _, eps, _ in curve] == want["epsilon"]
            assert [ws for ws, _, _ in curve] == sweep
            assert hh.window_fail_prob == want["below_threshold"]
            assert hh.window_fail_se == math.sqrt(
                max(want["below_threshold"] * (1 - want["below_threshold"]), 0.0)
                / want["windows"])

    def test_histogram_is_counted_once_per_window(self, monkeypatch, lzw_setup):
        """`span-cdf` reads a window's report and slack curve off one
        histogram."""
        _, _, stream = lzw_setup
        counted = []
        count = spans._span_counts
        monkeypatch.setattr(spans, "_span_counts",
                            lambda *args: counted.append(args) or count(*args))
        report = r.span_distribution(stream, 4)
        report.slack(range(1, 60))
        assert len(counted) == 1


class TestTypicalEpsilon:
    """epsilon(w, w_s): the fraction of w-token windows spanning fewer
    than w_s source symbols."""

    def test_zero_below_window_length(self, lzw_setup):
        _, _, stream = lzw_setup
        assert r.slack_curve(stream, 4, [4]) == [(4, 0.0, 0.0)]

    def test_zero_at_worst_case(self, lzw_setup):
        _, _, stream = lzw_setup
        ws = r.worst_case_span(stream, 4)
        assert r.slack_curve(stream, 4, [ws]) == [(ws, 0.0, 0.0)]

    def test_cdf_shape(self, lzw_setup):
        _, _, stream = lzw_setup
        spans = [eps for _, eps, _ in r.slack_curve(stream, 4, range(1, 60))]
        assert all(b >= a for a, b in zip(spans, spans[1:]))
        assert spans[0] == 0.0
        assert spans[-1] == 1.0


class TestCompressionStats:
    def test_identity(self, binary):
        vocab = r.PrefixVocabulary(binary, [])
        seq = r.sample_sequence(r.sample_kernel(2, 1, 0.5, 5), 1000, 6)
        stream = r.greedy_parse(vocab, seq)
        alpha, rate = r.compression_stats(stream)
        assert alpha == 1.0
        assert rate == 1.0

    def test_alpha_is_length_ratio(self, lzw_setup):
        _, vocab, stream = lzw_setup
        alpha, _ = r.compression_stats(stream)
        n_src = int(vocab.lengths[stream.ids].sum())
        assert abs(alpha - n_src / len(stream.ids)) < 1.0 / len(stream.ids)

    def test_rate_formula(self, lzw_setup):
        _, vocab, stream = lzw_setup
        alpha, rate = r.compression_stats(stream)
        assert rate == pytest.approx(math.log2(vocab.size) / alpha, abs=1e-12)


class TestSlackCurve:
    def test_zero_below_worst_case(self, lzw_setup):
        _, _, stream = lzw_setup
        ws_min = r.worst_case_span(stream, 4)
        curve = r.slack_curve(stream, 4, range(1, ws_min + 1))
        assert all(slack == 0.0 for _, _, slack in curve)

    def test_monotone(self, lzw_setup):
        _, _, stream = lzw_setup
        curve = r.slack_curve(stream, 4, range(1, 80))
        slacks = [s for _, _, s in curve]
        assert all(b >= a for a, b in zip(slacks, slacks[1:]))
        assert all(s >= 0 for s in slacks)

    def test_epsilon_matches_pointwise(self, lzw_setup):
        _, vocab, stream = lzw_setup
        curve = r.slack_curve(stream, 4, [10, 20, 30])
        # spans of the 4-token windows that start at token 4 or later
        ends = np.cumsum(vocab.lengths[stream.ids])
        window_spans = ends[7:] - ends[3:-4]
        for ws, eps, _ in curve:
            assert eps == np.count_nonzero(window_spans < ws) / window_spans.size


class TestPMax:
    def test_single_symbol(self, hand_kernel):
        assert r.p_max(hand_kernel, "0") == pytest.approx(0.7)
        assert r.p_max(hand_kernel, "1") == pytest.approx(0.6)

    def test_two_path_hand_value(self, hand_kernel):
        assert r.p_max(hand_kernel, "01") == pytest.approx(0.21)

    def test_lower_bound_delta(self):
        k = r.sample_kernel(2, 2, 2.0, 7)
        delta = r.min_transition_prob(k)
        rng = generator(1, 95)
        for _ in range(20):
            t = rng.integers(0, 2, size=int(rng.integers(1, 7))).astype(np.int32)
            assert r.p_max(k, t) >= delta ** len(t) - 1e-15

    def test_matches_brute_force(self):
        for seed in range(3):
            k = r.sample_kernel(2, 2, 0.5, seed)
            rng = generator(seed, 94)
            for _ in range(10):
                t = rng.integers(0, 2, size=int(rng.integers(1, 7))).astype(np.int32)
                assert r.p_max(k, t) == pytest.approx(oracle_p_max(k, t), abs=1e-12)

    def test_order_zero(self):
        k = r.sample_kernel(3, 0, 1.0, 4)
        t = np.array([0, 1, 2], dtype=np.int32)
        expect = k.probs[0, 0] * k.probs[0, 1] * k.probs[0, 2]
        assert r.p_max(k, t) == pytest.approx(expect, abs=1e-15)


class TestHeavyHitting:
    def test_identity_vocab_degenerate(self, binary):
        k = r.sample_kernel(2, 1, 2.0, 5)
        seq = r.sample_sequence(k, 20_000, 6)
        vocab = r.PrefixVocabulary(binary, [])
        stream = r.greedy_parse(vocab, seq)
        rep = r.heavy_hitting_report(k, stream, beta=0.8, d=2, w=4)
        assert rep.degenerate
        assert rep.alpha == 1.0

    def test_zero_delta_rejected(self, binary):
        k = r.TransitionKernel(binary, 1, np.array([[1.0, 0.0], [0.5, 0.5]]))
        vocab = r.PrefixVocabulary(binary, [])
        stream = r.TokenSequence(vocab, np.zeros(100, dtype=np.int32))
        with pytest.raises(r.AssumptionViolationError):
            r.heavy_hitting_report(k, stream, 0.8, 2, 4)

    def test_length_inclusion_exact(self, lzw_setup):
        k, vocab, stream = lzw_setup
        rep = r.heavy_hitting_report(k, stream, beta=0.8, d=256, w=4)
        assert rep.length_inclusion_holds
        # re-derive: every distinct emitted token shorter than ell_d has
        # p_max above the threshold
        threshold = 256 ** (-0.8)
        for tid in np.unique(stream.ids):
            entry = np.asarray(vocab.entries[tid], dtype=np.int32)
            if len(entry) < rep.ell_d:
                assert r.p_max(k, entry) > threshold

    def test_short_prob_bounded_by_miss(self, lzw_setup):
        k, _, stream = lzw_setup
        rep = r.heavy_hitting_report(k, stream, beta=0.8, d=256, w=4)
        assert rep.short_token_prob <= rep.miss_prob + 3 * rep.miss_se

    def test_window_and_alpha_bounds(self, lzw_setup):
        k, _, stream = lzw_setup
        for d in (64, 256):
            rep = r.heavy_hitting_report(k, stream, beta=0.8, d=d, w=4)
            assert rep.window_bound_ok
            assert rep.alpha_bound_ok

    def test_ell_d_scales_with_log_budget(self, lzw_setup):
        k, _, stream = lzw_setup
        e1 = r.heavy_hitting_report(k, stream, 0.8, 64, 4).ell_d
        e2 = r.heavy_hitting_report(k, stream, 0.8, 4096, 4).ell_d
        assert e2 == pytest.approx(2.0 * e1, rel=1e-12)

    def test_json_fields(self, lzw_setup):
        k, _, stream = lzw_setup
        rep = r.heavy_hitting_report(k, stream, 0.8, 256, 4)
        back = json.loads(json.dumps(rep.to_json()))
        assert set(back) == {f.name for f in fields(rep)} | {"window_bound_ok", "alpha_bound_ok"}
        assert back["ell_d"] == rep.ell_d
        assert back["alpha_bound_ok"] == rep.alpha_bound_ok
        assert back["window_bound_ok"] == rep.window_bound_ok


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def test_diagnostics_read_the_vocabulary_off_the_stream(lzw_setup):
    """The span diagnostics take the vocabulary from the stream and give
    the values they gave when it was passed beside the stream."""
    k, _, stream = lzw_setup
    assert r.compression_stats(stream) == (6.983890492597076, 1.1454933333333335)
    assert r.worst_case_span(stream, 4) == 18
    rep = r.span_distribution(stream, 4)
    rep.slack_curve = r.slack_curve(stream, 4, range(1, 60))
    assert digest(rep.to_json()) == (
        "6d54ccdeef7e14d9bdb77eb14602b4d83285f87144fbfec255d5a22b97201bb0")
    assert digest(r.heavy_hitting_report(k, stream, 0.8, 256, 4).to_json()) == (
        "79432d2331802503e8e9157d83cde1ed9c6a6d45067cc1dcc03eadd4175ecc36")
