"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with its measured tolerance and elapsed time.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import math
import time

import numpy as np
import pytest

import recoding as r
from recoding.demo_text import synthesize_corpus
from recoding.rng import generator
from test_fragmentation import random_instance


def report(number, ok, detail, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {number}] {status}: {detail} ({elapsed:.1f}s)")


@pytest.fixture(scope="module")
def kernel12():
    return r.sample_kernel(2, 12, 0.4, 0)


@pytest.fixture(scope="module")
def big_source(kernel12):
    return r.sample_sequence(kernel12, 25_000_000, 0)


def test_criterion_1_decomposition_identity():
    t0 = time.time()
    worst_identity = 0.0
    worst_deficit = 0.0
    worst_negative = 0.0
    count = 0
    for seed in range(55):
        kernel, fmap, w = random_instance(seed)
        rep = r.decompose(kernel, fmap, w)
        worst_identity = max(
            worst_identity,
            abs(rep.gap - (rep.context_deficit + rep.phase_ambiguity)))
        if w > kernel.order:
            worst_deficit = max(worst_deficit, rep.context_deficit)
        worst_negative = min(worst_negative, rep.context_deficit, rep.phase_ambiguity)
        count += 1
    elapsed = time.time() - t0
    ok = (worst_identity < 1e-9 and worst_deficit < 1e-12
          and worst_negative >= -1e-12 and count >= 50 and elapsed < 60)
    report(1, ok,
           f"{count} instances, max identity error {worst_identity:.2e}, "
           f"max deficit beyond order {worst_deficit:.2e}", elapsed)
    assert ok


def test_criterion_2_empirical_penalty_matches_theory():
    t0 = time.time()
    pairs = [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (3, 2)]
    n = 500_000
    worst = 0.0
    checked = 0
    for order, block in pairs:
        for seed in range(8):
            kernel = r.sample_kernel(2**block, order, 0.5, seed)
            fmap = r.make_map(kernel.alphabet, r.Alphabet.of_size(2), block)
            seq = r.sample_sequence(kernel, n, seed)
            for w in (order, order + 1):
                exact = r.decompose(kernel, fmap, w)
                empirical_penalty = (
                    r.empirical_fragmented_loss(fmap, seq, w, 0.5) - exact.source_loss)
                err = abs(empirical_penalty - exact.gap)
                worst = max(worst, err)
                checked += 1
    elapsed = time.time() - t0
    ok = worst < 0.02 and checked == 96 and elapsed < 300
    report(2, ok,
           f"{checked} (pair, seed, window) instances, max |empirical - exact| "
           f"penalty {worst:.4f} bits", elapsed)
    assert ok


def test_criterion_3_greedy_round_trip(fig_vocab):
    t0 = time.time()
    ts = r.greedy_parse(fig_vocab, "0101110100")
    golden_ok = [fig_vocab.alphabet.decode(fig_vocab.entries[i]) for i in ts.ids] == [
        "010", "1", "1", "1", "010", "0"]
    failures = 0
    rng = generator(0, 90)
    for _ in range(10_000):
        a = int(rng.integers(2, 4))
        alphabet = r.Alphabet.of_size(a)
        strings = [
            rng.integers(0, a, size=int(rng.integers(1, 6))).astype(np.int32)
            for _ in range(int(rng.integers(0, 4)))
        ]
        vocab = r.PrefixVocabulary(alphabet, strings)
        seq = rng.integers(0, a, size=int(rng.integers(1, 120))).astype(np.int32)
        if not np.array_equal(r.expand(vocab, r.greedy_parse(vocab, seq)), seq):
            failures += 1
    elapsed = time.time() - t0
    ok = golden_ok and failures == 0
    report(3, ok,
           f"reference parse {'ok' if golden_ok else 'WRONG'}, "
           f"{failures} round-trip failures in 10000 random pairs", elapsed)
    assert ok


def test_criterion_4_transfer_difference_bounded(fig_vocab):
    t0 = time.time()
    kernel = r.sample_kernel(2, 1, 0.5, 4)
    q = r.optimal_predictor(kernel, 1).smoothed(0.01)
    lam = q.positivity_floor()
    diffs = []
    for n in (10**3, 10**4, 10**5):
        seq = r.sample_sequence(kernel, n, 17)
        diffs.append(r.loss_comparison(q, fig_vocab, seq, 2)["difference"])
    spread = max(diffs) - min(diffs)
    allowance = 2 * math.log2(1 / lam) + 8
    elapsed = time.time() - t0
    ok = spread < allowance and elapsed < 60
    report(4, ok,
           f"difference spread {spread:.2f} bits across n in 1e3..1e5, "
           f"allowance {allowance:.2f} bits", elapsed)
    assert ok


def test_criterion_5_transfer_reaches_entropy_rate(kernel12):
    t0 = time.time()
    seq = r.sample_sequence(kernel12, 10**6, 42)
    vocab = r.train_lzw(seq[:500_000], 1024, kernel12.alphabet)
    stream = r.greedy_parse(vocab, seq)
    ws = r.worst_case_span(stream, 4)
    q = r.optimal_predictor(kernel12, 12).smoothed(1e-6)
    typ = r.TypicalPredictor(r.TransferredPredictor(q, vocab, 4), 12)
    loss = typ.token_log_losses(stream).per_source_symbol()
    rate = r.entropy_rate(kernel12)
    elapsed = time.time() - t0
    ok = ws >= 12 and loss <= rate + 0.02 and elapsed < 120
    report(5, ok,
           f"empirical span floor {ws} at w=4, transferred loss {loss:.4f} "
           f"vs entropy rate {rate:.4f} (+{loss - rate:.4f})", elapsed)
    assert ok


def test_criterion_6_typical_span_bound():
    t0 = time.time()
    kernel = r.sample_kernel(2, 3, 0.5, 11)
    seq = r.sample_sequence(kernel, 300_000, 5)
    vocabs = [("lzw", d, r.train_lzw(seq[:200_000], d, kernel.alphabet))
              for d in (32, 128, 512)]
    vocabs += [("bpe", v, r.train_bpe(seq[:200_000], v, kernel.alphabet))
               for v in (8, 16)]
    checked = 0
    failures = []
    for _, label, vocab in vocabs:
        stream = r.greedy_parse(vocab, seq)
        _, rate = r.compression_stats(stream)
        for w in (2, 4):
            spans = np.sort(stream.window_spans(w)[w:])  # the first w tokens dropped
            targets = sorted({
                int(min(spans[int(q * (len(spans) - 1))], 14))
                for q in (0.1, 0.6)})
            for ws in targets:
                q_pred = r.optimal_predictor(kernel, ws).smoothed(1e-6)
                typ = r.TypicalPredictor(r.TransferredPredictor(q_pred, vocab, w), ws)
                bd = typ.token_log_losses(stream)
                eps = bd.bad_window_fraction()
                bound = (r.conditional_entropy(kernel, ws)
                         + eps * rate * math.log2(kernel.alphabet_size))
                measured = bd.per_source_symbol()
                checked += 1
                if measured > bound + 3 * bd.per_source_symbol_se():
                    failures.append((label, w, ws, measured, bound))
    elapsed = time.time() - t0
    ok = checked >= 10 and not failures and elapsed < 300
    report(6, ok,
           f"{checked} (vocabulary, window, span) configurations, "
           f"{len(failures)} bound violations", elapsed)
    assert ok


def test_criterion_7_compression_ratio_table(kernel12, big_source):
    t0 = time.time()
    expected = {4: 1.590, 6: 2.071, 8: 2.546, 10: 2.944, 15: 3.614, 20: 4.172}
    strict, waived, outside = [], [], []
    for v, target in expected.items():
        vocab = r.train_bpe(big_source[:500_000], v, kernel12.alphabet)
        stream = r.greedy_parse(vocab, big_source)
        ratio = len(big_source) / len(stream.ids)
        diff = ratio - target
        if abs(diff) <= 0.2:
            strict.append(v)
        elif abs(diff) <= 0.3:
            # documented waiver: merge conventions shift the vocabulary,
            # and the realized seed-0 kernel shifts every ratio together
            waived.append((v, diff))
        else:
            outside.append((v, diff))
    elapsed = time.time() - t0
    ok = not outside and elapsed < 600
    report(7, ok,
           f"{len(strict)} sizes within 0.2, {len(waived)} within the 0.3 "
           f"waiver {waived}, {len(outside)} outside {outside}", elapsed)
    assert ok


def test_criterion_8_heavy_hitting_checks():
    t0 = time.time()
    kernel = r.sample_kernel(2, 2, 2.0, 3)
    assert r.min_transition_prob(kernel) > 0
    seq = r.sample_sequence(kernel, 400_000, 9)
    problems = []
    for d in (16, 64, 256, 1024):
        vocab = r.train_lzw(seq, d, kernel.alphabet)
        stream = r.greedy_parse(vocab, seq)
        rep = r.heavy_hitting_report(kernel, stream, beta=0.8, d=d, w=4)
        if not rep.length_inclusion_holds:
            problems.append((d, "length inclusion"))
        if not rep.window_bound_ok:
            problems.append((d, "window bound"))
        if not rep.alpha_bound_ok:
            problems.append((d, "alpha bound"))
    elapsed = time.time() - t0
    ok = not problems and elapsed < 300
    report(8, ok, f"budgets (16, 64, 256, 1024); violations: {problems}", elapsed)
    assert ok


def test_criterion_9_text_corpus_slack_profile():
    t0 = time.time()
    corpus = synthesize_corpus(1_200_000, seed=0)
    assert len(corpus) >= 1_000_000
    alphabet = r.Alphabet.from_text(corpus)
    seq = alphabet.encode(corpus)
    vocab = r.train_bpe(seq, 4096, alphabet)
    stream = r.greedy_parse(vocab, seq)
    w = 128
    near = r.slack_curve(stream, w, range(w, 2 * w + 1))
    far = r.slack_curve(stream, w, [16 * w])
    low_ok = all(slack < 0.05 for _, _, slack in near)
    high_ok = far[0][2] > 0.5
    elapsed = time.time() - t0
    ok = low_ok and high_ok
    report(9, ok,
           f"slack <= {max(s for _, _, s in near):.4f} bits up to 2w, "
           f"{far[0][2]:.2f} bits at 16w", elapsed)
    assert ok
