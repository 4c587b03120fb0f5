import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import recoding as r
from oracles import oracle_bpe_units, oracle_greedy_parse
from recoding.demo_text import synthesize_corpus
from recoding.rng import generator
from recoding.tokenizer import bpe_units


def entry_labels(vocab):
    return sorted(vocab.alphabet.decode(e) for e in vocab.entries)


def random_vocab_and_seq(seed, max_len=300):
    rng = generator(seed, 96)
    a = int(rng.integers(2, 4))
    alphabet = r.Alphabet.of_size(a)
    n_strings = int(rng.integers(0, 5))
    strings = []
    for _ in range(n_strings):
        length = int(rng.integers(1, 6))
        strings.append(rng.integers(0, a, size=length).astype(np.int32))
    vocab = r.PrefixVocabulary(alphabet, strings)
    seq = rng.integers(0, a, size=int(rng.integers(1, max_len))).astype(np.int32)
    return vocab, seq


class TestBuildVocab:
    def test_closure_example(self, fig_vocab):
        assert entry_labels(fig_vocab) == ["0", "01", "010", "1"]

    def test_no_strings_gives_alphabet(self, binary):
        vocab = r.PrefixVocabulary(binary, [])
        assert entry_labels(vocab) == ["0", "1"]

    def test_closure_of_0110(self, binary):
        vocab = r.PrefixVocabulary(binary, ["0110"])
        assert entry_labels(vocab) == ["0", "01", "011", "0110", "1"]

    def test_empty_string_rejected(self, binary):
        with pytest.raises(r.FormatError):
            r.PrefixVocabulary(binary, [""])

    def test_prefix_closure_audit(self):
        for seed in range(20):
            vocab, _ = random_vocab_and_seq(seed)
            entries = set(vocab.entries)
            for e in entries:
                for j in range(1, len(e)):
                    assert e[:j] in entries
            for i in range(vocab.alphabet.size):
                assert (i,) in entries

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 2), min_size=1, max_size=8), max_size=8))
    def test_entries_are_every_prefix(self, words):
        alphabet = r.Alphabet.of_size(3)
        vocab = r.PrefixVocabulary(alphabet, [np.array(w, dtype=np.int32) for w in words])
        want = {(i,) for i in range(3)} | {tuple(w[:j]) for w in words
                                           for j in range(1, len(w) + 1)}
        assert vocab.entries == tuple(sorted(want))

    def test_json_roundtrip(self, tmp_path, fig_vocab):
        path = tmp_path / "vocab.json"
        fig_vocab.save(path)
        back = r.PrefixVocabulary.load(path)
        assert back.entries == fig_vocab.entries


class TestGreedyParse:
    def test_reference_parse(self, fig_vocab):
        ts = r.greedy_parse(fig_vocab, "0101110100")
        labels = [fig_vocab.entry_label(i) for i in ts.ids]
        assert labels == ["010", "1", "1", "1", "010", "0"]

    def test_alphabet_only_vocab(self, binary):
        vocab = r.PrefixVocabulary(binary, [])
        ts = r.greedy_parse(vocab, "0110")
        assert [vocab.entry_label(i) for i in ts.ids] == ["0", "1", "1", "0"]

    def test_repeated_long_match(self, fig_vocab):
        ts = r.greedy_parse(fig_vocab, "010010")
        assert [fig_vocab.entry_label(i) for i in ts.ids] == ["010", "010"]

    def test_expand_inverts(self, fig_vocab):
        ts = r.greedy_parse(fig_vocab, "0101110100")
        assert fig_vocab.alphabet.decode(r.expand(fig_vocab, ts)) == "0101110100"

    def test_idempotence(self):
        for seed in range(10):
            vocab, seq = random_vocab_and_seq(seed)
            ts = r.greedy_parse(vocab, seq)
            again = r.greedy_parse(vocab, r.expand(vocab, ts))
            assert np.array_equal(ts.ids, again.ids)

    def test_matches_slicing_oracle(self):
        for seed in range(15):
            vocab, seq = random_vocab_and_seq(seed)
            got = [vocab.entries[i] for i in r.greedy_parse(vocab, seq).ids]
            assert got == oracle_greedy_parse(set(vocab.entries), seq)

    def test_greedy_maximality(self):
        for seed in range(10):
            vocab, seq = random_vocab_and_seq(seed)
            ts = r.greedy_parse(vocab, seq)
            pos = 0
            for j, tid in enumerate(ts.ids[:-1]):
                pos += int(vocab.lengths[tid])
                nxt = int(seq[pos])
                assert not vocab.ext_mask[tid, nxt]

    def test_unknown_symbol(self, fig_vocab):
        with pytest.raises(r.AlphabetError):
            r.greedy_parse(fig_vocab, "012")


class TestExpand:
    def test_unknown_token_id(self, fig_vocab):
        with pytest.raises(r.FormatError):
            r.expand(fig_vocab, [99])

    def test_empty(self, fig_vocab):
        assert len(r.expand(fig_vocab, [])) == 0


class TestExtSet:
    """Symbols by which a token can grow while staying in the vocabulary."""

    @staticmethod
    def ext_labels(vocab, label):
        return {vocab.alphabet.symbols[a] for a in np.flatnonzero(vocab.ext_mask[vocab.id_of(label)])}

    def test_reference_values(self, fig_vocab):
        assert self.ext_labels(fig_vocab, "0") == {"1"}
        assert self.ext_labels(fig_vocab, "01") == {"0"}
        assert self.ext_labels(fig_vocab, "010") == set()
        assert self.ext_labels(fig_vocab, "1") == set()

    def test_alphabet_only(self, binary):
        vocab = r.PrefixVocabulary(binary, [])
        assert not vocab.ext_mask.any()

    def test_unknown_token(self, fig_vocab):
        with pytest.raises(r.FormatError):
            fig_vocab.id_of("11")


class TestTrainBpe:
    def test_target_equals_alphabet(self, binary):
        vocab = r.train_bpe("0101100", 2, binary)
        assert entry_labels(vocab) == ["0", "1"]

    def test_first_merge_is_01(self, binary):
        vocab = r.train_bpe("010101010101", 3, binary)
        assert entry_labels(vocab) == ["0", "01", "1"]

    def test_short_corpus_rejected(self, binary):
        with pytest.raises(r.DataError):
            r.train_bpe("0", 4, binary)

    def test_target_below_alphabet(self, binary):
        with pytest.raises(r.ParameterError):
            r.train_bpe("0101", 1, binary)

    def test_deterministic(self, binary):
        k = r.sample_kernel(2, 2, 0.5, 4)
        seq = r.sample_sequence(k, 20_000, 5)
        a = r.train_bpe(seq, 12, binary)
        b = r.train_bpe(seq, 12, binary)
        assert a.entries == b.entries

    def test_prefix_closed(self, binary):
        k = r.sample_kernel(2, 3, 0.5, 6)
        seq = r.sample_sequence(k, 50_000, 7)
        vocab = r.train_bpe(seq, 16, binary)
        entries = set(vocab.entries)
        for e in entries:
            for j in range(1, len(e)):
                assert e[:j] in entries


class TestBpeUnitsMatchOracle:
    """The incremental trainer against the recount-every-round oracle:
    the same units in the same merge order."""

    @settings(max_examples=300, deadline=None)
    @given(runs=st.lists(st.tuples(st.integers(0, 3), st.integers(1, 12)), min_size=1,
                         max_size=30),
           a=st.integers(1, 4), extra=st.integers(0, 60))
    def test_runs(self, runs, a, extra):
        seq = np.array([sym % a for sym, m in runs for _ in range(m)], dtype=np.int32)
        if len(seq) >= 2:
            assert bpe_units(seq, a + extra, a) == oracle_bpe_units(seq, a + extra, a)

    @settings(max_examples=200, deadline=None)
    @given(period=st.lists(st.integers(0, 3), min_size=1, max_size=7),
           reps=st.integers(1, 40), a=st.integers(1, 4), extra=st.integers(0, 60))
    def test_periodic(self, period, reps, a, extra):
        seq = np.array(period * reps, dtype=np.int32) % a
        if len(seq) >= 2:
            assert bpe_units(seq, a + extra, a) == oracle_bpe_units(seq, a + extra, a)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 63, 64, 100, 1025])
    def test_all_equal_until_one_unit(self, n):
        seq = np.zeros(n, dtype=np.int32)
        units = bpe_units(seq, 40, 1)
        assert units == oracle_bpe_units(seq, 40, 1)
        assert len(units) < 40  # stopped when one unit spans the corpus

    @pytest.mark.parametrize("order, alpha, n, seed, sizes", [
        (12, 0.4, 200_000, 1, (4, 8, 20)),
        (12, 0.4, 200_000, 2, (4, 8, 20)),
        (6, 0.5, 500_000, 1, (8,)),
    ])
    def test_markov_corpora(self, order, alpha, n, seed, sizes):
        seq = r.sample_sequence(r.sample_kernel(2, order, alpha, seed), n, seed)
        for v in sizes:
            assert bpe_units(seq, v, 2) == oracle_bpe_units(seq, v, 2)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_text_corpus(self, seed):
        text = synthesize_corpus(60_000, seed)
        alphabet = r.Alphabet.from_text(text)
        seq = alphabet.encode(text)
        units = oracle_bpe_units(seq, 1024, alphabet.size)
        assert bpe_units(seq, 1024, alphabet.size) == units
        assert r.train_bpe(text, 1024).entries == r.PrefixVocabulary(alphabet, units).entries

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_input_left_unwritten(self, binary, dtype):
        seq = r.sample_sequence(r.sample_kernel(2, 2, 0.5, 3), 5000, 3).astype(dtype)
        before = seq.copy()
        r.train_bpe(seq, 24, binary)
        assert np.array_equal(seq, before)


class TestTrainLzw:
    def test_budget_equals_alphabet(self, binary):
        vocab = r.train_lzw("010101", 2, binary)
        assert entry_labels(vocab) == ["0", "1"]

    def test_scan_trace(self, binary):
        vocab = r.train_lzw("0101110100", 8, binary)
        assert entry_labels(vocab) == sorted(
            ["0", "1", "01", "10", "011", "11", "101", "100"])

    def test_budget_respected(self, binary):
        k = r.sample_kernel(2, 1, 0.5, 8)
        seq = r.sample_sequence(k, 100_000, 9)
        vocab = r.train_lzw(seq, 64, binary)
        assert vocab.size == 64

    def test_prefix_closed_by_construction(self, binary):
        k = r.sample_kernel(2, 2, 0.5, 10)
        seq = r.sample_sequence(k, 100_000, 11)
        vocab = r.train_lzw(seq, 128, binary)
        entries = set(vocab.entries)
        for e in entries:
            for j in range(1, len(e)):
                assert e[:j] in entries


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_round_trip_random(seed):
    vocab, seq = random_vocab_and_seq(seed % 100_000)
    ts = r.greedy_parse(vocab, seq)
    assert np.array_equal(r.expand(vocab, ts), seq)
