import os
import subprocess
import sys
import textwrap
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import recoding as r
from oracles import oracle_bpe_units, oracle_greedy_parse, oracle_lzw_units
from recoding.demo_text import synthesize_corpus
from recoding.rng import generator
from recoding.tokenizer import bpe_units, key_dtype, lzw_units, train_vocabularies


def unit_tuples(seq, target_size, alphabet_size, learn=bpe_units):
    """`bpe_units` (or `learn`) with each unit as a tuple of symbol indices."""
    dt = key_dtype(alphabet_size)
    return [tuple(np.frombuffer(u, dt).tolist())
            for u in learn(seq, target_size, alphabet_size)]


def oracle_ids(vocab, seq):
    """The slicing oracle's parse as entry ids, which index the sorted
    entries."""
    assert list(vocab.entries) == sorted(vocab.entries)
    index = {e: i for i, e in enumerate(vocab.entries)}
    return [index[t] for t in oracle_greedy_parse(set(vocab.entries), seq)]


def check_tables(vocab):
    """lengths, first_symbols, ext_mask and the trie table against
    `entries`: each entry's walk from the root ends at its node, id + 1."""
    entries = vocab.entries
    entry_set = set(entries)
    assert vocab.lengths.tolist() == [len(e) for e in entries]
    assert vocab.first_symbols.tolist() == [e[0] for e in entries]
    assert vocab.ext_mask.tolist() == [
        [e + (s,) in entry_set for s in range(vocab.alphabet.size)] for e in entries]
    nodes = []
    for e in entries:
        node = 0
        for sym in e:
            node = int(vocab.trans[node, sym])
        nodes.append(node)
    assert nodes == list(range(1, vocab.size + 1))


def entry_labels(vocab):
    return sorted(vocab.alphabet.decode(e) for e in vocab.entries)


def token_labels(vocab, ids):
    return [vocab.alphabet.decode(vocab.entries[i]) for i in ids]


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
        assert token_labels(fig_vocab, ts.ids) == ["010", "1", "1", "1", "010", "0"]

    def test_alphabet_only_vocab(self, binary):
        vocab = r.PrefixVocabulary(binary, [])
        ts = r.greedy_parse(vocab, "0110")
        assert token_labels(vocab, ts.ids) == ["0", "1", "1", "0"]

    def test_repeated_long_match(self, fig_vocab):
        ts = r.greedy_parse(fig_vocab, "010010")
        assert token_labels(fig_vocab, ts.ids) == ["010", "010"]

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
            assert r.greedy_parse(vocab, seq).ids.tolist() == oracle_ids(vocab, seq)
            check_tables(vocab)

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


class TestParseMatchesOracle:
    """Ids bit for bit against the slicing oracle where a trie walk can go
    wrong: keys wider than a byte, one long chain of nodes, the ends of
    the input, and a learned text vocabulary."""

    @staticmethod
    def check(vocab, seq):
        ids = r.greedy_parse(vocab, seq).ids
        assert ids.dtype == np.min_scalar_type(vocab.size)
        assert ids.tolist() == oracle_ids(vocab, seq)
        assert np.array_equal(r.expand(vocab, ids), seq)
        check_tables(vocab)

    def test_alphabet_over_256_symbols(self):
        rng = generator(0, 97)
        alphabet = r.Alphabet.of_size(300)
        words = [rng.integers(200, 300, size=int(rng.integers(1, 7))) for _ in range(30)]
        picks = rng.integers(0, len(words), size=800)
        seq = np.concatenate([words[i] for i in picks] + [np.arange(300)]).astype(np.int32)
        self.check(r.PrefixVocabulary(alphabet, words), seq)
        assert unit_tuples(seq, 360, 300) == oracle_bpe_units(seq, 360, 300)
        self.check(r.train_bpe(seq, 360, alphabet), seq)
        self.check(r.train_lzw(seq, 400, alphabet), seq)

    @pytest.mark.parametrize("size, dtype", [(255, np.uint8), (256, np.uint16)])
    def test_id_dtype_around_256(self, binary, size, dtype):
        """Every binary string of up to 7 symbols makes 254 entries, and
        one or two of 8 symbols 255 or 256.  The last id, that of
        11111111, plus 1 is its node: a uint8 holds it only for 255."""
        extra = ["11111111", "11111110"][: size - 254]
        vocab = r.PrefixVocabulary(binary, ["".join(s) for s in product("01", repeat=7)] + extra)
        assert vocab.size == size
        seq = np.concatenate([np.ones(8), generator(size, 95).integers(0, 2, size=3000)])
        seq = seq.astype(np.uint8)  # a parse starts with 11111111
        self.check(vocab, seq)
        ids = r.greedy_parse(vocab, seq).ids
        assert ids.dtype == dtype and ids.max() == size - 1
        # ids of a narrower dtype than a parse's are widened before they are read as nodes
        last = np.array([size - 1], dtype=np.uint8)
        assert r.expand(vocab, r.TokenSequence(vocab, last)).tolist() == [1] * 8

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 63, 64, 100, 1024, 1025])
    def test_all_equal(self, binary, n):
        seq = np.ones(n, dtype=np.int32)
        self.check(r.train_bpe(np.ones(max(n, 2), dtype=np.int32), 40, binary), seq)

    @pytest.mark.parametrize("seq", [[], [0], [1]])
    def test_empty_and_single_symbol(self, fig_vocab, seq):
        self.check(fig_vocab, np.array(seq, dtype=np.int32))

    def test_text_vocabulary(self):
        text = synthesize_corpus(20_000, 0)
        vocab = r.train_bpe(text[:10_000], 256)
        self.check(vocab, vocab.alphabet.encode(text))


class TestExpand:
    def test_unknown_token_id(self, fig_vocab):
        with pytest.raises(r.FormatError):
            r.expand(fig_vocab, [99])

    def test_empty(self, fig_vocab):
        assert len(r.expand(fig_vocab, [])) == 0


class TestOffsets:
    """`offsets` and `window_spans` against a per-token loop over entries."""

    def check(self, stream):
        vocab = stream.vocab
        want = [0]
        for tid in stream.ids.tolist():
            want.append(want[-1] + len(vocab.entries[tid]))
        assert stream.offsets.dtype == np.int64
        assert stream.offsets.tolist() == want
        assert r.compression_stats(stream)[0] == vocab.lengths[stream.ids].mean()
        m = len(stream)
        for w in sorted({1, 2, 4, 12, m, m + 1}):
            spans = [want[j + w] - want[j] for j in range(m - w + 1)]
            assert stream.window_spans(w).tolist() == spans

    def test_random_prefix_vocabularies(self):
        for seed in range(15):
            vocab, seq = random_vocab_and_seq(seed)
            stream = r.greedy_parse(vocab, seq)
            self.check(stream)
            assert stream.offsets[-1] == len(seq)

    def test_one_token_stream(self, fig_vocab):
        stream = r.greedy_parse(fig_vocab, "010")
        assert len(stream) == 1
        self.check(stream)
        assert stream.window_spans(1).tolist() == [3]
        with pytest.raises(r.ParameterError):
            stream.window_spans(0)


class TestExtSet:
    """Symbols by which a token can grow while staying in the vocabulary."""

    @staticmethod
    def ext_labels(vocab, label):
        eid = vocab.entries.index(tuple(vocab.alphabet.encode(label).tolist()))
        return {vocab.alphabet.symbols[a] for a in np.flatnonzero(vocab.ext_mask[eid])}

    def test_reference_values(self, fig_vocab):
        assert self.ext_labels(fig_vocab, "0") == {"1"}
        assert self.ext_labels(fig_vocab, "01") == {"0"}
        assert self.ext_labels(fig_vocab, "010") == set()
        assert self.ext_labels(fig_vocab, "1") == set()

    def test_alphabet_only(self, binary):
        vocab = r.PrefixVocabulary(binary, [])
        assert not vocab.ext_mask.any()

    def test_unknown_token(self, fig_vocab):
        # "11" has no node, and an id past the last entry names no token
        assert fig_vocab.trans[fig_vocab.trans[0, 1], 1] == 0
        with pytest.raises(r.FormatError):
            r.expand(fig_vocab, [fig_vocab.size])


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
            assert unit_tuples(seq, a + extra, a) == oracle_bpe_units(seq, a + extra, a)

    @settings(max_examples=200, deadline=None)
    @given(period=st.lists(st.integers(0, 3), min_size=1, max_size=7),
           reps=st.integers(1, 40), a=st.integers(1, 4), extra=st.integers(0, 60))
    def test_periodic(self, period, reps, a, extra):
        seq = np.array(period * reps, dtype=np.int32) % a
        if len(seq) >= 2:
            assert unit_tuples(seq, a + extra, a) == oracle_bpe_units(seq, a + extra, a)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 63, 64, 100, 1025])
    def test_all_equal_until_one_unit(self, n):
        seq = np.zeros(n, dtype=np.int32)
        units = unit_tuples(seq, 40, 1)
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
            assert unit_tuples(seq, v, 2) == oracle_bpe_units(seq, v, 2)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_text_corpus(self, seed):
        text = synthesize_corpus(60_000, seed)
        alphabet = r.Alphabet.from_text(text)
        seq = alphabet.encode(text)
        units = oracle_bpe_units(seq, 1024, alphabet.size)
        assert unit_tuples(seq, 1024, alphabet.size) == units
        assert r.train_bpe(text, 1024).entries == r.PrefixVocabulary(alphabet, units).entries

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_input_left_unwritten(self, binary, dtype):
        seq = r.sample_sequence(r.sample_kernel(2, 2, 0.5, 3), 5000, 3).astype(dtype)
        before = seq.copy()
        r.train_bpe(seq, 24, binary)
        assert np.array_equal(seq, before)


class TestVocabularyMemory:
    def test_doubling_units_in_bounded_memory(self):
        """Seed 1's order-12 Dirichlet(0.4) sample is all 1s, so its BPE
        units double up to 65,536 symbols, whose prefixes hold ~2e9
        symbols.  The child process runs under a 2 GB address-space cap,
        so storing prefixes fails there rather than exhausting the
        machine."""
        code = textwrap.dedent("""
            import resource
            _, hard = resource.getrlimit(resource.RLIMIT_AS)
            cap = 2 << 30 if hard == resource.RLIM_INFINITY else min(2 << 30, hard)
            resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
            import numpy as np
            import recoding as r
            seq = r.sample_sequence(r.sample_kernel(2, 12, 0.4, 1), 200_000, 1)
            vocab = r.train_bpe(seq, 20, r.Alphabet.of_size(2))
            assert vocab.lengths.max() == 65536
            ids = r.greedy_parse(vocab, seq).ids
            assert np.array_equal(r.expand(vocab, ids), seq)
            ends = np.cumsum(vocab.lengths[ids])[:-1]
            assert not vocab.ext_mask[ids[:-1], seq[ends]].any()  # greedy maximality
        """)
        src = os.path.dirname(os.path.dirname(r.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr[-3000:]

    def test_build_holds_no_prefix(self):
        """The V=4096 text vocabulary's entries hold 82.5M symbols in all;
        its trie has 15,708 nodes."""
        text = synthesize_corpus(20_000, 0)
        alphabet = r.Alphabet.from_text(text)
        units = bpe_units(alphabet.encode(text), 4096, alphabet.size)
        tracemalloc.start()
        try:
            vocab = r.PrefixVocabulary(alphabet, units)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert vocab.size == 15_708
        assert int(vocab.lengths.sum()) > 80_000_000
        assert peak < 50 * 2**20


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



@st.composite
def training_runs(draw):
    """An alphabet of 1-300 symbols, a sequence over a few of its symbols
    (all equal in about half the draws) and sizes from |A| up, |A| among
    them."""
    a = draw(st.integers(1, 300))
    used = draw(st.lists(st.integers(0, a - 1), min_size=1, max_size=6))
    if draw(st.booleans()):
        used = used[:1]
    seq = np.array(draw(st.lists(st.sampled_from(used), min_size=2, max_size=300)),
                   dtype=np.int32)
    sizes = draw(st.permutations(draw(st.lists(st.integers(a, a + 80), max_size=4)) + [a]))
    return r.Alphabet.of_size(a), seq, sizes


class TestPrefixProperty:
    """Every size's units are a prefix of one training at the largest size,
    so `train_vocabularies` slices one training per method: the slices
    against separate oracle trainings, and the sliced vocabularies against
    `train_bpe`/`train_lzw` at each size."""

    @staticmethod
    def check(method, oracle, train_one, alphabet, seq, sizes):
        a = alphabet.size
        units = unit_tuples(seq, max(sizes), a, {"bpe": bpe_units, "lzw": lzw_units}[method])
        for size in sizes:
            assert units[:size] == oracle(seq, size, a)
        vocabs = train_vocabularies(seq, alphabet, [(method, size) for size in sizes])
        for size, vocab in zip(sizes, vocabs):
            assert vocab.entries == train_one(seq, size, alphabet).entries

    @settings(max_examples=150, deadline=None)
    @given(training_runs())
    def test_bpe(self, run):
        self.check("bpe", oracle_bpe_units, r.train_bpe, *run)

    @settings(max_examples=150, deadline=None)
    @given(training_runs())
    def test_lzw(self, run):
        self.check("lzw", oracle_lzw_units, r.train_lzw, *run)

    def test_one_training_serves_both_methods_in_request_order(self):
        seq = r.sample_sequence(r.sample_kernel(2, 3, 0.5, 4), 20_000, 4)
        requests = [("lzw", 64), ("bpe", 8), ("bpe", 2), ("lzw", 16), ("bpe", 20)]
        vocabs = train_vocabularies(seq, r.Alphabet.of_size(2), requests)
        for (method, size), vocab in zip(requests, vocabs):
            train_one = r.train_bpe if method == "bpe" else r.train_lzw
            assert vocab.entries == train_one(seq, size, r.Alphabet.of_size(2)).entries

    @pytest.mark.parametrize("method", ["bpe", "lzw"])
    def test_size_below_alphabet_names_both(self, method):
        with pytest.raises(r.ParameterError, match="size 3 is below the alphabet size 4"):
            train_vocabularies([0, 1, 2, 3], r.Alphabet.of_size(4), [(method, 8), (method, 3)])

    def test_alphabet_size_trains_nothing(self, binary):
        (vocab,) = train_vocabularies([1], binary, [("bpe", 2)])
        assert vocab.entries == ((0,), (1,))

@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_round_trip_random(seed):
    vocab, seq = random_vocab_and_seq(seed % 100_000)
    ts = r.greedy_parse(vocab, seq)
    assert np.array_equal(r.expand(vocab, ts), seq)
