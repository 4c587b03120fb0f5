"""The chunked runs of `sample_sequence` and `greedy_parse` against the
sequential loops they replace, bit for bit."""

import hashlib
from contextlib import contextmanager

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import recoding as r
import recoding.lockstep as lockstep
import recoding.sources as sources
from oracles import oracle_capped_stationary, oracle_parse_loop, oracle_sample_loop
from recoding.cli import main
from recoding.demo_text import synthesize_corpus
from recoding.rng import generator


@contextmanager
def chunk_length(length: int):
    """Cut every run's input into chunks of `length`, however few chunks
    that leaves."""
    saved = lockstep._MIN_CHUNKS, lockstep._first_length
    lockstep._MIN_CHUNKS = 1
    lockstep._first_length = lambda size, coupling: length
    try:
        yield
    finally:
        lockstep._MIN_CHUNKS, lockstep._first_length = saved


def lengths(n: int) -> list[int]:
    """The ends of the range, and chunks longer than a seam's first rerun
    slice, so that a repair can stop inside a chunk."""
    return sorted({1, 2, 19, max(n // 3, 1), max(n - 1, 1), n, n + 1})


def cycle_kernel(order: int) -> r.TransitionKernel:
    """The binary de Bruijn cycle through all 2^order contexts as a 0/1
    kernel: each context has one successor, so two chains that share
    uniforms never meet, though they often emit the same symbol."""
    states = 2**order
    # a de Bruijn sequence by the prefer-one rule; its windows are the cycle
    seq, seen = [0] * order, {0}
    while len(seen) < states:
        for y in (1, 0):
            code = (int("".join(map(str, seq[-order:])), 2) * 2 + y) % states
            if code not in seen:
                seq.append(y)
                seen.add(code)
                break
    seq += seq[:order]
    probs = np.zeros((states, 2))
    for t in range(states):
        code = int("".join(map(str, seq[t : t + order])), 2)
        probs[code, seq[t + order]] = 1.0
    return r.TransitionKernel(r.Alphabet.of_size(2), order, probs)


def dyadic_kernel(a: int, order: int, seed: int) -> r.TransitionKernel:
    """Rows of multiples of 1/16, so that every cumulative bound lies on
    the edge of a bucket of 16 or more, and many rows repeat a bound."""
    rng = generator(seed, 94)
    counts = rng.multinomial(16, np.full(a, 1 / a), size=a**order)
    return r.TransitionKernel(r.Alphabet.of_size(a), order, counts / 16)


def check_sample(kernel, n, seed, chunk_lengths=lengths):
    expected = oracle_sample_loop(kernel, n, seed)
    for length in chunk_lengths(n):
        with chunk_length(length):
            got = r.sample_sequence(kernel, n, seed)
        assert got.dtype == np.min_scalar_type(kernel.alphabet_size - 1)
        assert np.array_equal(got, expected), length


def check_parse(vocab, seq):
    expected = oracle_parse_loop(vocab, seq)
    for length in lengths(len(seq)):
        with chunk_length(length):
            got = r.greedy_parse(vocab, seq).ids
        assert got.dtype == np.min_scalar_type(vocab.size)
        assert np.array_equal(got, expected), length


class TestSampleMatchesLoop:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), a=st.integers(2, 4), order=st.integers(0, 3),
           alpha=st.sampled_from([0.1, 0.5, 2.0]), n=st.integers(1, 400))
    def test_random_kernels(self, seed, a, order, alpha, n):
        check_sample(r.sample_kernel(a, order, alpha, seed), n, seed)

    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 7, 64, 300])
    def test_chains_that_never_couple(self, order, n):
        check_sample(cycle_kernel(order), n, order)

    def test_alphabet_over_256_symbols(self):
        check_sample(r.sample_kernel(300, 1, 0.3, 2), 700, 2)

    def test_alphabet_of_256_symbols(self):
        """256 order-1 contexts fill a uint8, and the alphabet size is the
        one count past its range: the symbols are still each state mod A."""
        check_sample(r.sample_kernel(256, 1, 0.3, 3), 700, 3)

    @pytest.mark.parametrize("a, dtype", [(256, np.uint8), (257, np.uint16)])
    @pytest.mark.parametrize("order", [0, 1])
    def test_symbol_dtype_around_256(self, a, dtype, order):
        """Symbols come in the smallest unsigned dtype that holds A - 1."""
        kernel = r.sample_kernel(a, order, 0.3, a)
        assert r.sample_sequence(kernel, 10, 1).dtype == dtype
        check_sample(kernel, 700, 1)

    @pytest.mark.parametrize("order", [8, 9, 16, 17])
    def test_state_counts_around_dtype_limits(self, order):
        """2^8 and 2^16 contexts fill uint8 and uint16; one more order
        needs the next width.  Dirichlet(1) chains mix fast enough for
        power iteration at order 17."""
        check_sample(r.sample_kernel(2, order, 1.0, order), 3000, order)

    def test_sequential_path_reads_one_slice_at_a_time(self, monkeypatch):
        """A run too short for 32 chunks of the coupling length (4 * 2^6) is
        the sequential loop: it reads and runs its inputs 100 at a time, in
        order, and matches the loop bit for bit."""
        monkeypatch.setattr(lockstep, "_SLICE", 100)
        reads = []
        run_states = lockstep.run_states

        def logged_run_states(n, read, *args):
            def logged(pos, size):
                reads.append((pos, size))
                return read(pos, size)
            return run_states(n, logged, *args)

        monkeypatch.setattr(r.sources, "run_states", logged_run_states)
        kernel = r.sample_kernel(2, 6, 1.0, 6)
        n = 5050
        got = r.sample_sequence(kernel, n, 6)
        assert np.array_equal(got, oracle_sample_loop(kernel, n, 6))
        assert reads == [(pos, min(100, n - pos)) for pos in range(0, n, 100)]

    def test_lengthening_after_a_block_that_does_not_couple(self, monkeypatch):
        """Blocks of 4096 positions, chunks from 64: every seam of the
        cycle is rerun, so each block quadruples the chunk length."""
        monkeypatch.setattr(lockstep, "_BLOCK", 4096)
        monkeypatch.setattr(lockstep, "_MIN_CHUNKS", 1)
        kernel = cycle_kernel(3)
        seen = []
        run = lockstep._lockstep
        monkeypatch.setattr(lockstep, "_lockstep",
                            lambda *args: seen.append(args[4]) or run(*args))
        got = r.sample_sequence(kernel, 5 * 4096 + 3, 0)
        assert np.array_equal(got, oracle_sample_loop(kernel, 5 * 4096 + 3, 0))
        assert seen[:4] == [64, 256, 1024, 4096]


class TestWarmUp:
    """Every chunk but the first starts its runs min(coupling, length // 4)
    positions early; chunks of 4 or more positions have a warm-up."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), a=st.integers(2, 4), order=st.integers(1, 4),
           alpha=st.sampled_from([0.1, 0.5, 2.0]), n=st.integers(4, 600),
           length=st.integers(4, 64))
    def test_dirichlet_chains(self, seed, a, order, alpha, n, length):
        check_sample(r.sample_kernel(a, order, alpha, seed), n, seed, lambda n: [length])

    @pytest.mark.parametrize("order", [1, 3, 6])
    def test_chains_that_never_couple(self, order):
        check_sample(cycle_kernel(order), 2000, order, lambda n: [4, 5, 17, 64, 333])

    def test_warm_up_cuts_seam_reruns(self, monkeypatch):
        """The same block of an order-6 chain, 256 chunks of 256 positions,
        with and without the warm-up: the same states, and fewer positions
        rerun at the seams with it."""
        kernel = r.sample_kernel(2, 6, 0.4, 6)
        machine = {}

        def capture(n, read, state, advance, run, guesses, coupling, states):
            machine.update(advance=advance, run=run, guesses=guesses, coupling=coupling)
            return iter(())

        monkeypatch.setattr(sources, "run_states", capture)
        r.sample_sequence(kernel, 1, 6)
        us = generator(6, 95).random(2**16)
        length = 256
        runs = [lockstep._lockstep(lambda pos, size: us[pos : pos + size], 0, us.size, 0, length,
                                   machine["advance"], machine["run"], machine["guesses"],
                                   np.uint8, warm)
                for warm in (0, min(machine["coupling"], length // 4))]
        (cold, cold_rerun), (warm, warm_rerun) = runs
        assert np.array_equal(cold, warm)
        assert warm_rerun < cold_rerun


class TestGuideTable:
    """A lockstep sampling step reads each run's symbol off a guide table
    of B buckets per context; every B gives the sequential loop's draws."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), a=st.sampled_from([2, 3, 4, 16, 256, 300]),
           buckets=st.sampled_from([1, 2, 4, 16, 64, 1024]), dyadic=st.booleans())
    def test_table_counts_the_bounds_at_or_below_u(self, seed, a, buckets, dyadic):
        """At every bucket edge, every bound and the floats either side of
        each, the table's count is searchsorted's."""
        kernel = dyadic_kernel(a, 1, seed) if dyadic else r.sample_kernel(a, 1, 0.5, seed)
        cum = np.cumsum(kernel.probs, axis=1)
        cum[:, -1] = 1.0
        lo, inside = sources._guide_table(cum, buckets)
        edges = np.arange(buckets) / buckets
        for c in range(0, a, max(a // 16, 1)):
            us = np.concatenate([edges, cum[c, :-1]])
            us = np.concatenate([us, np.nextafter(us, 0), np.nextafter(us, 1)])
            us = us[(us >= 0) & (us < 1)]
            cell = c * buckets + (us * buckets).astype(np.int64)
            got = lo[cell] + sum((bound[cell] <= us).astype(np.int64) for bound in inside)
            assert np.array_equal(got, np.searchsorted(cum[c, :-1], us, side="right"))

    @pytest.mark.parametrize("buckets", [1, 2, 16, 128])
    @pytest.mark.parametrize("kernel", [
        dyadic_kernel(4, 2, 1), dyadic_kernel(16, 1, 2), dyadic_kernel(300, 1, 3),
        r.sample_kernel(3, 2, 0.5, 4), r.sample_kernel(16, 2, 0.5, 5),
    ], ids=["dyadic4", "dyadic16", "dyadic300", "dirichlet3", "dirichlet16"])
    def test_sample_with_each_bucket_count(self, monkeypatch, kernel, buckets):
        monkeypatch.setattr(sources, "_guide_buckets", lambda cum: buckets)
        check_sample(kernel, 700, buckets, lambda n: [19, 64])

    def test_bucket_count_read_off_the_kernel(self, monkeypatch):
        """Uniform rows over 16 symbols put every bound on an edge of 16
        buckets, so a step is the cell lookup alone; alphabets under 4
        symbols and a table over the cell budget keep one bucket."""
        uniform = np.cumsum(np.full((16, 16), 1 / 16), axis=1)
        assert sources._guide_buckets(uniform) == 16
        assert sources._guide_table(uniform, 16)[1] == []
        assert sources._guide_buckets(np.cumsum(np.full((4, 2), 1 / 2), axis=1)) == 1
        monkeypatch.setattr(sources, "_GUIDE_CELLS", 31)
        assert sources._guide_buckets(uniform) == 1


class TestParseMatchesLoop:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), a=st.integers(2, 4), n=st.integers(1, 400),
           size=st.integers(0, 30))
    def test_random_vocabularies(self, seed, a, n, size):
        rng = generator(seed, 98)
        train = rng.integers(0, a, size=int(rng.integers(2, 200)))
        alphabet = r.Alphabet.of_size(a)
        vocab = r.train_bpe(train, a + size, alphabet)
        seq = rng.integers(0, a, size=n).astype(np.int32)
        check_parse(vocab, seq)

    @pytest.mark.parametrize("n", [1, 2, 5, 64, 257, 1000])
    def test_all_equal(self, binary, n):
        vocab = r.train_bpe(np.ones(1000, dtype=np.int32), 12, binary)
        check_parse(vocab, np.ones(n, dtype=np.int32))

    def test_alphabet_over_256_symbols(self):
        rng = generator(1, 97)
        alphabet = r.Alphabet.of_size(300)
        words = [rng.integers(200, 300, size=int(rng.integers(1, 7))) for _ in range(30)]
        seq = np.concatenate([words[i] for i in rng.integers(0, 30, size=100)]).astype(np.int32)
        check_parse(r.PrefixVocabulary(alphabet, words), seq)

    @pytest.mark.parametrize("depth", [255, 256])
    def test_state_counts_around_dtype_limit(self, depth):
        """A unary trie of depth d is a table of d + 1 states: 256 fill a
        uint8, 257 need a uint16, and a run of zeros visits every one."""
        vocab = r.PrefixVocabulary(r.Alphabet.of_size(1), [np.zeros(depth, dtype=np.int32)])
        assert vocab.trans.size == depth + 1
        check_parse(vocab, np.zeros(1000, dtype=np.int32))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_text_vocabulary(self, seed):
        text = synthesize_corpus(60_000, seed)
        vocab = r.train_bpe(text, 1024)
        assert vocab.alphabet.size > 2
        seq = vocab.alphabet.encode(text)
        expected = oracle_parse_loop(vocab, seq)
        assert np.array_equal(r.greedy_parse(vocab, seq).ids, expected)
        for length in (1, 2, 255, len(seq) - 1, len(seq), len(seq) + 1):
            with chunk_length(length):
                assert np.array_equal(r.greedy_parse(vocab, seq).ids, expected), length


class TestCompactStates:
    @pytest.mark.parametrize("states, dtype", [(1, np.uint8), (256, np.uint8), (257, np.uint16),
                                               (2**16, np.uint16), (2**16 + 1, np.uint32)])
    def test_smallest_unsigned_dtype(self, states, dtype):
        """A counter mod `states` that steps down by 1 to 300, so that it
        wraps through the top states: every block comes in the smallest
        dtype that holds them, with the sequential loop's values."""
        rng = generator(states, 96)
        xs = rng.integers(states - 300, states, size=5000) % states
        expected = np.cumsum(xs) % states

        def advance(cur, x):
            return (cur + x) % states

        def run(state, part):
            out = []
            for x in part.tolist():
                state = (state + x) % states
                out.append(state)
            return out

        # coupling 1 warms each chunk up by one position, a huge one by a quarter
        for length in lengths(len(xs)):
            for coupling in (1, 10**6):
                with chunk_length(length):
                    blocks = list(lockstep.run_states(
                        len(xs), lambda pos, size: xs[pos : pos + size], 0, advance, run,
                        (0, states - 1), coupling, states))
                assert all(block.dtype == dtype for block in blocks)
                assert np.array_equal(np.concatenate(blocks), expected), (length, coupling)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# Recorded with the sequential loops, so every block size must reproduce
# them.  3 * 2^20 + 17 symbols fit in one block of 2^22, and cross three
# block seams at 2^20 (`test_block_seams`); order-12 seed 1 has stretches
# whose chains do not couple and parses that stay out of phase for long.
PINNED_N = 3 * 2**20 + 17
# (alphabet size, order, Dirichlet alpha, seed): digests of the sequence and
# of its BPE and LZW parses
PINNED = {
    (2, 12, 0.4, 0): (
        "7f4aee713ce5003b841ef8eeb02f5e72cddde37828c9024feff6dc8f1e3ed3e0",
        "4fac30dc7343bec187c6b46ccc35a64dd714d36e864c498ac5bc9aa9196af52a",
        "1f9af2d2aced3907c1e36f5d0c5306b16ebe7515e0ec530578187f035a82ee15",
    ),
    (2, 12, 0.4, 1): (
        "99ad2245e5b20b46f17cf06e1060f86924e675a99c5620f1457fd8f553fffeef",
        "4e34836a5304f198b9b98feb7adba0eb0d8ee7ff2fc04e19146e2cf8cc973a17",
        "8088965fedcb467351bbb1e588110273da93ef39b381a87539bd664990430f46",
    ),
    (2, 12, 0.4, 2): (
        "476eaf5039161b1aede41b92b2943b61c291d915b25210f9400bf7f10086e68c",
        "e7655a49c589b860c715d5d122168b999f5c79038ff4b30b2f9e6c02f3c0eb96",
        "1db94c6012386931f036501e2510b23b6aa4263c2d2c00e5f333c8cf5f320a22",
    ),
    (2, 6, 0.5, 3): (
        "d7e4b230c35eb17023789612cb3b375eee12a3dedd710f5ea1165f0d673707d3",
        "f03a93429e6945a55d5dea951af08e65356d8e79306e857a404c06059e798489",
        "41bfc3276a76f5f4d51f32580076ee7a8191f510fb07538dce01a24940a52075",
    ),
    (2, 2, 2.0, 4): (
        "3d721e3c82b53b31d59274724a1c73157f35ec14b340a745ed3b212f1295c980",
        "88e4e65173f98ba2bcb2869cbdd057d5e1899133db4114ab43cc9d1a96029553",
        "109e666fd2c795453080806e8a1a6d277bf2fe46cfcbbe5f64ef8d8317c15961",
    ),
    (3, 3, 0.5, 5): (
        "88ee755337e8a836953ff94496cdd7d8de7004e308a875abae04b8d412e52238",
        "96d790ce16b04faf1fb10a78bfb476e43c640e425c4dfdb01901bb1afc89c0e4",
        "6d24771b4644df654c65a1d64e232bd796633e3d8bb1ff7eb1bcf01873f6e250",
    ),
    (16, 2, 0.5, 6): (
        "ed357c29bf880df286e80852785dbee04d509642ab7a76701afa43638d848dba",
        "bace744f0ab1531441ad7a016ad969c0f8b893655b3250ddf5df830bbb2ac932",
        "8de1c7a177aa0f7ab0ac391189f566fce5e5d2aa1760a4ba27152e211b568966",
    ),
}
# Every file each command writes, from one small run each; the order-12
# runs are as long as PINNED's.  None reads an input file, so
# every byte, the config_hash footers included, is a function of the code.
_MARKOV12 = ["--alphabet-size", "2", "--order", "12", "--dirichlet-alpha", "0.4",
             "--n", str(PINNED_N), "--train-prefix", "200000"]
PINNED_ARTIFACTS = {
    "tok-train": ([*_MARKOV12, "--sizes", "4,8"], {
        "ratios.csv":
            "557faca5a4b59ddadd506584a0e20c36ed5e35bab3ffd0372e3bfb7c50c958cb",
        "vocab_seed0_V4.json":
            "d06e148f4013ca7f961c44e49508cca31f4942a5f5156ade28a230ecf8207a0d",
        "vocab_seed0_V8.json":
            "aceb749df5131bbd4d94d7e6169fc09d0a5a9a22719918fb16c14e39a8f640c9",
    }),
    "span-cdf": ([*_MARKOV12, "--sizes", "8", "--windows", "1,4,12"], {
        "slack.csv":
            "02f260476765c11c054553d8bd99bb1419cf5a57f6e056274774615284f65254",
        "spans_markov_k12_V8_w1.json":
            "fac184d94b01ebf17c42b7d8b40b467348cc3ebdc3933b8be82a9d8f34d4fce9",
        "spans_markov_k12_V8_w4.json":
            "a327c41ae060d30af38d8568b2a29d37eaf55e0a058b1ded0742fee4759b66c9",
        "spans_markov_k12_V8_w12.json":
            "45df2f1b712e66f5d917b667a3787bf299ee801f59ce7375538b215af22cb4fc",
    }),
    "gen-source": (["--n", "5000"], {
        "kernel_seed0.json":
            "bdb2af78e61e8717dd01dbbaebe4abb3ca949f9c9466c32c08990fef5355afc6",
        "sequence_seed0.bin":
            "1f27b86ae7ffac47f7fc52ab2c08f59ce690c181bc88e2fb4402dde39b446264",
        "sequence_seed0.bin.json":
            "b2f01721744f49adcf0254b144311bb0f2e51153c4cb3bab38ab21a6b1187a42",
    }),
    "frag-decompose": (["--pairs", "1:2,2:3", "--n", "50000"], {
        "decomposition.csv":
            "c6adfe8590be6e58bd4d4553d4a71a87e1e87050624b70ed6180ea67d505756a",
        "decomposition.json":
            "f8e533e5d81616ccb5fc40eea2184344a80f9d55feb8429e8e218716ec86b257",
    }),
    "transfer-check": (["--n", "50000", "--tokenizer", "identity", "--tokenizer", "lzw:16"], {
        "transfer.csv":
            "6766affc8195cd91dcb4bf075a356b3fbdb7b3deb4909907ee6c093443364047",
        "transfer_identity_w4_seed0.json":
            "72f64abdd78fe4413e8aece415521e992d0d5ca96c91a5f5a5b299fa7c44b042",
        "transfer_lzw16_w4_seed0.json":
            "60287febe70f8988a6256e36efa506b059b53a929fc3f680e26f81716678e949",
    }),
    "heavy-hitting": (["--n", "50000", "--budgets", "16,256"], {
        "heavy_hitting.csv":
            "0612a9e8d85917e28ccb9b9e896f3c556e1e07c560a40b89e223ede26cf0a3ff",
        "heavy_seed0_d16.json":
            "8b87026dc16811972869928903f87e04f077eaf6cb47832aa81d5b19f30e1b93",
        "heavy_seed0_d256.json":
            "71759ba59899a00fc85cedf43621c347e22f6cf66dfce7c6cbeb4b10e3be2ae5",
    }),
}


def check_pinned(source):
    a, order, alpha, seed = source
    seq_digest, bpe_digest, lzw_digest = PINNED[source]
    kernel = r.sample_kernel(a, order, alpha, seed)
    seq = r.sample_sequence(kernel, PINNED_N, seed)
    assert digest(seq.astype(np.int32).tobytes()) == seq_digest
    bpe, lzw = r.train_vocabularies(seq[:200_000], kernel.alphabet,
                                    [("bpe", a + 6), ("lzw", a + 30)])
    assert digest(r.greedy_parse(bpe, seq).ids.astype(np.int32).tobytes()) == bpe_digest
    assert digest(r.greedy_parse(lzw, seq).ids.astype(np.int32).tobytes()) == lzw_digest


class TestPinnedDigests:
    @pytest.mark.parametrize("source", sorted(PINNED))
    def test_sample_and_parse(self, source):
        check_pinned(source)

    def test_block_seams(self, monkeypatch):
        monkeypatch.setattr(lockstep, "_BLOCK", 2**20)
        check_pinned((2, 12, 0.4, 1))

    @pytest.mark.parametrize("command", sorted(PINNED_ARTIFACTS))
    def test_cli_artifacts(self, command, tmp_path):
        args, expected = PINNED_ARTIFACTS[command]
        result = CliRunner().invoke(main, [command, *args, "--seed", "0",
                                           "--output-dir", str(tmp_path)])
        assert result.exit_code == 0, result.output
        got = {path.name: digest(path.read_bytes()) for path in tmp_path.iterdir()}
        assert got == expected


def all_kernels():
    """Every kind of kernel the tests build, and order-12 Dirichlet(0.4)
    kernels, six of whose first twenty chains mix too slowly to converge."""
    binary = r.Alphabet.of_size(2)
    kernels = [
        r.TransitionKernel(binary, 1, np.array([[0.7, 0.3], [0.4, 0.6]])),
        r.TransitionKernel(binary, 1, np.full((2, 2), 0.5)),
        r.TransitionKernel(binary, 1, np.array([[0.0, 1.0], [1.0, 0.0]])),
        cycle_kernel(3),
        r.sample_kernel(300, 1, 0.3, 2),
    ]
    kernels += [r.sample_kernel(a, k, alpha, s) for s in range(3)
                for a, k, alpha in [(2, 0, 1.0), (3, 2, 0.5), (4, 1, 0.5), (2, 6, 0.5),
                                    (2, 2, 2.0), (16, 2, 0.5), (2, 3, 0.5)]]
    return kernels + [r.sample_kernel(2, 12, 0.4, s) for s in range(40)]


class TestStationaryStall:
    def test_same_path_and_law_as_the_capped_iteration(self):
        solved = []
        for kernel in all_kernels():
            expected_solved, expected_pi = oracle_capped_stationary(kernel)
            law = r.stationary_law(kernel)
            assert law.solved == expected_solved
            assert np.array_equal(law.pi, expected_pi)
            solved.append(law.solved)
        assert sum(solved) >= 6
