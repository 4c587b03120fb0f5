import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import recoding as r
from oracles import oracle_fragmentation, oracle_row_ids
from recoding.fragmentation import _row_ids
from recoding.rng import generator


@pytest.fixture(scope="module")
def four_symbols():
    return r.Alphabet(("a", "b", "c", "d"))


@pytest.fixture(scope="module")
def two_bit_map(four_symbols):
    return r.make_map(four_symbols, r.Alphabet.of_size(2), 2,
                      ["00", "01", "10", "11"])


def wide_instance(seed, src_size=3, frag_size=36, block=6, order=1):
    """Kernel and map with random distinct codewords; at the defaults a
    w = 3 fragment row has 36**24 > 2**63 values."""
    rng = generator(seed, 96)
    kernel = r.sample_kernel(src_size, order, 0.5, seed)
    words = []
    while len(words) < src_size:
        word = rng.integers(0, frag_size, size=block)
        if not any(np.array_equal(word, v) for v in words):
            words.append(word)
    return kernel, r.make_map(kernel.alphabet, r.Alphabet.of_size(frag_size), block, words)


def long_word_map(src_alphabet):
    """Three 40-fragment codewords over 36 symbols: any base-36 packing of
    a block into 64 bits gives one of its end columns weight 0 (mod 2**64),
    since 36**39 is a multiple of 2**64."""
    words = ["0" * 40, "z" + "0" * 39, "0" * 39 + "z"]
    return r.make_map(src_alphabet, r.Alphabet.of_size(36), 40, words)


def random_instance(seed):
    """Seeded small instance: kernel, map, and window length."""
    rng = generator(seed, 99)
    order = int(rng.integers(0, 3))
    block = int(rng.integers(1, 4))
    frag_size = 2
    max_src = min(4, frag_size**block)
    src_size = int(rng.integers(2, max_src + 1))
    w = int(rng.integers(0, 4))
    kernel = r.sample_kernel(src_size, order, 0.5, seed)
    # random injective codewords
    all_words = [tuple(int(b) for b in np.binary_repr(i, block)) for i in range(2**block)]
    chosen = rng.permutation(len(all_words))[:src_size]
    words = [all_words[i] for i in chosen]
    fmap = r.make_map(kernel.alphabet, r.Alphabet.of_size(frag_size), block, words)
    return kernel, fmap, w


class TestMakeMap:
    def test_named_code(self, two_bit_map, four_symbols):
        assert two_bit_map.codebook[four_symbols.encode("ad")].tolist() == [[0, 0], [1, 1]]

    def test_relabeling_block_one(self, four_symbols):
        fmap = r.make_map(four_symbols, r.Alphabet.of_size(4), 1)
        assert fmap.block_length == 1

    def test_duplicate_codeword_rejected(self, four_symbols):
        with pytest.raises(r.InjectivityError):
            r.make_map(four_symbols, r.Alphabet.of_size(2), 2,
                       ["00", "00", "10", "11"])

    def test_wrong_length_rejected(self, four_symbols):
        with pytest.raises(r.FormatError):
            r.make_map(four_symbols, r.Alphabet.of_size(2), 2,
                       ["00", "01", "1", "11"])

    def test_alphabet_too_large(self):
        with pytest.raises(r.ParameterError):
            r.make_map(r.Alphabet.of_size(5), r.Alphabet.of_size(2), 2)


class TestFragment:
    def test_section_example(self, two_bit_map):
        x = r.fragment(two_bit_map, "db")
        assert two_bit_map.fragment_alphabet.decode(x) == "1101"

    def test_empty(self, two_bit_map):
        assert len(r.fragment(two_bit_map, "")) == 0

    def test_roundtrip_random(self, two_bit_map):
        rng = generator(0, 98)
        y = rng.integers(0, 4, size=1000).astype(np.int32)
        assert np.array_equal(r.defragment(two_bit_map, r.fragment(two_bit_map, y)), y)

    def test_unknown_symbol(self, two_bit_map):
        with pytest.raises(r.AlphabetError):
            r.fragment(two_bit_map, "abe")

    def test_roundtrip_wide_map(self):
        _, fmap = wide_instance(4)
        y = generator(4, 98).integers(0, 3, size=500).astype(np.int32)
        assert np.array_equal(r.defragment(fmap, r.fragment(fmap, y)), y)

    def test_roundtrip_long_codewords(self):
        fmap = long_word_map(r.Alphabet.of_size(3))
        y = np.array([0, 1, 2, 2, 1, 0], dtype=np.int32)
        assert np.array_equal(r.defragment(fmap, r.fragment(fmap, y)), y)

    def test_first_bad_block_named(self):
        fmap = r.make_map(r.Alphabet.of_size(3), r.Alphabet.of_size(2), 2, ["00", "01", "10"])
        with pytest.raises(r.AlphabetError, match=r"block \(1, 1\) is not a codeword"):
            r.defragment(fmap, "0110110011")


class TestRowIds:
    """Rows packed into integer codes against a sort of their raw bytes."""

    @staticmethod
    def check(rows: np.ndarray, base: int):
        ids, n_ids = _row_ids(rows, base)
        want, n_want = oracle_row_ids(rows.astype(np.uint8 if base <= 256 else np.uint16))
        assert n_ids == n_want
        # the same partition: as many (id, oracle id) pairs as groups
        assert len(set(zip(ids.tolist(), want.tolist()))) == n_ids
        assert set(ids.tolist()) == set(range(n_ids))
        if base <= 256:  # one byte a digit: byte order is digit order
            assert np.array_equal(ids, want)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 10**6), base=st.sampled_from([2, 3, 256, 300]),
           width=st.integers(0, 70), n=st.integers(1, 60))
    def test_same_groups_as_byte_sort(self, seed, base, width, n):
        """Near-duplicate rows: each differs from a common row in at most
        one column.  300^8 > 2^62, so wide rows are ranked part-way."""
        rng = generator(seed, 95)
        protos = np.repeat(rng.integers(0, base, size=(1, width)), 8, axis=0)
        for row in protos[1:]:
            if width:
                row[rng.integers(0, width)] = rng.integers(0, base)
        self.check(protos[rng.integers(0, len(protos), size=n)], base)

    @pytest.mark.parametrize("base, width", [(2, 70), (300, 9)])
    def test_rows_that_differ_past_the_code_limit(self, base, width):
        """Rows that differ only in their first or last column, wider than
        one int64 code holds."""
        rows = np.zeros((5, width), dtype=np.int64)
        rows[1, -1] = rows[2, 0] = rows[4, -1] = 1
        self.check(rows, base)
        assert _row_ids(rows, base)[1] == 3


class TestExactLosses:
    def test_uniform_iid_no_gap(self):
        k = r.TransitionKernel(r.Alphabet.of_size(4), 0, np.full((1, 4), 0.25))
        fmap = r.make_map(k.alphabet, r.Alphabet.of_size(2), 2)
        rep = r.decompose(k, fmap, 2)
        assert rep.fragmented_loss == pytest.approx(2.0, abs=1e-12)
        assert rep.gap == pytest.approx(0.0, abs=1e-12)

    def test_block_one_identity(self):
        k = r.sample_kernel(4, 1, 0.5, 3)
        fmap = r.make_map(k.alphabet, r.Alphabet.of_size(4), 1)
        for w in (0, 1, 2):
            rep = r.decompose(k, fmap, w)
            assert rep.fragmented_loss == pytest.approx(rep.source_loss, abs=1e-12)
            assert rep.phase_ambiguity == pytest.approx(0.0, abs=1e-12)
            assert rep.context_deficit == pytest.approx(0.0, abs=1e-12)

    def test_golden_w2(self, golden):
        g = golden["frag_y4_k1_seed0_w2"]
        k = r.sample_kernel(4, 1, 0.5, 0)
        fmap = r.make_map(k.alphabet, r.Alphabet.of_size(2), 2)
        assert r.decompose(k, fmap, 2).fragmented_loss == pytest.approx(
            g["fragmented_loss"], abs=1e-9)

    def test_golden_ambiguity_w1(self, golden):
        g = golden["frag_y4_k1_seed0_w1"]
        k = r.sample_kernel(4, 1, 0.5, 0)
        fmap = r.make_map(k.alphabet, r.Alphabet.of_size(2), 2)
        assert r.decompose(k, fmap, 1).phase_ambiguity == pytest.approx(
            g["phase_ambiguity"], abs=1e-9)
        assert g["phase_ambiguity"] > 0

    def test_golden_deficit_short_window(self, golden):
        g = golden["frag_y4_k2_seed1_w1"]
        k = r.sample_kernel(4, 2, 0.5, 1)
        fmap = r.make_map(k.alphabet, r.Alphabet.of_size(2), 2)
        assert r.decompose(k, fmap, 1).context_deficit == pytest.approx(
            g["context_deficit"], abs=1e-9)
        assert g["context_deficit"] > 0

    def test_deficit_vanishes_beyond_order(self):
        for seed in range(3):
            k = r.sample_kernel(4, 1, 0.5, seed)
            fmap = r.make_map(k.alphabet, r.Alphabet.of_size(2), 2)
            for w in (2, 3):
                assert r.decompose(k, fmap, w).context_deficit < 1e-12

    def test_block_one_zero_terms(self):
        k = r.sample_kernel(3, 1, 0.5, 5)
        fmap = r.make_map(k.alphabet, r.Alphabet.of_size(3), 1)
        rep = r.decompose(k, fmap, 2)
        assert rep.phase_ambiguity == pytest.approx(0.0, abs=1e-12)
        assert rep.context_deficit == pytest.approx(0.0, abs=1e-12)

    def test_capacity_error(self):
        k = r.sample_kernel(4, 1, 0.5, 6)
        fmap = r.make_map(k.alphabet, r.Alphabet.of_size(2), 2)
        with pytest.raises(r.CapacityError):
            r.decompose(k, fmap, 40)


class TestDecomposition:
    @pytest.mark.parametrize("seed", range(50))
    def test_identity_on_random_instances(self, seed):
        kernel, fmap, w = random_instance(seed)
        rep = r.decompose(kernel, fmap, w)
        assert rep.gap == pytest.approx(
            rep.context_deficit + rep.phase_ambiguity, abs=1e-9)
        assert rep.context_deficit >= -1e-12
        assert rep.phase_ambiguity >= -1e-12
        assert rep.fragmented_loss >= rep.source_loss - 1e-12
        if w > kernel.order:
            assert rep.context_deficit < 1e-12

    @pytest.mark.parametrize("seed", range(8))
    def test_oracle_equivalence(self, seed):
        check_oracle(*random_instance(seed))

    @pytest.mark.parametrize("seed", range(4))
    def test_oracle_equivalence_wide_alphabet(self, seed):
        kernel, fmap = wide_instance(seed)
        for w in (0, 1, 3):
            check_oracle(kernel, fmap, w)

    @pytest.mark.parametrize("seed", range(6))
    def test_oracle_equivalence_custom_codebook(self, seed):
        rng = generator(seed, 95)
        frag_size = int(rng.integers(3, 6))
        block = int(rng.integers(1, 4))
        src_size = int(rng.integers(2, min(5, frag_size**block) + 1))
        order = int(rng.integers(0, 3))
        kernel, fmap = wide_instance(seed, src_size, frag_size, block, order)
        check_oracle(kernel, fmap, int(rng.integers(0, 3)))

    def test_oracle_equivalence_long_codewords(self):
        kernel = r.sample_kernel(3, 1, 0.5, 2)
        check_oracle(kernel, long_word_map(kernel.alphabet), 1)

    def test_oracle_equivalence_alphabet_above_256(self):
        # fragments 256 and 0 agree in their low byte
        kernel = r.sample_kernel(3, 1, 0.5, 1)
        words = [np.array([256, 1]), np.array([0, 1]), np.array([299, 3])]
        fmap = r.make_map(kernel.alphabet, r.Alphabet.of_size(300), 2, words)
        check_oracle(kernel, fmap, 2)

    def test_oracle_equivalence_sixteen_symbols(self):
        kernel = r.sample_kernel(16, 1, 0.5, 7)
        check_oracle(kernel, r.make_map(kernel.alphabet, r.Alphabet.of_size(2), 4), 3)


def check_oracle(kernel, fmap, w):
    """Every term of decompose against the oracle."""
    rep = r.decompose(kernel, fmap, w)
    ref = oracle_fragmentation(kernel, fmap, w)
    assert rep.fragmented_loss == pytest.approx(ref["fragmented_loss"], abs=1e-9)
    assert rep.phase_ambiguity == pytest.approx(ref["phase_ambiguity"], abs=1e-9)
    assert rep.context_deficit == pytest.approx(ref["context_deficit"], abs=1e-9)
    assert rep.source_loss == pytest.approx(ref["source_loss"], abs=1e-9)


class TestEmpiricalLoss:
    def test_converges_with_n(self):
        k = r.sample_kernel(4, 1, 0.5, 0)
        fmap = r.make_map(k.alphabet, r.Alphabet.of_size(2), 2)
        exact = r.decompose(k, fmap, 2).fragmented_loss
        tolerances = {10**4: 0.15, 10**5: 0.05, 5 * 10**5: 0.02}
        seq = r.sample_sequence(k, 5 * 10**5, 1)
        for n, tol in tolerances.items():
            emp = r.empirical_fragmented_loss(fmap, seq[:n], 2, 0.5)
            assert abs(emp - exact) < tol

    def test_deterministic_source_zero_loss(self):
        # codes 01/10 make every fragment window phase-resolving, so the
        # fragmented stream is deterministic too
        cycle = r.TransitionKernel(
            r.Alphabet.of_size(2), 1, np.array([[0.0, 1.0], [1.0, 0.0]]))
        fmap = r.make_map(cycle.alphabet, r.Alphabet.of_size(2), 2, ["01", "10"])
        assert r.decompose(cycle, fmap, 1).fragmented_loss == pytest.approx(0.0, abs=1e-12)
        seq = r.sample_sequence(cycle, 50_000, 2)
        assert r.empirical_fragmented_loss(fmap, seq, 1, 0.5) < 0.01

    def test_deterministic_source_aliased_code_matches_exact(self):
        # the index code hides the phase, so even a deterministic source
        # keeps a strictly positive fragmented loss
        cycle = r.TransitionKernel(
            r.Alphabet.of_size(4), 1, np.roll(np.eye(4), 1, axis=1))
        fmap = r.make_map(cycle.alphabet, r.Alphabet.of_size(2), 2)
        exact = r.decompose(cycle, fmap, 1).fragmented_loss
        assert exact > 0.1
        seq = r.sample_sequence(cycle, 50_000, 2)
        emp = r.empirical_fragmented_loss(fmap, seq, 1, 0.5)
        assert emp == pytest.approx(exact, abs=0.02)

    def test_iid_uniform_loss(self):
        k = r.TransitionKernel(r.Alphabet.of_size(4), 0, np.full((1, 4), 0.25))
        fmap = r.make_map(k.alphabet, r.Alphabet.of_size(2), 2)
        seq = r.sample_sequence(k, 100_000, 3)
        assert r.empirical_fragmented_loss(fmap, seq, 1, 0.5) == pytest.approx(2.0, abs=0.01)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_fragment_defragment_roundtrip(seed):
    kernel, fmap, _ = random_instance(seed % 1000)
    rng = generator(seed, 97)
    y = rng.integers(0, fmap.source_alphabet.size, size=200).astype(np.int32)
    assert np.array_equal(r.defragment(fmap, r.fragment(fmap, y)), y)
