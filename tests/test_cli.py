import json
import warnings
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner

import recoding as r
import recoding.cli as cli
import recoding.fragmentation as fragmentation
import recoding.tokenizer as tokenizer
from recoding.cli import main
from recoding.demo_text import synthesize_corpus


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture()
def runner():
    return CliRunner()


def read_csv(path):
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:] if not ln.startswith("#")]
    footer = [ln for ln in lines if ln.startswith("#")]
    return header, rows, footer


class TestGenSource:
    def test_writes_kernel_and_sequence(self, runner, tmp_path):
        result = runner.invoke(main, [
            "gen-source", "--alphabet-size", "2", "--order", "1",
            "--dirichlet-alpha", "0.5", "--n", "1000", "--seed", "0",
            "--output-dir", str(tmp_path)])
        assert result.exit_code == 0, result.output
        kernel = r.TransitionKernel.load(tmp_path / "kernel_seed0.json")
        assert kernel.order == 1
        seq, alphabet = r.read_sequence(tmp_path / "sequence_seed0.bin")
        assert len(seq) == 1000

    def test_bad_params_exit_2(self, runner, tmp_path):
        result = runner.invoke(main, [
            "gen-source", "--dirichlet-alpha", "-1", "--output-dir", str(tmp_path)])
        assert result.exit_code == 2

    def test_capacity_error_exit_3(self, runner, tmp_path):
        # an order-27 binary kernel has 2**28 entries: refused before any draw
        result = runner.invoke(main, [
            "gen-source", "--order", "27", "--n", "10", "--output-dir", str(tmp_path)])
        assert result.exit_code == 3
        assert "capacity error" in result.output and "268435456 entries" in result.output
        assert list(tmp_path.iterdir()) == []


class TestFragDecompose:
    def test_small_sweep(self, runner, tmp_path):
        result = runner.invoke(main, [
            "frag-decompose", "--pairs", "1:2", "--seed", "0", "--seed", "1",
            "--n", "20000", "--output-dir", str(tmp_path)])
        assert result.exit_code == 0, result.output
        header, rows, footer = read_csv(tmp_path / "decomposition.csv")
        assert header[:4] == ["k", "M", "seed", "w"]
        assert len(rows) == 4  # 2 seeds x 2 window lengths
        assert any("config_hash=" in ln for ln in footer)
        reports = json.loads((tmp_path / "decomposition.json").read_text())
        assert len(reports) == 4

    def test_m1_rows_zero_penalty(self, runner, tmp_path):
        result = runner.invoke(main, [
            "frag-decompose", "--pairs", "1:1", "--seed", "0",
            "--n", "5000", "--output-dir", str(tmp_path)])
        assert result.exit_code == 0, result.output
        _, rows, _ = read_csv(tmp_path / "decomposition.csv")
        for row in rows:
            assert abs(float(row[8])) < 1e-9  # exact_gap_bits

    def test_matches_golden_fixture(self, runner, tmp_path, golden):
        # the (k, M) = (1, 2) seed-0 instance is frozen from the oracle
        result = runner.invoke(main, [
            "frag-decompose", "--pairs", "1:2", "--seed", "0",
            "--n", "5000", "--output-dir", str(tmp_path)])
        assert result.exit_code == 0, result.output
        _, rows, _ = read_csv(tmp_path / "decomposition.csv")
        by_w = {int(row[3]): row for row in rows}
        for w in (1, 2):
            g = golden[f"frag_y4_k1_seed0_w{w}"]
            assert float(by_w[w][5]) == pytest.approx(g["fragmented_loss"], abs=1e-9)
            assert float(by_w[w][6]) == pytest.approx(g["context_deficit"], abs=1e-9)
            assert float(by_w[w][7]) == pytest.approx(g["phase_ambiguity"], abs=1e-9)

    def test_fragments_each_sequence_once(self, runner, tmp_path, monkeypatch):
        """One fragmentation per (pair, seed) serves both windows."""
        calls = []
        original = fragmentation.fragment

        def counted(fmap, seq):
            calls.append(len(seq))
            return original(fmap, seq)

        monkeypatch.setattr(fragmentation, "fragment", counted)
        monkeypatch.setattr(cli, "fragment", counted)
        result = runner.invoke(main, [
            "frag-decompose", "--pairs", "1:2,2:2", "--seed", "0", "--seed", "1",
            "--n", "5000", "--output-dir", str(tmp_path)])
        assert result.exit_code == 0, result.output
        assert calls == [5000] * 4
        _, rows, _ = read_csv(tmp_path / "decomposition.csv")
        assert len(rows) == 8

    def test_byte_identical_reruns(self, runner, tmp_path):
        args = ["frag-decompose", "--pairs", "1:2", "--seed", "0",
                "--n", "10000"]
        for sub in ("a", "b"):
            out = tmp_path / sub
            res = runner.invoke(main, args + ["--output-dir", str(out)])
            assert res.exit_code == 0, res.output
        assert (tmp_path / "a/decomposition.csv").read_bytes() == \
            (tmp_path / "b/decomposition.csv").read_bytes()
        assert (tmp_path / "a/decomposition.json").read_bytes() == \
            (tmp_path / "b/decomposition.json").read_bytes()


class TestTokTrain:
    def test_ratio_table(self, runner, tmp_path):
        result = runner.invoke(main, [
            "tok-train", "--order", "3", "--dirichlet-alpha", "0.5",
            "--n", "50000", "--train-prefix", "20000",
            "--sizes", "2,4,8", "--seed", "0", "--output-dir", str(tmp_path)])
        assert result.exit_code == 0, result.output
        header, rows, _ = read_csv(tmp_path / "ratios.csv")
        assert header == ["seed", "V", "entries", "tokens", "ratio"]
        by_v = {int(row[1]): float(row[4]) for row in rows}
        assert by_v[2] == 1.0  # no merges: every symbol is a token
        assert by_v[8] > by_v[4] > by_v[2]
        assert (tmp_path / "vocab_seed0_V8.json").exists()

    def test_vocab_files_load(self, runner, tmp_path):
        result = runner.invoke(main, [
            "tok-train", "--order", "1", "--n", "20000", "--train-prefix", "10000",
            "--sizes", "4", "--seed", "1", "--output-dir", str(tmp_path)])
        assert result.exit_code == 0, result.output
        vocab = r.PrefixVocabulary.load(tmp_path / "vocab_seed1_V4.json")
        entries = set(vocab.entries)
        for e in entries:
            for j in range(1, len(e)):
                assert e[:j] in entries


class TestSpanCdf:
    def test_synthetic_sweep(self, runner, tmp_path):
        result = runner.invoke(main, [
            "span-cdf", "--order", "2", "--dirichlet-alpha", "0.5", "--n", "50000",
            "--sizes", "2,6", "--train-prefix", "20000", "--windows", "2,4",
            "--output-dir", str(tmp_path)])
        assert result.exit_code == 0, result.output
        header, rows, _ = read_csv(tmp_path / "slack.csv")
        assert header == ["corpus", "tokenizer", "w", "w_s", "epsilon", "rate", "slack_bits"]
        # identity tokenizer rows: epsilon jumps 0 -> 1 at w_s = w + 1
        ident = [row for row in rows if row[1] == "V2" and row[2] == "2"]
        eps_by_ws = {int(row[3]): float(row[4]) for row in ident}
        assert eps_by_ws[2] == 0.0
        assert eps_by_ws[3] == 1.0
        assert (tmp_path / "spans_markov_k2_V6_w4.json").exists()

    def test_text_corpus(self, runner, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(synthesize_corpus(30_000, seed=1))
        result = runner.invoke(main, [
            "span-cdf", "--text", str(corpus), "--sizes", "64",
            "--train-prefix", "20000", "--windows", "4",
            "--output-dir", str(tmp_path)])
        assert result.exit_code == 0, result.output
        _, rows, _ = read_csv(tmp_path / "slack.csv")
        assert rows, "expected slack rows for the text corpus"

    def test_missing_text_exit_2(self, runner, tmp_path):
        result = runner.invoke(main, [
            "span-cdf", "--text", str(tmp_path / "nope.txt"),
            "--output-dir", str(tmp_path)])
        assert result.exit_code == 2

    def test_vocab_copies_give_identical_artifacts(self, runner, tmp_path):
        # the config hash covers a vocabulary file's content, not its path
        vocab = r.PrefixVocabulary(r.Alphabet.of_size(2), ["010", "11"])
        outputs = []
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            vocab.save(tmp_path / name / "vocab.json")
            outputs.append(tmp_path / name / "out")
            result = runner.invoke(main, [
                "span-cdf", "--order", "1", "--n", "20000",
                "--vocab", str(tmp_path / name / "vocab.json"),
                "--windows", "2", "--output-dir", str(outputs[-1])])
            assert result.exit_code == 0, result.output
        first, second = ({p.name: p.read_bytes() for p in out.iterdir()} for out in outputs)
        assert sorted(first) == ["slack.csv", "spans_markov_k1_vocab_w2.json"]
        assert first == second

        r.PrefixVocabulary(r.Alphabet.of_size(2), ["011"]).save(tmp_path / "a" / "vocab.json")
        result = runner.invoke(main, [
            "span-cdf", "--order", "1", "--n", "20000",
            "--vocab", str(tmp_path / "a" / "vocab.json"),
            "--windows", "2", "--output-dir", str(tmp_path / "other")])
        assert result.exit_code == 0, result.output
        footer = read_csv(tmp_path / "other" / "slack.csv")[2]
        assert footer[0] != read_csv(outputs[0] / "slack.csv")[2][0]


class TestTransferCheck:
    def test_identity_and_lzw(self, runner, tmp_path):
        result = runner.invoke(main, [
            "transfer-check", "--order", "2", "--n", "50000",
            "--tokenizer", "identity", "--tokenizer", "lzw:64",
            "--window", "2", "--output-dir", str(tmp_path)])
        assert result.exit_code == 0, result.output
        header, rows, _ = read_csv(tmp_path / "transfer.csv")
        assert "typical_bound_bits" in header
        files = sorted(p.name for p in tmp_path.glob("transfer_*.json"))
        assert len(files) == 2
        rep = json.loads((tmp_path / files[0]).read_text())
        assert "bound_2log_1_over_lambda" in rep

    def test_unknown_tokenizer_exit_2(self, runner, tmp_path):
        result = runner.invoke(main, [
            "transfer-check", "--tokenizer", "magic:3", "--output-dir", str(tmp_path)])
        assert result.exit_code == 2

    def test_negative_ws_exit_2(self, runner, tmp_path):
        result = runner.invoke(main, [
            "transfer-check", "--n", "2000", "--tokenizer", "identity", "--window", "2",
            "--ws", "-1", "--output-dir", str(tmp_path)])
        assert result.exit_code == 2
        assert "--ws: expected an integer >= 0" in result.output
        assert list(tmp_path.iterdir()) == []

    @staticmethod
    def check_source_context_loss(out: Path, order: int) -> list[int]:
        """Every report's ws; at ws >= order the source-context loss is
        the entropy rate, bit for bit."""
        reports = [json.loads(p.read_text()) for p in sorted(out.glob("transfer_*.json"))]
        assert reports
        for rep in reports:
            if rep["ws"] >= order:
                assert rep["source_context_loss_bits"] == rep["entropy_rate_bits"]
        return [rep["ws"] for rep in reports]

    def test_config_run(self, runner, tmp_path):
        # its worst-case spans reach 26 symbols, far beyond the order 2
        result = runner.invoke(main, [
            "transfer-check", "--config", str(CONFIG_DIR / "transfer-check.json"),
            "--n", "50000", "--output-dir", str(tmp_path)])
        assert result.exit_code == 0, result.output
        assert max(self.check_source_context_loss(tmp_path, 2)) > 20

    def test_span_beyond_code_limit(self, runner, tmp_path):
        # ws > 62: a binary code of ws symbols would not fit in 62 bits
        result = runner.invoke(main, [
            "transfer-check", "--order", "1", "--dirichlet-alpha", "0.2", "--n", "30000",
            "--tokenizer", "lzw:2048", "--window", "8", "--output-dir", str(tmp_path)])
        assert result.exit_code == 0, result.output
        assert self.check_source_context_loss(tmp_path, 1)[0] > 62


class TestAllOrNothing:
    """A run that fails part-way exits with its documented code and writes
    no artifact, not even those of the pairs that succeeded."""

    def test_gen_source(self, runner, tmp_path):
        # raw sequence files hold one byte per symbol
        result = runner.invoke(main, [
            "gen-source", "--alphabet-size", "300", "--order", "0", "--n", "10",
            "--output-dir", str(tmp_path)])
        assert result.exit_code == 2
        assert "at most 256 symbols" in result.output
        assert list(tmp_path.iterdir()) == []

    def test_tok_train(self, runner, tmp_path):
        # size 2 is the alphabet; size 4 cannot train on a 1-symbol prefix
        result = runner.invoke(main, [
            "tok-train", "--order", "1", "--n", "100", "--sizes", "2,4",
            "--train-prefix", "1", "--output-dir", str(tmp_path)])
        assert result.exit_code == 2
        assert "at least 2 symbols" in result.output
        assert list(tmp_path.iterdir()) == []

    def test_span_cdf(self, runner, tmp_path):
        # the 1-token windows succeed; 200 symbols are too few for 150-token ones
        result = runner.invoke(main, [
            "span-cdf", "--order", "1", "--n", "200", "--sizes", "2",
            "--windows", "1,150", "--output-dir", str(tmp_path)])
        assert result.exit_code == 2
        assert "150-token windows" in result.output
        assert list(tmp_path.iterdir()) == []

    def test_transfer_check(self, runner, tmp_path):
        # window 2 succeeds; 2000 tokens are too few for 1500-token windows
        result = runner.invoke(main, [
            "transfer-check", "--order", "1", "--n", "2000", "--tokenizer", "identity",
            "--window", "2", "--window", "1500", "--output-dir", str(tmp_path)])
        assert result.exit_code == 2
        assert "1500-token windows" in result.output
        assert list(tmp_path.iterdir()) == []

    def test_heavy_hitting(self, runner, tmp_path):
        # budget 2 succeeds; budget 64 parses 12 symbols into too few tokens
        result = runner.invoke(main, [
            "heavy-hitting", "--order", "1", "--n", "12", "--budgets", "2,64",
            "--window", "4", "--output-dir", str(tmp_path)])
        assert result.exit_code == 2
        assert "4-token windows" in result.output
        assert list(tmp_path.iterdir()) == []


class TestOneTrainingPerSequence:
    """Every vocabulary of a run comes from one training per method and
    seed, sliced to each size; a size below the alphabet size is a
    configuration error in every command."""

    @staticmethod
    def count_trainings(monkeypatch, learner):
        sizes = []
        train = getattr(tokenizer, learner)

        def counted(seq, size, alphabet_size):
            sizes.append(size)
            return train(seq, size, alphabet_size)

        monkeypatch.setattr(tokenizer, learner, counted)
        return sizes

    def test_tok_train(self, runner, tmp_path, monkeypatch):
        trained = self.count_trainings(monkeypatch, "bpe_units")
        result = runner.invoke(main, [
            "tok-train", "--order", "3", "--n", "20000", "--train-prefix", "10000",
            "--sizes", "4,8,16", "--seed", "0", "--seed", "1", "--output-dir", str(tmp_path)])
        assert result.exit_code == 0, result.output
        assert trained == [16, 16]
        for seed in (0, 1):
            kernel = r.sample_kernel(2, 3, 0.4, seed)
            seq = r.sample_sequence(kernel, 20_000, seed)[:10_000]
            for v in (4, 8, 16):
                vocab = r.PrefixVocabulary.load(tmp_path / f"vocab_seed{seed}_V{v}.json")
                assert vocab.entries == r.train_bpe(seq, v, kernel.alphabet).entries

    def test_heavy_hitting(self, runner, tmp_path, monkeypatch):
        trained = self.count_trainings(monkeypatch, "lzw_units")
        result = runner.invoke(main, [
            "heavy-hitting", "--n", "20000", "--budgets", "16,64,256",
            "--seed", "0", "--seed", "1", "--output-dir", str(tmp_path)])
        assert result.exit_code == 0, result.output
        assert trained == [256, 256]

    @pytest.mark.parametrize("argv", [
        ["tok-train", "--sizes", "2,6"],
        ["span-cdf", "--sizes", "6,2"],
        ["transfer-check", "--tokenizer", "identity", "--tokenizer", "bpe:2"],
        ["heavy-hitting", "--budgets", "2,64"],
    ], ids=lambda argv: argv[0])
    def test_size_below_alphabet_exit_2(self, runner, tmp_path, argv):
        result = runner.invoke(main, argv + [
            "--alphabet-size", "4", "--order", "1", "--n", "1000",
            "--output-dir", str(tmp_path)])
        assert result.exit_code == 2
        flag = argv[-2]  # the flag that gave the sizes
        assert f"{flag}: " in result.stderr
        assert "size 2 is below the alphabet size 4" in result.stderr
        assert list(tmp_path.iterdir()) == []

    def test_text_size_below_alphabet_exit_2(self, runner, tmp_path):
        # the default sizes suit binary sources, not a corpus's characters
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(synthesize_corpus(20_000, seed=0))
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "span-cdf", "--text", str(corpus), "--output-dir", str(out)])
        assert_config_error(result, "--sizes: bpe size 2 is below the alphabet size")
        assert list(out.iterdir()) == []

    def test_alphabet_size_is_the_identity(self, runner, tmp_path, monkeypatch):
        trained = self.count_trainings(monkeypatch, "bpe_units")
        result = runner.invoke(main, [
            "tok-train", "--order", "1", "--n", "1000", "--sizes", "2",
            "--output-dir", str(tmp_path)])
        assert result.exit_code == 0, result.output
        assert trained == []
        vocab = r.PrefixVocabulary.load(tmp_path / "vocab_seed0_V2.json")
        assert vocab.entries == ((0,), (1,))
        _, rows, _ = read_csv(tmp_path / "ratios.csv")
        assert rows == [["0", "2", "2", "1000", "1"]]


class TestHeavyHitting:
    def test_budget_sweep(self, runner, tmp_path):
        result = runner.invoke(main, [
            "heavy-hitting", "--order", "2", "--dirichlet-alpha", "2.0",
            "--n", "60000", "--budgets", "16,64", "--window", "4",
            "--output-dir", str(tmp_path)])
        assert result.exit_code == 0, result.output
        header, rows, _ = read_csv(tmp_path / "heavy_hitting.csv")
        assert header[-3:] == ["length_inclusion", "window_bound_ok", "alpha_bound_ok"]
        for row in rows:
            assert row[-3] == "1"  # exact event inclusion always holds
        ells = [float(row[3]) for row in rows]
        assert ells[1] > ells[0]  # ell_d grows with log d
        payload = json.loads((tmp_path / "heavy_seed0_d64.json").read_text())
        assert "end_to_end" in payload

    def test_degenerate_kernel_exit_4(self, runner, tmp_path):
        kernel = r.TransitionKernel(
            r.Alphabet.of_size(2), 1, np.array([[1.0, 0.0], [0.5, 0.5]]))
        path = tmp_path / "kernel.json"
        kernel.save(path)
        result = runner.invoke(main, [
            "heavy-hitting", "--kernel", str(path), "--n", "1000",
            "--budgets", "4", "--output-dir", str(tmp_path)])
        assert result.exit_code == 4

    @pytest.mark.parametrize("probs, message", [
        # reducible: the stationary law, which sampling needs, fails first
        ([1, 0, 0, 1], "chain is reducible (2 strongly connected components)"),
        # irreducible, so the run reaches the report's positivity check
        ([0, 1, 0.5, 0.5], "source has a zero transition probability"),
    ])
    def test_kernel_assumption_exit_4(self, runner, tmp_path, probs, message):
        kpath = tmp_path / "kernel.json"
        kpath.write_text(json.dumps({"alphabet": ["0", "1"], "order": 1, "probs": probs}))
        result = runner.invoke(main, [
            "heavy-hitting", "--kernel", str(kpath), "--n", "1000", "--budgets", "4",
            "--output-dir", str(tmp_path)])
        assert result.exit_code == 4
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.splitlines() == [f"assumption violation: {message}"]
        assert [p.name for p in tmp_path.iterdir()] == ["kernel.json"]

    def test_zero_probability_found_before_sampling(self, runner, tmp_path, monkeypatch):
        """An irreducible kernel with a zero transition probability stops
        before its n symbols are sampled and the budgets trained."""
        def refuse(*args):
            raise AssertionError("sampled a source that fails the assumption")

        monkeypatch.setattr(cli, "sample_sequence", refuse)
        kpath = tmp_path / "kernel.json"
        kpath.write_text(json.dumps(
            {"alphabet": ["0", "1"], "order": 1, "probs": [[0, 1], [0.5, 0.5]]}))
        result = runner.invoke(main, ["heavy-hitting", "--kernel", str(kpath),
                                      "--output-dir", str(tmp_path)])
        assert result.exit_code == 4, result.output
        assert result.stderr.splitlines() == [
            "assumption violation: source has a zero transition probability"]

    def test_external_vocab_span_analysis(self, runner, tmp_path):
        # the neutral JSON vocabulary format is accepted directly
        vocab = r.PrefixVocabulary(r.Alphabet.of_size(2), ["010", "11"])
        vpath = tmp_path / "external_vocab.json"
        vocab.save(vpath)
        result = runner.invoke(main, [
            "span-cdf", "--order", "1", "--n", "20000", "--vocab", str(vpath),
            "--windows", "2", "--output-dir", str(tmp_path)])
        assert result.exit_code == 0, result.output
        _, rows, _ = read_csv(tmp_path / "slack.csv")
        assert all(row[1] == "external_vocab" for row in rows)

    def test_env_var_output_root(self, runner, tmp_path, monkeypatch):
        monkeypatch.setenv("RECODING_OUT", str(tmp_path))
        result = runner.invoke(main, [
            "gen-source", "--n", "100", "--seed", "3", "--output-dir", "sub"])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "sub" / "kernel_seed3.json").exists()


class TestConfigFile:
    def test_config_with_flag_override(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "pairs": "1:2", "seeds": [0], "n": 5000,
            "output_dir": str(tmp_path / "from_config")}))
        result = runner.invoke(main, [
            "frag-decompose", "--config", str(cfg),
            "--output-dir", str(tmp_path / "flag_wins")])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "flag_wins" / "decomposition.csv").exists()
        assert not (tmp_path / "from_config").exists()


def assert_config_error(result, named):
    """Exit 2 with one stderr line that names the bad key or flag."""
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and named in lines[0], result.stderr


# input files that the bad-input cases below name by file name in their argv
INPUT_FILES = {
    "nan_kernel.json": json.dumps(
        {"alphabet": ["0", "1"], "order": 1, "probs": [float("nan")] * 2 + [0.5] * 2}),
    "one_symbol.txt": "aaaa",
    "twice_kernel.json":
        '{"alphabet": ["0", "1"], "order": 1, "order": 1, "probs": [0.5, 0.5, 0.5, 0.5]}',
    "twice_vocab.json": '{"alphabet": ["0", "1"], "entries": ["01"], "entries": ["01"]}',
}


class TestBadInput:
    @pytest.mark.parametrize("argv, config, named", [
        (["gen-source"], {"alphabet_sise": 3}, "'alphabet_sise'"),
        (["gen-source"], {"n": "1000"}, "'n'"),
        (["gen-source", "--config", "missing.json"], None, "--config"),
        (["gen-source"], [{"n": 1000}], "--config"),
        (["gen-source"], "{not json", "--config"),
        (["frag-decompose"], {"pairs": [[1, 2, 3]]}, "'pairs'"),
        (["span-cdf"], {"vocab_files": "v.json"}, "'vocab_files'"),
        (["frag-decompose", "--pairs", "1-2"], None, "--pairs"),
        (["transfer-check", "--tokenizer", "bpe:x"], None, "--tokenizer"),
        (["transfer-check", "--window", "0"], None, "--window"),
        (["tok-train", "--sizes", "4,x"], None, "--sizes"),
        (["heavy-hitting", "--budgets", "16,,64"], None, "--budgets"),
        (["heavy-hitting", "--kernel", "missing.json"], None, "--kernel"),
        # checked before any pair runs, so no artifact of 1:2 is written
        (["frag-decompose", "--pairs", "1:2,1:0"], None, "M >= 1, got pair 1:0"),
        (["frag-decompose", "--pairs", "1:2,-1:2"], None, "order k >= 0 and block length"),
        (["gen-source", "--seed", "-1"], None, "--seed"),
        (["gen-source"], {"seeds": [-1]}, "'seeds'"),
        (["tok-train", "--train-prefix", "-5"], None, "--train-prefix"),
        (["span-cdf", "--span-max-mult", "0"], None, "--span-max-mult"),
        (["span-cdf", "--span-max-mult", "-3"], None, "--span-max-mult"),
        (["transfer-check", "--eta", "0"], None, "--eta: expected a number in (0, 1)"),
        (["heavy-hitting", "--n", "1000", "--budgets", "4", "--eta-transfer", "2"], None,
         "--eta-transfer"),
        # a number must be finite, as a flag and as a config value
        (["frag-decompose", "--pairs", "1:2", "--n", "2000", "--seed", "0",
          "--laplace-alpha", "nan"], None, "--laplace-alpha: expected a finite number"),
        (["gen-source", "--dirichlet-alpha", "inf"], None, "--dirichlet-alpha"),
        (["heavy-hitting", "--n", "1000", "--budgets", "4", "--beta", "nan"], None, "--beta"),
        (["frag-decompose", "--pairs", "1:2", "--n", "2000", "--seed", "0"],
         {"laplace_alpha": float("nan")}, "'laplace_alpha'"),
        (["gen-source"], '{"dirichlet_alpha": Infinity}', "'dirichlet_alpha'"),
        (["gen-source"], {"dirichlet_alpha": 10**400}, "'dirichlet_alpha'"),  # past float range
        (["heavy-hitting", "--kernel", "nan_kernel.json", "--n", "1000", "--budgets", "4"],
         None, "transition probabilities must be non-negative numbers"),
        (["span-cdf", "--text", "one_symbol.txt", "--sizes", "1", "--windows", "1"], None,
         "needs at least 2 distinct symbols"),
        # a repeated key is an error in every JSON input, not its last value
        (["gen-source"], '{"n": 100, "n": 200}', "cfg.json repeats the key 'n'"),
        (["heavy-hitting", "--kernel", "twice_kernel.json", "--n", "1000", "--budgets", "4"],
         None, "twice_kernel.json repeats the key 'order'"),
        (["span-cdf", "--order", "1", "--n", "2000", "--vocab", "twice_vocab.json"], None,
         "twice_vocab.json repeats the key 'entries'"),
    ])
    def test_exit_2_naming_the_key_or_flag(self, runner, tmp_path, argv, config, named):
        inputs = [arg for arg in argv if arg in INPUT_FILES]
        for name in inputs:
            (tmp_path / name).write_text(INPUT_FILES[name])
        argv = [str(tmp_path / arg) if arg in INPUT_FILES else arg for arg in argv]
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(config if isinstance(config, str) else json.dumps(config))
            argv = argv + ["--config", str(path)]
            inputs.append("cfg.json")
        result = runner.invoke(main, argv + ["--output-dir", str(tmp_path)])
        assert_config_error(result, named)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(inputs)

    def test_dirichlet_alpha_whose_rows_overflow(self, runner, tmp_path):
        """Gamma(1e308) variates are finite but a row of two sums past the
        float range: exit 2 naming the flag, with no numpy warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(main, ["gen-source", "--dirichlet-alpha", "1e308",
                                          "--n", "100", "--output-dir", str(tmp_path)])
        assert_config_error(result, "--dirichlet-alpha")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("inside", [False, True])
    def test_output_dir_not_a_directory(self, runner, tmp_path, inside):
        (tmp_path / "taken").write_text("")
        out = tmp_path / "taken" / "sub" if inside else tmp_path / "taken"
        result = runner.invoke(main, ["gen-source", "--n", "100", "--output-dir", str(out)])
        assert_config_error(result, "--output-dir")

    @pytest.mark.parametrize("command", ["gen-source", "tok-train"])
    def test_n_beyond_the_budget_exit_3(self, runner, tmp_path, command):
        # refused before anything is drawn, so no array of 10^12 symbols is asked for
        result = runner.invoke(main, [command, "--n", str(10**12), "--output-dir", str(tmp_path)])
        assert result.exit_code == 3, result.output
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and "capacity error: --n" in lines[0], result.stderr
        assert list(tmp_path.iterdir()) == []

    def test_n_at_the_budget_runs(self, runner, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "DEFAULT_TABLE_BUDGET", 1000)
        for n, code in ((1000, 0), (1001, 3)):
            result = runner.invoke(main, ["gen-source", "--n", str(n),
                                          "--output-dir", str(tmp_path)])
            assert result.exit_code == code, result.output

    def test_vocab_file_not_json(self, runner, tmp_path):
        vpath = tmp_path / "vocab.json"
        vpath.write_text("entries: 01")
        result = runner.invoke(main, [
            "span-cdf", "--order", "1", "--n", "2000", "--vocab", str(vpath),
            "--output-dir", str(tmp_path)])
        assert_config_error(result, "vocab.json")

    def test_kernel_file_missing_key(self, runner, tmp_path):
        kpath = tmp_path / "kernel.json"
        kpath.write_text(json.dumps({"alphabet": ["0", "1"], "order": 1}))
        result = runner.invoke(main, [
            "heavy-hitting", "--kernel", str(kpath), "--n", "1000", "--budgets", "4",
            "--output-dir", str(tmp_path)])
        assert_config_error(result, "'probs'")

    @pytest.mark.parametrize("kernel, named", [
        ({"alphabet": ["0", "1"], "order": "x", "probs": [0.5] * 4}, "'order'"),
        ({"alphabet": ["0", "1"], "order": 1.5, "probs": [0.5] * 4}, "'order'"),
        ({"alphabet": ["0", "1"], "order": 1, "probs": ["x"] * 4}, "'probs'"),
        ({"alphabet": ["0", "1"], "order": 1, "probs": [[0.5, 0.5], [1.0]]}, "'probs'"),
        ({"alphabet": 5, "order": 1, "probs": [0.5] * 4}, "'alphabet'"),
    ])
    def test_kernel_file_wrong_type(self, runner, tmp_path, kernel, named):
        kpath = tmp_path / "kernel.json"
        kpath.write_text(json.dumps(kernel))
        result = runner.invoke(main, [
            "heavy-hitting", "--kernel", str(kpath), "--n", "1000", "--budgets", "4",
            "--output-dir", str(tmp_path)])
        assert_config_error(result, named)

    @pytest.mark.parametrize("vocab, named", [
        ({"alphabet": ["0", "1"], "entries": 5}, "'entries'"),
        ({"alphabet": ["0", "1"], "entries": ["01", 7]}, "'entries'"),
        ({"alphabet": [0, 1], "entries": ["01"]}, "'alphabet'"),
    ])
    def test_vocab_file_wrong_type(self, runner, tmp_path, vocab, named):
        vpath = tmp_path / "vocab.json"
        vpath.write_text(json.dumps(vocab))
        result = runner.invoke(main, [
            "span-cdf", "--order", "1", "--n", "2000", "--vocab", str(vpath),
            "--output-dir", str(tmp_path)])
        assert_config_error(result, named)

    def test_text_file_not_utf8(self, runner, tmp_path):
        tpath = tmp_path / "corpus.txt"
        tpath.write_bytes(b"\xff\xfe\xfdab")
        result = runner.invoke(main, ["span-cdf", "--text", str(tpath),
                                      "--output-dir", str(tmp_path)])
        assert_config_error(result, "corpus.txt")

    def test_library_key_error_is_not_a_configuration_error(self, runner, tmp_path,
                                                            monkeypatch):
        def broken(config):
            raise KeyError("entries")

        monkeypatch.setattr(cli, "run_gen_source", broken)
        result = runner.invoke(main, ["gen-source", "--output-dir", str(tmp_path)])
        assert result.exit_code != 2
        assert isinstance(result.exception, KeyError)


EXPERIMENTS = ["frag-decompose", "tok-train", "span-cdf", "transfer-check", "heavy-hitting"]
CONFIGS = sorted(CONFIG_DIR.glob("*.json"))


def test_every_experiment_has_a_config():
    assert {p.name.split(".")[0] for p in CONFIGS} == set(EXPERIMENTS)


def config_settings(path: Path) -> dict:
    """A config's settings as its command parses them; ParameterError on an
    unknown key or a bad value."""
    with click.Context(main.commands[path.name.split(".")[0]]):
        return cli._settings(str(path), {})


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_config_passes_its_command_checks(path):
    config_settings(path)


def test_configs_write_to_distinct_output_dirs():
    # a run of one config must not replace another's artifacts
    dirs = [config_settings(path)["output_dir"] for path in CONFIGS]
    assert len(set(dirs)) == len(dirs), dirs
