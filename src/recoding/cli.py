"""Experiment driver: generate sources, train tokenizers, and emit the
CSV/JSON artifacts for the desk-scale analyses.

Every command is a pure function of its configuration and seeds, so
re-running it reproduces the output files byte for byte.  Configuration
comes from an optional JSON file; individual flags override fields; the
environment variable RECODING_OUT sets the root for relative output
directories.  Exit codes: 0 success, 2 configuration error, 3 capacity
error, 4 assumption violation.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import click
import numpy as np

from . import __version__
from .errors import (
    AlphabetError,
    AssumptionViolationError,
    CapacityError,
    DataError,
    ErgodicityError,
    FormatError,
    ParameterError,
    PositivityError,
    PreconditionError,
)
from .fragmentation import decompose, empirical_fragmented_loss, make_map
from .ngram import in_sample_log_loss, optimal_predictor
from .sources import (
    Alphabet,
    TransitionKernel,
    conditional_entropy,
    entropy_rate,
    sample_kernel,
    sample_sequence,
    write_sequence,
)
from .spans import (
    compression_stats,
    heavy_hitting_report,
    slack_curve,
    span_distribution,
    worst_case_span,
)
from .tokenizer import PrefixVocabulary, greedy_parse, train_bpe, train_lzw
from .transfer import (
    loss_comparison,
    make_typical,
    smooth,
    token_loss_per_source_symbol,
    transfer,
)

_CONFIG_ERRORS = (
    ParameterError,
    FormatError,
    DataError,
    AlphabetError,
    PreconditionError,
    PositivityError,
    FileNotFoundError,
    json.JSONDecodeError,
    KeyError,
)


@dataclass
class ExperimentConfig:
    """Validated bag of experiment parameters."""

    experiment: str
    seeds: list[int]
    output_dir: Path
    source: dict = field(default_factory=dict)
    fragmentation: dict = field(default_factory=dict)
    tokenizer: dict = field(default_factory=dict)
    windows: list[int] = field(default_factory=list)
    params: dict = field(default_factory=dict)

    def validate(self) -> None:
        if not self.seeds:
            raise ParameterError("at least one seed is required")
        if any(int(s) != s for s in self.seeds):
            raise ParameterError("seeds must be integers")
        if any(w < 1 for w in self.windows):
            raise ParameterError("window lengths must be >= 1")
        for key in ("text", "vocab"):
            ref = self.params.get(key)
            if ref is not None and not Path(ref).exists():
                raise ParameterError(f"referenced file does not exist: {ref}")

    def hash(self) -> str:
        payload = {
            "experiment": self.experiment,
            "seeds": self.seeds,
            "source": self.source,
            "fragmentation": self.fragmentation,
            "tokenizer": self.tokenizer,
            "windows": self.windows,
            "params": {k: str(v) for k, v in sorted(self.params.items())},
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _resolve_out(output_dir: str) -> Path:
    import os

    root = os.environ.get("RECODING_OUT")
    path = Path(output_dir)
    if not path.is_absolute() and root:
        path = Path(root) / path
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_config(config_path: str | None) -> dict:
    if not config_path:
        return {}
    return json.loads(Path(config_path).read_text())


def _merge(defaults: dict, cfg: dict, flags: dict) -> dict:
    out = dict(defaults)
    out.update({k: v for k, v in cfg.items() if v is not None})
    out.update({k: v for k, v in flags.items() if v is not None and v != ()})
    return out


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


def write_csv(path: Path, header: list[str], rows: list[list], config: ExperimentConfig) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    lines.append(f"# config_hash={config.hash()}")
    lines.append("# seeds=" + ";".join(str(s) for s in config.seeds))
    lines.append(f"# artifact_version={__version__}")
    Path(path).write_text("\n".join(lines) + "\n")


def _write_json(path: Path, obj) -> None:
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=1))


def _exit_codes(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except _CONFIG_ERRORS as exc:
            click.echo(f"configuration error: {exc}", err=True)
            sys.exit(2)
        except CapacityError as exc:
            click.echo(f"capacity error: {exc}", err=True)
            sys.exit(3)
        except (AssumptionViolationError, ErgodicityError) as exc:
            click.echo(f"assumption violation: {exc}", err=True)
            sys.exit(4)

    return wrapper


@click.group()
def main():
    """Exact and empirical analysis of re-represented Markov sources."""


# ---------------------------------------------------------------- gen-source


@main.command("gen-source")
@click.option("--config", "config_path", default=None, type=click.Path())
@click.option("--alphabet-size", type=int, default=None)
@click.option("--order", type=int, default=None)
@click.option("--dirichlet-alpha", type=float, default=None)
@click.option("--n", type=int, default=None)
@click.option("--seed", "seeds", type=int, multiple=True)
@click.option("--output-dir", default=None)
@_exit_codes
def gen_source_cmd(config_path, alphabet_size, order, dirichlet_alpha, n, seeds, output_dir):
    """Sample a kernel and a stationary sequence to files."""
    cfg = _merge(
        {"alphabet_size": 2, "order": 1, "dirichlet_alpha": 0.5, "n": 10000,
         "seeds": [0], "output_dir": "out"},
        _load_config(config_path),
        {"alphabet_size": alphabet_size, "order": order, "dirichlet_alpha": dirichlet_alpha,
         "n": n, "seeds": list(seeds) or None, "output_dir": output_dir},
    )
    config = ExperimentConfig(
        experiment="gen-source",
        seeds=[int(s) for s in cfg["seeds"]],
        output_dir=_resolve_out(cfg["output_dir"]),
        source={k: cfg[k] for k in ("alphabet_size", "order", "dirichlet_alpha", "n")},
    )
    config.validate()
    run_gen_source(config)


def run_gen_source(config: ExperimentConfig) -> None:
    src = config.source
    for seed in config.seeds:
        kernel = sample_kernel(src["alphabet_size"], src["order"], src["dirichlet_alpha"], seed)
        kernel.save(config.output_dir / f"kernel_seed{seed}.json")
        seq = sample_sequence(kernel, src["n"], seed)
        write_sequence(config.output_dir / f"sequence_seed{seed}.bin", seq, kernel.alphabet)
        click.echo(f"seed {seed}: kernel and {src['n']}-symbol sequence written")


# ------------------------------------------------------------ frag-decompose


@main.command("frag-decompose")
@click.option("--config", "config_path", default=None, type=click.Path())
@click.option("--pairs", default=None, help="comma list of order:block, e.g. 1:2,2:3")
@click.option("--kernels-per-pair", type=int, default=None)
@click.option("--n", type=int, default=None)
@click.option("--dirichlet-alpha", type=float, default=None)
@click.option("--laplace-alpha", type=float, default=None)
@click.option("--seed", "seeds", type=int, multiple=True)
@click.option("--output-dir", default=None)
@_exit_codes
def frag_decompose_cmd(config_path, pairs, kernels_per_pair, n, dirichlet_alpha,
                       laplace_alpha, seeds, output_dir):
    """Exact penalty decomposition plus n-gram verification per (k, M)."""
    cfg = _merge(
        {"pairs": "1:2,1:3,1:4,2:2,2:3,3:2", "kernels_per_pair": 8, "n": 500000,
         "dirichlet_alpha": 0.5, "laplace_alpha": 0.5, "seeds": None, "output_dir": "out"},
        _load_config(config_path),
        {"pairs": pairs, "kernels_per_pair": kernels_per_pair, "n": n,
         "dirichlet_alpha": dirichlet_alpha, "laplace_alpha": laplace_alpha,
         "seeds": list(seeds) or None, "output_dir": output_dir},
    )
    if isinstance(cfg["pairs"], str):
        pair_list = []
        for chunk in cfg["pairs"].split(","):
            k_str, m_str = chunk.split(":")
            pair_list.append((int(k_str), int(m_str)))
    else:
        pair_list = [(int(k), int(m)) for k, m in cfg["pairs"]]
    seed_list = cfg["seeds"] or list(range(cfg["kernels_per_pair"]))
    config = ExperimentConfig(
        experiment="frag-decompose",
        seeds=[int(s) for s in seed_list],
        output_dir=_resolve_out(cfg["output_dir"]),
        source={"n": cfg["n"], "dirichlet_alpha": cfg["dirichlet_alpha"]},
        fragmentation={"pairs": pair_list},
        params={"laplace_alpha": cfg["laplace_alpha"]},
    )
    config.validate()
    run_frag_decompose(config)


def run_frag_decompose(config: ExperimentConfig) -> None:
    n = config.source["n"]
    d_alpha = config.source["dirichlet_alpha"]
    l_alpha = config.params["laplace_alpha"]
    rows = []
    reports = []
    for order, block in config.fragmentation["pairs"]:
        src_size = 2**block  # source alphabet re-coded to bits
        for seed in config.seeds:
            kernel = sample_kernel(src_size, order, d_alpha, seed)
            fmap = make_map(kernel.alphabet, Alphabet.of_size(2), block)
            seq = sample_sequence(kernel, n, seed)
            for w in (order, order + 1):
                report = decompose(kernel, fmap, w)
                emp_frag = empirical_fragmented_loss(fmap, seq, w, l_alpha)
                emp_src = in_sample_log_loss(seq, w, l_alpha, kernel.alphabet)
                rows.append([order, block, seed, *report.csv_row(),
                             emp_frag, emp_src, emp_frag - report.source_loss])
                reports.append({
                    "order": order, "block_length": block, "seed": seed,
                    "empirical_fragmented_bits": emp_frag,
                    "empirical_source_bits": emp_src,
                    **report.to_json(),
                })
    header = ["k", "M", "seed", "w", "exact_source_bits", "exact_frag_bits",
              "context_deficit_bits", "phase_ambiguity_bits", "exact_gap_bits",
              "empirical_frag_bits", "empirical_source_bits", "empirical_penalty_bits"]
    write_csv(config.output_dir / "decomposition.csv", header, rows, config)
    _write_json(config.output_dir / "decomposition.json", reports)
    click.echo(f"wrote {len(rows)} decomposition rows")


# ------------------------------------------------------------------ tok-train


@main.command("tok-train")
@click.option("--config", "config_path", default=None, type=click.Path())
@click.option("--alphabet-size", type=int, default=None)
@click.option("--order", type=int, default=None)
@click.option("--dirichlet-alpha", type=float, default=None)
@click.option("--n", type=int, default=None)
@click.option("--train-prefix", type=int, default=None)
@click.option("--sizes", default=None, help="comma list of vocabulary sizes")
@click.option("--seed", "seeds", type=int, multiple=True)
@click.option("--output-dir", default=None)
@_exit_codes
def tok_train_cmd(config_path, alphabet_size, order, dirichlet_alpha, n, train_prefix,
                  sizes, seeds, output_dir):
    """Train pair-merge vocabularies per size; report compression ratios."""
    cfg = _merge(
        {"alphabet_size": 2, "order": 12, "dirichlet_alpha": 0.4, "n": 25_000_000,
         "train_prefix": 500_000, "sizes": "2,4,6,8,10,15,20", "seeds": [0],
         "output_dir": "out"},
        _load_config(config_path),
        {"alphabet_size": alphabet_size, "order": order, "dirichlet_alpha": dirichlet_alpha,
         "n": n, "train_prefix": train_prefix, "sizes": sizes,
         "seeds": list(seeds) or None, "output_dir": output_dir},
    )
    size_list = cfg["sizes"]
    if isinstance(size_list, str):
        size_list = [int(v) for v in size_list.split(",")]
    config = ExperimentConfig(
        experiment="tok-train",
        seeds=[int(s) for s in cfg["seeds"]],
        output_dir=_resolve_out(cfg["output_dir"]),
        source={k: cfg[k] for k in ("alphabet_size", "order", "dirichlet_alpha", "n")},
        tokenizer={"method": "bpe", "sizes": size_list, "train_prefix": cfg["train_prefix"]},
    )
    config.validate()
    run_tok_train(config)


def run_tok_train(config: ExperimentConfig) -> None:
    src = config.source
    sizes = config.tokenizer["sizes"]
    prefix = config.tokenizer["train_prefix"]
    rows = []
    for seed in config.seeds:
        kernel = sample_kernel(src["alphabet_size"], src["order"], src["dirichlet_alpha"], seed)
        seq = sample_sequence(kernel, src["n"], seed)
        for v in sizes:
            if v <= kernel.alphabet_size:
                vocab = PrefixVocabulary(kernel.alphabet, [])
            else:
                vocab = train_bpe(seq[:prefix], v, kernel.alphabet)
            vocab.save(config.output_dir / f"vocab_seed{seed}_V{v}.json")
            stream = greedy_parse(vocab, seq)
            ratio = len(seq) / len(stream.ids)
            rows.append([seed, v, vocab.size, len(stream.ids), ratio])
            click.echo(f"seed {seed} V={v}: {vocab.size} entries, ratio {ratio:.3f}")
    write_csv(config.output_dir / "ratios.csv",
              ["seed", "V", "entries", "tokens", "ratio"], rows, config)


# ------------------------------------------------------------------ span-cdf


@main.command("span-cdf")
@click.option("--config", "config_path", default=None, type=click.Path())
@click.option("--text", default=None, type=click.Path(), help="analyze a text corpus instead of a synthetic source")
@click.option("--alphabet-size", type=int, default=None)
@click.option("--order", type=int, default=None)
@click.option("--dirichlet-alpha", type=float, default=None)
@click.option("--n", type=int, default=None)
@click.option("--sizes", default=None, help="BPE vocabulary sizes to train")
@click.option("--vocab", "vocab_files", multiple=True, type=click.Path(),
              help="externally produced vocabulary JSON (repeatable)")
@click.option("--train-prefix", type=int, default=None)
@click.option("--windows", default=None, help="comma list of token-window lengths")
@click.option("--span-max-mult", type=int, default=None, help="sweep w_s up to this multiple of w")
@click.option("--seed", "seeds", type=int, multiple=True)
@click.option("--output-dir", default=None)
@_exit_codes
def span_cdf_cmd(config_path, text, alphabet_size, order, dirichlet_alpha, n, sizes,
                 vocab_files, train_prefix, windows, span_max_mult, seeds, output_dir):
    """Span histograms and slack curves per (tokenizer, window)."""
    cfg = _merge(
        {"text": None, "alphabet_size": 2, "order": 12, "dirichlet_alpha": 0.4,
         "n": 2_000_000, "sizes": "2,4,6,8,10,15,20", "vocab_files": [],
         "train_prefix": 500_000, "windows": "1,2,4,8,12", "span_max_mult": 20,
         "seeds": [0], "output_dir": "out"},
        _load_config(config_path),
        {"text": text, "alphabet_size": alphabet_size, "order": order,
         "dirichlet_alpha": dirichlet_alpha, "n": n, "sizes": sizes,
         "vocab_files": list(vocab_files) or None, "train_prefix": train_prefix,
         "windows": windows, "span_max_mult": span_max_mult,
         "seeds": list(seeds) or None, "output_dir": output_dir},
    )
    size_list = cfg["sizes"]
    if isinstance(size_list, str):
        size_list = [int(v) for v in size_list.split(",")]
    if cfg["vocab_files"]:
        size_list = []
    window_list = cfg["windows"]
    if isinstance(window_list, str):
        window_list = [int(v) for v in window_list.split(",")]
    config = ExperimentConfig(
        experiment="span-cdf",
        seeds=[int(s) for s in cfg["seeds"]],
        output_dir=_resolve_out(cfg["output_dir"]),
        source={k: cfg[k] for k in ("alphabet_size", "order", "dirichlet_alpha", "n")},
        tokenizer={"method": "bpe", "sizes": size_list, "train_prefix": cfg["train_prefix"],
                   "vocab_files": cfg["vocab_files"]},
        windows=window_list,
        params={"text": cfg["text"], "span_max_mult": cfg["span_max_mult"]},
    )
    for path in cfg["vocab_files"]:
        if not Path(path).exists():
            raise ParameterError(f"referenced file does not exist: {path}")
    config.validate()
    run_span_cdf(config)


def _ws_sweep(w: int, max_mult: int, lo: int, hi: int) -> list[int]:
    top = min(hi + 1, max_mult * w)
    values = np.arange(max(lo - 1, 1), top + 1)
    if values.size > 512:  # subsample large sweeps at even spacing
        idx = np.linspace(0, values.size - 1, 512).round().astype(int)
        values = values[np.unique(idx)]
    return [int(v) for v in values]


def run_span_cdf(config: ExperimentConfig) -> None:
    text = config.params.get("text")
    sizes = config.tokenizer["sizes"]
    vocab_files = config.tokenizer.get("vocab_files") or []
    prefix = config.tokenizer["train_prefix"]
    mult = config.params["span_max_mult"]
    seed = config.seeds[0]
    if text:
        corpus = Path(text).read_text()
        alphabet = Alphabet.from_text(corpus)
        seq = alphabet.encode(corpus)
        label = "text"
    else:
        src = config.source
        kernel = sample_kernel(src["alphabet_size"], src["order"], src["dirichlet_alpha"], seed)
        alphabet = kernel.alphabet
        seq = sample_sequence(kernel, src["n"], seed)
        label = f"markov_k{src['order']}"

    jobs: list[tuple[str, PrefixVocabulary]] = []
    for v in sizes:
        if v <= alphabet.size:
            jobs.append((f"V{v}", PrefixVocabulary(alphabet, [])))
        else:
            jobs.append((f"V{v}", train_bpe(seq[:prefix], v, alphabet)))
    for path in vocab_files:
        vocab = PrefixVocabulary.load(path)
        if vocab.alphabet.symbols != alphabet.symbols:
            raise ParameterError(
                f"vocabulary {path} was built over a different alphabet")
        jobs.append((Path(path).stem, vocab))

    rows = []
    for name, vocab in jobs:
        stream = greedy_parse(vocab, seq)
        for w in config.windows:
            report = span_distribution(vocab, stream, w)
            spans = sorted(report.span_histogram)
            sweep = _ws_sweep(w, mult, spans[0], spans[-1])
            curve = slack_curve(vocab, stream, w, sweep)
            report.slack_curve = curve
            report.save(config.output_dir / f"spans_{label}_{name}_w{w}.json")
            for ws, eps, slack in curve:
                rows.append([label, name, w, ws, eps, report.rate, slack])
    write_csv(config.output_dir / "slack.csv",
              ["corpus", "tokenizer", "w", "w_s", "epsilon", "rate", "slack_bits"],
              rows, config)
    click.echo(f"wrote slack curves for {len(jobs)} vocabularies")


# ------------------------------------------------------------- transfer-check


@main.command("transfer-check")
@click.option("--config", "config_path", default=None, type=click.Path())
@click.option("--alphabet-size", type=int, default=None)
@click.option("--order", type=int, default=None)
@click.option("--dirichlet-alpha", type=float, default=None)
@click.option("--n", type=int, default=None)
@click.option("--tokenizer", "tokenizers", multiple=True,
              help="identity | bpe:V | lzw:d (repeatable)")
@click.option("--window", "windows", type=int, multiple=True)
@click.option("--ws", type=int, default=None, help="source context; default = empirical minimum span")
@click.option("--eta", type=float, default=None)
@click.option("--train-prefix", type=int, default=None)
@click.option("--seed", "seeds", type=int, multiple=True)
@click.option("--output-dir", default=None)
@_exit_codes
def transfer_check_cmd(config_path, alphabet_size, order, dirichlet_alpha, n, tokenizers,
                       windows, ws, eta, train_prefix, seeds, output_dir):
    """Transfer optimal predictors across vocabularies and verify bounds."""
    cfg = _merge(
        {"alphabet_size": 2, "order": 2, "dirichlet_alpha": 0.5, "n": 200_000,
         "tokenizers": ["identity", "lzw:256"], "windows": [4], "ws": None,
         "eta": 1e-6, "train_prefix": None, "seeds": [0], "output_dir": "out"},
        _load_config(config_path),
        {"alphabet_size": alphabet_size, "order": order, "dirichlet_alpha": dirichlet_alpha,
         "n": n, "tokenizers": list(tokenizers) or None,
         "windows": list(windows) or None, "ws": ws, "eta": eta,
         "train_prefix": train_prefix, "seeds": list(seeds) or None,
         "output_dir": output_dir},
    )
    config = ExperimentConfig(
        experiment="transfer-check",
        seeds=[int(s) for s in cfg["seeds"]],
        output_dir=_resolve_out(cfg["output_dir"]),
        source={k: cfg[k] for k in ("alphabet_size", "order", "dirichlet_alpha", "n")},
        tokenizer={"specs": cfg["tokenizers"], "train_prefix": cfg["train_prefix"]},
        windows=[int(w) for w in cfg["windows"]],
        params={"ws": cfg["ws"], "eta": cfg["eta"]},
    )
    config.validate()
    run_transfer_check(config)


def _build_vocab_from_spec(spec: str, seq, alphabet, train_prefix):
    if spec == "identity":
        return PrefixVocabulary(alphabet, []), "identity"
    method, _, arg = spec.partition(":")
    size = int(arg)
    train = seq if train_prefix is None else seq[:train_prefix]
    if method == "bpe":
        return train_bpe(train, size, alphabet), f"bpe{size}"
    if method == "lzw":
        return train_lzw(train, size, alphabet), f"lzw{size}"
    raise ParameterError(f"unknown tokenizer spec {spec!r}")


def run_transfer_check(config: ExperimentConfig) -> None:
    src = config.source
    eta = config.params["eta"]
    rows = []
    for seed in config.seeds:
        kernel = sample_kernel(src["alphabet_size"], src["order"], src["dirichlet_alpha"], seed)
        seq = sample_sequence(kernel, src["n"], seed)
        rate = entropy_rate(kernel)
        for spec in config.tokenizer["specs"]:
            vocab, name = _build_vocab_from_spec(
                spec, seq, kernel.alphabet, config.tokenizer["train_prefix"])
            stream = greedy_parse(vocab, seq)
            for w in config.windows:
                ws = config.params["ws"]
                if ws is None:
                    ws = worst_case_span(vocab, w, "empirical", stream)
                q = smooth(optimal_predictor(kernel, ws), eta)
                report = loss_comparison(q, vocab, seq, w)
                report.update({
                    "seed": seed, "tokenizer": name, "w": w, "ws": ws,
                    "entropy_rate_bits": rate,
                    "source_context_loss_bits": conditional_entropy(kernel, ws),
                })
                tp = transfer(q, vocab, w)
                typ = make_typical(tp, ws)
                bd = typ.token_log_losses(stream)
                _, tok_rate = compression_stats(vocab, stream)
                eps = bd.bad_window_fraction()
                slack = eps * tok_rate * math.log2(kernel.alphabet_size)
                report["typical"] = {
                    "epsilon": eps,
                    "slack_bits": slack,
                    "per_source_symbol_bits": bd.per_source_symbol(),
                    "bound_bits": conditional_entropy(kernel, ws) + slack,
                    "se_bits": bd.per_source_symbol_se(),
                }
                _write_json(config.output_dir / f"transfer_{name}_w{w}_seed{seed}.json", report)
                rows.append([
                    seed, name, w, ws, rate,
                    report["per_symbol_losses"]["source"],
                    report["per_symbol_losses"]["token"],
                    report["difference"], report["bound_2log_1_over_lambda"],
                    eps, bd.per_source_symbol(),
                    report["typical"]["bound_bits"],
                ])
    header = ["seed", "tokenizer", "w", "ws", "entropy_rate_bits",
              "source_per_symbol_bits", "token_per_symbol_bits",
              "cumulative_difference_bits", "telescope_bound_bits",
              "epsilon", "typical_per_symbol_bits", "typical_bound_bits"]
    write_csv(config.output_dir / "transfer.csv", header, rows, config)
    click.echo(f"wrote {len(rows)} transfer rows")


# -------------------------------------------------------------- heavy-hitting


@main.command("heavy-hitting")
@click.option("--config", "config_path", default=None, type=click.Path())
@click.option("--alphabet-size", type=int, default=None)
@click.option("--order", type=int, default=None)
@click.option("--dirichlet-alpha", type=float, default=None)
@click.option("--kernel", "kernel_file", default=None, type=click.Path(),
              help="analyze this kernel JSON instead of sampling one")
@click.option("--n", type=int, default=None)
@click.option("--beta", type=float, default=None)
@click.option("--budgets", default=None, help="comma list of dictionary budgets")
@click.option("--window", "window", type=int, default=None)
@click.option("--eta-transfer", type=float, default=None)
@click.option("--seed", "seeds", type=int, multiple=True)
@click.option("--output-dir", default=None)
@_exit_codes
def heavy_hitting_cmd(config_path, alphabet_size, order, dirichlet_alpha, kernel_file,
                      n, beta, budgets, window, eta_transfer, seeds, output_dir):
    """LZW budget sweep with token-length and end-to-end loss diagnostics."""
    cfg = _merge(
        {"alphabet_size": 2, "order": 2, "dirichlet_alpha": 2.0, "kernel": None,
         "n": 400_000, "beta": 0.8, "budgets": "16,64,256,1024", "window": 4,
         "eta_transfer": 1e-6, "seeds": [0], "output_dir": "out"},
        _load_config(config_path),
        {"alphabet_size": alphabet_size, "order": order, "dirichlet_alpha": dirichlet_alpha,
         "kernel": kernel_file, "n": n, "beta": beta, "budgets": budgets,
         "window": window, "eta_transfer": eta_transfer,
         "seeds": list(seeds) or None, "output_dir": output_dir},
    )
    budget_list = cfg["budgets"]
    if isinstance(budget_list, str):
        budget_list = [int(v) for v in budget_list.split(",")]
    config = ExperimentConfig(
        experiment="heavy-hitting",
        seeds=[int(s) for s in cfg["seeds"]],
        output_dir=_resolve_out(cfg["output_dir"]),
        source={k: cfg[k] for k in ("alphabet_size", "order", "dirichlet_alpha", "n")},
        tokenizer={"method": "lzw", "budgets": budget_list},
        windows=[int(cfg["window"])],
        params={"beta": cfg["beta"], "eta_transfer": cfg["eta_transfer"],
                "kernel": cfg["kernel"]},
    )
    if cfg["kernel"] is not None and not Path(cfg["kernel"]).exists():
        raise ParameterError(f"referenced file does not exist: {cfg['kernel']}")
    config.validate()
    run_heavy_hitting(config)


def run_heavy_hitting(config: ExperimentConfig) -> None:
    src = config.source
    beta = config.params["beta"]
    kernel_file = config.params.get("kernel")
    w = config.windows[0]
    rows = []
    for seed in config.seeds:
        if kernel_file is not None:
            kernel = TransitionKernel.load(kernel_file)
        else:
            kernel = sample_kernel(
                src["alphabet_size"], src["order"], src["dirichlet_alpha"], seed)
        delta = float(kernel.probs.min())
        if delta <= 0:
            raise AssumptionViolationError("kernel is not strictly positive")
        seq = sample_sequence(kernel, src["n"], seed)
        for d in config.tokenizer["budgets"]:
            vocab = train_lzw(seq, d, kernel.alphabet)
            stream = greedy_parse(vocab, seq)
            report = heavy_hitting_report(kernel, vocab, stream, beta, d, w)
            payload = report.to_json()
            # end-to-end loss bound via the typical transferred predictor
            w_d = report.window_span_threshold
            eta_hat = report.miss_prob
            if w_d >= 1 and eta_hat < 1.0:
                try:
                    target = conditional_entropy(kernel, w_d)
                    q = smooth(optimal_predictor(kernel, w_d), config.params["eta_transfer"])
                    typ = make_typical(transfer(q, vocab, w), w_d)
                    bd = typ.token_log_losses(stream)
                    bound = target + 4 * eta_hat * math.log2(d) / (
                        (1 - eta_hat) * report.ell_d + eta_hat)
                    payload["end_to_end"] = {
                        "w_d": w_d,
                        "measured_bits": bd.per_source_symbol(),
                        "bound_bits": bound,
                        "se_bits": bd.per_source_symbol_se(),
                    }
                except CapacityError:
                    payload["end_to_end"] = None
            _write_json(config.output_dir / f"heavy_seed{seed}_d{d}.json", payload)
            rows.append([
                seed, d, report.delta, report.ell_d, report.miss_prob,
                report.short_token_prob, report.window_fail_prob, report.alpha,
                int(report.length_inclusion_holds), int(report.window_bound_ok),
                int(report.alpha_bound_ok),
            ])
    header = ["seed", "d", "delta", "ell_d", "miss_prob", "short_token_prob",
              "window_fail_prob", "alpha", "length_inclusion", "window_bound_ok",
              "alpha_bound_ok"]
    write_csv(config.output_dir / "heavy_hitting.csv", header, rows, config)
    click.echo(f"wrote {len(rows)} heavy-hitting rows")


if __name__ == "__main__":
    main()
