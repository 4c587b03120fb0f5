"""Experiment driver: generate sources, train tokenizers, and emit the
CSV/JSON artifacts for the desk-scale analyses.

Every command is a pure function of its configuration and seeds, so
re-running it reproduces the output files byte for byte.  Configuration
comes from an optional JSON object (``--config``) keyed by the options'
parameter names (``--n`` is ``n``, ``--seed`` is ``seeds``, ``--vocab``
is ``vocab_files``); flags override its fields; the environment
variable RECODING_OUT sets the root for relative output directories.
Each option declares its key's default and parser once; an unknown key,
or a value its parser rejects, is a configuration error naming the key
or flag.  Exit codes: 0 success, 2 configuration error, 3 capacity
error, 4 assumption violation.

The paper-scale runs are ``recoding <command> --config configs/<file>``
(flags apply on top, e.g. a smaller ``--n``):

    frag-decompose  configs/frag-decompose.json
    tok-train       configs/tok-train.json
    span-cdf        configs/span-cdf.json, or configs/span-cdf.text.json
                    with ``--text CORPUS`` (scripts/make_text_corpus.py)
    transfer-check  configs/transfer-check.json
    heavy-hitting   configs/heavy-hitting.json
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
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
)
from .fragmentation import decompose, empirical_fragmented_loss, fragment, make_map
from .ngram import in_sample_log_loss, optimal_predictor
from .sources import (
    Alphabet,
    TransitionKernel,
    conditional_entropy,
    entropy_rate,
    read_json,
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
from .tokenizer import PrefixVocabulary, greedy_parse, train_vocabularies
from .transfer import TransferredPredictor, compare_losses

_CONFIG_ERRORS = (
    ParameterError,
    FormatError,
    DataError,
    AlphabetError,
    PositivityError,
)


@dataclass
class ExperimentConfig:
    """Parsed experiment parameters; `hash` names them in artifact footers."""

    experiment: str
    seeds: list[int]
    output_dir: Path
    source: dict = field(default_factory=dict)
    fragmentation: dict = field(default_factory=dict)
    tokenizer: dict = field(default_factory=dict)
    windows: list[int] = field(default_factory=list)
    params: dict = field(default_factory=dict)

    def hash(self) -> str:
        """Digest of the parameters, each input file by its content rather
        than by its path, so copies of the same inputs hash alike."""
        payload = {
            "experiment": self.experiment,
            "seeds": self.seeds,
            "source": self.source,
            "fragmentation": self.fragmentation,
            "tokenizer": _by_content(self.tokenizer),
            "windows": self.windows,
            "params": {k: str(_by_content(v)) for k, v in sorted(self.params.items())},
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ------------------------------------------------------------------ settings
# A parser takes a value as a JSON config or a flag gives it and returns it
# in the form the run functions use, or raises ValueError.


def _check(ok: bool, v, what: str):
    if not ok:
        raise ValueError(f"expected {what}, got {v!r}")
    return v


def _int(v):
    return _check(isinstance(v, int) and not isinstance(v, bool), v, "an integer")


def _positive(v):
    return _check(_int(v) >= 1, v, "an integer >= 1")


def _count(v):
    return _check(_int(v) >= 0, v, "an integer >= 0")


def _number(v):  # an int stays an int, so that a config's 2 and 2.0 hash as written
    return _check(isinstance(v, (int, float)) and not isinstance(v, bool), v, "a number")


def _fraction(v):
    return _check(0 < _number(v) < 1, v, "a number in (0, 1)")


def _text(v):
    return _check(isinstance(v, str), v, "a string")


class _InputFile(str):
    """A path `_file` accepted: `ExperimentConfig.hash` covers the file's
    bytes in its place."""


def _by_content(v):
    """v with each `_InputFile` in it, or in its lists and dict values,
    replaced by the sha256 of the file's bytes."""
    if isinstance(v, _InputFile):
        return hashlib.sha256(Path(v).read_bytes()).hexdigest()
    if isinstance(v, list):
        return [_by_content(x) for x in v]
    if isinstance(v, dict):
        return {k: _by_content(x) for k, x in v.items()}
    return v


def _file(v):
    return _InputFile(_check(isinstance(v, str) and Path(v).is_file(), v, "an existing file"))


def _pair(v):
    _check(isinstance(v, (list, tuple)) and len(v) == 2, v, "a k:M pair")
    k, m = _int(v[0]), _int(v[1])
    if k < 0 or m < 1:
        raise ValueError(f"expected order k >= 0 and block length M >= 1, got pair {k}:{m}")
    return k, m


def _spec(v):
    method, _, size = str(v).partition(":")
    ok = v == "identity" or (method in ("bpe", "lzw") and size.isdecimal())
    return _check(ok, v, "identity, bpe:V or lzw:d")


def _list_of(item, what: str, split=None, empty_ok: bool = False):
    """Parser of a JSON list of `item`s; a string, as a flag gives it, is a
    comma list whose pieces `split` turns into items."""
    def parse(v):
        if isinstance(v, str) and split is not None:
            try:
                v = [split(piece) for piece in v.split(",")]
            except ValueError:
                raise ValueError(f"expected a comma list of {what}, got {v!r}") from None
        _check(isinstance(v, (list, tuple)) and (empty_ok or v), v, f"a list of {what}")
        return [item(x) for x in v]
    return parse


_ints = _list_of(_int, "integers", split=int)
_seeds = _list_of(_count, "integers >= 0", split=int)
_windows = _list_of(_positive, "integers >= 1", split=int)
_pairs = _list_of(_pair, "k:M pairs", split=lambda s: [int(x) for x in s.split(":")])
_specs = _list_of(_spec, "tokenizer specs")
_files = _list_of(_file, "files", empty_ok=True)

_SIZE_RULE = "each at least the alphabet size (that size gives the identity vocabulary)"


def _read_config(path: str) -> dict:
    try:
        cfg = read_json(_file(path))
    except ValueError as exc:
        raise ParameterError(f"--config: {exc}") from None
    if not isinstance(cfg, dict):
        raise ParameterError(f"--config: {path} must hold a JSON object")
    return cfg


class _Key(click.Option):
    """A flag that is also a config key: the key's default and the parser
    every value of the key goes through."""

    def __init__(self, decls, key_default, parse, **attrs):
        super().__init__(decls, **attrs)
        self.key_default, self.parse = key_default, parse


def _key(*decls, default, parse, **attrs):
    """A `_Key` option; `default` is the config key's, click's stays unset."""
    return click.option(*decls, cls=_Key, key_default=default, parse=parse, **attrs)


def _options(*options):
    """Apply option decorators in the order listed."""
    def apply(fn):
        for option in reversed(options):
            fn = option(fn)
        return fn
    return apply


def _source_keys(order: int, dirichlet_alpha: float, n: int):
    return _options(
        _key("--alphabet-size", type=int, default=2, parse=_int),
        _key("--order", type=int, default=order, parse=_int),
        _key("--dirichlet-alpha", type=float, default=dirichlet_alpha, parse=_number),
        _key("--n", type=int, default=n, parse=_int),
    )


def _common_keys(seeds=(0,)):
    return _options(
        click.option("--config", "config_path", type=click.Path()),
        _key("--seed", "seeds", type=int, multiple=True, default=seeds, parse=_seeds),
        _key("--output-dir", default="out", parse=_text),
    )


def _settings(config_path: str | None, flags: dict) -> dict:
    """Each key of the running command: its default, overridden by the
    config file, overridden by a flag given; every value is parsed."""
    keys = {p.name: p for p in click.get_current_context().command.params
            if isinstance(p, _Key)}
    given = {key: (p.key_default, p.opts[0]) for key, p in keys.items()}
    for key, value in (_read_config(config_path) if config_path else {}).items():
        if key not in keys:
            raise ParameterError(f"unknown config key {key!r} in {config_path}")
        if value is not None:
            given[key] = value, f"config key {key!r}"
    for key, value in flags.items():
        if value is not None and value != ():
            given[key] = value, keys[key].opts[0]
    out = {}
    for key, (value, where) in given.items():
        try:
            out[key] = None if value is None else keys[key].parse(value)
        except ValueError as exc:
            raise ParameterError(f"{where}: {exc}") from None
    return out


def _source(cfg: dict) -> dict:
    return {k: cfg[k] for k in ("alphabet_size", "order", "dirichlet_alpha", "n")}


def _config(experiment: str, cfg: dict, **groups) -> ExperimentConfig:
    out = Path(os.environ.get("RECODING_OUT", "")) / cfg["output_dir"]
    out.mkdir(parents=True, exist_ok=True)
    return ExperimentConfig(experiment, cfg["seeds"], out, **groups)


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


def _train(flag: str, seq, alphabet: Alphabet, requests) -> list[PrefixVocabulary]:
    """`train_vocabularies`, whose size errors name the flag of the sizes."""
    try:
        return train_vocabularies(seq, alphabet, requests)
    except ParameterError as exc:
        raise ParameterError(f"{flag}: {exc}") from None


def _command(fn):
    """Run a command body on its settings; exit with the code of this
    package's errors."""
    @functools.wraps(fn)
    def wrapper(config_path, **flags):
        try:
            return fn(_settings(config_path, flags))
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
@_source_keys(order=1, dirichlet_alpha=0.5, n=10_000)
@_common_keys()
@_command
def gen_source_cmd(cfg):
    """Sample a kernel and a stationary sequence to files."""
    run_gen_source(_config("gen-source", cfg, source=_source(cfg)))


def run_gen_source(config: ExperimentConfig) -> None:
    src = config.source
    if src["alphabet_size"] > 256:
        raise ParameterError("--alphabet-size: raw sequence files support at most 256 symbols")
    drawn = []  # written only once every seed's kernel and sequence are drawn
    for seed in config.seeds:
        kernel = sample_kernel(src["alphabet_size"], src["order"], src["dirichlet_alpha"], seed)
        drawn.append((seed, kernel, sample_sequence(kernel, src["n"], seed)))
    for seed, kernel, seq in drawn:
        kernel.save(config.output_dir / f"kernel_seed{seed}.json")
        write_sequence(config.output_dir / f"sequence_seed{seed}.bin", seq, kernel.alphabet)
        click.echo(f"seed {seed}: kernel and {src['n']}-symbol sequence written")


# ------------------------------------------------------------ frag-decompose


@main.command("frag-decompose")
@_key("--pairs", default="1:2,1:3,1:4,2:2,2:3,3:2", parse=_pairs,
      help="comma list of order:block, e.g. 1:2,2:3")
@_key("--n", type=int, default=500_000, parse=_int)
@_key("--dirichlet-alpha", type=float, default=0.5, parse=_number)
@_key("--laplace-alpha", type=float, default=0.5, parse=_number)
@_common_keys(seeds=tuple(range(8)))
@_command
def frag_decompose_cmd(cfg):
    """Exact penalty decomposition plus n-gram verification per (k, M)."""
    run_frag_decompose(_config(
        "frag-decompose", cfg,
        source={"n": cfg["n"], "dirichlet_alpha": cfg["dirichlet_alpha"]},
        fragmentation={"pairs": cfg["pairs"]},
        params={"laplace_alpha": cfg["laplace_alpha"]},
    ))


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
            windows = (order, order + 1)
            exact = [decompose(kernel, fmap, w) for w in windows]
            # one fragmentation for both windows, held only while they are scored
            frags = fragment(fmap, seq)
            emp_frags = [empirical_fragmented_loss(fmap, seq, w, l_alpha, fragments=frags)
                         for w in windows]
            del frags
            for w, report, emp_frag in zip(windows, exact, emp_frags):
                emp_src = in_sample_log_loss(seq, w, l_alpha, kernel.alphabet)
                rows.append([order, block, seed, *report.to_json().values(),
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
@_source_keys(order=12, dirichlet_alpha=0.4, n=25_000_000)
@_key("--train-prefix", type=int, default=500_000, parse=_count)
@_key("--sizes", default="2,4,6,8,10,15,20", parse=_ints,
      help=f"comma list of vocabulary sizes; {_SIZE_RULE}")
@_common_keys()
@_command
def tok_train_cmd(cfg):
    """Train pair-merge vocabularies per size; report compression ratios."""
    run_tok_train(_config(
        "tok-train", cfg, source=_source(cfg),
        tokenizer={"method": "bpe", "sizes": cfg["sizes"], "train_prefix": cfg["train_prefix"]},
    ))


def run_tok_train(config: ExperimentConfig) -> None:
    src = config.source
    sizes = config.tokenizer["sizes"]
    prefix = config.tokenizer["train_prefix"]
    rows = []
    written = []  # written only once every (seed, size) succeeded
    for seed in config.seeds:
        kernel = sample_kernel(src["alphabet_size"], src["order"], src["dirichlet_alpha"], seed)
        seq = sample_sequence(kernel, src["n"], seed)
        vocabs = _train("--sizes", seq[:prefix], kernel.alphabet, [("bpe", v) for v in sizes])
        for v, vocab in zip(sizes, vocabs):
            written.append((config.output_dir / f"vocab_seed{seed}_V{v}.json", vocab))
            stream = greedy_parse(vocab, seq)
            ratio = len(seq) / len(stream.ids)
            rows.append([seed, v, vocab.size, len(stream.ids), ratio])
            click.echo(f"seed {seed} V={v}: {vocab.size} entries, ratio {ratio:.3f}")
    for path, vocab in written:
        vocab.save(path)
    write_csv(config.output_dir / "ratios.csv",
              ["seed", "V", "entries", "tokens", "ratio"], rows, config)


# ------------------------------------------------------------------ span-cdf


@main.command("span-cdf")
@_key("--text", type=click.Path(), default=None, parse=_file,
      help="analyze a text corpus instead of a synthetic source")
@_source_keys(order=12, dirichlet_alpha=0.4, n=2_000_000)
@_key("--sizes", default="2,4,6,8,10,15,20", parse=_ints,
      help=f"comma list of BPE vocabulary sizes to train; {_SIZE_RULE}.  With --text "
           "the alphabet is the corpus's distinct characters, so each size must be at "
           "least their number; with --vocab nothing is trained")
@_key("--vocab", "vocab_files", multiple=True, type=click.Path(), default=(), parse=_files,
      help="externally produced vocabulary JSON (repeatable)")
@_key("--train-prefix", type=int, default=500_000, parse=_count)
@_key("--windows", default="1,2,4,8,12", parse=_windows,
      help="comma list of token-window lengths")
@_key("--span-max-mult", type=int, default=20, parse=_positive,
      help="sweep w_s up to this multiple of w")
@_common_keys()
@_command
def span_cdf_cmd(cfg):
    """Span histograms and slack curves per (tokenizer, window)."""
    run_span_cdf(_config(
        "span-cdf", cfg, source=_source(cfg),
        tokenizer={"method": "bpe", "sizes": [] if cfg["vocab_files"] else cfg["sizes"],
                   "train_prefix": cfg["train_prefix"], "vocab_files": cfg["vocab_files"]},
        windows=cfg["windows"],
        params={"text": cfg["text"], "span_max_mult": cfg["span_max_mult"]},
    ))


def _ws_sweep(w: int, max_mult: int, lo: int, hi: int) -> list[int]:
    top = min(hi + 1, max_mult * w)
    values = np.arange(max(lo - 1, 1), top + 1)
    if values.size > 512:  # subsample large sweeps at even spacing
        idx = np.linspace(0, values.size - 1, 512).round().astype(int)
        values = values[np.unique(idx)]
    return [int(v) for v in values]


def run_span_cdf(config: ExperimentConfig) -> None:
    text = config.params["text"]
    sizes = config.tokenizer["sizes"]
    vocab_files = config.tokenizer["vocab_files"]
    prefix = config.tokenizer["train_prefix"]
    mult = config.params["span_max_mult"]
    seed = config.seeds[0]
    if text:
        try:
            corpus = Path(text).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"--text {text} is not UTF-8 text: {exc}") from None
        alphabet = Alphabet.from_text(corpus)
        seq = alphabet.encode(corpus)
        label = "text"
    else:
        src = config.source
        kernel = sample_kernel(src["alphabet_size"], src["order"], src["dirichlet_alpha"], seed)
        alphabet = kernel.alphabet
        seq = sample_sequence(kernel, src["n"], seed)
        label = f"markov_k{src['order']}"

    vocabs = _train("--sizes", seq[:prefix], alphabet, [("bpe", v) for v in sizes])
    jobs = [(f"V{v}", vocab) for v, vocab in zip(sizes, vocabs)]
    for path in vocab_files:
        vocab = PrefixVocabulary.load(path)
        if vocab.alphabet.symbols != alphabet.symbols:
            raise ParameterError(
                f"vocabulary {path} was built over a different alphabet")
        jobs.append((Path(path).stem, vocab))

    rows = []
    reports = []  # written only once every (vocabulary, window) pair succeeded
    for name, vocab in jobs:
        stream = greedy_parse(vocab, seq)
        for w in config.windows:
            report = span_distribution(stream, w)
            spans = sorted(report.span_histogram)
            sweep = _ws_sweep(w, mult, spans[0], spans[-1])
            curve = slack_curve(stream, w, sweep)
            report.slack_curve = curve
            reports.append((config.output_dir / f"spans_{label}_{name}_w{w}.json", report))
            for ws, eps, slack in curve:
                rows.append([label, name, w, ws, eps, report.rate, slack])
    for path, report in reports:
        report.save(path)
    write_csv(config.output_dir / "slack.csv",
              ["corpus", "tokenizer", "w", "w_s", "epsilon", "rate", "slack_bits"],
              rows, config)
    click.echo(f"wrote slack curves for {len(jobs)} vocabularies")


# ------------------------------------------------------------- transfer-check


@main.command("transfer-check")
@_source_keys(order=2, dirichlet_alpha=0.5, n=200_000)
@_key("--tokenizer", "tokenizers", multiple=True, default=("identity", "lzw:256"),
      parse=_specs, help=f"identity | bpe:V | lzw:d (repeatable); V and d: {_SIZE_RULE}")
@_key("--window", "windows", type=int, multiple=True, default=(4,), parse=_windows)
@_key("--ws", type=int, default=None, parse=_count,
      help="source context; default = empirical minimum span")
@_key("--eta", type=float, default=1e-6, parse=_fraction)
@_key("--train-prefix", type=int, default=None, parse=_count)
@_common_keys()
@_command
def transfer_check_cmd(cfg):
    """Transfer optimal predictors across vocabularies and verify bounds."""
    run_transfer_check(_config(
        "transfer-check", cfg, source=_source(cfg),
        tokenizer={"specs": cfg["tokenizers"], "train_prefix": cfg["train_prefix"]},
        windows=cfg["windows"], params={"ws": cfg["ws"], "eta": cfg["eta"]},
    ))


def _tokenizer(spec: str, alphabet_size: int) -> tuple[str, tuple[str, int]]:
    """A tokenizer spec's artifact name and (method, size) request;
    identity is a method at the alphabet size, which trains nothing."""
    if spec == "identity":
        return "identity", ("bpe", alphabet_size)
    method, _, size = spec.partition(":")
    return f"{method}{int(size)}", (method, int(size))


def run_transfer_check(config: ExperimentConfig) -> None:
    src = config.source
    eta = config.params["eta"]
    specs = config.tokenizer["specs"]
    prefix = config.tokenizer["train_prefix"]
    rows = []
    reports = []  # written only once every (seed, tokenizer, window) succeeded
    for seed in config.seeds:
        kernel = sample_kernel(src["alphabet_size"], src["order"], src["dirichlet_alpha"], seed)
        seq = sample_sequence(kernel, src["n"], seed)
        rate = entropy_rate(kernel)
        names, requests = zip(*(_tokenizer(spec, kernel.alphabet_size) for spec in specs))
        vocabs = _train("--tokenizer", seq[:prefix], kernel.alphabet, requests)
        for name, vocab in zip(names, vocabs):
            stream = greedy_parse(vocab, seq)
            _, tok_rate = compression_stats(stream)
            for w in config.windows:
                ws = config.params["ws"]
                if ws is None:
                    ws = worst_case_span(stream, w)
                q = optimal_predictor(kernel, ws).smoothed(eta)
                target = conditional_entropy(kernel, ws)
                tp = TransferredPredictor(q, vocab, w)
                bd = tp.token_log_losses(stream)
                report = compare_losses(tp, seq, bd)
                report.update({
                    "seed": seed, "tokenizer": name, "w": w, "ws": ws,
                    "entropy_rate_bits": rate,
                    "source_context_loss_bits": target,
                })
                eps = bd.bad_window_fraction()
                slack = eps * tok_rate * math.log2(kernel.alphabet_size)
                report["typical"] = {
                    "epsilon": eps,
                    "slack_bits": slack,
                    "per_source_symbol_bits": bd.per_source_symbol(),
                    "bound_bits": target + slack,
                    "se_bits": bd.per_source_symbol_se(),
                }
                reports.append((config.output_dir / f"transfer_{name}_w{w}_seed{seed}.json", report))
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
    for path, report in reports:
        _write_json(path, report)
    write_csv(config.output_dir / "transfer.csv", header, rows, config)
    click.echo(f"wrote {len(rows)} transfer rows")


# -------------------------------------------------------------- heavy-hitting


@main.command("heavy-hitting")
@_source_keys(order=2, dirichlet_alpha=2.0, n=400_000)
@_key("--kernel", type=click.Path(), default=None, parse=_file,
      help="analyze this kernel JSON instead of sampling one")
@_key("--beta", type=float, default=0.8, parse=_number)
@_key("--budgets", default="16,64,256,1024", parse=_ints,
      help=f"comma list of dictionary budgets; {_SIZE_RULE}")
@_key("--window", type=int, default=4, parse=_positive)
@_key("--eta-transfer", type=float, default=1e-6, parse=_fraction)
@_common_keys()
@_command
def heavy_hitting_cmd(cfg):
    """LZW budget sweep with token-length and end-to-end loss diagnostics."""
    run_heavy_hitting(_config(
        "heavy-hitting", cfg, source=_source(cfg),
        tokenizer={"method": "lzw", "budgets": cfg["budgets"]}, windows=[cfg["window"]],
        params={"beta": cfg["beta"], "eta_transfer": cfg["eta_transfer"],
                "kernel": cfg["kernel"]},
    ))


def run_heavy_hitting(config: ExperimentConfig) -> None:
    src = config.source
    beta = config.params["beta"]
    kernel_file = config.params["kernel"]
    budgets = config.tokenizer["budgets"]
    w = config.windows[0]
    rows = []
    payloads = []  # written only once every (seed, budget) succeeded
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
        vocabs = _train("--budgets", seq, kernel.alphabet, [("lzw", d) for d in budgets])
        for d, vocab in zip(budgets, vocabs):
            stream = greedy_parse(vocab, seq)
            report = heavy_hitting_report(kernel, stream, beta, d, w)
            payload = report.to_json()
            # end-to-end loss bound via the typical transferred predictor
            w_d = report.window_span_threshold
            eta_hat = report.miss_prob
            if w_d >= 1 and eta_hat < 1.0:
                target = conditional_entropy(kernel, w_d)
                q = optimal_predictor(kernel, w_d).smoothed(config.params["eta_transfer"])
                bd = TransferredPredictor(q, vocab, w).token_log_losses(stream)
                bound = target + 4 * eta_hat * math.log2(d) / (
                    (1 - eta_hat) * report.ell_d + eta_hat)
                payload["end_to_end"] = {
                    "w_d": w_d,
                    "measured_bits": bd.per_source_symbol(),
                    "bound_bits": bound,
                    "se_bits": bd.per_source_symbol_se(),
                }
            payloads.append((config.output_dir / f"heavy_seed{seed}_d{d}.json", payload))
            rows.append([
                seed, d, report.delta, report.ell_d, report.miss_prob,
                report.short_token_prob, report.window_fail_prob, report.alpha,
                int(report.length_inclusion_holds), int(report.window_bound_ok),
                int(report.alpha_bound_ok),
            ])
    header = ["seed", "d", "delta", "ell_d", "miss_prob", "short_token_prob",
              "window_fail_prob", "alpha", "length_inclusion", "window_bound_ok",
              "alpha_bound_ok"]
    for path, payload in payloads:
        _write_json(path, payload)
    write_csv(config.output_dir / "heavy_hitting.csv", header, rows, config)
    click.echo(f"wrote {len(rows)} heavy-hitting rows")


if __name__ == "__main__":
    main()
