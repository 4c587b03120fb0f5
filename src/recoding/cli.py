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
from pathlib import Path

import click
import numpy as np

from . import __version__
from .errors import (
    AssumptionViolationError,
    CapacityError,
    DataError,
    FormatError,
    ParameterError,
    RecodingError,
)
from .fragmentation import decompose, empirical_fragmented_loss, fragment, make_map
from .ngram import in_sample_log_loss, optimal_predictor
from .sources import (
    DEFAULT_TABLE_BUDGET,
    Alphabet,
    TransitionKernel,
    conditional_entropy,
    entropy_rate,
    read_json,
    sample_kernel,
    sample_sequence,
    stationary_law,
    write_sequence,
)
from .spans import (
    compression_stats,
    heavy_hitting_report,
    positive_delta,
    span_distribution,
    worst_case_span,
)
from .tokenizer import PrefixVocabulary, greedy_parse, train_vocabularies
from .transfer import TransferredPredictor, compare_losses

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
    # NaN fails both bounds; an infinity, or an int past the float range, fails one
    ok = type(v) in (int, float) and -sys.float_info.max <= v <= sys.float_info.max
    return _check(ok, v, "a finite number")


def _fraction(v):
    return _check(0 < _number(v) < 1, v, "a number in (0, 1)")


def _text(v):
    return _check(isinstance(v, str), v, "a string")


class _InputFile(str):
    """A path `_file` accepted: `_run`'s config hash covers the file's
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


def _run(experiment: str, cfg: dict, **groups) -> tuple[Path, list[str]]:
    """Create the run's output directory; return it and the footer of the
    run's CSV files.  The footer's config_hash digests the experiment, the
    seeds and the hash groups: the source keys the command takes, and the
    fragmentation, tokenizer, windows and params given.  Each input file
    counts by its content rather than by its path, so copies of the same
    inputs hash alike."""
    source = {k: cfg[k] for k in ("alphabet_size", "order", "dirichlet_alpha", "n") if k in cfg}
    groups = {"source": source, "fragmentation": {}, "tokenizer": {}, "windows": [], "params": {},
              **groups}
    groups["tokenizer"] = _by_content(groups["tokenizer"])
    groups["params"] = {k: str(_by_content(v)) for k, v in groups["params"].items()}
    blob = json.dumps({"experiment": experiment, "seeds": cfg["seeds"], **groups},
                      sort_keys=True, separators=(",", ":"))
    out = Path(os.environ.get("RECODING_OUT", "")) / cfg["output_dir"]
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file of that name, or no permission
        raise ParameterError(f"--output-dir: cannot make the directory {out}: "
                             f"{exc.strerror}") from None
    return out, [f"# config_hash={hashlib.sha256(blob.encode()).hexdigest()[:16]}",
                 "# seeds=" + ";".join(str(s) for s in cfg["seeds"]),
                 f"# artifact_version={__version__}"]


def _kernel(cfg: dict, seed: int, **source) -> TransitionKernel:
    """A seed's kernel: the `--kernel` file if one is given, else sampled
    from cfg's source keys, with `source`'s values in place of any of them.
    An n beyond `DEFAULT_TABLE_BUDGET` symbols is a CapacityError, raised
    before anything is drawn."""
    src = {**cfg, **source}
    if src["n"] > DEFAULT_TABLE_BUDGET:
        raise CapacityError(f"--n: {src['n']} symbols exceed the budget of "
                            f"{DEFAULT_TABLE_BUDGET}")
    if src.get("kernel") is not None:
        return TransitionKernel.load(src["kernel"])
    return sample_kernel(src["alphabet_size"], src["order"], src["dirichlet_alpha"], seed)


def _draw(cfg: dict, seed: int, **source) -> tuple[TransitionKernel, np.ndarray]:
    """A seed's kernel (`_kernel`) and its n-symbol sequence."""
    kernel = _kernel(cfg, seed, **source)
    return kernel, sample_sequence(kernel, {**cfg, **source}["n"], seed)


def _exact_transfer(kernel: TransitionKernel, vocab: PrefixVocabulary, stream, w: int,
                    ws: int, eta: float):
    """The exact ws-symbol predictor, eta-smoothed and transferred to
    w-token windows of `vocab`; its token losses on `stream`; and
    H(Y | ws symbols), the loss it carries over."""
    tp = TransferredPredictor(optimal_predictor(kernel, ws).smoothed(eta), vocab, w)
    return tp, tp.token_log_losses(stream), conditional_entropy(kernel, ws)


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


def write_csv(path: Path, header: list[str], rows: list[list], footer: list[str]) -> None:
    lines = [",".join(header), *(",".join(_fmt(v) for v in row) for row in rows), *footer]
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
    package's error class (see `errors`).  Other exceptions propagate."""
    @functools.wraps(fn)
    def wrapper(config_path, **flags):
        try:
            return fn(_settings(config_path, flags))
        except CapacityError as exc:
            message, code = f"capacity error: {exc}", 3
        except AssumptionViolationError as exc:
            message, code = f"assumption violation: {exc}", 4
        except RecodingError as exc:
            message, code = f"configuration error: {exc}", 2
        click.echo(message, err=True)
        sys.exit(code)

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
    run_gen_source(cfg)


def run_gen_source(cfg: dict) -> None:
    out, _ = _run("gen-source", cfg)  # no CSV, so the footer goes unused
    if cfg["alphabet_size"] > 256:
        raise ParameterError("--alphabet-size: raw sequence files support at most 256 symbols")
    drawn = [(seed, *_draw(cfg, seed)) for seed in cfg["seeds"]]  # all drawn before any is written
    for seed, kernel, seq in drawn:
        kernel.save(out / f"kernel_seed{seed}.json")
        write_sequence(out / f"sequence_seed{seed}.bin", seq, kernel.alphabet)
        click.echo(f"seed {seed}: kernel and {cfg['n']}-symbol sequence written")


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
    run_frag_decompose(cfg)


def run_frag_decompose(cfg: dict) -> None:
    l_alpha = cfg["laplace_alpha"]
    out, footer = _run("frag-decompose", cfg, fragmentation={"pairs": cfg["pairs"]},
                       params={"laplace_alpha": l_alpha})
    rows = []
    reports = []
    for order, block in cfg["pairs"]:
        for seed in cfg["seeds"]:
            # source alphabet re-coded to bits
            kernel, seq = _draw(cfg, seed, alphabet_size=2**block, order=order)
            fmap = make_map(kernel.alphabet, Alphabet.of_size(2), block)
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
    write_csv(out / "decomposition.csv", header, rows, footer)
    _write_json(out / "decomposition.json", reports)
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
    run_tok_train(cfg)


def run_tok_train(cfg: dict) -> None:
    sizes, prefix = cfg["sizes"], cfg["train_prefix"]
    out, footer = _run("tok-train", cfg,
                       tokenizer={"method": "bpe", "sizes": sizes, "train_prefix": prefix})
    rows = []
    written = []  # written only once every (seed, size) succeeded
    for seed in cfg["seeds"]:
        kernel, seq = _draw(cfg, seed)
        vocabs = _train("--sizes", seq[:prefix], kernel.alphabet, [("bpe", v) for v in sizes])
        for v, vocab in zip(sizes, vocabs):
            written.append((out / f"vocab_seed{seed}_V{v}.json", vocab))
            stream = greedy_parse(vocab, seq)
            ratio = len(seq) / len(stream.ids)
            rows.append([seed, v, vocab.size, len(stream.ids), ratio])
            click.echo(f"seed {seed} V={v}: {vocab.size} entries, ratio {ratio:.3f}")
    for path, vocab in written:
        vocab.save(path)
    write_csv(out / "ratios.csv", ["seed", "V", "entries", "tokens", "ratio"], rows, footer)


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
    run_span_cdf(cfg)


def _ws_sweep(w: int, max_mult: int, lo: int, hi: int) -> list[int]:
    top = min(hi + 1, max_mult * w)
    values = np.arange(max(lo - 1, 1), top + 1)
    if values.size > 512:  # subsample large sweeps at even spacing
        idx = np.linspace(0, values.size - 1, 512).round().astype(int)
        values = values[np.unique(idx)]
    return [int(v) for v in values]


def run_span_cdf(cfg: dict) -> None:
    text, vocab_files = cfg["text"], cfg["vocab_files"]
    sizes = [] if vocab_files else cfg["sizes"]  # --vocab trains nothing
    out, footer = _run(
        "span-cdf", cfg,
        tokenizer={"method": "bpe", "sizes": sizes, "train_prefix": cfg["train_prefix"],
                   "vocab_files": vocab_files},
        windows=cfg["windows"], params={"text": text, "span_max_mult": cfg["span_max_mult"]})
    if text:
        try:
            corpus = Path(text).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"--text {text} is not UTF-8 text: {exc}") from None
        alphabet = Alphabet.from_text(corpus)
        if alphabet.size < 2:
            raise DataError(f"--text {text} needs at least 2 distinct symbols")
        seq = alphabet.encode(corpus)
        label = "text"
    else:
        kernel, seq = _draw(cfg, cfg["seeds"][0])
        alphabet = kernel.alphabet
        label = f"markov_k{cfg['order']}"

    vocabs = _train("--sizes", seq[:cfg["train_prefix"]], alphabet, [("bpe", v) for v in sizes])
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
        for w in cfg["windows"]:
            report = span_distribution(stream, w)
            spans = sorted(report.span_histogram)
            sweep = _ws_sweep(w, cfg["span_max_mult"], spans[0], spans[-1])
            curve = report.slack(sweep)
            report.slack_curve = curve
            reports.append((out / f"spans_{label}_{name}_w{w}.json", report))
            for ws, eps, slack in curve:
                rows.append([label, name, w, ws, eps, report.rate, slack])
    for path, report in reports:
        report.save(path)
    write_csv(out / "slack.csv",
              ["corpus", "tokenizer", "w", "w_s", "epsilon", "rate", "slack_bits"],
              rows, footer)
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
    run_transfer_check(cfg)


def _tokenizer(spec: str, alphabet_size: int) -> tuple[str, tuple[str, int]]:
    """A tokenizer spec's artifact name and (method, size) request;
    identity is a method at the alphabet size, which trains nothing."""
    if spec == "identity":
        return "identity", ("bpe", alphabet_size)
    method, _, size = spec.partition(":")
    return f"{method}{int(size)}", (method, int(size))


def run_transfer_check(cfg: dict) -> None:
    specs, prefix = cfg["tokenizers"], cfg["train_prefix"]
    out, footer = _run(
        "transfer-check", cfg,
        tokenizer={"specs": specs, "train_prefix": prefix},
        windows=cfg["windows"], params={"ws": cfg["ws"], "eta": cfg["eta"]})
    rows = []
    reports = []  # written only once every (seed, tokenizer, window) succeeded
    for seed in cfg["seeds"]:
        kernel, seq = _draw(cfg, seed)
        rate = entropy_rate(kernel)
        names, requests = zip(*(_tokenizer(spec, kernel.alphabet_size) for spec in specs))
        vocabs = _train("--tokenizer", seq[:prefix], kernel.alphabet, requests)
        for name, vocab in zip(names, vocabs):
            stream = greedy_parse(vocab, seq)
            _, tok_rate = compression_stats(stream)
            for w in cfg["windows"]:
                ws = worst_case_span(stream, w) if cfg["ws"] is None else cfg["ws"]
                tp, bd, target = _exact_transfer(kernel, vocab, stream, w, ws, cfg["eta"])
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
                reports.append((out / f"transfer_{name}_w{w}_seed{seed}.json", report))
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
    write_csv(out / "transfer.csv", header, rows, footer)
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
    run_heavy_hitting(cfg)


def run_heavy_hitting(cfg: dict) -> None:
    budgets, w = cfg["budgets"], cfg["window"]
    out, footer = _run(
        "heavy-hitting", cfg,
        tokenizer={"method": "lzw", "budgets": budgets}, windows=[w],
        params={"beta": cfg["beta"], "eta_transfer": cfg["eta_transfer"],
                "kernel": cfg["kernel"]})
    rows = []
    payloads = []  # written only once every (seed, budget) succeeded
    for seed in cfg["seeds"]:
        kernel = _kernel(cfg, seed)
        # the source's assumptions fail before anything is sampled: a
        # reducible chain in its stationary law, which sampling needs, then
        # a zero transition probability
        stationary_law(kernel)
        positive_delta(kernel)
        seq = sample_sequence(kernel, cfg["n"], seed)
        vocabs = _train("--budgets", seq, kernel.alphabet, [("lzw", d) for d in budgets])
        for d, vocab in zip(budgets, vocabs):
            stream = greedy_parse(vocab, seq)
            report = heavy_hitting_report(kernel, stream, cfg["beta"], d, w)
            payload = report.to_json()
            # end-to-end loss bound via the typical transferred predictor
            w_d = report.window_span_threshold
            eta_hat = report.miss_prob
            if w_d >= 1 and eta_hat < 1.0:
                _, bd, target = _exact_transfer(kernel, vocab, stream, w, w_d,
                                                cfg["eta_transfer"])
                bound = target + 4 * eta_hat * math.log2(d) / (
                    (1 - eta_hat) * report.ell_d + eta_hat)
                payload["end_to_end"] = {
                    "w_d": w_d,
                    "measured_bits": bd.per_source_symbol(),
                    "bound_bits": bound,
                    "se_bits": bd.per_source_symbol_se(),
                }
            payloads.append((out / f"heavy_seed{seed}_d{d}.json", payload))
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
    write_csv(out / "heavy_hitting.csv", header, rows, footer)
    click.echo(f"wrote {len(rows)} heavy-hitting rows")


if __name__ == "__main__":
    main()
