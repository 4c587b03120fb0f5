"""Per-layer tracing of the `recoding` package, from outside it.

The tracer wraps public functions of the package's modules with a timing
shim.  Each call becomes a span (name, start, end, parent); spans stay in
memory and are written out as JSON when the run ends.  A span's self time
is its duration minus the time its traced children cover, so the self
times of all spans add up to the time spent inside traced calls.

`cli` and `fragmentation` bind names with ``from .x import y``, so a
wrapper has to replace every binding of the original object in every
``recoding.*`` namespace.  Modules are looked up in ``sys.modules``:
``recoding.transfer`` as an attribute of the package is the function
``transfer``, which the package re-exports under the submodule's name.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

LAYERS = ("sources", "fragmentation", "ngram", "tokenizer", "spans", "transfer",
          "demo_text", "cli")


@dataclass(frozen=True)
class Traced:
    """One traced function: where it lives, its metric name, and, for
    functions whose work has a natural count, the rate's name and how to
    read the count off the bound call arguments."""

    layer: str
    attr: str  # "name" or "Class.method"
    name: str
    rate: str | None = None
    work: Callable[[dict], int] | None = None


def _decompose_tuples(a: dict) -> int:
    return a["kernel"].alphabet_size ** (a["w"] + 1)


def _bpe_merges(a: dict) -> int:
    alphabet = a["alphabet"]
    size = alphabet.size if alphabet is not None else len(set(a["corpus"]))
    return max(a["target_size"] - size, 0)


TRACED = (
    Traced("sources", "sample_sequence", "sample_sequence", "symbols_per_s", lambda a: a["n"]),
    Traced("sources", "stationary_law", "stationary_law"),
    Traced("sources", "conditional_entropy", "conditional_entropy"),
    Traced("fragmentation", "decompose", "decompose", "tuples_per_s", _decompose_tuples),
    Traced("fragmentation", "empirical_fragmented_loss", "empirical_fragmented_loss"),
    Traced("fragmentation", "fragment", "fragment"),
    Traced("ngram", "fit", "fit", "symbols_per_s", lambda a: len(a["sequence"])),
    Traced("ngram", "log_loss", "log_loss", "symbols_per_s", lambda a: len(a["sequence"])),
    Traced("ngram", "window_codes", "window_codes"),
    Traced("ngram", "optimal_predictor", "optimal_predictor"),
    Traced("ngram", "log_loss_total", "log_loss_total"),
    Traced("tokenizer", "train_bpe", "train_bpe", "merges_per_s", _bpe_merges),
    Traced("tokenizer", "greedy_parse", "greedy_parse", "symbols_per_s",
           lambda a: len(a["y_sequence"])),
    Traced("tokenizer", "train_lzw", "train_lzw"),
    Traced("tokenizer", "PrefixVocabulary.__init__", "PrefixVocabulary"),
    Traced("tokenizer", "expand", "expand"),
    Traced("spans", "span_distribution", "span_distribution"),
    Traced("spans", "slack_curve", "slack_curve"),
    Traced("spans", "heavy_hitting_report", "heavy_hitting_report"),
    Traced("transfer", "TransferredPredictor.token_log_losses", "token_log_losses"),
    Traced("transfer", "TypicalPredictor.token_log_losses", "token_log_losses"),
    Traced("transfer", "loss_comparison", "loss_comparison"),
    Traced("demo_text", "synthesize_corpus", "synthesize_corpus", "chars_per_s",
           lambda a: a["n_chars"]),
    Traced("cli", "run_frag_decompose", "run_frag_decompose"),
    Traced("cli", "run_tok_train", "run_tok_train"),
    Traced("cli", "run_span_cdf", "run_span_cdf"),
    Traced("cli", "run_transfer_check", "run_transfer_check"),
    Traced("cli", "run_heavy_hitting", "run_heavy_hitting"),
)

# Spans of these functions happen during set-up, not in timed rounds, so
# their figures are per set-up rather than per round.
SETUP_FUNCTIONS = frozenset({"demo_text.synthesize_corpus"})

# Figures of the traced run as a whole rather than of one layer.
RUN_METRICS = (
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.untraced_remainder_s", "s", "lower"),
)


def _functions() -> dict[str, str | None]:
    """Metric key -> rate name of each traced function, in TRACED order;
    the two token_log_losses methods share one key."""
    out: dict[str, str | None] = {}
    for t in TRACED:
        out.setdefault(f"{t.layer}.{t.name}", t.rate)
    return out


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run reports."""
    out: list[tuple[str, str, str]] = []
    for key, rate in _functions().items():
        out.append((f"{key}.self_s", "s", "lower"))
        out.append((f"{key}.calls", "count", "lower"))
        if rate:
            out.append((f"{key}.{rate}", "1/s", "higher"))
    out.extend((f"{layer}.rss_growth_mb", "MB", "lower") for layer in LAYERS)
    out.extend(RUN_METRICS)
    return out


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Installs and removes the timing shims and keeps the spans."""

    def __init__(self):
        # span: [key, start, end, parent index, scope, work, self_s, rss_kb]
        self.spans: list[list] = []
        self.scope = "setup"
        self._stack: list[list] = []  # [span index, child seconds, child rss kb]
        self._undo: list[tuple[object, str, object]] = []
        # (holder, attribute, original, shim); a holder that is a class is
        # patched in place, a module function wherever it is bound
        self._patches: list[tuple[object, str, object, object]] = []
        for spec in TRACED:
            module = importlib.import_module(f"recoding.{spec.layer}")
            owner, _, attr = spec.attr.rpartition(".")
            holder = getattr(module, owner) if owner else module
            orig = vars(holder)[attr]
            self._patches.append((holder, attr, orig, self._wrap(spec, orig)))

    # ------------------------------------------------------------ patching

    def _wrap(self, spec: Traced, orig):
        key = f"{spec.layer}.{spec.name}"
        sig = inspect.signature(orig) if spec.work else None
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(orig)
        def shim(*args, **kwargs):
            index = len(spans)
            parent = stack[-1][0] if stack else -1
            span = [key, 0.0, 0.0, parent, self.scope, 0, 0.0, 0]
            spans.append(span)
            frame = [index, 0.0, 0]
            stack.append(frame)
            rss0 = _maxrss_kb()
            start = clock()
            try:
                return orig(*args, **kwargs)
            finally:
                end = clock()
                rss = _maxrss_kb() - rss0
                stack.pop()
                duration = end - start
                span[1], span[2] = start, end
                span[6] = duration - frame[1]
                span[7] = rss - frame[2]
                if stack:
                    stack[-1][1] += duration
                    stack[-1][2] += rss
                if sig is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span[5] = int(spec.work(bound.arguments))

        return shim

    def install(self) -> None:
        """Replace every binding of each traced function by its shim."""
        if self._undo:
            return
        namespaces = [m for name, m in sys.modules.items()
                      if name == "recoding" or name.startswith("recoding.")]
        for holder, attr, orig, shim in self._patches:
            if isinstance(holder, type):
                targets = [(holder, attr)]
            else:
                targets = [(m, name) for m in namespaces
                           for name, value in vars(m).items() if value is orig]
            for obj, name in targets:
                setattr(obj, name, shim)
                self._undo.append((obj, name, orig))

    def uninstall(self) -> None:
        for holder, name, orig in reversed(self._undo):
            setattr(holder, name, orig)
        self._undo.clear()

    # ------------------------------------------------------------- results

    def summary(self, rounds: int) -> dict[str, float]:
        """Per-layer figures: self seconds and calls per traced round (per
        set-up for set-up functions), rates over self time, and the rise
        of peak RSS, in MB, attributed to each layer's own calls."""
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        work: dict[str, int] = {}
        rss_kb = {layer: 0 for layer in LAYERS}
        for key, _s, _e, _p, _scope, n, own, rss in self.spans:
            self_s[key] = self_s.get(key, 0.0) + own
            calls[key] = calls.get(key, 0) + 1
            work[key] = work.get(key, 0) + n
            rss_kb[key.split(".", 1)[0]] += rss
        out: dict[str, float] = {}
        for key, rate in _functions().items():
            per = 1 if key in SETUP_FUNCTIONS else rounds
            total = self_s.get(key, 0.0)
            out[f"{key}.self_s"] = total / per
            out[f"{key}.calls"] = calls.get(key, 0) / per
            if rate:
                out[f"{key}.{rate}"] = work.get(key, 0) / total if total > 0 else 0.0
        for layer in LAYERS:
            out[f"{layer}.rss_growth_mb"] = rss_kb[layer] / 1024.0
        return out

    def round_self_total(self, scope) -> tuple[float, float]:
        """(sum of self times, sum of root-span durations) in one scope."""
        own = sum(s[6] for s in self.spans if s[4] == scope)
        roots = sum(s[2] - s[1] for s in self.spans if s[4] == scope and s[3] < 0)
        return own, roots

    def write(self, path: Path) -> None:
        rows = [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "scope": s[4]}
                for s in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(rows))
