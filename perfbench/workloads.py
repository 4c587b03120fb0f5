"""The benchmark's workloads: inputs made from the seed, and the CLI
invocations that make up one round.

Every round of a workload runs the same invocations on the same inputs,
so each round writes the same artifacts.  `small` shrinks every size for
the benchmark's own tests; the benchmark itself always runs full size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Plan:
    """One workload instance: its invocations and the facts the output
    checks need to know about the inputs."""

    workload: str
    seed: int
    out: Path
    invocations: list[list[str]]
    facts: dict = field(default_factory=dict)


def _seed_args(seeds) -> list[str]:
    return [arg for s in seeds for arg in ("--seed", str(s))]


# The paper's six (order, block length) pairs plus (2, 4), whose exact table
# at w = 3 enumerates 16^4 source tuples.
FRAG_PAIRS = ((1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (3, 2), (2, 4))


def plan_frag(seed: int, workdir: Path, small: bool = False) -> Plan:
    pairs = FRAG_PAIRS[:3] if small else FRAG_PAIRS
    kernels = 1 if small else 2
    n = 20_000 if small else 100_000
    kseeds = [seed * kernels + i for i in range(kernels)]
    out = workdir / "artifacts"
    argv = ["frag-decompose", "--pairs", ",".join(f"{k}:{m}" for k, m in pairs),
            "--n", str(n), "--dirichlet-alpha", "0.5", "--laplace-alpha", "0.5",
            *_seed_args(kseeds), "--output-dir", str(out)]
    return Plan("frag", seed, out, [argv], {
        "pairs": list(pairs), "kernel_seeds": kseeds, "n": n,
        "dirichlet_alpha": 0.5, "laplace_alpha": 0.5,
    })


def plan_tokens(seed: int, workdir: Path, small: bool = False) -> Plan:
    out = workdir / "artifacts"
    markov = {"order": 12, "dirichlet_alpha": 0.4, "n": 40_000 if small else 4_000_000,
              "train_prefix": 20_000 if small else 200_000, "sizes": [4, 8]}
    span_sizes = [8]
    windows = [1, 4, 12]
    transfer = {"order": 6, "dirichlet_alpha": 0.5, "n": 30_000 if small else 500_000,
                "tokenizers": ["identity", "lzw:32", "bpe:8"], "w": 4}
    heavy = {"order": 2, "dirichlet_alpha": 2.0, "n": 30_000 if small else 400_000,
             "budgets": [64, 256, 1024], "w": 4}
    src = ["--alphabet-size", "2", "--order", "12", "--dirichlet-alpha", "0.4",
           "--n", str(markov["n"]), "--seed", str(seed), "--output-dir", str(out)]
    vocab_files = [str(out / f"vocab_seed{seed}_V{v}.json") for v in span_sizes]
    invocations = [
        ["tok-train", *src, "--train-prefix", str(markov["train_prefix"]),
         "--sizes", ",".join(map(str, markov["sizes"]))],
        ["span-cdf", *src, *[a for p in vocab_files for a in ("--vocab", p)],
         "--windows", ",".join(map(str, windows)), "--span-max-mult", "128"],
        ["transfer-check", "--alphabet-size", "2", "--order", str(transfer["order"]),
         "--dirichlet-alpha", str(transfer["dirichlet_alpha"]), "--n", str(transfer["n"]),
         *[a for t in transfer["tokenizers"] for a in ("--tokenizer", t)],
         "--window", str(transfer["w"]), "--seed", str(seed), "--output-dir", str(out)],
        ["heavy-hitting", "--alphabet-size", "2", "--order", str(heavy["order"]),
         "--dirichlet-alpha", str(heavy["dirichlet_alpha"]), "--n", str(heavy["n"]),
         "--budgets", ",".join(map(str, heavy["budgets"])), "--window", str(heavy["w"]),
         "--seed", str(seed), "--output-dir", str(out)],
    ]
    return Plan("tokens", seed, out, invocations, {
        "markov": markov, "span_sizes": span_sizes, "windows": windows,
        "transfer": transfer, "heavy": heavy,
    })


def plan_text(seed: int, workdir: Path, small: bool = False) -> Plan:
    """Builds the corpus: this is the workload's input preparation, so it
    counts towards set-up, not towards the timed rounds."""
    from recoding.demo_text import synthesize_corpus

    n_chars = 20_000 if small else 60_000
    size = 128 if small else 1024
    windows = [1, 8, 32, 128]
    corpus_path = workdir / "corpus.txt"
    corpus_path.parent.mkdir(parents=True, exist_ok=True)
    corpus_path.write_text(synthesize_corpus(n_chars, seed))
    out = workdir / "artifacts"
    argv = ["span-cdf", "--text", str(corpus_path), "--sizes", str(size),
            "--train-prefix", str(n_chars), "--windows", ",".join(map(str, windows)),
            "--span-max-mult", "128", "--seed", str(seed), "--output-dir", str(out)]
    return Plan("text", seed, out, [argv], {
        "corpus": str(corpus_path), "size": size, "windows": windows,
    })


PLANS = {"frag": plan_frag, "tokens": plan_tokens, "text": plan_text}
