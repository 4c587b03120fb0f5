"""Deterministic text-like corpus generator.

Span diagnostics on character streams need a corpus; real experiments
should supply their own text file, but tests and demos use this
generator: a Zipf-weighted vocabulary of synthetic words assembled from
syllables, emitted as punctuated sentences.  The character alphabet
stays small (letters, space, newline, and basic punctuation) and the
output is a pure function of (n_chars, seed).
"""

from __future__ import annotations

import numpy as np

from .rng import TEXT_STREAM, generator

_CONSONANTS = "bcdfghjklmnprstvwz"
_VOWELS = "aeiou"
_FUNCTION_WORDS = (
    "the of and to in a is it that as was for on with he she they be at by "
    "an or from this but not are were has had have one all their we you"
).split()


def _word_inventory(rng: np.random.Generator, n_words: int) -> list[str]:
    syllables = [c + v for c in _CONSONANTS for v in _VOWELS]
    syllables += [c + v + t for c in "bdgklmnprst" for v in "aeio" for t in "nrs"]
    words = set()
    while len(words) < n_words:
        k = int(rng.integers(1, 4))
        words.add("".join(syllables[int(rng.integers(0, len(syllables)))] for _ in range(k)))
    return sorted(words)


def synthesize_corpus(n_chars: int = 1_200_000, seed: int = 0, n_words: int = 5000) -> str:
    """Generate at least n_chars characters of sentence-shaped text."""
    rng = generator(seed, TEXT_STREAM)
    content = _word_inventory(rng, n_words)
    content = [content[i] for i in rng.permutation(len(content))]
    ranks = np.arange(1, len(content) + 1, dtype=np.float64)
    zipf = 1.0 / (ranks + 10.0) ** 1.05
    zipf /= zipf.sum()
    # rng.choice(len(content), p=zipf) draws one uniform against this CDF
    cdf = zipf.cumsum()
    cdf /= cdf[-1]

    parts: list[str] = []
    total = 0
    while total < n_chars:
        length = int(rng.integers(4, 19))
        sentence = []
        for j in range(length):
            if rng.random() < 0.35:
                word = _FUNCTION_WORDS[int(rng.integers(0, len(_FUNCTION_WORDS)))]
            else:
                word = content[int(cdf.searchsorted(rng.random(), side="right"))]
            sentence.append(word)
            if 0 < j < length - 1 and rng.random() < 0.06:
                sentence[-1] += ","
        text = " ".join(sentence) + "."
        parts.append(text)
        total += len(text) + 1
        parts.append("\n" if rng.random() < 0.1 else " ")
    return "".join(parts)[:n_chars]
