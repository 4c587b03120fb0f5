"""Prefix-closed vocabularies, greedy longest-match parsing, and
vocabulary learning (adjacent-pair merging and LZW dictionary growth).

Every nonempty prefix of an entry is itself an entry and all single
symbols are entries, so every trie node below the root names a token and
greedy parsing never needs to backtrack: walk as deep as the input
allows and emit the node reached.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, FormatError, ParameterError
from .sources import Alphabet, json_fields, read_json


class PrefixVocabulary:
    """Token dictionary stored as a trie; entry ids index the sorted
    entry list so serialization order never matters."""

    def __init__(self, alphabet: Alphabet, strings, budget: int | None = None):
        closed: set[tuple[int, ...]] = {(i,) for i in range(alphabet.size)}
        for s in strings:
            word = tuple(int(v) for v in alphabet.encode(s))
            if not word:
                raise FormatError("vocabulary entries must be nonempty")
            for j in range(1, len(word) + 1):
                closed.add(word[:j])
        if budget is not None and len(closed) > budget:
            raise ParameterError(
                f"closed vocabulary has {len(closed)} entries, budget is {budget}"
            )
        self.alphabet = alphabet
        self.budget = budget
        self.entries: tuple[tuple[int, ...], ...] = tuple(sorted(closed))
        self._id_of = {e: i for i, e in enumerate(self.entries)}

        # trie over entries; node 0 is the root, every other node is an entry
        children: list[dict[int, int]] = [{}]
        token_at: list[int] = [-1]
        node_of = np.zeros(len(self.entries), dtype=np.int64)
        for eid, word in enumerate(self.entries):
            node = 0
            for sym in word:
                nxt = children[node].get(sym)
                if nxt is None:
                    nxt = len(children)
                    children[node][sym] = nxt
                    children.append({})
                    token_at.append(-1)
                node = nxt
            token_at[node] = eid
            node_of[eid] = node
        self._children = children
        self._token_at = token_at
        self._node_of = node_of

        self.lengths = np.array([len(e) for e in self.entries], dtype=np.int64)
        self.first_symbols = np.array([e[0] for e in self.entries], dtype=np.int64)
        ext = np.zeros((len(self.entries), alphabet.size), dtype=bool)
        for eid in range(len(self.entries)):
            for sym in children[node_of[eid]]:
                ext[eid, sym] = True
        self.ext_mask = ext
        self.ext_mask.flags.writeable = False
        if alphabet.size <= 256:
            self._entry_bytes = [bytes(e) for e in self.entries]
        else:
            self._entry_bytes = None

    @property
    def size(self) -> int:
        return len(self.entries)

    def id_of(self, string) -> int:
        word = tuple(int(v) for v in self.alphabet.encode(string))
        eid = self._id_of.get(word)
        if eid is None:
            raise FormatError(f"{string!r} is not a vocabulary entry")
        return eid

    def entry_label(self, eid: int) -> str:
        return self.alphabet.decode(self.entries[eid])

    def to_json(self) -> dict:
        labels = self.alphabet.symbols
        if all(len(s) == 1 for s in labels):
            entries = ["".join(labels[i] for i in e) for e in self.entries]
        else:
            entries = [[labels[i] for i in e] for e in self.entries]
        return {"alphabet": list(labels), "entries": entries}

    @classmethod
    def from_json(cls, obj: dict) -> "PrefixVocabulary":
        labels, entries = json_fields(obj, "vocabulary", "alphabet", "entries")
        return cls(Alphabet(tuple(labels)), entries)

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json(), sort_keys=True))

    @classmethod
    def load(cls, path) -> "PrefixVocabulary":
        return cls.from_json(read_json(path))


@dataclass
class TokenSequence:
    vocab: PrefixVocabulary
    ids: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def source_length(self) -> int:
        return int(self.vocab.lengths[self.ids].sum())


def build_vocab(alphabet: Alphabet, strings, budget: int | None = None) -> PrefixVocabulary:
    """Entries = the given strings, all their prefixes, all single symbols."""
    return PrefixVocabulary(alphabet, strings, budget=budget)


def greedy_parse(vocab: PrefixVocabulary, y_sequence) -> TokenSequence:
    """Left-to-right longest match; expanding the result recovers the input."""
    seq = vocab.alphabet.encode(y_sequence)
    n = len(seq)
    if vocab._entry_bytes is not None:
        data = seq.astype(np.uint8).tobytes()
    else:
        data = seq.tolist()
    children = vocab._children
    token_at = vocab._token_at
    out = []
    append = out.append
    pos = 0
    while pos < n:
        node = children[0][data[pos]]
        j = pos + 1
        while j < n:
            nxt = children[node].get(data[j])
            if nxt is None:
                break
            node = nxt
            j += 1
        append(token_at[node])
        pos = j
    return TokenSequence(vocab, np.asarray(out, dtype=np.int32))


def expand(vocab: PrefixVocabulary, tokens) -> np.ndarray:
    """Concatenate the source strings of a token sequence."""
    if isinstance(tokens, TokenSequence):
        ids = tokens.ids
    else:
        ids = np.asarray(tokens, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= vocab.size):
        raise FormatError("unknown token id")
    if vocab._entry_bytes is not None:
        eb = vocab._entry_bytes
        raw = b"".join(eb[i] for i in ids.tolist())
        return np.frombuffer(raw, dtype=np.uint8).astype(np.int32)
    parts = [vocab.entries[i] for i in ids.tolist()]
    flat = [s for p in parts for s in p]
    return np.asarray(flat, dtype=np.int32)


def ext_set(vocab: PrefixVocabulary, token) -> frozenset[str]:
    """Symbols by which a token can grow while staying in the vocabulary."""
    if isinstance(token, (int, np.integer)):
        eid = int(token)
        if not 0 <= eid < vocab.size:
            raise FormatError("unknown token id")
    else:
        eid = vocab.id_of(token)
    syms = vocab.alphabet.symbols
    return frozenset(syms[a] for a in np.flatnonzero(vocab.ext_mask[eid]))


def _thin_overlaps(pos: np.ndarray) -> np.ndarray:
    """Keep alternating positions inside each run of adjacent matches."""
    if pos.size == 0:
        return pos
    starts = np.empty(pos.size, dtype=bool)
    starts[0] = True
    starts[1:] = np.diff(pos) > 1
    run_start = pos[starts][np.cumsum(starts) - 1]
    return pos[((pos - run_start) % 2) == 0]


def _pair_counts(ids: np.ndarray, big: int) -> tuple[np.ndarray, np.ndarray]:
    """Non-overlapping adjacent-pair counts via run-length encoding.

    A run of m equal units contributes floor(m/2) mergeable (v, v) pairs;
    pairs across run boundaries are automatically non-overlapping.
    Returns (codes, counts) for pairs with a positive count.
    """
    boundaries = np.flatnonzero(np.diff(ids) != 0)
    run_ends = np.append(boundaries, len(ids) - 1)
    run_values = ids[run_ends]
    run_lengths = np.diff(np.append(-1, run_ends))

    diag_counts = np.bincount(run_values, weights=run_lengths // 2, minlength=big)
    diag_values = np.flatnonzero(diag_counts)
    diag_codes = diag_values * big + diag_values

    cross_codes, cross_counts = (
        np.unique(run_values[:-1] * big + run_values[1:], return_counts=True)
        if run_values.size > 1
        else (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
    )
    codes = np.concatenate([cross_codes, diag_codes])
    counts = np.concatenate([cross_counts, diag_counts[diag_values]]).astype(np.int64)
    return codes, counts


def train_bpe(corpus, target_size: int, alphabet: Alphabet | None = None) -> PrefixVocabulary:
    """Grow a vocabulary by merging the most frequent adjacent unit pair
    until the unit inventory (single symbols plus merged strings) reaches
    target_size, then close under prefixes.

    Conventions, since textbook byte-pair merging leaves them open:
    frequencies are non-overlapping occurrence counts recomputed from the
    current unit sequence each round (no cached partial counts); ties
    break on the lexicographically smallest (left, right) pair of unit
    strings in symbol-index order; prefix-closure strings added at the
    end do not count against target_size.
    """
    if alphabet is None:
        if isinstance(corpus, str):
            alphabet = Alphabet.from_text(corpus)
        else:
            raise ParameterError("alphabet is required for index sequences")
    if target_size < alphabet.size:
        raise ParameterError("target_size must be at least the alphabet size")
    seq = alphabet.encode(corpus)
    if len(seq) < 2:
        raise DataError("corpus must contain at least 2 symbols")

    unit_str: list[tuple[int, ...]] = [(i,) for i in range(alphabet.size)]
    ids = seq.astype(np.int64)

    while len(unit_str) < target_size and len(ids) >= 2:
        big = len(unit_str)
        codes, counts = _pair_counts(ids, big)
        best = int(counts.max())
        cands = codes[counts == best]
        pick = min(cands.tolist(), key=lambda c: (unit_str[c // big], unit_str[c % big]))
        left, right = divmod(int(pick), big)

        new_id = len(unit_str)
        unit_str.append(unit_str[left] + unit_str[right])
        match = (ids[:-1] == left) & (ids[1:] == right)
        pos = np.flatnonzero(match)
        if left == right:
            pos = _thin_overlaps(pos)
        ids[pos] = new_id
        keep = np.ones(len(ids), dtype=bool)
        keep[pos + 1] = False
        ids = ids[keep]

    return PrefixVocabulary(alphabet, unit_str)


def train_lzw(corpus, budget: int, alphabet: Alphabet | None = None) -> PrefixVocabulary:
    """Standard LZW dictionary growth up to `budget` total entries.

    Each scan step finds the longest dictionary match, inserts the match
    extended by the next symbol, and resumes at that symbol.
    """
    if alphabet is None:
        if isinstance(corpus, str):
            alphabet = Alphabet.from_text(corpus)
        else:
            raise ParameterError("alphabet is required for index sequences")
    if budget < alphabet.size:
        raise ParameterError("budget must be at least the alphabet size")
    seq = alphabet.encode(corpus)
    data = seq.astype(np.uint8).tobytes() if alphabet.size <= 256 else seq.tolist()
    n = len(data)

    # nested-dict trie: node maps symbol -> child node
    root: dict[int, dict] = {i: {} for i in range(alphabet.size)}
    entries: list[tuple[int, ...]] = [(i,) for i in range(alphabet.size)]
    size = alphabet.size
    pos = 0
    while pos < n and size < budget:
        node = root
        j = pos
        while j < n:
            child = node.get(data[j])
            if child is None:
                break
            node = child
            j += 1
        if j < n:
            node[data[j]] = {}
            entries.append(tuple(int(v) for v in seq[pos : j + 1]))
            size += 1
        pos = j  # single symbols always match, so j > pos
    return PrefixVocabulary(alphabet, entries, budget=budget)


def write_token_stream(path, stream: TokenSequence) -> None:
    """Varint-encoded ids plus a JSON sidecar carrying the vocabulary."""
    buf = bytearray()
    for v in stream.ids.tolist():
        while True:
            b = v & 0x7F
            v >>= 7
            if v:
                buf.append(b | 0x80)
            else:
                buf.append(b)
                break
    Path(path).write_bytes(bytes(buf))
    sidecar = {"vocabulary": stream.vocab.to_json(), "count": int(len(stream.ids))}
    Path(str(path) + ".json").write_text(json.dumps(sidecar, sort_keys=True))


def read_token_stream(path) -> TokenSequence:
    sidecar = json.loads(Path(str(path) + ".json").read_text())
    vocab = PrefixVocabulary.from_json(sidecar["vocabulary"])
    raw = Path(path).read_bytes()
    ids = []
    v = 0
    shift = 0
    for b in raw:
        v |= (b & 0x7F) << shift
        if b & 0x80:
            shift += 7
        else:
            ids.append(v)
            v = 0
            shift = 0
    if shift:
        raise FormatError("truncated varint stream")
    if len(ids) != sidecar["count"]:
        raise FormatError("token count does not match sidecar")
    arr = np.asarray(ids, dtype=np.int32)
    if arr.size and arr.max() >= vocab.size:
        raise FormatError("token id outside the vocabulary")
    return TokenSequence(vocab, arr)
