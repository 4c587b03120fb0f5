"""Prefix-closed vocabularies, greedy longest-match parsing, and
vocabulary learning (adjacent-pair merging and LZW dictionary growth).

Every nonempty prefix of an entry is itself an entry and all single
symbols are entries, so every trie node below the root names a token and
greedy parsing never needs to backtrack: walk as deep as the input
allows and emit the node reached.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, FormatError, ParameterError
from .sources import Alphabet, json_alphabet, json_fields, read_json


class PrefixVocabulary:
    """Token dictionary stored as a trie; entry ids index the sorted
    entry list so serialization order never matters."""

    def __init__(self, alphabet: Alphabet, strings, budget: int | None = None):
        closed: set[tuple[int, ...]] = {(i,) for i in range(alphabet.size)}
        for s in strings:
            word = tuple(int(v) for v in alphabet.encode(s))
            if not word:
                raise FormatError("vocabulary entries must be nonempty")
            for j in range(len(word), 0, -1):  # closed stays prefix-closed
                if word[:j] in closed:
                    break
                closed.add(word[:j])
        if budget is not None and len(closed) > budget:
            raise ParameterError(
                f"closed vocabulary has {len(closed)} entries, budget is {budget}"
            )
        self.alphabet = alphabet
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
        alphabet = json_alphabet(labels, "vocabulary")
        if not isinstance(entries, list) or not all(
            isinstance(e, str) or isinstance(e, list) and all(isinstance(s, str) for s in e)
            for e in entries
        ):
            raise FormatError(
                "vocabulary JSON key 'entries' must hold a list of strings or of label lists")
        return cls(alphabet, entries)

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


def _self_pair_merges(pos: np.ndarray, nxt: np.ndarray) -> np.ndarray:
    """The occurrences of a (v, v) pair that merge, given all of them
    (ascending): the 1st, 3rd, ... of each run of linked occurrences, so
    floor(m/2) in a run of m equal units, merged left to right."""
    if pos.size < 2:
        return pos
    starts = np.empty(pos.size, dtype=bool)
    starts[0] = True
    starts[1:] = nxt[pos[:-1]] != pos[1:]
    first = np.flatnonzero(starts)
    take = np.repeat((first & 1) == 0, np.diff(first, append=pos.size))
    take[1::2] ^= True  # take index k when k and its run's start share parity
    return pos[take]


def _groups(keys: np.ndarray, bound: int, min_size: int):
    """(key, indices) for each value that at least min_size of `keys` (all
    below `bound`) take, indices ascending.  Few possible keys take one
    mask each, more a stable argsort, over uint16 (numpy's radix path)
    when they fit."""
    if bound <= 16:
        for key in range(bound):
            idx = np.flatnonzero(keys == key)
            if idx.size >= min_size:
                yield key, idx
        return
    order = np.argsort(keys.astype(np.uint16) if bound <= 1 << 16 else keys, kind="stable")
    keys = keys[order]
    lo = np.flatnonzero(np.diff(keys, prepend=-1))
    hi = np.append(lo[1:], keys.size)
    big = hi - lo >= min_size
    for key, a, b in zip(keys[lo[big]].tolist(), lo[big].tolist(), hi[big].tolist()):
        yield key, order[a:b]


def bpe_units(seq: np.ndarray, target_size: int, alphabet_size: int) -> list[tuple[int, ...]]:
    """The units of byte-pair merging over the index sequence `seq`, in
    merge order: the single symbols, then the merged units.

    Each round merges the pair of adjacent units with the most
    non-overlapping occurrences in the current unit sequence (a run of m
    equal units holds floor(m/2) occurrences of the pair (v, v), merged
    left to right inside the run); ties break on the lexicographically
    smallest (left, right) pair of unit strings in symbol-index order.
    Rounds stop at target_size units or when one unit spans `seq`.

    The sequence is a linked list over positions.  A heap holds one entry
    per pair: a bound on its count and its occurrences as of some round,
    as its own positions or as the positions it shares with the other
    pairs of one new unit, picked out by the neighbouring unit.  A merge
    creates pairs with the new unit only and never raises another pair's
    count, so a popped entry is recounted on its live occurrences when a
    merge since its round consumed one of its units, and pushed back if
    its bound was high.  Pairs that occur once stay out of the heap until
    no pair occurs twice.
    """
    n = len(seq)
    # position n is a sentinel unit -1 that ends the list on both sides
    sym = np.full(n + 1, -1, dtype=np.int32)
    sym[:n] = seq
    nxt = np.arange(1, n + 2)
    nxt[n] = n
    prv = np.arange(-1, n)
    prv[0] = n
    units: list[tuple[int, ...]] = [(i,) for i in range(alphabet_size)]
    heap: list[tuple] = []
    live = n
    min_count = 2
    # last round at which a pair (u, .), resp. (., u), merged: only those
    # merges remove occurrences of the pairs (., u), resp. (u, .)
    lost_right = [-1] * target_size
    lost_left = [-1] * target_size

    def entry(x: int, y: int, count: int, pos, exact_at: int) -> tuple:
        """Heap entry of the pair (x, y) whose occurrences as of round
        exact_at are `pos`, or those of `cand` whose `others` equal v when
        `pos` is (cand, others, v); `count` bounds the pair's count."""
        # the smallest entry merges next; should two distinct units share a
        # string, pairs of two different units go first, then unit ids
        return (-count, units[x], units[y], x == y, x, y, exact_at, pos)

    def push(x: int, y: int, count: int, pos, exact_at: int) -> None:
        if count >= min_count:
            heapq.heappush(heap, entry(x, y, count, pos, exact_at))

    def push_sequence(left: np.ndarray, right: np.ndarray, starts=None) -> None:
        """Entries for all pairs of the sequence: units `left` at `starts`
        (the indices of `left` when None) followed by units `right`."""
        big = len(units)
        wide = left.astype(np.int64) if big * big > 2**31 else left
        for code, idx in _groups(wide * big + right, big * big, min_count):
            x, y = divmod(code, big)
            push(x, y, idx.size, idx if starts is None else starts[idx], big)

    def push_new(pos: np.ndarray, others: np.ndarray, bound: int, pair_of) -> None:
        """Entries for the pairs pair_of(v) of a new unit with the units
        `others` (v below `bound`) at the positions `pos`."""
        counts = np.bincount(others, minlength=bound)
        for v in np.flatnonzero(counts[:bound] >= min_count).tolist():
            push(*pair_of(v), int(counts[v]), (pos, others, v), len(units))

    push_sequence(sym[: n - 1], sym[1:n])
    while len(units) < target_size and live >= 2:
        if not heap:  # every pair left occurs at most once
            min_count = 1
            starts = np.flatnonzero(sym[:n] >= 0)[:-1]
            push_sequence(sym[starts], sym[nxt[starts]], starts)
        neg, _, _, _, x, y, exact_at, pos = heapq.heappop(heap)
        if isinstance(pos, tuple):  # positions shared with the new unit's other pairs
            cand, others, v = pos
            pos = cand[others == v]
        if max(lost_right[y], lost_left[x]) >= exact_at:
            ok = sym[pos] == x
            ok &= sym[nxt[pos]] == y
            pos = pos[ok]
        merge = pos if x != y else _self_pair_merges(pos, nxt)
        if len(merge) < -neg:  # recounted lower; merge now if it still leads
            if len(merge) < min_count:
                continue
            again = entry(x, y, len(merge), pos, len(units))
            if heap and heap[0] < again:
                heapq.heappush(heap, again)
                continue

        z = len(units)
        units.append(units[x] + units[y])
        lost_right[x] = lost_left[y] = z
        right = nxt[merge]
        after = nxt[right]
        sym[merge] = z
        sym[right] = -1
        nxt[merge] = after
        prv[after] = merge
        live -= len(merge)
        if len(units) == target_size:
            break

        # the new unit's pairs: (z, v) at the merged positions, (v, z) one
        # unit before them (v = z is the pair (z, z) again); only the last
        # merged unit can end the sequence and only the first start it
        end = len(merge) - int(after[-1] == n)
        push_new(merge[:end], sym[after[:end]], z + 1, lambda v: (z, v))
        before = prv[merge]
        start = int(before[0] == n)
        push_new(before[start:], sym[before[start:]], z, lambda v: (v, z))
    return units


def train_bpe(corpus, target_size: int, alphabet: Alphabet | None = None) -> PrefixVocabulary:
    """Grow a vocabulary by merging the most frequent adjacent unit pair
    until the unit inventory (single symbols plus merged strings) reaches
    target_size, then close under prefixes.

    Conventions, since textbook byte-pair merging leaves them open: a
    pair's frequency is its number of non-overlapping occurrences in the
    current unit sequence (floor(m/2) in a run of m equal units); ties
    break on the lexicographically smallest (left, right) pair of unit
    strings in symbol-index order; prefix-closure strings added at the
    end do not count against target_size.  `bpe_units` gives the merge
    order.
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
    return PrefixVocabulary(alphabet, bpe_units(seq, target_size, alphabet.size))


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

