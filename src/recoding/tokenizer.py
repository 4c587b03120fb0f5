"""Prefix-closed vocabularies, greedy longest-match parsing, and
vocabulary learning (adjacent-pair merging and LZW dictionary growth).

Every nonempty prefix of an entry is itself an entry and all single
symbols are entries, so every trie node below the root names a token and
greedy parsing never needs to backtrack: walk as deep as the input
allows and emit the node reached.  The parse is thus a finite-state run
over trie nodes, one step per symbol, and a token ends just before each
position whose node has depth 1; `lockstep.run_states` runs it in chunks.

A vocabulary is one array trie: a (nodes, A) int32 transition table
(row v: node v's child per symbol, 0 for none; node 0 is the root) and
each node's parent, symbol and depth.  Nodes are numbered in preorder,
children in symbol order, which sorts the entries: entry id v - 1 names
node v.  A node's string is a prefix of the first leaf string below it,
and only the leaf strings are stored, in one flat array.  Strings are
built as keys, their symbol indices as big-endian integers of 1, 2 or 4
bytes (`key_dtype`), which sort as index tuples do and whose prefixes
are byte prefixes, so sorting keys gives preorder.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataError, FormatError, ParameterError
from .lockstep import run_states
from .sources import Alphabet, encode_corpus, json_alphabet, json_fields, read_json


_INT32_MAX = np.iinfo(np.int32).max
# `TokenSequence.offsets` gathers the lengths of this many tokens at a time.
_SLICE = 1 << 16


def key_dtype(alphabet_size: int) -> np.dtype:
    """Dtype of one symbol of a string in key form."""
    return np.dtype(">u1" if alphabet_size <= 256 else ">u2" if alphabet_size <= 65536 else ">u4")


def _symbol_keys(alphabet_size: int) -> list[bytes]:
    """The key of each single symbol, in symbol order."""
    keys = np.arange(alphabet_size).astype(key_dtype(alphabet_size))
    return [row.tobytes() for row in keys[:, None]]


def _common_prefix(a: bytes, b: bytes) -> int:
    """Length in bytes of the longest common prefix of keys a < b."""
    if b.startswith(a):
        return len(a)
    m = min(len(a), len(b))
    return int(np.argmax(np.frombuffer(a, np.uint8, m) != np.frombuffer(b, np.uint8, m)))


class PrefixVocabulary:
    """The closure under prefixes of `strings` (anything `Alphabet.encode`
    takes, or keys as bytes) and of the single symbols, as an array trie."""

    def __init__(self, alphabet: Alphabet, strings):
        dt = key_dtype(alphabet.size)
        width = dt.itemsize
        keys = set(_symbol_keys(alphabet.size))
        for s in strings:
            key = s if isinstance(s, bytes) else alphabet.encode(s).astype(dt).tobytes()
            if not key:
                raise FormatError("vocabulary entries must be nonempty")
            keys.add(key)
        keys = sorted(keys)

        # one chain of new nodes per key, past its common prefix with the last
        parent, depth, suffixes = [-1], [0], []
        path = [0]  # the last key's nodes, root first
        for prev, key in zip([b""] + keys, keys):
            keep = _common_prefix(prev, key) // width
            del path[keep + 1 :]
            new = range(len(parent), len(parent) + len(key) // width - keep)
            parent.append(path[keep])
            parent.extend(new[:-1])
            path.extend(new)
            depth.extend(range(keep + 1, len(path)))
            suffixes.append(key[keep * width :])
        leaves = [k for k, nxt in zip(keys, keys[1:] + [b""]) if not nxt.startswith(k)]

        self.alphabet = alphabet
        self.size = len(depth) - 1
        self.parent = np.array(parent, dtype=np.int64)
        self.depth = np.array(depth, dtype=np.int64)
        self.lengths = self.depth[1:]
        self.symbol = np.concatenate([[-1], np.frombuffer(b"".join(suffixes), dt)]).astype(np.int64)
        self.trans = np.zeros((len(depth), alphabet.size), dtype=np.int32)
        self.trans[self.parent[1:], self.symbol[1:]] = np.arange(1, len(depth))
        # node v's string is flat[start[v] : start[v] + depth[v]]
        self.flat = np.frombuffer(b"".join(leaves), dt).astype(np.int32)
        leaf_nodes = np.flatnonzero(~self.trans.any(axis=1))
        leaf_starts = np.cumsum(self.depth[leaf_nodes]) - self.depth[leaf_nodes]
        self.start = leaf_starts[np.searchsorted(leaf_nodes, np.arange(len(depth)))]

    @cached_property
    def ext_mask(self) -> np.ndarray:
        """ext_mask[i, s]: entry i extended by symbol s is an entry."""
        return self.trans[1:] > 0

    @cached_property
    def first_symbols(self) -> np.ndarray:
        """A node's depth-1 ancestor is the last depth-1 node up to it in preorder."""
        nodes = np.arange(len(self.depth))
        return self.symbol[np.maximum.accumulate(np.where(self.depth == 1, nodes, 0))[1:]]

    @cached_property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        """Every entry's symbol indices, in id order."""
        flat = self.flat.tolist()
        return tuple(tuple(flat[s : s + d])
                     for s, d in zip(self.start[1:].tolist(), self.lengths.tolist()))

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
        """Write {"alphabet": labels, "entries": every entry in id order}
        as sorted-key JSON, one entry at a time: the entries' total length
        grows with the square of the longest one."""
        labels = self.alphabet.symbols
        flat = [labels[i] for i in self.flat.tolist()]
        if all(len(s) == 1 for s in labels):  # entries as strings, else as label lists
            flat = "".join(flat)
        spans = zip(self.start[1:].tolist(), self.lengths.tolist())
        with open(path, "w") as f:
            f.write(f'{{"alphabet": {json.dumps(list(labels))}, "entries": [')
            for eid, (s, d) in enumerate(spans):
                f.write((", " if eid else "") + json.dumps(flat[s : s + d]))
            f.write("]}")

    @classmethod
    def load(cls, path) -> "PrefixVocabulary":
        return cls.from_json(read_json(path))


@dataclass
class TokenSequence:
    """The token ids of a parse and the vocabulary they index.  A parse's
    ids come in the smallest unsigned dtype that holds the vocabulary's
    size, so that an id plus 1, its trie node, fits too."""

    vocab: PrefixVocabulary
    ids: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)

    @cached_property
    def offsets(self) -> np.ndarray:
        """Where each token starts in the source, then the source length:
        m + 1 entries for m tokens, token i spanning source symbols
        offsets[i] to offsets[i + 1].  They are int32 when the source
        length fits in it, else int64."""
        ids, lengths = self.ids, self.vocab.lengths
        # m times the longest entry bounds the source length
        wide = len(ids) * int(lengths.max()) > _INT32_MAX
        out = np.zeros(len(ids) + 1, dtype=np.int64 if wide else np.int32)
        for lo in range(0, len(ids), _SLICE):
            out[lo + 1 : lo + 1 + _SLICE] = lengths[ids[lo : lo + _SLICE]]
        np.cumsum(out, out=out)
        return out.astype(np.int32) if wide and out[-1] <= _INT32_MAX else out

    def window_spans(self, w: int) -> np.ndarray:
        """The source span of each run of w consecutive tokens: entry j
        covers tokens j .. j + w - 1, m - w + 1 entries in all."""
        if w < 1:
            raise ParameterError("window length must be >= 1")
        return self.offsets[w:] - self.offsets[:-w]


def greedy_parse(vocab: PrefixVocabulary, y_sequence) -> TokenSequence:
    """Left-to-right longest match; expanding the result recovers the input.

    From node v, symbol s leads to v's child for s, or else to the root's
    child for s.  A child lies one level deeper than its parent, so a
    node of depth 1 means a restart: the node before it ends a token, and
    the last node ends the last token.  The ids are read off the states
    through a state-to-id table, in `TokenSequence`'s dtype.
    """
    seq = vocab.alphabet.encode(y_sequence)
    a = vocab.alphabet.size
    # node v is the state v * a, so a step is one lookup at state + symbol
    step = np.where(vocab.trans > 0, vocab.trans, vocab.trans[0]).astype(np.int64) * a
    flat = step.ravel()
    table = flat.tolist()

    def advance(states: np.ndarray, syms: np.ndarray) -> np.ndarray:
        return flat[states + syms]

    def run(state: int, syms: np.ndarray) -> list[int]:
        out = []
        append = out.append
        for sym in syms.tolist():
            state = table[state + sym]
            append(state)
        return out

    def read(pos: int, size: int) -> np.ndarray:
        return seq[pos : pos + size]

    restart = np.zeros(flat.size, dtype=bool)
    restart[::a] = vocab.depth == 1
    # the id of the token that ends in each state: v - 1 at node v, state v * a
    token = np.zeros(flat.size, dtype=np.min_scalar_type(vocab.size))
    token[a::a] = np.arange(vocab.size)
    ids = [token[:0]]  # per block, the ids of the tokens ending in it
    prev = 0  # the state before the block; the root before the first
    # parses started at arbitrary offsets mostly rejoin the true parse
    # within a few symbols
    for states in run_states(len(seq), read, 0, advance, run, (0,), 1, flat.size):
        # the state before each restart ends a token
        ends = restart[states]
        if prev and ends[0]:
            ids.append(token[prev : prev + 1])
        ids.append(token[states[:-1][ends[1:]]])
        prev = int(states[-1])
    if len(seq):
        ids.append(token[prev : prev + 1])
    return TokenSequence(vocab, np.concatenate(ids))


def expand(vocab: PrefixVocabulary, tokens) -> np.ndarray:
    """Concatenate the source strings of a token sequence."""
    ids = tokens.ids if isinstance(tokens, TokenSequence) else np.asarray(tokens, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= vocab.size):
        raise FormatError("unknown token id")
    # the nodes ids + 1, in a dtype that holds the largest (a parse's holds it already)
    nodes = ids.astype(np.promote_types(ids.dtype, np.min_scalar_type(vocab.size)), copy=False) + 1
    lens = vocab.depth[nodes]
    # each output symbol's index in flat: its token's start minus the
    # token's output offset, plus its own output position
    shift = vocab.start[nodes] - (np.cumsum(lens) - lens)
    index = np.repeat(shift, lens)
    index += np.arange(index.size)
    return vocab.flat[index]


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


def bpe_units(seq: np.ndarray, target_size: int, alphabet_size: int) -> list[bytes]:
    """The units of byte-pair merging over the index sequence `seq`, in
    merge order and key form: the single symbols, then the merged units.

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
    units = _symbol_keys(alphabet_size)
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


def lzw_units(seq: np.ndarray, budget: int, alphabet_size: int) -> list[bytes]:
    """The units of LZW dictionary growth over the index sequence `seq`, in
    insertion order and key form: the single symbols, then one unit per
    scan step until `budget` units or the end of `seq`.

    Each scan step finds the longest dictionary match, inserts the match
    extended by the next symbol, and resumes at that symbol.
    """
    data = memoryview(seq)
    keys = seq.astype(key_dtype(alphabet_size))
    n = len(seq)
    a = alphabet_size
    trans = [list(range(1, a + 1))] + [[0] * a for _ in range(a)]  # rows as in PrefixVocabulary
    units = _symbol_keys(a)
    pos = 0
    while pos < n and len(units) < budget:
        node, j = 0, pos
        while j < n and trans[node][data[j]]:
            node = trans[node][data[j]]
            j += 1
        if j < n:
            trans[node][data[j]] = len(trans)
            trans.append([0] * a)
            units.append(keys[pos : j + 1].tobytes())
        pos = j  # single symbols always match, so j > pos
    return units


def train_vocabularies(seq, alphabet: Alphabet, requests) -> list[PrefixVocabulary]:
    """One vocabulary per (method, size) request, in request order: the
    prefix closure of the first `size` units that `method` ("bpe" or
    "lzw") learns from the symbols `seq`.

    Both methods only ever append units, and a larger size only runs the
    same loop longer, so each method trains once, at its largest requested
    size, and every smaller size takes a prefix of that unit list.  A size
    equal to the alphabet size is the identity vocabulary and trains
    nothing; a size below it is a ParameterError.
    """
    seq = alphabet.encode(seq)
    learners = {"bpe": bpe_units, "lzw": lzw_units}
    largest: dict[str, int] = {}
    for method, size in requests:
        if method not in learners:
            raise ParameterError(f"unknown tokenizer method {method!r}")
        if size < alphabet.size:
            raise ParameterError(
                f"{method} size {size} is below the alphabet size {alphabet.size}")
        largest[method] = max(size, largest.get(method, size))
    units = {}
    for method, size in largest.items():
        if method == "bpe" and size > alphabet.size and len(seq) < 2:
            raise DataError("corpus must contain at least 2 symbols")
        units[method] = learners[method](seq, size, alphabet.size) if size > alphabet.size else []
    return [PrefixVocabulary(alphabet, units[method][:size]) for method, size in requests]


def train_bpe(corpus, target_size: int, alphabet: Alphabet | None = None) -> PrefixVocabulary:
    """Grow a vocabulary by merging the most frequent adjacent unit pair
    until the unit inventory (single symbols plus merged strings) reaches
    target_size, then close under prefixes.

    Conventions, since textbook byte-pair merging leaves them open: a
    pair's frequency is its number of non-overlapping occurrences in the
    current unit sequence (floor(m/2) in a run of m equal units); ties
    break on the lexicographically smallest (left, right) pair of unit
    strings in symbol-index order; prefix-closure strings added at the
    end do not count against target_size.  A target_size equal to the
    alphabet size gives the single symbols and trains nothing; one below
    it is a ParameterError.  `bpe_units` gives the merge order, and the
    vocabulary of a smaller target_size is closed over a prefix of it
    (`train_vocabularies`).
    """
    alphabet, seq = encode_corpus(corpus, alphabet)
    return train_vocabularies(seq, alphabet, [("bpe", target_size)])[0]


def train_lzw(corpus, budget: int, alphabet: Alphabet | None = None) -> PrefixVocabulary:
    """Standard LZW dictionary growth up to `budget` total entries
    (`lzw_units`); the size rule is `train_bpe`'s."""
    alphabet, seq = encode_corpus(corpus, alphabet)
    return train_vocabularies(seq, alphabet, [("lzw", budget)])[0]
