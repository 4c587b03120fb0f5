"""Checks of the artifacts one round writes.

Each check compares the program's output with a computation made apart
from it (the brute-force references in ``tests/oracles.py``, sums over
the artifact's own tables) or with a property the method must have.
None compares with a stored copy of an earlier output.  A failed check
raises `CheckError` naming the artifact and the property.
"""

from __future__ import annotations

import importlib.util
import json
import math
from pathlib import Path

from workloads import Plan

# Largest A^(w+1) for which the brute-force fragmentation reference runs.
ORACLE_TUPLES = 4096
# Largest context count for which the dense reference entropy rate runs.
ORACLE_STATES = 1024
# Source symbols of each Markov sequence checked against the reference parse.
PARSE_PREFIX = 20_000
# The typical transferred loss may exceed its bound by this many standard
# errors; BATCHES batch means give the standard error.  Three i.i.d.
# standard errors (the se_bits transfer-check writes) fail on correct
# output for some seeds: the losses of a Markov sequence are correlated.
TYPICAL_SES = 5
BATCHES = 20


class CheckError(Exception):
    """An artifact does not have a property it must have."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


def load_oracles(root: Path):
    """Import the repository's brute-force references by file path."""
    path = root / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    if spec is None or not path.is_file():
        raise CheckError(f"reference implementations not found at {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def read_csv(path: Path) -> list[dict[str, str]]:
    _require(path.is_file(), f"{path.name} was not written")
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def read_json(path: Path):
    _require(path.is_file(), f"{path.name} was not written")
    return json.loads(path.read_text())


def _close(a: float, b: float, rel: float = 1e-11) -> bool:
    """Equal up to the 12 significant digits the CSV artifacts keep."""
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300) + 1e-15


# ------------------------------------------------------------------ frag


def empirical_tolerance(n: int, block: int, w: int, fragment_size: int = 2) -> float:
    """How far the empirical fragmented loss may lie from the exact one,
    bits per source symbol, for n source symbols.

    The n-gram model sees N = M*n fragments with contexts of M*w
    fragments, so it fits at most C = min(|X|^(Mw), N) contexts with
    |X|-1 free probabilities each.  Fitting them on the same N fragments
    it is scored on moves the per-fragment loss by at most
    C(|X|-1) log2(N) / (2N) bits (the parametric-complexity term that
    bounds both the in-sample underestimate and the add-1/2 smoothing
    overestimate).  Sampling noise adds 6/sqrt(N): six standard errors
    of a per-fragment loss whose spread is about one bit for binary
    fragments.  Both scale by M to bits per source symbol.
    """
    frags = block * n
    contexts = min(fragment_size ** (block * w), frags)
    bias = contexts * (fragment_size - 1) * math.log2(frags) / (2 * frags)
    return block * (bias + 6 / math.sqrt(frags))


def check_frag(plan: Plan, oracles) -> None:
    import recoding as r

    facts = plan.facts
    rows = read_csv(plan.out / "decomposition.csv")
    reports = read_json(plan.out / "decomposition.json")
    expected = [(k, m, s, w) for k, m in facts["pairs"] for s in facts["kernel_seeds"]
                for w in (k, k + 1)]
    got = [(rep["order"], rep["block_length"], rep["seed"], rep["w"]) for rep in reports]
    _require(got == expected, f"decomposition.json rows {got} != expected {expected}")
    _require(len(rows) == len(reports), "decomposition.csv and .json differ in row count")

    source_at: dict[tuple, float] = {}
    for rep, row in zip(reports, rows):
        k, m, s, w = rep["order"], rep["block_length"], rep["seed"], rep["w"]
        where = f"decomposition row k={k} M={m} seed={s} w={w}"
        for col, key in (("exact_source_bits", "source_loss_bits"),
                         ("exact_frag_bits", "fragmented_loss_bits"),
                         ("context_deficit_bits", "context_deficit_bits"),
                         ("phase_ambiguity_bits", "phase_ambiguity_bits"),
                         ("exact_gap_bits", "gap_bits"),
                         ("empirical_frag_bits", "empirical_fragmented_bits")):
            _require(_close(float(row[col]), rep[key]), f"{where}: CSV {col} != JSON {key}")
        gap = rep["gap_bits"]
        deficit = rep["context_deficit_bits"]
        ambiguity = rep["phase_ambiguity_bits"]
        _require(abs(gap - (deficit + ambiguity)) <= 1e-9,
                 f"{where}: gap {gap} != deficit {deficit} + ambiguity {ambiguity}")
        _require(deficit >= -1e-12, f"{where}: negative context deficit {deficit}")
        _require(ambiguity >= -1e-12, f"{where}: negative phase ambiguity {ambiguity}")
        if w > k:
            _require(abs(deficit) <= 1e-12, f"{where}: deficit {deficit} != 0 with w > k")
        tol = empirical_tolerance(facts["n"], m, w)
        err = abs(float(row["empirical_penalty_bits"]) - float(row["exact_gap_bits"]))
        _require(err <= tol, f"{where}: empirical penalty off the exact gap by {err} > {tol}")
        source_at[(k, m, s, w)] = rep["source_loss_bits"]

        if (2**m) ** (w + 1) <= ORACLE_TUPLES:
            kernel = r.sample_kernel(2**m, k, facts["dirichlet_alpha"], s)
            fmap = r.make_map(kernel.alphabet, r.Alphabet.of_size(2), m)
            ref = oracles.oracle_fragmentation(kernel, fmap, w)
            for key, ref_key in (("source_loss_bits", "source_loss"),
                                 ("fragmented_loss_bits", "fragmented_loss"),
                                 ("phase_ambiguity_bits", "phase_ambiguity"),
                                 ("context_deficit_bits", "context_deficit")):
                _require(abs(rep[key] - ref[ref_key]) <= 1e-9,
                         f"{where}: {key} {rep[key]} != reference {ref[ref_key]}")

    for k, m in facts["pairs"]:
        for s in facts["kernel_seeds"]:
            a, b = source_at[(k, m, s, k)], source_at[(k, m, s, k + 1)]
            _require(abs(a - b) <= 1e-12,
                     f"k={k} M={m} seed={s}: exact source bits {a} at w=k != {b} at w=k+1")


# ----------------------------------------------------------------- spans


def check_span_report(path: Path, w: int, source_symbols: int, source_length: int,
                      vocab_size: int | None, min_vocab: int = 1) -> int:
    """Check one span-cdf report; return the vocabulary size |Z| it implies.

    When the vocabulary is not written anywhere (text), |Z| is read back
    from the rate, which must then give a whole number of at least
    `min_vocab` entries.
    """
    rep = read_json(path)
    name = path.name
    hist = {int(s): p for s, p in rep["span_histogram"].items()}
    _require(bool(hist), f"{name}: empty span histogram")
    total = math.fsum(hist.values())
    _require(abs(total - 1.0) <= 1e-9, f"{name}: span histogram sums to {total}")
    worst = rep["worst_case_span"]
    _require(worst == min(hist), f"{name}: worst_case_span {worst} != smallest span {min(hist)}")
    _require(worst >= w, f"{name}: worst_case_span {worst} < w = {w}")
    alpha, rate, tokens = rep["alpha"], rep["rate"], rep["token_count"]
    _require(abs(alpha * tokens - source_length) <= 1e-9 * source_length,
             f"{name}: alpha * token_count = {alpha * tokens} != {source_length} symbols")

    bits = math.log2(source_symbols)
    if vocab_size is None:
        implied = 2.0 ** (rate * alpha * bits)
        vocab_size = round(implied)
        _require(abs(implied - vocab_size) <= 1e-6 * implied and vocab_size >= min_vocab,
                 f"{name}: rate {rate} implies a vocabulary of {implied} entries")
    want = math.log2(vocab_size) / (alpha * bits)
    _require(abs(rate - want) <= 1e-12 * want, f"{name}: rate {rate} != log2|Z|/(alpha log2|Y|) {want}")

    curve = rep["slack_curve"]
    _require(bool(curve), f"{name}: empty slack curve")
    largest = max(hist)
    spans = sorted(hist)
    prev_ws, prev_eps, past_largest = -1, 0.0, False
    for point in curve:
        ws, eps, slack = point["w_s"], point["epsilon"], point["slack_bits"]
        _require(ws > prev_ws, f"{name}: slack curve w_s not increasing at {ws}")
        _require(eps >= prev_eps, f"{name}: epsilon decreases at w_s={ws}")
        below = math.fsum(hist[s] for s in spans if s < ws)
        _require(abs(eps - below) <= 1e-9, f"{name}: epsilon {eps} at w_s={ws} != histogram mass {below}")
        if ws <= worst:
            _require(eps == 0.0, f"{name}: epsilon {eps} > 0 at w_s={ws} <= worst-case span")
        if ws > largest:
            past_largest = True
            _require(eps == 1.0, f"{name}: epsilon {eps} < 1 at w_s={ws} past the largest span")
        want_slack = eps * rate * bits
        _require(abs(slack - want_slack) <= 1e-12 * max(want_slack, 1e-300) + 1e-15,
                 f"{name}: slack {slack} != epsilon * rate * log2|Y| {want_slack} at w_s={ws}")
        prev_ws, prev_eps = ws, eps
    _require(past_largest, f"{name}: slack curve stops before the largest span {largest}")
    return vocab_size


def check_slack_csv(path: Path, label: str, reports: dict[tuple[str, int], Path]) -> None:
    """slack.csv holds exactly the curves of the JSON reports."""
    rows = read_csv(path)
    for (name, w), report in reports.items():
        curve = read_json(report)["slack_curve"]
        mine = [r for r in rows if r["corpus"] == label and r["tokenizer"] == name
                and int(r["w"]) == w]
        _require(len(mine) == len(curve), f"slack.csv has {len(mine)} rows for {name} w={w}, "
                                          f"report has {len(curve)}")
        for row, point in zip(mine, curve):
            _require(int(row["w_s"]) == point["w_s"]
                     and _close(float(row["epsilon"]), point["epsilon"])
                     and _close(float(row["slack_bits"]), point["slack_bits"]),
                     f"slack.csv row {row} != report point {point}")
    _require(len(rows) == sum(len(read_json(p)["slack_curve"]) for p in reports.values()),
             "slack.csv has rows no report accounts for")


# ---------------------------------------------------------------- tokens


def _vocab_entries(path: Path) -> set[tuple[int, ...]]:
    """Check a written vocabulary is prefix-closed and holds every symbol;
    return its entries as tuples of symbol indices."""
    obj = read_json(path)
    alphabet = list(obj["alphabet"])
    index = {s: i for i, s in enumerate(alphabet)}
    entries = set()
    for e in obj["entries"]:
        _require(len(e) > 0, f"{path.name}: empty entry")
        _require(all(ch in index for ch in e), f"{path.name}: entry {e!r} leaves the alphabet")
        entries.add(tuple(index[ch] for ch in e))
    _require(len(entries) == len(obj["entries"]), f"{path.name}: duplicate entries")
    for i in range(len(alphabet)):
        _require((i,) in entries, f"{path.name}: symbol {alphabet[i]!r} is not an entry")
    for e in entries:
        for j in range(1, len(e)):
            _require(e[:j] in entries, f"{path.name}: entry {e} lacks its prefix {e[:j]}")
    return entries


def batch_means_se(kernel, ws: int, seq, oracles) -> float:
    """Standard error of the mean per-symbol loss of the exact ws-context
    predictor along `seq`, by batch means over BATCHES equal batches.

    The losses of a Markov sequence are correlated, so the i.i.d. standard
    error ``transfer-check`` writes (``se_bits``) can be several times too
    small; batch means of long batches are not.  The conditional table
    comes from the kernel rows when ws >= k and from the brute-force window
    law otherwise.
    """
    import numpy as np

    a, k = kernel.alphabet_size, kernel.order
    if ws >= k:
        table, ctx = np.asarray(kernel.probs), k
    else:
        table = np.zeros((a**ws, a))
        for word, p in oracles.oracle_window_law(kernel, ws + 1).items():
            code = 0
            for sym in word[:-1]:
                code = code * a + sym
            table[code, word[-1]] += p
        table /= table.sum(axis=1, keepdims=True)
        ctx = ws
    y = np.asarray(seq, dtype=np.int64)
    n = y.size
    codes = np.zeros(n - ctx, dtype=np.int64)
    for j in range(ctx):
        codes = codes * a + y[j : n - ctx + j]
    losses = -np.log2(table[codes, y[ctx:]])
    size = losses.size // BATCHES
    means = losses[: size * BATCHES].reshape(BATCHES, size).mean(axis=1)
    return float(means.std(ddof=1) / math.sqrt(BATCHES))


def check_tokens(plan: Plan, oracles) -> None:
    import recoding as r

    facts, out, seed = plan.facts, plan.out, plan.seed
    markov = facts["markov"]
    n = markov["n"]

    # tok-train: vocabularies, reference parse of a prefix, ratio table
    kernel = r.sample_kernel(2, markov["order"], markov["dirichlet_alpha"], seed)
    prefix = r.sample_sequence(kernel, min(PARSE_PREFIX, n), seed)
    prefix_list = [int(v) for v in prefix]
    ratios = {int(row["V"]): row for row in read_csv(out / "ratios.csv")}
    _require(sorted(ratios) == sorted(markov["sizes"]), f"ratios.csv sizes {sorted(ratios)}")
    entry_count = {}
    for v in markov["sizes"]:
        path = out / f"vocab_seed{seed}_V{v}.json"
        entries = _vocab_entries(path)
        entry_count[v] = len(entries)
        vocab = r.PrefixVocabulary.load(path)
        parsed = [vocab.entries[i] for i in r.greedy_parse(vocab, prefix).ids.tolist()]
        ref = oracles.oracle_greedy_parse(entries, prefix_list)
        _require(parsed == ref, f"{path.name}: greedy parse of the prefix != reference parse")
        _require([s for t in ref for s in t] == prefix_list,
                 f"{path.name}: reference parse does not expand to the prefix")
        row = ratios[v]
        _require(int(row["entries"]) == len(entries),
                 f"ratios.csv V={v}: {row['entries']} entries, file has {len(entries)}")
        product = int(row["tokens"]) * float(row["ratio"])
        _require(abs(product - n) <= 1e-9 * n, f"ratios.csv V={v}: tokens * ratio = {product} != {n}")

    # span-cdf on the same source with the tok-train vocabularies
    label = f"markov_k{markov['order']}"
    reports = {}
    for v in facts["span_sizes"]:
        name = f"vocab_seed{seed}_V{v}"
        for w in facts["windows"]:
            path = out / f"spans_{label}_{name}_w{w}.json"
            check_span_report(path, w, 2, n, entry_count[v])
            reports[(name, w)] = path
    check_slack_csv(out / "slack.csv", label, reports)

    # transfer-check
    tr = facts["transfer"]
    tkernel = r.sample_kernel(2, tr["order"], tr["dirichlet_alpha"], seed)
    ref_rate = (oracles.oracle_entropy_rate(tkernel)
                if tkernel.context_count <= ORACLE_STATES else None)
    sequence = r.sample_sequence(tkernel, tr["n"], seed)
    rows = read_csv(out / "transfer.csv")
    _require(len(rows) == len(tr["tokenizers"]), f"transfer.csv has {len(rows)} rows")
    for spec, row in zip(tr["tokenizers"], rows):
        name = spec.replace(":", "")
        path = out / f"transfer_{name}_w{tr['w']}_seed{seed}.json"
        rep = read_json(path)
        rate, ctx_loss, ws = rep["entropy_rate_bits"], rep["source_context_loss_bits"], rep["ws"]
        _require(row["tokenizer"] == name and int(row["ws"]) == ws,
                 f"transfer.csv row {row['tokenizer']} != {path.name}")
        _require(ctx_loss >= rate - 1e-12,
                 f"{path.name}: source-context loss {ctx_loss} < entropy rate {rate}")
        if ws >= tr["order"]:
            _require(abs(ctx_loss - rate) <= 1e-12,
                     f"{path.name}: source-context loss {ctx_loss} != entropy rate {rate} at ws >= k")
        if ref_rate is not None:
            _require(abs(rate - ref_rate) <= 1e-9,
                     f"{path.name}: entropy rate {rate} != reference {ref_rate}")
        typ = rep["typical"]
        se = batch_means_se(tkernel, ws, sequence, oracles)
        _require(typ["per_source_symbol_bits"] <= typ["bound_bits"] + TYPICAL_SES * se,
                 f"{path.name}: typical loss {typ['per_source_symbol_bits']} above bound "
                 f"{typ['bound_bits']} + {TYPICAL_SES} x {se} (batch-means se)")
        _require(_close(float(row["typical_per_symbol_bits"]), typ["per_source_symbol_bits"]),
                 f"transfer.csv {name}: typical loss differs from {path.name}")

    # heavy-hitting
    hv = facts["heavy"]
    rows = {int(row["d"]): row for row in read_csv(out / "heavy_hitting.csv")}
    _require(sorted(rows) == sorted(hv["budgets"]), f"heavy_hitting.csv budgets {sorted(rows)}")
    for d in hv["budgets"]:
        for flag in ("length_inclusion", "window_bound_ok", "alpha_bound_ok"):
            _require(rows[d][flag] == "1", f"heavy_hitting.csv d={d}: {flag} = {rows[d][flag]}")
        path = out / f"heavy_seed{seed}_d{d}.json"
        e2e = read_json(path).get("end_to_end")
        _require(e2e is not None, f"{path.name}: no end-to-end loss bound")
        _require(e2e["measured_bits"] <= e2e["bound_bits"],
                 f"{path.name}: measured {e2e['measured_bits']} > bound {e2e['bound_bits']}")


# ------------------------------------------------------------------ text


def check_text(plan: Plan, oracles) -> None:
    facts = plan.facts
    corpus = Path(facts["corpus"]).read_text()
    symbols = len(set(corpus))
    name = f"V{facts['size']}"
    reports = {}
    sizes = set()
    for w in facts["windows"]:
        path = plan.out / f"spans_text_{name}_w{w}.json"
        sizes.add(check_span_report(path, w, symbols, len(corpus), None, facts["size"]))
        reports[(name, w)] = path
    _require(len(sizes) == 1, f"span reports of one vocabulary imply sizes {sorted(sizes)}")
    check_slack_csv(plan.out / "slack.csv", "text", reports)


CHECKS = {"frag": check_frag, "tokens": check_tokens, "text": check_text}
