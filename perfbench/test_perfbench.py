"""Tests of the benchmark itself: every output check rejects a corrupted
artifact, tracing leaves the artifacts unchanged, and the per-layer and
comparison bookkeeping adds up.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
from pathlib import Path

import pytest

import checks
import compare
import tracing
import worker
from workloads import PLANS

ROOT = Path(__file__).resolve().parent.parent
SEED = 0


@pytest.fixture(scope="session")
def oracles():
    return checks.load_oracles(ROOT)


@pytest.fixture(scope="session")
def cli():
    return sys.modules["recoding.cli"]


def run_round(cli, plan) -> str:
    shutil.rmtree(plan.out, ignore_errors=True)
    plan.out.mkdir(parents=True)
    for argv in plan.invocations:
        err = worker.invoke(cli, argv)
        assert err is None, err
    return worker.artifact_digest(plan.out)


@pytest.fixture(scope="session")
def rounds(tmp_path_factory, cli):
    """One small round of every workload, run once for the session."""
    out = {}
    for name, make in PLANS.items():
        plan = make(SEED, tmp_path_factory.mktemp(name), small=True)
        run_round(cli, plan)
        out[name] = plan
    return out


def copy_plan(plan, dst: Path):
    shutil.copytree(plan.out.parent, dst)
    facts = dict(plan.facts)
    if "corpus" in facts:
        facts["corpus"] = str(dst / Path(facts["corpus"]).name)
    return dataclasses.replace(plan, out=dst / "artifacts", facts=facts)


# ------------------------------------------------------------ corruptions


def edit_json(path: Path, fn) -> None:
    obj = json.loads(path.read_text())
    obj = fn(obj) or obj
    path.write_text(json.dumps(obj, sort_keys=True, indent=1))


def edit_csv(path: Path, row: int, updates: dict) -> None:
    """Apply {column: fn(old float or str) -> new} to one data row."""
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    data = [i for i, ln in enumerate(lines) if i and not ln.startswith("#")]
    cells = lines[data[row]].split(",")
    for col, fn in updates.items():
        j = header.index(col)
        cells[j] = str(fn(cells[j]))
    lines[data[row]] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def fmt(v: float) -> str:
    return format(v, ".12g")


def shift_decomposition(out: Path, row: int, **deltas) -> None:
    """Shift JSON keys of one decomposition row, and the matching CSV
    columns by the same amount, so the two artifacts still agree."""
    columns = {"source_loss_bits": "exact_source_bits", "fragmented_loss_bits": "exact_frag_bits",
               "context_deficit_bits": "context_deficit_bits",
               "phase_ambiguity_bits": "phase_ambiguity_bits", "gap_bits": "exact_gap_bits"}
    new = {}

    def apply(reports):
        for key, delta in deltas.items():
            reports[row][key] += delta
            new[columns[key]] = reports[row][key]

    edit_json(out / "decomposition.json", apply)
    edit_csv(out / "decomposition.csv", row, {c: (lambda _, v=v: fmt(v)) for c, v in new.items()})


def set_decomposition(out: Path, row: int, **values) -> None:
    reports = json.loads((out / "decomposition.json").read_text())
    shift_decomposition(out, row, **{k: v - reports[row][k] for k, v in values.items()})


def first_span_report(out: Path) -> Path:
    return sorted(out.glob("spans_*.json"))[0]


def drop_vocab_entry(out: Path, pick) -> None:
    path = out / f"vocab_seed{SEED}_V8.json"

    def fn(obj):
        entries = obj["entries"]
        entries.remove(pick(entries))

    edit_json(path, fn)


def _curve_point(out, i, key, fn):
    def edit(rep):
        rep["slack_curve"][i][key] = fn(rep["slack_curve"][i][key])
    edit_json(first_span_report(out), edit)


def _transfer(out, name, fn):
    edit_json(out / f"transfer_{name}_w4_seed{SEED}.json", fn)


def _rate_shift(rep):
    rep["entropy_rate_bits"] += 1e-8
    rep["source_context_loss_bits"] += 1e-8


def _typical_up(rep):
    t = rep["typical"]
    t["per_source_symbol_bits"] = t["bound_bits"] + 0.05


CORRUPTIONS = [
    # frag
    ("frag", "row shifted by 1e-6",
     lambda out: shift_decomposition(out, 0, phase_ambiguity_bits=1e-6), r"gap .* != deficit"),
    ("frag", "deficit at w > k",
     lambda out: shift_decomposition(out, 1, context_deficit_bits=1e-9, gap_bits=1e-9),
     r"deficit .* != 0 with w > k"),
    ("frag", "negative ambiguity",
     lambda out: set_decomposition(out, 0, phase_ambiguity_bits=-1e-9,
                                   gap_bits=json.loads((out / "decomposition.json").read_text())
                                   [0]["context_deficit_bits"] - 1e-9),
     r"negative phase ambiguity"),
    ("frag", "negative deficit",
     lambda out: shift_decomposition(out, 0, context_deficit_bits=-1.0, phase_ambiguity_bits=1.0),
     r"negative context deficit"),
    ("frag", "source bits move past the order",
     lambda out: shift_decomposition(out, 1, source_loss_bits=1e-10), r"exact source bits"),
    ("frag", "exact loss off the reference",
     lambda out: shift_decomposition(out, 0, fragmented_loss_bits=1e-8, gap_bits=1e-8,
                                     phase_ambiguity_bits=1e-8), r"!= reference"),
    ("frag", "empirical penalty off the gap",
     lambda out: edit_csv(out / "decomposition.csv", 0,
                          {"empirical_penalty_bits": lambda v: fmt(float(v) + 0.5)}),
     r"empirical penalty"),
    ("frag", "CSV and JSON disagree",
     lambda out: edit_csv(out / "decomposition.csv", 0,
                          {"exact_frag_bits": lambda v: fmt(float(v) + 1e-6)}), r"CSV"),
    ("frag", "row missing",
     lambda out: edit_json(out / "decomposition.json", lambda r: r[:-1]), r"rows"),
    # tokens: vocabularies and the ratio table
    ("tokens", "vocabulary lacks a symbol",
     lambda out: drop_vocab_entry(out, lambda e: "1"), r"is not an entry"),
    ("tokens", "vocabulary not prefix-closed",
     lambda out: drop_vocab_entry(out, lambda e: next(
         p for p in e if len(p) >= 2 and any(q != p and q.startswith(p) for q in e))),
     r"lacks its prefix"),
    ("tokens", "tokens * ratio != n",
     lambda out: edit_csv(out / "ratios.csv", 1, {"tokens": lambda v: int(v) + 1}),
     r"tokens \* ratio"),
    # tokens and text: span reports
    ("tokens", "histogram does not sum to 1",
     lambda out: edit_json(first_span_report(out), lambda r: r["span_histogram"].update(
         {k: v + 1e-6 for k, v in list(r["span_histogram"].items())[:1]})), r"sums to"),
    ("tokens", "worst-case span not the smallest",
     lambda out: edit_json(first_span_report(out),
                           lambda r: r.update(worst_case_span=r["worst_case_span"] + 1)),
     r"worst_case_span"),
    ("tokens", "epsilon off the histogram",
     lambda out: _curve_point(out, 1, "epsilon", lambda v: v + 1e-3), r"epsilon"),
    ("tokens", "slack != epsilon * rate * log2|Y|",
     lambda out: _curve_point(out, -1, "slack_bits", lambda v: v * 1.001), r"slack .* != epsilon"),
    ("tokens", "rate != log2|Z| / (alpha log2|Y|)",
     lambda out: edit_json(first_span_report(out), lambda r: r.update(rate=r["rate"] * 1.001)),
     r"rate"),
    ("tokens", "curve stops before the largest span",
     lambda out: edit_json(first_span_report(out),
                           lambda r: r.update(slack_curve=r["slack_curve"][:-1])),
     r"stops before|slack.csv"),
    # tokens: transfer-check
    ("tokens", "source-context loss below the entropy rate",
     lambda out: _transfer(out, "identity", lambda r: r.update(
         source_context_loss_bits=r["entropy_rate_bits"] - 1e-6)), r"source-context loss"),
    ("tokens", "source-context loss off the rate at ws >= k",
     lambda out: _transfer(out, "lzw32", lambda r: r.update(
         source_context_loss_bits=r["entropy_rate_bits"] + 1e-9)), r"at ws >= k"),
    ("tokens", "entropy rate off the reference",
     lambda out: _transfer(out, "lzw32", _rate_shift), r"reference"),
    ("tokens", "typical loss above its bound",
     lambda out: _transfer(out, "bpe8", _typical_up), r"typical loss"),
    # tokens: heavy-hitting
    ("tokens", "heavy-hitting flag flipped",
     lambda out: edit_csv(out / "heavy_hitting.csv", 0, {"window_bound_ok": lambda v: 0}),
     r"window_bound_ok"),
    ("tokens", "end-to-end bound missing",
     lambda out: edit_json(out / f"heavy_seed{SEED}_d64.json",
                           lambda r: r.update(end_to_end=None)), r"no end-to-end"),
    ("tokens", "end-to-end loss above its bound",
     lambda out: edit_json(out / f"heavy_seed{SEED}_d256.json", lambda r: r["end_to_end"].update(
         measured_bits=r["end_to_end"]["bound_bits"] + 1)), r"measured"),
    # text
    ("text", "histogram does not sum to 1",
     lambda out: edit_json(first_span_report(out), lambda r: r["span_histogram"].update(
         {k: v * 0.5 for k, v in list(r["span_histogram"].items())[:1]})), r"sums to"),
    ("text", "alpha * token_count != corpus length",
     lambda out: edit_json(first_span_report(out),
                           lambda r: r.update(token_count=r["token_count"] + 1)),
     r"alpha \* token_count"),
    ("text", "rate implies no whole vocabulary",
     lambda out: edit_json(first_span_report(out), lambda r: r.update(rate=r["rate"] * 1.0001)),
     r"implies a vocabulary"),
    ("text", "slack.csv differs from the reports",
     lambda out: edit_csv(out / "slack.csv", 3, {"slack_bits": lambda v: fmt(float(v) + 0.01)}),
     r"slack.csv"),
]


def test_checks_pass_on_program_output(rounds, oracles):
    for name, plan in rounds.items():
        checks.CHECKS[name](plan, oracles)


@pytest.mark.parametrize("workload,what,corrupt,message", CORRUPTIONS,
                         ids=[f"{c[0]}: {c[1]}" for c in CORRUPTIONS])
def test_check_rejects_corrupted_artifact(rounds, oracles, tmp_path, workload, what, corrupt,
                                          message):
    plan = copy_plan(rounds[workload], tmp_path / "copy")
    corrupt(plan.out)
    with pytest.raises(checks.CheckError, match=message):
        checks.CHECKS[workload](plan, oracles)


# ---------------------------------------------------------------- tracing


@pytest.mark.parametrize("workload", sorted(PLANS))
def test_traced_round_writes_identical_artifacts(cli, tmp_path, workload):
    plan = PLANS[workload](SEED, tmp_path, small=True)
    plain = run_round(cli, plan)
    tracer = tracing.Tracer()
    orig = sys.modules["recoding.tokenizer"].greedy_parse
    tracer.install()
    try:
        assert sys.modules["recoding.transfer"].greedy_parse is not orig
        tracer.scope = "round0"
        traced = run_round(cli, plan)
    finally:
        tracer.uninstall()
    assert traced == plain
    assert sys.modules["recoding.transfer"].greedy_parse is orig
    assert sys.modules["recoding.cli"].greedy_parse is orig
    assert tracer.spans, "no call was traced"


def test_self_times_add_up_and_every_metric_is_reported(cli, tmp_path):
    plan = PLANS["tokens"](SEED, tmp_path, small=True)
    tracer = tracing.Tracer()
    rounds = worker.run_rounds(cli, plan, 0.0, tracer)
    assert rounds["failed"] == 0 and len(rounds["traced_s"]) == 1
    metrics, problems = worker.trace_metrics(tracer, rounds)
    assert problems == []
    names = {name for name, _, _ in tracing.per_layer_metrics()}
    assert set(metrics) == names
    assert metrics["tokenizer.greedy_parse.calls"] > 0
    assert metrics["fragmentation.decompose.calls"] == 0
    for span in tracer.spans:
        if span[3] >= 0:
            parent = tracer.spans[span[3]]
            assert parent[1] <= span[1] <= span[2] <= parent[2]


def test_speed_sampler_leaves_artifacts_unchanged(cli, tmp_path):
    plan = PLANS["tokens"](SEED, tmp_path, small=True)
    plain = run_round(cli, plan)
    rounds = worker.run_rounds(cli, plan, 1e-9, None, worker.SpeedSampler())
    assert rounds["failed"] == 0 and rounds["digests"] == [plain]
    (cpu,), (speed,), (count,) = rounds["cpu_s"], rounds["speeds"], rounds["sample_counts"]
    assert 0 < cpu <= rounds["round_s"][0] and speed > 0 and count >= 1


def test_benchmark_json_lists_the_traced_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == tracing.per_layer_metrics()
    assert [w["name"] for w in spec["workloads"]] == list(PLANS)


# ---------------------------------------------------------------- compare


def test_compare_verdicts():
    base = [10.0, 10.1, 9.9, 10.05, 9.95]
    assert compare.verdict(base, [v * 1.02 for v in base], 0.1, "lower")[0] == "within bound"
    assert compare.verdict(base, [v * 1.2 for v in base], 0.1, "lower")[0] == "worse"
    noisy = [5.0, 10.0, 15.0, 7.0, 13.0]
    assert compare.verdict(base, noisy, 0.1, "lower")[0] == "unresolved"
    assert compare.verdict(noisy, [1.0, 1.1, 0.9], 0.1, "lower")[0] == "within bound"
