"""The four benchmark workloads, each a closed loop over hyperlift's public API.

Every workload builds its inputs from the seed (corpus, VQA set, backbone
weights), times its set-up several times, then runs a fixed amount of work:
each training step, `evaluate` call or `predict_answer` call starts only after
the previous one has returned. The amount of work is fixed by `--seconds` and
the size, never by the clock, so `loss_final` and `vqa_accuracy` repeat
exactly for one seed and a traced pass repeats the untraced pass's work.

hyperlift is always called through module attributes (`training.adapt`, not a
name imported from it), so that the tracer's attribute replacement reaches
every call.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from dataclasses import dataclass

from hyperlift import checkpoint, data, encoders, evaluation, objectives, peft, training

BATCH_SIZE = 32
EVAL_CALL_ITEMS = 256  # evaluate()'s default chunk: one call is one encoder batch
N_LAYERS = 4


@dataclass(frozen=True)
class Size:
    """Work per run. Counts scale with --seconds at the reference rates below,
    with floors that keep the p90 backed by at least ten samples beyond it."""

    setup_reps: int
    corpus: int
    warmup_steps: int
    min_steps: int
    min_eval_calls: int
    eval_call_items: int
    min_predicts: int


SIZES = {
    "full": Size(setup_reps=7, corpus=1024, warmup_steps=3, min_steps=100,
                 min_eval_calls=4, eval_call_items=EVAL_CALL_ITEMS, min_predicts=100),
    "tiny": Size(setup_reps=1, corpus=64, warmup_steps=1, min_steps=2,
                 min_eval_calls=1, eval_call_items=16, min_predicts=3),
}

# Work units per second of the code this benchmark was written against, on a
# 2-core x86 box with OpenBLAS, used only to size a run to about --seconds.
# Eval splits its time 80/20 between batched calls and one-at-a-time
# predictions.
REFERENCE_RATE = {
    "adapt-seq-all": 4.3,      # steps/s
    "adapt-lora-last1": 8.5,   # steps/s
    "pretrain-full": 9.0,      # steps/s
    "eval-calls": 0.8 * 90.0 / EVAL_CALL_ITEMS,  # evaluate calls/s
    "eval-predicts": 0.2 * 110.0,                # predict_answer calls/s
}


def work_count(seconds: float, rate: float, floor: int, size: Size) -> int:
    if size is SIZES["tiny"]:
        return floor
    return max(floor, round(seconds * rate))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: a value that was actually measured."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass
class Result:
    """What one measured pass produced. Timings in seconds."""

    setup_s: list
    call_s: list                 # one entry per measured step / predict call
    items: int                   # samples trained or VQA items scored in batched calls
    items_time_s: float          # wall time those items took
    attempted: int
    failed: int
    checks: dict                 # name -> bool
    quality: dict                # loss_final or vqa_accuracy
    units: int                   # steps, or VQA items scored (per-layer normalizer)


# -- set-up -----------------------------------------------------------------


def _peft_config(workload: str):
    if workload == "adapt-lora-last1":
        last = peft.last_k_layers(N_LAYERS, 1)
        return peft.PeftConfig(method="lora", lora_targets=("q", "v"),
                               text_layers=last, vision_layers=last)
    if workload in ("adapt-seq-all", "eval-vqa"):
        every = tuple(range(N_LAYERS))
        return peft.PeftConfig(method="seq_adapter", text_layers=every, vision_layers=every)
    return None


def set_up(workload: str, seed: int, size: Size, n_vqa: int, scratch: str):
    """Generate the inputs, build the backbone, round-trip it through a
    checkpoint and assemble the PEFT model. Returns (inputs dict, seconds)."""
    start = time.perf_counter()
    inputs = {}
    if workload == "eval-vqa":
        inputs["vqa"] = data.generate_vqa(seed, n_vqa)
    else:
        inputs["corpus"] = data.generate_corpus(seed, size.corpus)
    cfg = encoders.EncoderConfig(n_layers=N_LAYERS)
    backbone = encoders.DualEncoder(cfg, cfg, seed=seed)
    path = os.path.join(scratch, f"backbone-{os.getpid()}.npz")
    checkpoint.save_euclidean(backbone, path)
    backbone = checkpoint.load_euclidean(path)
    os.remove(path)
    peft_cfg = _peft_config(workload)
    if peft_cfg is None:
        inputs["model"] = backbone
    else:
        inputs["model"] = peft.assemble_adapted_model(backbone, peft_cfg, seed=seed)
    return inputs, time.perf_counter() - start


# -- training ---------------------------------------------------------------


class StepClock:
    """Marks step ends through the public metrics stream (log_every=1): the
    loop emits one record per step after its optimizer update."""

    def __init__(self, on_step=None):
        self.ends = []
        self.losses = []
        self._on_step = on_step
        self._orig = None

    def __enter__(self):
        self._orig = orig = training.MetricsLog.emit
        clock = self

        def emit(log, record):
            orig(log, record)
            clock.ends.append(time.perf_counter())
            clock.losses.append(float(record["loss"]))
            if clock._on_step is not None:
                clock._on_step(len(clock.ends))

        training.MetricsLog.emit = emit
        return self

    def __exit__(self, *exc):
        training.MetricsLog.emit = self._orig


def run_training(workload: str, inputs: dict, seed: int, seconds: float, size: Size,
                 tracer=None) -> dict:
    n_steps = work_count(seconds, REFERENCE_RATE[workload], size.min_steps, size)
    total = n_steps + size.warmup_steps
    cfg = training.TrainConfig(steps=total, batch_size=BATCH_SIZE, warmup_steps=total // 10,
                               seed=seed, log_every=1)
    model = inputs["model"]
    store = model.store
    frozen = {n: t.data.copy() for n, t in store.items() if n not in store.trainable}

    on_step = None
    if tracer is not None:
        def on_step(done):
            tracer.end_root()
            if done < total:
                tracer.begin_root("step", done, measured=done >= size.warmup_steps)
        tracer.begin_root("step", 0, measured=size.warmup_steps == 0)

    diverged = False
    with StepClock(on_step) as clock:
        start = time.perf_counter()
        try:
            if workload == "pretrain-full":
                training.pretrain_euclidean(inputs["corpus"], model, cfg)
            else:
                training.adapt(inputs["corpus"], model, cfg, objectives.LossConfig(lambda_entail=0.1))
        except training.TrainingDiverged:
            diverged = True
        finally:
            if tracer is not None and tracer.in_root():
                tracer.end_root()

    ends = [start] + clock.ends
    step_s = [b - a for a, b in zip(ends, ends[1:])][size.warmup_steps:]
    finite = sum(math.isfinite(x) for x in clock.losses)
    failed = total - finite
    checks = {"loss_finite_every_step": not diverged and finite == total}
    if workload == "pretrain-full":
        checks["every_parameter_trainable"] = not frozen
    else:
        unchanged = all(store[n].data.tobytes() == before.tobytes() for n, before in frozen.items())
        checks["frozen_backbone_bit_identical"] = unchanged
        if not unchanged:
            failed = total
    return {
        "call_s": step_s,
        "items": BATCH_SIZE * len(step_s),
        "items_time_s": sum(step_s),
        "attempted": total,
        "failed": failed,
        "checks": checks,
        "quality": {"loss_final": clock.losses[-1] if clock.losses else float("nan")},
        "units": len(step_s),
    }


# -- evaluation -------------------------------------------------------------


def eval_counts(seconds: float, size: Size) -> tuple[int, int]:
    """(evaluate calls, predict_answer calls after each evaluate call)."""
    calls = work_count(seconds, REFERENCE_RATE["eval-calls"], size.min_eval_calls, size)
    predicts = work_count(seconds, REFERENCE_RATE["eval-predicts"], size.min_predicts, size)
    return calls, min(size.eval_call_items, math.ceil(predicts / calls))


def run_eval(inputs: dict, seconds: float, size: Size, tracer=None) -> dict:
    """Batched `evaluate` over the VQA set in fixed-size calls. After each
    call, `predict_answer` one item at a time on the first items of that
    chunk. Interleaving spreads both timings over the whole run, so neither
    rests on one stretch of host load."""
    model, vqa = inputs["model"], inputs["vqa"]
    n_calls, per_call = eval_counts(seconds, size)
    tokenizer = data.Tokenizer(model.encoder.text_cfg.max_len)
    step = size.eval_call_items

    # One untimed prediction lets lazy imports and first-touch allocation
    # finish before timing.
    first = vqa[0]
    evaluation.predict_answer(first.image, evaluation.form_queries(first.question, first.candidates, tokenizer),
                              model, tokenizer)

    batched, eval_s, predict_s, mismatched = [], 0.0, [], 0
    for k in range(n_calls):
        chunk = vqa[k * step:(k + 1) * step]
        if tracer is not None:
            tracer.begin_root("evaluate", k)
        start = time.perf_counter()
        report = evaluation.evaluate(chunk, model, tokenizer, batch_size=step)
        eval_s += time.perf_counter() - start
        if tracer is not None:
            tracer.end_root()
        batched.extend(report.per_item)

        for item, rec in zip(chunk[:per_call], report.per_item):
            queries = evaluation.form_queries(item.question, item.candidates, tokenizer)
            if tracer is not None:
                tracer.begin_root("predict", rec["index"] + k * step)
            start = time.perf_counter()
            pred = evaluation.predict_answer(item.image, queries, model, tokenizer)
            predict_s.append(time.perf_counter() - start)
            if tracer is not None:
                tracer.end_root()
            mismatched += pred != rec["predicted"]

    n_items, n_predicts = len(batched), len(predict_s)
    correct = sum(rec["predicted"] == rec["gold"] for rec in batched)
    nonfinite = sum(not all(math.isfinite(d) for d in rec["distances"]) for rec in batched)
    checks = {
        "batched_equals_per_item": mismatched == 0,
        "distances_finite": nonfinite == 0,
        "every_item_scored": n_items == n_calls * step,
    }
    return {
        "call_s": predict_s,
        "items": n_items,
        "items_time_s": eval_s,
        "attempted": n_items + n_predicts,
        "failed": mismatched + nonfinite,
        "checks": checks,
        "quality": {"vqa_accuracy": correct / n_items},
        "units": n_items + n_predicts,
    }


# -- one pass ---------------------------------------------------------------


def run_pass(workload: str, seed: int, seconds: float, size: Size, scratch: str,
             setup_reps: int, tracer=None) -> Result:
    """Set up `setup_reps` times, about half before the measured work and the
    rest after it, so the set-up median samples the host at both ends of the
    run. The measured work uses the last set-up before it."""
    n_vqa = eval_counts(seconds, size)[0] * size.eval_call_items
    setup_s = []

    def timed_setup(rep):
        if tracer is not None:
            tracer.begin_root("setup", rep)
        inputs, took = set_up(workload, seed, size, n_vqa, scratch)
        if tracer is not None:
            tracer.end_root()
        setup_s.append(took)
        return inputs

    before = (setup_reps + 1) // 2
    for rep in range(before):
        inputs = timed_setup(rep)
    if workload == "eval-vqa":
        out = run_eval(inputs, seconds, size, tracer)
    else:
        out = run_training(workload, inputs, seed, seconds, size, tracer)
    del inputs
    for rep in range(before, setup_reps):
        timed_setup(rep)
    return Result(setup_s=setup_s, **out)


def end_to_end(res: Result, peak_rss_mb: float) -> dict:
    """The benchmark's end-to-end metrics: name -> (value, unit)."""
    return {
        "setup_s": (statistics.median(res.setup_s), "s"),
        "items_per_s": (res.items / res.items_time_s, "items/s"),
        "call_ms_p50": (1e3 * statistics.median(res.call_s), "ms"),
        "call_ms_p90": (1e3 * percentile(res.call_s, 90), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
