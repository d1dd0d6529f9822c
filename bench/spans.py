"""Span tracing of xdwell's layers from outside the package.

`install` replaces each function in `WRAPS` with a wrapper that records a
span (name, start, end, parent span, run id) around every call, at the
name its caller looks up: `cli` binds `min_coherent_model` and
`egalitarian_broadband` itself, `dwell` binds `transmission_probability`
and `gaussian_envelope`, and `shots._campaign_batches` finds
`iter_batches` in the module's globals.  A generator gets one span per
`next()`.  Spans stay in memory until `write` at the end of the run.

Pool workers are not traced: their time shows in the parent as self time
of the `cli` command that waits for them.
"""

from __future__ import annotations

import collections
import functools
import importlib
import json
import statistics
import time

# (module, attribute, span name, kind, workloads on which it must fire)
# kind: "call", "rows" (the argument after self is a batch of rows) or
# "batches" (a generator of (phases, clicks, truth) batches)
MODELS, CAMPAIGN, CALIBRATE = "models-sweep", "campaign-file", "calibrate-2w"
WRAPS = (
    ("xdwell.cli", "cmd_models", "cli.models", "call", {MODELS}),
    ("xdwell.cli", "cmd_simulate", "cli.simulate", "call", {CAMPAIGN}),
    ("xdwell.cli", "cmd_analyze", "cli.analyze", "call", {CAMPAIGN}),
    ("xdwell.cli", "cmd_calibrate", "cli.calibrate", "call", {CALIBRATE}),
    ("xdwell.cli", "analyze_file", "cli.analyze_file", "call", {CAMPAIGN}),
    ("xdwell.cli", "run_calibration", "cli.run_calibration", "call",
     {CALIBRATE}),
    ("xdwell.cli", "min_coherent_model", "dwell.min_coherent_model", "call",
     {MODELS}),
    ("xdwell.cli", "egalitarian_broadband", "dwell.egalitarian_broadband",
     "call", {MODELS}),
    ("xdwell.dwell", "transmission_probability",
     "medium.transmission_probability", "call", {MODELS}),
    ("xdwell.dwell", "gaussian_envelope", "medium.gaussian_envelope", "call",
     {MODELS}),
    ("xdwell.shots", "run_campaign", "shots.run_campaign", "call", {CAMPAIGN}),
    ("xdwell.shots", "iter_batches", "shots.iter_batches", "batches",
     {CAMPAIGN}),
    ("xdwell.shotfile", "ShotFileWriter.append", "shotfile.append", "rows",
     {CAMPAIGN}),
    ("xdwell.shotfile", "iter_shot_batches", "shotfile.iter_shot_batches",
     "batches", {CAMPAIGN}),
    ("xdwell.estimator", "RunningMoments.add_batch", "estimator.add_batch",
     "rows", {CAMPAIGN, CALIBRATE}),
    ("xdwell.estimator", "fit_phi0", "estimator.fit_phi0", "call",
     {CAMPAIGN, CALIBRATE}),
    ("xdwell.estimator", "fit_transmitted", "estimator.fit_transmitted",
     "call", {CAMPAIGN, CALIBRATE}),
    ("xdwell.estimator", "combine_detunings", "estimator.combine_detunings",
     "call", {CAMPAIGN}),
    ("xdwell.estimator", "calibrate_proportional_noise",
     "estimator.calibrate_proportional_noise", "call", {CALIBRATE}),
)
COMMANDS = ("cli.models", "cli.simulate", "cli.analyze", "cli.calibrate")
BATCH_SPANS = {name for _, _, name, kind, _ in WRAPS if kind == "batches"}

NAME, START, END, PARENT, RUN, ROWS, NBYTES = range(7)


class Tracer:
    """Spans kept as lists [name, start_ns, end_ns, parent, run, rows, nbytes]."""

    def __init__(self):
        self.spans = []
        self._open = []
        self._run = 0

    def set_run(self, run_id: int):
        self._run = run_id

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent,
                           self._run, 0, 0])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int):
        self.spans[index][END] = time.perf_counter_ns()
        self._open.pop()

    def write(self, path):
        fields = ["name", "start_ns", "end_ns", "parent", "run", "rows",
                  "nbytes"]
        with open(path, "w") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh)


def _wrap(tracer: Tracer, fn, name: str, kind: str):
    if kind == "batches":
        @functools.wraps(fn)
        def traced_batches(*args, **kwargs):
            batches = fn(*args, **kwargs)
            try:
                while True:
                    index = tracer.begin(name)
                    try:
                        batch = next(batches)
                    except StopIteration:
                        return
                    finally:
                        tracer.end(index)
                    phases = batch[0]
                    tracer.spans[index][ROWS] = phases.shape[0]
                    tracer.spans[index][NBYTES] = (phases.shape[0]
                                                   * phases.strides[0])
                    yield batch
            finally:
                batches.close()
        return traced_batches

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(index)
            if kind == "rows":
                tracer.spans[index][ROWS] = len(args[1])
    return traced


def install(tracer: Tracer):
    """Wrap every entry of WRAPS; a name that moved fails here, loudly."""
    for module, attr, name, kind, _ in WRAPS:
        owner = importlib.import_module(module)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        if not callable(getattr(owner, leaf, None)):
            raise RuntimeError(
                f"{module}.{attr} is gone: update WRAPS in bench/spans.py")
        setattr(owner, leaf, _wrap(tracer, getattr(owner, leaf), name, kind))


def check_fired(tracer: Tracer, workload: str):
    """Fail the traced run if a wrapper its workload uses never fired."""
    # a batch generator fires when it yields, not when it is only created
    fired = {span[NAME] for span in tracer.spans
             if span[ROWS] > 0 or span[NAME] not in BATCH_SPANS}
    silent = [name for _, _, name, _, users in WRAPS
              if workload in users and name not in fired]
    if silent:
        raise RuntimeError(
            f"wrappers never fired on {workload}: {', '.join(silent)}; the "
            "code they wrap moved, so update WRAPS in bench/spans.py")


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures from the spans; a layer never called reads 0."""
    spans = tracer.spans
    child_ns = [0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_ns[span[PARENT]] += span[END] - span[START]
    stats = collections.defaultdict(lambda: {
        "durations": [], "self": 0, "rows": 0, "nbytes": 0, "batches": 0})
    cli_self = dict.fromkeys(COMMANDS, 0)
    for i, span in enumerate(spans):
        duration = span[END] - span[START]
        s = stats[span[NAME]]
        s["durations"].append(duration)
        s["self"] += duration - child_ns[i]
        s["rows"] += span[ROWS]
        s["nbytes"] += span[NBYTES]
        s["batches"] += span[ROWS] > 0
        if span[NAME].startswith("cli."):
            # cli glue (analyze_file, run_calibration) is its command's time
            top = i
            while (spans[top][PARENT] >= 0
                   and spans[spans[top][PARENT]][NAME].startswith("cli.")):
                top = spans[top][PARENT]
            cli_self[spans[top][NAME]] += duration - child_ns[i]

    def busy_s(name):
        return sum(stats[name]["durations"]) / 1e9

    def calls(name):
        return len(stats[name]["durations"])

    def p50_ms(name):
        durations = stats[name]["durations"]
        return statistics.median(durations) / 1e6 if durations else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    mc = stats["dwell.min_coherent_model"]
    batches = stats["shots.iter_batches"]
    append = stats["shotfile.append"]
    read = stats["shotfile.iter_shot_batches"]
    moments = stats["estimator.add_batch"]
    bytes_per_shot = ratio(read["nbytes"], read["rows"])
    values = {
        "dwell.min_coherent_model.ms_p50": p50_ms("dwell.min_coherent_model"),
        "dwell.min_coherent_model.calls": calls("dwell.min_coherent_model"),
        "dwell.min_coherent_model.self_ms": ratio(
            mc["self"] / 1e6, len(mc["durations"])),
        "dwell.egalitarian_broadband.ms_p50": p50_ms(
            "dwell.egalitarian_broadband"),
        "medium.transmission_probability.busy_s": busy_s(
            "medium.transmission_probability"),
        "medium.transmission_probability.calls": calls(
            "medium.transmission_probability"),
        "medium.gaussian_envelope.busy_s": busy_s("medium.gaussian_envelope"),
        "shots.iter_batches.ms_per_batch": ratio(
            busy_s("shots.iter_batches") * 1e3, batches["batches"]),
        "shots.iter_batches.batches": batches["batches"],
        "shots.shots_generated": batches["rows"],
        "shots.run_campaign.self_s": stats["shots.run_campaign"]["self"] / 1e9,
        "shotfile.append.busy_s": busy_s("shotfile.append"),
        "shotfile.append.mb_per_s": ratio(
            append["rows"] * bytes_per_shot / 1e6, busy_s("shotfile.append")),
        "shotfile.bytes_per_shot": bytes_per_shot,
        "shotfile.iter_shot_batches.busy_s": busy_s(
            "shotfile.iter_shot_batches"),
        "shotfile.iter_shot_batches.mb_per_s": ratio(
            read["nbytes"] / 1e6, busy_s("shotfile.iter_shot_batches")),
        "estimator.add_batch.busy_s": busy_s("estimator.add_batch"),
        "estimator.add_batch.calls": calls("estimator.add_batch"),
        "estimator.add_batch.ns_per_row": ratio(
            busy_s("estimator.add_batch") * 1e9, moments["rows"]),
        "estimator.fit_phi0.ms": p50_ms("estimator.fit_phi0"),
        "estimator.fit_transmitted.ms": p50_ms("estimator.fit_transmitted"),
        "estimator.calibrate_proportional_noise.ms": p50_ms(
            "estimator.calibrate_proportional_noise"),
    }
    for command in COMMANDS:
        values[f"{command}.self_s"] = cli_self[command] / 1e9
    return values


PROBE_NAMES = ("medium.propagate_spectral.ms", "bloch.integrate_weak_bloch.ms",
               "bloch.fate_fractions.ms")


def probe_slice(repeats: int = 5) -> dict:
    """Median time of each public per-slice function on one model slice.

    The slice comes from the sweep's own inputs: a sigma 10 ns envelope of
    4096 samples (the model's grid and decay tail), OD 4, depth 0.5, and
    `default_bloch_config`.  One slice is bound by per-step Python cost, so
    a probe shows the direction of a change; dwell.min_coherent_model.self_ms
    shows its share of a model point.
    """
    from xdwell.bloch import fate_fractions, integrate_weak_bloch
    from xdwell.dwell import default_bloch_config
    from xdwell.medium import (MediumSpec, PulseSpec, gaussian_envelope,
                               propagate_spectral)

    pulse = PulseSpec(intensity_rms=10e-9)
    medium = MediumSpec.from_lifetime(4.0, 26.5e-9)
    env = gaussian_envelope(pulse, n_samples=4096, tail=10.0 * medium.tau_sp)
    bloch = default_bloch_config(pulse, medium)
    samples = {name: [] for name in PROBE_NAMES}
    for _ in range(repeats):
        t0 = time.perf_counter()
        half = propagate_spectral(env, medium, 0.5)
        t1 = time.perf_counter()
        record = integrate_weak_bloch(half, bloch)
        t2 = time.perf_counter()
        fate_fractions(record)
        t3 = time.perf_counter()
        for name, seconds in zip(PROBE_NAMES, (t1 - t0, t2 - t1, t3 - t2)):
            samples[name].append(seconds * 1e3)
    return {name: statistics.median(v) for name, v in samples.items()}
