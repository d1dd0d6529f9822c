"""xdwell benchmark: three workloads through `xdwell.cli.main`, timed end to end.

Run from the root of a checkout:

    python3 bench/run.py --workload campaign-file --seed 1 --seconds 20 --trace 0

The workloads, metric names, units and regression bounds are declared in
BENCHMARK.json; the reasons for each workload are in its `why` and in the
workload classes of bench/workloads.py.  Each workload is one closed-loop
client issuing its subcommands back to back; the only extra processes are
calibrate-2w's two pool workers.  `--seed` is the campaign seed (the
acceptance seeds 2024 and 404 by default); models-sweep draws no random
numbers and ignores it.

Every run is a fresh interpreter (bench/workloads.py) started from here, so
no state carries over between runs.

`--trace 0` prints the end-to-end metrics, measured with tracing off:

  setup_s      median over 5 fresh interpreters of the time from spawn to
               ready: import, config build and one untimed warm-up call
  items_per_s  median over jobs of work items per wall second: model points
               on models-sweep, shots on the other two (simulate + analyze
               for campaign-file, 4 x n_shots for calibrate-2w)
  peak_rss_mb  peak RSS of the run's interpreter

`--trace 1` runs jobs untraced for half the time, then as many jobs traced
(bench/spans.py), and prints the per-layer metrics,
`<module>.<function>.<stat>`, with trace.overhead_frac, the traced over the
untraced wall time of those jobs, minus 1.  Figures of a layer a workload
bypasses read 0.

Failed operations (model points on models-sweep, subcommands on the other
two; a nonzero exit, a `#` failure line or a failed output check) are the
result's `failed` out of `attempted`; `correct` is false when any failed,
and the exit code is then 1.  A run that cannot be made (no `src/xdwell`,
too little disk, a crash or a wrapper that never fired) exits 2 and prints
no result.

The last stdout line is the result; the line before it holds provenance
(versions, nproc, commit, seed, config and output digests).  Both are also
written to .bench_out/, with the spans of a traced run.  Shot files live in
.bench_tmp/ and are deleted when the run ends, also on failure; their read
timings are page-cache numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS, CampaignFile

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TMP_ROOT = ROOT / ".bench_tmp"
OUT_ROOT = ROOT / ".bench_out"
SETUP_SAMPLES = 5
BYTES_PER_SHOT = 292  # shot record without truth: 36 float64, click, 3 pad
RUN_LIMIT_S = 170.0


class RunError(Exception):
    """The run could not be made; no result is printed."""


def _child(args, tmp: Path, deadline: float, *extra) -> dict:
    """Run bench/workloads.py to completion; return its last stdout line.

    The child gets its own process group, so a timeout also ends the pool
    workers it started.
    """
    argv = [sys.executable, str(BENCH / "workloads.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--tmp", str(tmp), *extra]
    if args.tiny:
        argv.append("--tiny")
    tmp.mkdir()
    spawned_at = time.monotonic()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - spawned_at))
    except subprocess.TimeoutExpired:
        raise RunError(f"run exceeded {RUN_LIMIT_S:g} s") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"{args.workload} child exited {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready_at"] - spawned_at
    return result


def _commit():
    if not (ROOT / ".git").exists():
        return None  # a plain checkout: src_sha256 identifies the code
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def measure(args, spec: dict, run_dir: Path) -> tuple:
    deadline = time.monotonic() + RUN_LIMIT_S
    setup = []
    if not args.trace:
        for i in range(SETUP_SAMPLES - 1):
            setup.append(_child(args, run_dir / f"setup{i}", deadline,
                                "--setup-only")["setup_s"])
    extra = []
    if args.trace:
        spans = OUT_ROOT / f"spans-{args.workload}-seed{args.seed}.json"
        extra = ["--spans-out", str(spans)]
    child = _child(args, run_dir / "run", deadline, *extra)
    setup.append(child["setup_s"])

    declared = spec["per_layer" if args.trace else "end_to_end"]
    values = dict(child["values"])
    if not args.trace:
        values["setup_s"] = statistics.median(setup)
    if set(values) != {m["name"] for m in declared}:
        raise RunError(f"metrics {sorted(values)} do not match BENCHMARK.json")
    result = {
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    provenance = dict(child["provenance"], commit=_commit(),
                      seconds=args.seconds, trace=args.trace,
                      setup_samples_s=setup)
    return result, provenance


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int,
                        help="campaign seed (default: the acceptance seed)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs, for bench/smoke.py")
    args = parser.parse_args(argv)
    if args.seed is None:
        args.seed = WORKLOADS[args.workload].default_seed

    if not (ROOT / "src" / "xdwell" / "__init__.py").is_file():
        print(f"error: no {ROOT / 'src' / 'xdwell'}; the benchmark builds "
              "and runs the package from a full checkout", file=sys.stderr)
        return 2
    if args.workload == CampaignFile.name:
        need = CampaignFile.SHOTS[args.tiny] * BYTES_PER_SHOT
        free = shutil.disk_usage(ROOT).free
        if free < 2 * need:
            print(f"error: {free / 1e6:.0f} MB free under {ROOT}; the shot "
                  f"file needs {need / 1e6:.0f} MB", file=sys.stderr)
            return 2
    TMP_ROOT.mkdir(exist_ok=True)
    OUT_ROOT.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(dir=TMP_ROOT))
    try:
        result, provenance = measure(args, spec, run_dir)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass  # another run's directory is still there

    record = OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"provenance": provenance, **result},
                                 indent=2) + "\n")
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
