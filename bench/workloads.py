"""One benchmark run of one workload, in a fresh interpreter.

Started by ``bench/run.py``; not meant to be run by hand.  The process
imports ``xdwell`` from the checkout's ``src/``, writes the workload's INI
config, makes one untimed warm-up call and records the moment it is ready.
With ``--setup-only`` it stops there.  Otherwise it runs the workload's job
(one closed-loop client: the job's subcommands back to back through
``xdwell.cli.main``) until ``--seconds`` have passed, checks every job's
output, and prints one JSON line for ``run.py`` to aggregate.

With ``--trace 1`` the jobs run plain for half of ``--seconds``, to give the
untraced wall time, and then the same number of jobs run again with the span
wrappers of ``spans.py`` installed, so a traced run takes about as long as an
untraced one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# ROADMAP gates the benchmark re-checks on every job
RATIO_TRUTH = 0.77
RATIO_Z = 3.0
CLICK_Z = 5.0
S2_TRUTH = 9e-4
S2_Z = 5.0
IDENTITY_TOL = 1e-3
FROZEN_TOL = 1e-3
# min-coherent tauT/tau0 at OD 4, frozen in tests/test_dwell.py
FROZEN_RATIOS = {("min-coherent", 10.0, 4.0): 0.683707,
                 ("min-coherent", 50.0, 4.0): 0.423962}
MODEL_CURVES = 4  # two models x two bandwidths
DEFAULT_OD_POINTS = 8  # cli's default od_grid 0.01,0.25,0.5,1,1.5,2,3,4
CALIBRATION_PHOTONS = (588, 898, 1527, 3040)


def import_xdwell():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "xdwell" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'xdwell'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import xdwell
    from xdwell import cli

    if Path(xdwell.__file__).resolve().parent != SRC / "xdwell":
        sys.exit(f"error: imported xdwell from {xdwell.__file__}, not {SRC}")
    return cli


@dataclass
class Job:
    """Outcome of one closed-loop job."""

    items: int = 0  # model points or shots completed
    attempted: int = 0  # operations: model points or subcommands
    failed: int = 0
    walls: dict = field(default_factory=dict)  # subcommand -> seconds
    output: str = ""  # every output file's text, for the bit-identity check
    notes: list = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(self.walls.values())


class Workload:
    name = ""
    default_seed = 0
    ops_per_job = 1  # operations counted in attempted/failed

    def __init__(self, cli, tmp: Path, seed: int, tiny: bool):
        self.cli = cli
        self.tmp = tmp
        self.seed = seed
        self.tiny = tiny
        self.ini = tmp / "workload.ini"
        self.warm_ini = tmp / "warmup.ini"
        self.out = tmp / "out"
        self.ini.write_text(self.config_text())
        self.warm_ini.write_text(self.warmup_text())

    def config_text(self) -> str:
        raise NotImplementedError

    def warmup_text(self) -> str:
        raise NotImplementedError

    def warmup(self):
        raise NotImplementedError

    def job(self) -> Job:
        raise NotImplementedError

    def call(self, job: Job, label: str, argv) -> int:
        """Time one `xdwell` subcommand; a crash counts as a failed exit."""
        start = time.perf_counter()
        try:
            code = self.cli.main([str(a) for a in argv])
        except SystemExit as exc:  # argparse rejects its arguments
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = -1
        job.walls[label] = time.perf_counter() - start
        if code != 0:
            job.notes.append(f"{label} exited {code}")
        return code


class ModelsSweep(Workload):
    """`xdwell models` with the default [models] section: 32 model points."""

    name = "models-sweep"

    def config_text(self):
        return "[models]\nod_grid = 4\n" if self.tiny else "[models]\n"

    def warmup_text(self):
        return "[models]\nod_grid = 1\nslices = 32\n"

    @property
    def ops_per_job(self):
        return MODEL_CURVES * (1 if self.tiny else DEFAULT_OD_POINTS)

    def warmup(self):
        return self.cli.main(["models", "--config", str(self.warm_ini),
                              "--out", str(self.tmp / "warmup")])

    def job(self) -> Job:
        job = Job(attempted=self.ops_per_job)
        code = self.call(job, "models", ["models", "--config", self.ini,
                                         "--out", self.out])
        ok = set()
        if code == 0:
            job.output = (self.out / "model_curves.csv").read_text()
            ok = self._check(job.output, job.notes)
        job.items = len(ok)
        job.failed = self.ops_per_job - len(ok)
        return job

    def _check(self, text: str, notes: list) -> set:
        ok = set()
        for line in text.splitlines()[1:]:
            if line.startswith("#"):
                notes.append(f"failed point: {line}")
                continue
            model, sigma, od, p_loss, tau0, tau_l, tau_t, ratio = line.split(",")
            key = (model, round(float(sigma), 6), float(od))
            p_loss, tau0, tau_l, tau_t, ratio = map(
                float, (p_loss, tau0, tau_l, tau_t, ratio))
            residual = max(abs(tau0 - p_loss),
                           abs(p_loss * tau_l + (1 - p_loss) * tau_t - tau0))
            if residual >= IDENTITY_TOL:
                notes.append(f"{key}: identity residual {residual:.2e}")
                continue
            frozen = FROZEN_RATIOS.get(key)
            if frozen is not None and abs(ratio - frozen) >= FROZEN_TOL:
                notes.append(f"{key}: tauT/tau0 {ratio:.6f} != frozen {frozen}")
                continue
            ok.add(key)
        missing = [k for k in FROZEN_RATIOS if k not in ok]
        if missing:
            notes.append(f"frozen points missing or failed: {missing}")
        return ok


def _boosted_phi_atom(**overrides) -> float:
    from xdwell.shots import ExperimentConfig

    return 50 * ExperimentConfig(**overrides).phi_atom


class CampaignFile(Workload):
    """`xdwell simulate --workers 1` then `xdwell analyze` on one shot file."""

    name = "campaign-file"
    default_seed = 2024
    ops_per_job = 2
    SHOTS = {False: 500_000, True: 20_000}  # by --tiny

    @property
    def n_shots(self):
        return self.SHOTS[self.tiny]

    def _text(self, n_shots):
        # the acceptance "boosted" config: default experiment, phi_atom x50
        return (f"[experiment]\nphi_atom = {_boosted_phi_atom()!r}\n"
                f"[campaign]\nn_shots = {n_shots}\nwith_truth = 0\n")

    def config_text(self):
        return self._text(self.n_shots)

    def warmup_text(self):
        return self._text(2000)

    def warmup(self):
        out = self.tmp / "warmup"
        code = self.cli.main(["simulate", "--config", str(self.warm_ini),
                              "--seed", str(self.seed), "--out", str(out)])
        code = code or self.cli.main(["analyze", "--config",
                                      str(self.warm_ini), "--out", str(out)])
        (out / "shots.bin").unlink(missing_ok=True)
        return code

    def job(self) -> Job:
        job = Job(attempted=self.ops_per_job)
        shot_file = self.out / "shots.bin"
        try:
            code = self.call(job, "simulate", [
                "simulate", "--config", self.ini, "--seed", self.seed,
                "--workers", 1, "--out", self.out])
            if code != 0:
                job.failed = 2
                return job
            code = self.call(job, "analyze", ["analyze", "--config", self.ini,
                                              "--out", self.out])
        finally:
            shot_file.unlink(missing_ok=True)
        summary_text = (self.out / "summary.json").read_text()
        summary = json.loads(summary_text)
        if summary["n_shots"] != self.n_shots:
            job.notes.append(f"simulate wrote {summary['n_shots']} shots")
            job.failed = 2
            return job
        if code != 0:
            job.failed = 1
            return job
        report_text = (self.out / "report.json").read_text()
        # summary.json names the shot file, whose directory differs by run
        job.output = (summary_text + report_text
                      + (self.out / "delta_phi.csv").read_text()
                      ).replace(str(self.tmp), "<tmp>")
        report = json.loads(report_text)
        p = summary["expected_click_rate"]
        click_se = (p * (1 - p) / self.n_shots) ** 0.5
        checks = {
            "ratio within 3 ratio_se of 0.77":
                abs(report["ratio"] - RATIO_TRUTH) <= RATIO_Z * report["ratio_se"],
            "click_rate within 5 se of expected_click_rate":
                abs(report["click_rate"] - p) <= CLICK_Z * click_se,
            "analyze and simulate click rates agree":
                report["click_rate"] == summary["click_rate"],
            "analyze read every shot": report["n_shots"] == self.n_shots,
        }
        failed = [name for name, passed in checks.items() if not passed]
        job.notes += [f"check failed: {name}" for name in failed]
        job.failed = 1 if failed else 0
        job.items = 0 if failed else self.n_shots
        return job


class Calibrate2W(Workload):
    """`xdwell calibrate --workers 2`: four bright campaigns, binned in memory."""

    name = "calibrate-2w"
    default_seed = 404
    workers = 2
    SHOTS = {False: 200_000, True: 20_000}  # per photon number, by --tiny

    @property
    def n_shots(self):
        return self.SHOTS[self.tiny]

    def _text(self, n_shots):
        # acceptance criterion 10's calibration campaign
        phi_atom = _boosted_phi_atom(phase_noise_rms=0.05)
        photons = ",".join(str(n) for n in CALIBRATION_PHOTONS)
        return (f"[experiment]\nphase_noise_rms = 0.05\n"
                f"phi_atom = {phi_atom!r}\ntauT_frac = 1\nprop_noise_s = 0.03\n"
                f"[calibrate]\nphoton_numbers = {photons}\n"
                f"n_shots = {n_shots}\ntarget_click_rate = 0.10\n")

    def config_text(self):
        return self._text(self.n_shots)

    def warmup_text(self):
        return self._text(2000)

    def warmup(self):
        return self.cli.main(["calibrate", "--config", str(self.warm_ini),
                              "--seed", str(self.seed), "--workers",
                              str(self.workers), "--out",
                              str(self.tmp / "warmup")])

    def job(self) -> Job:
        job = Job(attempted=self.ops_per_job)
        code = self.call(job, "calibrate", [
            "calibrate", "--config", self.ini, "--seed", self.seed,
            "--workers", self.workers, "--out", self.out])
        if code != 0:
            job.failed = 1
            return job
        job.output = (self.out / "calibration.json").read_text()
        cal = json.loads(job.output)
        if abs(cal["s2"] - S2_TRUTH) > S2_Z * cal["s2_se"]:
            job.notes.append(f"s2 {cal['s2']:.3e} +- {cal['s2_se']:.1e} is "
                             f"more than {S2_Z:g} se from {S2_TRUTH:g}")
            job.failed = 1
            return job
        job.items = len(CALIBRATION_PHOTONS) * self.n_shots
        return job


WORKLOADS = {w.name: w for w in (ModelsSweep, CampaignFile, Calibrate2W)}


def run_jobs(workload: Workload, seconds: float, n_jobs: int | None,
             reference: list, run_id_hook=None) -> list:
    """Run jobs back to back until `seconds` pass (or `n_jobs` are done).

    A job whose outputs differ from the first job's by a single bit counts
    every operation of it as failed: the same seed must give the same run.
    """
    jobs = []
    start = time.perf_counter()
    while True:
        if run_id_hook is not None:
            run_id_hook(len(jobs))
        try:
            job = workload.job()
        except Exception:  # a missing or malformed output file
            traceback.print_exc()
            job = Job(attempted=workload.ops_per_job,
                      failed=workload.ops_per_job, notes=["job raised"])
        if not reference and job.failed == 0:
            reference.append(job.output)
        if job.failed == 0 and job.output != reference[0]:
            job.notes.append("outputs differ from the first job's")
            job.failed = job.attempted
            job.items = 0
        for note in job.notes:
            print(f"{workload.name}: {note}", file=sys.stderr)
        jobs.append(job)
        if n_jobs is not None:
            if len(jobs) >= n_jobs:
                return jobs
        elif time.perf_counter() - start >= seconds:
            return jobs


def _median_rate(jobs, label=None) -> float:
    rates = [job.items / (job.walls[label] if label else job.wall)
             for job in jobs if job.failed == 0]
    return statistics.median(rates) if rates else 0.0


def _rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def provenance(workload: Workload, jobs: list, reference: list) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "xdwell").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "src_sha256": digest.hexdigest(),
        "workload": workload.name,
        "seed": workload.seed,
        "tiny": workload.tiny,
        "config_sha256": hashlib.sha256(workload.ini.read_bytes()).hexdigest(),
        "outputs_sha256": hashlib.sha256(
            reference[0].encode()).hexdigest() if reference else None,
        "job_walls_s": [job.wall for job in jobs],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--spans-out", type=Path)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    cli = import_xdwell()
    workload = WORKLOADS[args.workload](cli, args.tmp, args.seed, args.tiny)
    code = workload.warmup()
    if code != 0:
        sys.exit(f"error: {args.workload} warm-up exited {code}")
    ready_at = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready_at": ready_at}))
        return 0

    reference = []
    seconds = args.seconds / 2 if args.trace else args.seconds
    jobs = run_jobs(workload, seconds, None, reference)
    result = {"ready_at": ready_at}
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
        traced = run_jobs(workload, 0.0, len(jobs), reference,
                          run_id_hook=tracer.set_run)
        spans.check_fired(tracer, workload.name)
        untraced_wall = sum(job.wall for job in jobs)
        traced_wall = sum(job.wall for job in traced)
        values = spans.layer_metrics(tracer)
        # figures of a layer this workload bypasses read 0
        models = workload.name == ModelsSweep.name
        campaign = workload.name == CampaignFile.name
        values.update(spans.probe_slice() if models
                      else dict.fromkeys(spans.PROBE_NAMES, 0.0))
        values["dwell.points_ok_frac"] = (
            sum(job.items for job in traced)
            / sum(job.attempted for job in traced)) if models else 0.0
        for label in ("simulate", "analyze"):
            values[f"cli.{label}.shots_per_s"] = (
                _median_rate(jobs, label) if campaign else 0.0)
        values["shots.worker_peak_rss_mb"] = _rss_mb(resource.RUSAGE_CHILDREN)
        values["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
        result["values"] = values
        jobs = jobs + traced
        if args.spans_out is not None:
            tracer.write(args.spans_out)
    else:
        result["values"] = {
            "items_per_s": _median_rate(jobs),
            "peak_rss_mb": _rss_mb(resource.RUSAGE_SELF),
        }
    result["attempted"] = sum(job.attempted for job in jobs)
    result["failed"] = sum(job.failed for job in jobs)
    result["provenance"] = provenance(workload, jobs, reference)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
