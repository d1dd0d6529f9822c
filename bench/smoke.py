"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

Runs every workload at its --tiny size, untraced and traced, and checks the
result line's schema and metric names and units against BENCHMARK.json.
It also checks that the two runs of one seed give identical outputs, that
`calibrate` gives the same s2 at 1 and 2 workers, and that the benchmark
exits nonzero without a result where `src/` is missing.  Takes about a
minute; exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCRATCH = ROOT / ".bench_tmp"  # git-ignored, like the runs' own files
SEED = 7


def scratch_dir() -> tempfile.TemporaryDirectory:
    SCRATCH.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=SCRATCH)


def run_bench(cwd: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--seed", str(SEED), "--seconds", "1",
         *args], cwd=cwd, capture_output=True, text=True, timeout=300)


def check_result(spec: dict, workload: str, trace: int) -> str:
    """One tiny run; returns the digest of its outputs."""
    proc = run_bench(ROOT, "--workload", workload, "--trace", str(trace),
                     "--tiny")
    where = f"{workload} --trace {trace}"
    assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}"
    *_, provenance, last = proc.stdout.splitlines()
    result = json.loads(last)
    assert list(result) == ["correct", "attempted", "failed", "metrics"], where
    assert result["correct"] is True and result["failed"] == 0, where
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = spec["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared], where
    for m in declared:
        metric = result["metrics"][m["name"]]
        assert set(metric) == {"value", "unit"}, where
        assert metric["unit"] == m["unit"], f"{where}: {m['name']} unit"
        assert isinstance(metric["value"], (int, float)), where
        if not trace:
            assert metric["value"] > 0, f"{where}: {m['name']} is 0"
    return json.loads(provenance)["provenance"]["outputs_sha256"]


def check_calibrate_workers():
    """`calibrate` at --workers 1 and 2 must report bit-identical s2."""
    sys.path.insert(0, str(ROOT / "src"))
    from xdwell import cli
    from workloads import Calibrate2W

    with scratch_dir() as tmp:
        workload = Calibrate2W(cli, Path(tmp), SEED, tiny=True)
        s2 = []
        for workers in (1, 2):
            out = Path(tmp) / f"w{workers}"
            code = cli.main(["calibrate", "--config", str(workload.ini),
                             "--seed", str(SEED), "--workers", str(workers),
                             "--out", str(out)])
            assert code == 0, f"calibrate --workers {workers} exited {code}"
            s2.append(json.loads((out / "calibration.json").read_text())["s2"])
    assert s2[0] == s2[1], f"s2 differs between 1 and 2 workers: {s2}"


def check_refuses_bare_directory():
    """With only BENCHMARK.json and bench/, the run must fail with no result."""
    with scratch_dir() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH, Path(tmp) / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(Path(tmp), "--workload", "models-sweep")
    assert proc.returncode != 0, "ran without src/"
    assert proc.stdout.strip() == "", "printed a result without src/"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        digests = {check_result(spec, workload, trace) for trace in (0, 1)}
        assert len(digests) == 1, f"{workload}: outputs differ between runs"
        print(f"ok  {workload}: schema, metric names, same-seed outputs")
    check_calibrate_workers()
    print("ok  calibrate: same s2 at 1 and 2 workers")
    check_refuses_bare_directory()
    print("ok  refuses to run without src/")
    try:
        SCRATCH.rmdir()
    except OSError:
        pass  # a benchmark run is using it
    return 0


if __name__ == "__main__":
    sys.exit(main())
