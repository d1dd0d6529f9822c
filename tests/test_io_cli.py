import ast
import itertools
import json
import os
import re
import struct
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import xdwell
from xdwell import ConfigError, DataFormatError, ExperimentConfig, cli
from xdwell import shotfile, shots
from xdwell.errors import ConvergenceError, XdwellError
from xdwell.estimator import FitResult, correct_phi_T, run_calibration
from xdwell.medium import propagate_spectral
from xdwell.shots import run_campaign


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        assert xdwell.__version__ == tomllib.load(fh)["project"]["version"]


ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "xdwell"


def package_modules():
    """The package's modules but `__init__.py`, parsed."""
    return [ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))
            if p.name != "__init__.py"]


def code_outside_tests():
    """Every node of the code that runs xdwell other than the tests: the
    package's own modules, the benchmark and the README's Python example."""
    texts = [p.read_text() for p in sorted((ROOT / "bench").glob("*.py"))]
    texts += re.findall(r"```python\n(.*?)```",
                        (ROOT / "README.md").read_text(), re.S)
    trees = package_modules() + [ast.parse(text) for text in texts]
    return [node for tree in trees for node in ast.walk(tree)]


def test_every_export_used_outside_tests():
    # each name the package exports is read somewhere in its own code, the
    # benchmark or the README's example, so no export lives for the tests
    # alone: a read is an ast.Name load or an attribute; an import, a
    # definition, an assignment or an __all__ string does not count
    exported = {alias.asname or alias.name
                for node in ast.parse((PACKAGE / "__init__.py").read_text()).body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    used = set()
    for node in code_outside_tests():
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    assert sorted(exported - used) == []


# optional parameters that no caller outside the tests sets, each with why
# it stays
UNSET_KEPT = {
    # tests/make_model_curves_reference.py builds the checked-in reference
    # curves on a finer grid than the default, and a second grid is how a
    # model value's time-step error is measured
    ("min_coherent_model", "n_samples"),
}


def _is_bound(method: ast.FunctionDef) -> bool:
    return not any(getattr(d, "id", None) == "staticmethod"
                   for d in method.decorator_list)


def _passes(call: ast.Call, index, param: str) -> bool:
    """Whether `call` passes `param`, at positional `index` (None: keyword
    only), by keyword, by position or through a * or ** argument."""
    spread = any(isinstance(a, ast.Starred) for a in call.args)
    return (any(k.arg in (param, None) for k in call.keywords)
            or index is not None and (spread or len(call.args) > index))


def test_every_optional_parameter_set_outside_tests():
    # each parameter with a default, of every function and method in the
    # package, is passed by some call outside the tests.  Calls are matched
    # by name, a method's by its attribute name and an __init__'s by its
    # class name
    calls = {}
    for node in code_outside_tests():
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            calls.setdefault(name, []).append(node)
    nodes = [n for tree in package_modules() for n in ast.walk(tree)]
    functions = []  # (called name, def, first parameter bound)
    for node in nodes:
        if isinstance(node, ast.ClassDef):
            functions += [(node.name if f.name == "__init__" else f.name, f,
                           _is_bound(f)) for f in node.body
                          if isinstance(f, ast.FunctionDef)]
    methods = {id(f) for _, f, _ in functions}
    functions += [(n.name, n, False) for n in nodes
                  if isinstance(n, ast.FunctionDef) and id(n) not in methods]
    unset = []
    for name, fn, bound in functions:
        params = [a.arg for a in fn.args.posonlyargs + fn.args.args][bound:]
        optional = [(params.index(p), p)
                    for p in params[len(params) - len(fn.args.defaults):]]
        optional += [(None, a.arg) for a, d in zip(fn.args.kwonlyargs,
                                                  fn.args.kw_defaults) if d]
        unset += [(name, param) for index, param in optional
                  if not any(_passes(c, index, param)
                             for c in calls.get(name, []))]
    assert sorted(set(unset) - UNSET_KEPT) == []
    assert UNSET_KEPT <= set(unset), "an allowlisted parameter is now set"


def test_every_dataclass_field_read_outside_tests():
    # each field of a package dataclass is read, as an attribute load, by
    # code outside the tests; a field that is only written is dead
    loads = {node.attr for node in code_outside_tests()
             if isinstance(node, ast.Attribute)
             and isinstance(node.ctx, ast.Load)}
    unread = []
    for node in (n for tree in package_modules() for n in ast.walk(tree)):
        decorators = [getattr(d, "func", d) for d in
                      getattr(node, "decorator_list", [])]
        if isinstance(node, ast.ClassDef) and any(
                getattr(d, "id", getattr(d, "attr", None)) == "dataclass"
                for d in decorators):
            unread += [f"{node.name}.{item.target.id}" for item in node.body
                       if isinstance(item, ast.AnnAssign)
                       and item.target.id not in loads]
    assert unread == []


class TestShotFileRoundTrip:
    def _write(self, path, with_truth=True, n=500, n_samples=36):
        rng = np.random.default_rng(0)
        phases = rng.standard_normal((n, n_samples))
        clicks = rng.random(n) < 0.3
        truth = np.abs(rng.standard_normal((n, 4))) if with_truth else None
        digest = bytes(range(32))
        with shotfile.ShotFileWriter(path, n_samples=n_samples, n_shots=n,
                                     digest=digest, with_truth=with_truth) as w:
            w.append(phases[:200], clicks[:200],
                     truth[:200] if with_truth else None)
            w.append(phases[200:], clicks[200:],
                     truth[200:] if with_truth else None)
        return phases, clicks, truth

    def test_round_trip_exact(self, tmp_path):
        # one full read batch and one short one
        path = tmp_path / "shots.bin"
        n = shotfile.BATCH_SIZE + 500
        phases, clicks, truth = self._write(path, n=n)
        header = shotfile.read_header(path)
        assert header.n_shots == n
        assert header.n_samples == 36
        assert header.with_truth
        got = list(shotfile.iter_shot_batches(path))
        assert [len(g[1]) for g in got] == [shotfile.BATCH_SIZE, 500]
        p = np.concatenate([g[0] for g in got])
        c = np.concatenate([g[1] for g in got])
        t = np.concatenate([g[2] for g in got])
        np.testing.assert_array_equal(p, phases)
        np.testing.assert_array_equal(c, clicks)
        np.testing.assert_array_equal(t, truth)

    def test_truthless_round_trip(self, tmp_path):
        path = tmp_path / "s.bin"
        self._write(path, with_truth=False)
        header = shotfile.read_header(path)
        assert not header.with_truth
        for _, _, truth in shotfile.iter_shot_batches(path):
            assert truth is None

    def test_batch_above_buffer(self, tmp_path):
        # the writer fills one BATCH_SIZE record buffer: a larger batch
        # goes out in pieces, a smaller one after it writes only its own
        # rows, and every pad byte stays zero
        path = tmp_path / "big.bin"
        n = 2 * shotfile.BATCH_SIZE + 7
        rng = np.random.default_rng(1)
        phases = rng.standard_normal((n, 36))
        clicks = rng.random(n) < 0.3
        truth = rng.random((n, 4))
        with shotfile.ShotFileWriter(path, n_samples=36, n_shots=n,
                                     digest=bytes(32), with_truth=True) as w:
            w.append(phases[:-7], clicks[:-7], truth[:-7])
            w.append(phases[-7:], clicks[-7:], truth[-7:])
        records = np.fromfile(path, shotfile._record_dtype(36, True),
                              offset=shotfile._HEADER.size)
        np.testing.assert_array_equal(records["phases"], phases)
        np.testing.assert_array_equal(records["click"], clicks)
        np.testing.assert_array_equal(records["truth"], truth)
        assert not records["pad"].tobytes().strip(b"\0")

    def test_unpackable_header_leaves_no_file(self, tmp_path):
        path = tmp_path / "shots.bin"
        with pytest.raises(struct.error):
            shotfile.ShotFileWriter(path, n_samples=36, n_shots=-1,
                                    digest=bytes(32), with_truth=False)
        assert list(tmp_path.iterdir()) == []

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        self._write(path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError):
            shotfile.read_header(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "bad.bin"
        self._write(path)
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError):
            shotfile.read_header(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.bin"
        self._write(path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(DataFormatError):
            list(shotfile.iter_shot_batches(path))

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "long.bin"
        self._write(path)
        with open(path, "ab") as fh:
            fh.write(b"\0")
        with pytest.raises(DataFormatError):
            shotfile.read_header(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "h.bin"
        path.write_bytes(b"XDWL")
        with pytest.raises(DataFormatError):
            shotfile.read_header(path)


class TestConfigCanonicalization:
    def test_float_full_precision(self):
        text = shotfile.experiment_text(ExperimentConfig(prop_noise_s=0.1 + 0.2))
        assert "\nprop_noise_s=0.30000000000000004\n" in text

    def test_list_drift_digests_like_tuple(self):
        drift = [3e-3, 1e-3, 2e-3, 2e-3]
        as_list = ExperimentConfig(phi_atom=0.001, drift=drift)
        as_tuple = ExperimentConfig(phi_atom=0.001, drift=tuple(drift))
        assert shotfile.experiment_digest(as_list) == \
            shotfile.experiment_digest(as_tuple)

    def test_experiment_text_and_digest_pinned(self):
        # the shot-file header key of an explicit-phi_atom config; a change
        # to the canonical form would orphan every existing shot file.  The
        # keys are sorted by field name before they are lower-cased, so
        # taul_frac and taut_frac come before tau_sp
        cfg = ExperimentConfig(phi_atom=0.001)
        assert shotfile.experiment_text(cfg) == EXPERIMENT_TEXT
        assert shotfile.experiment_digest(cfg).hex() == EXPERIMENT_DIGEST

    def test_sections_round_trip(self, tmp_path):
        # the canonical text is itself an [experiment] section the CLI reads
        cfg = ExperimentConfig(mean_photons=21.5, prop_noise_s=0.02,
                               osc_amplitude=0.01)
        text = shotfile.experiment_text(cfg)
        assert shotfile.experiment_text(read_experiment(tmp_path, text)) == text

    def test_integer_keys_accept_integral_floats(self, tmp_path):
        cfg = read_experiment(tmp_path, "[experiment]\nn_samples = 36.0\n")
        assert cfg.n_samples == 36 and isinstance(cfg.n_samples, int)

    @pytest.mark.parametrize("raw, value", [
        ("18446744073709551615", 2**64 - 1), ("9007199254740993", 2**53 + 1),
        ("+12", 12), ("1e6", 10**6), ("1_000", 1000)])
    def test_integer_keys_parse_exactly(self, tmp_path, raw, value):
        # an integer literal is read as one, not through a float's 53 bits
        path = write_config(tmp_path / "c.ini",
                            f"[campaign]\nn_shots = {raw}\n")
        got = cli._read(cli._load_config(path), "campaign",
                        {"n_shots": 100000})["n_shots"]
        assert got == value and type(got) is int

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError,
                           match=r"unknown keys in \[experiment\]: bogus"):
            read_experiment(tmp_path,
                            "[experiment]\nmean_photons = 3\nbogus = 1\n")

    def test_bad_value_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            read_experiment(tmp_path, "[experiment]\nmean_photons = many\n")

    @pytest.mark.parametrize("key,raw", [
        ("phi_atom", "nan"), ("drift", "0,0,-inf,0"), ("osc_period", "nan")])
    def test_non_finite_value_rejected(self, tmp_path, key, raw):
        with pytest.raises(ConfigError):
            read_experiment(tmp_path, f"[experiment]\n{key} = {raw}\n")


EXPERIMENT_TEXT = """[experiment]
arrival_index=11
dark_prob=0.01
drift=0.0030000000000000001,0.0030000000000000001,0.002,0.002
eta_detect=0.0212
mean_photons=34
meas_bandwidth=25000000
n_samples=36
od_coupling=0
osc_amplitude=0
osc_damping=3.9999999999999998e-07
osc_eps_coupling=1
osc_period=4.9999999999999998e-07
p_transmit=0.40189999999999998
phase_noise_rms=0.14999999999999999
phi_atom=0.001
probe_detuning=-35185837.72020568
prop_noise_s=0
sample_dt=1.6000000000000001e-08
shot_len=5.7599999999999997e-07
sigma_t=1e-08
taul_frac=0.90000000000000002
taut_frac=0.77000000000000002
tau_sp=2.6499999999999999e-08
"""
EXPERIMENT_DIGEST = \
    "72dd3bada54a2a2da53ab6b9d1caea41a7ff4f5e62fa595d38019dd6a572d4f0"


def read_experiment(tmp_path, text):
    """The ExperimentConfig that the CLI reads from an INI text."""
    path = write_config(tmp_path / "experiment.ini", text)
    return cli._experiment_from_config(cli._load_config(path))


SHOTFILE_ALONE = """
import sys
import types

# a bare package module, so that only shotfile's own imports run
package = types.ModuleType("xdwell")
package.__path__ = [sys.argv[1]]
sys.modules["xdwell"] = package
import xdwell.shotfile

if "xdwell.shots" in sys.modules:
    sys.exit("import xdwell.shotfile loaded xdwell.shots")
"""


def test_shotfile_does_not_import_shots():
    package = Path(xdwell.__file__).resolve().parent
    run = subprocess.run([sys.executable, "-c", SHOTFILE_ALONE, str(package)],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr


def write_config(path, text):
    path.write_text(text)
    return str(path)


SIM_INI = """
[experiment]
mean_photons = 34
phase_noise_rms = 0.05

[campaign]
n_shots = {n_shots}
"""


class TestCli:
    def test_simulate_deterministic(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", SIM_INI.format(n_shots=20000))
        for sub in ("one", "two"):
            rc = cli.main(["simulate", "--config", cfg, "--seed", "5",
                           "--out", str(tmp_path / sub)])
            assert rc == 0
        a = (tmp_path / "one" / "shots.bin").read_bytes()
        b = (tmp_path / "two" / "shots.bin").read_bytes()
        assert a == b
        summary = json.loads((tmp_path / "one" / "summary.json").read_text())
        assert summary["n_shots"] == 20000
        assert 0.2 < summary["click_rate"] < 0.3

    def test_simulate_workers_identical(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", SIM_INI.format(n_shots=150000))
        cli.main(["simulate", "--config", cfg, "--seed", "5",
                  "--out", str(tmp_path / "serial")])
        cli.main(["simulate", "--config", cfg, "--seed", "5", "--workers",
                  "3", "--out", str(tmp_path / "par")])
        assert (tmp_path / "serial" / "shots.bin").read_bytes() == \
            (tmp_path / "par" / "shots.bin").read_bytes()

    def test_analyze_round_trip(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", SIM_INI.format(n_shots=400000))
        out = str(tmp_path / "run")
        assert cli.main(["simulate", "--config", cfg, "--seed", "8",
                         "--out", out]) == 0
        assert cli.main(["analyze", "--config", cfg, "--out", out]) == 0
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        for key in ("phi0", "phi0_se", "phiT", "phiT_se", "ratio", "ratio_se",
                    "s2", "chi2_per_dof", "n_shots", "click_rate"):
            assert key in report
        assert report["n_shots"] == 400000
        assert abs(report["phi0"] - (-20e-6)) < 3 * report["phi0_se"]
        rows = (tmp_path / "run" / "delta_phi.csv").read_text().splitlines()
        assert rows[0] == "t,delta_phi,se"
        assert len(rows) == 37

    def test_analyze_digest_mismatch(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", SIM_INI.format(n_shots=400000))
        out = str(tmp_path / "run")
        cli.main(["simulate", "--config", cfg, "--seed", "8", "--out", out])
        other = write_config(
            tmp_path / "other.ini",
            SIM_INI.format(n_shots=400000).replace(
                "phase_noise_rms = 0.05",
                "phase_noise_rms = 0.05\ndark_prob = 0.02"))
        assert cli.main(["analyze", "--config", other, "--out", out]) == 3
        assert cli.main(["analyze", "--config", other, "--out", out,
                         "--force-digest"]) == 0

    @staticmethod
    def _interrupt_after_one_batch(monkeypatch):
        real = shots._generate_batch
        calls = itertools.count()

        def fail_after_one(*args):
            if next(calls) >= 1:
                raise RuntimeError("interrupted")
            return real(*args)

        monkeypatch.setattr(shots, "_generate_batch", fail_after_one)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_interrupted_campaign_rejected_exit_3(self, tmp_path, monkeypatch,
                                                  capsys, workers):
        # the run dies after one batch: its records went to shots.bin.partial,
        # which is deleted, so analyze finds no file instead of fitting the
        # prefix
        cfg = write_config(tmp_path / "c.ini", SIM_INI.format(n_shots=200000))
        out = tmp_path / "run"
        self._interrupt_after_one_batch(monkeypatch)
        with pytest.raises(RuntimeError, match="interrupted"):
            cli.main(["simulate", "--config", cfg, "--workers", str(workers),
                      "--out", str(out)])
        monkeypatch.undo()
        assert list(out.iterdir()) == []
        assert cli.main(["analyze", "--config", cfg, "--out", str(out)]) == 3
        assert "cannot read shot file" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", [1, 2])
    def test_interrupted_run_keeps_complete_file(self, tmp_path, monkeypatch,
                                                 workers):
        cfg = write_config(tmp_path / "c.ini", SIM_INI.format(n_shots=200000))
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", cfg, "--seed", "3",
                         "--out", str(out)]) == 0
        complete = (out / "shots.bin").read_bytes()
        self._interrupt_after_one_batch(monkeypatch)
        with pytest.raises(RuntimeError, match="interrupted"):
            cli.main(["simulate", "--config", cfg, "--seed", "4", "--workers",
                      str(workers), "--out", str(out)])
        monkeypatch.undo()
        assert (out / "shots.bin").read_bytes() == complete
        assert not (out / "shots.bin.partial").exists()
        assert cli.main(["analyze", "--config", cfg, "--out", str(out)]) == 0

    def test_zero_shots_make_no_file(self, tmp_path):
        path = tmp_path / "shots.bin"
        with pytest.raises(ConfigError):
            run_campaign(ExperimentConfig(), 0, seed=0, out_path=path)
        assert not path.exists()

    def test_shot_count_beyond_u64_exit_2(self, tmp_path, capsys):
        # the shot file counts its shots in a u64
        cfg = write_config(tmp_path / "c.ini", SIM_INI.format(n_shots="1e20"))
        out = tmp_path / "o"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert "n_shots" in capsys.readouterr().err
        assert not (out / "shots.bin").exists()
        assert not (out / "shots.bin.partial").exists()

    def test_bad_seed_fails_before_the_file(self, tmp_path, monkeypatch):
        def no_writer(*a, **k):
            raise RuntimeError("run_campaign opened the shot file")

        monkeypatch.setattr(shotfile, "ShotFileWriter", no_writer)
        with pytest.raises(ConfigError, match="seed"):
            run_campaign(ExperimentConfig(), 1000, seed=-1,
                         out_path=tmp_path / "shots.bin")

    def test_unresolved_phi0_exit_3(self, tmp_path, capsys):
        # a valid default campaign of 100k shots resolves phi_0 at under
        # 5 sigma: too few data, not a bad config
        cfg = write_config(tmp_path / "c.ini",
                           "[experiment]\n[campaign]\nn_shots = 100000\n")
        out = str(tmp_path / "run")
        assert cli.main(["simulate", "--config", cfg, "--out", out]) == 0
        assert cli.main(["analyze", "--config", cfg, "--out", out]) == 3
        assert "not significant" in capsys.readouterr().err

    def test_analyze_s2_corrects_phi_t(self, tmp_path):
        # [analysis] s2, s2_se and input: the same file's phi_T, corrected
        # by correct_phi_T, and everything else as the plain analysis
        cfg = write_config(tmp_path / "c.ini", BOOSTED_INI)
        raw_out, s2_out = tmp_path / "raw", tmp_path / "s2"
        assert cli.main(["simulate", "--config", cfg, "--seed", "3",
                         "--out", str(raw_out)]) == 0
        assert cli.main(["analyze", "--config", cfg,
                         "--out", str(raw_out)]) == 0
        s2_cfg = write_config(tmp_path / "s2.ini", BOOSTED_INI + (
            f"[analysis]\ns2 = 9e-4\ns2_se = 4e-5\n"
            f"input = {raw_out / 'shots.bin'}\n"))
        assert cli.main(["analyze", "--config", s2_cfg,
                         "--out", str(s2_out)]) == 0
        raw, got = (json.loads((out / "report.json").read_text())
                    for out in (raw_out, s2_out))
        phi0 = FitResult(raw["phi0"], raw["phi0_se"], raw["chi2_per_dof"])
        want = correct_phi_T(
            FitResult(raw["phiT"], raw["phiT_se"], raw["chi2_per_dof"]),
            9e-4, ExperimentConfig().mean_photons, phi0, s2_se=4e-5)
        assert (got["phiT"], got["phiT_se"]) == (want.amplitude,
                                                 want.amplitude_se)
        assert got["s2"] == 9e-4
        for key in ("phi0", "phi0_se", "chi2_per_dof", "n_shots",
                    "click_rate"):
            assert got[key] == raw[key], key
        assert (s2_out / "delta_phi.csv").read_bytes() == \
            (raw_out / "delta_phi.csv").read_bytes()

    def test_calibrate_json_same_at_any_worker_count(self, tmp_path):
        # three batches per point, so the sums merge across batches
        cfg = write_config(tmp_path / "c.ini", BOOSTED_INI.replace(
            "[calibrate]\nn_shots = 5000",
            f"[calibrate]\nn_shots = {2 * shots.BATCH_SIZE + 100}"))
        written = []
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            assert cli.main(["calibrate", "--config", cfg, "--seed", "2",
                             "--workers", str(workers),
                             "--out", str(out)]) == 0
            written.append((out / "calibration.json").read_bytes())
        assert written[0] == written[1]
        result = json.loads(written[0])
        assert [p["mean_photons"] for p in result["points"]] == [
            588, 898, 1527, 3040]
        assert np.isfinite(result["s2"]) and result["s2_se"] > 0

    def test_unknown_config_key_exit_2(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini",
                           "[experiment]\nwibble = 3\n")
        assert cli.main(["simulate", "--config", cfg,
                         "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("line", [
        "n_samples = 36.5", "drift = 0,0,0", "osc_bogus = 1", "tautfrac = 1"])
    def test_bad_experiment_key_exit_2(self, tmp_path, line):
        cfg = write_config(tmp_path / "c.ini", f"[experiment]\n{line}\n")
        out = tmp_path / "o"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()

    def test_missing_section_exit_2(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", "[pulse]\nsigma_t = 1e-8\n")
        assert cli.main(["simulate", "--config", cfg,
                         "--out", str(tmp_path / "o")]) == 2

    def test_missing_file_exit_2(self, tmp_path):
        assert cli.main(["simulate", "--config",
                         str(tmp_path / "nope.ini")]) == 2

    @pytest.mark.parametrize("kind, code, label", [
        (ConfigError, 2, "config error"),
        (DataFormatError, 3, "data error"),
        (ConvergenceError, 4, "convergence error")],
        ids=["exit2", "exit3", "exit4"])
    def test_error_kind_maps_to_exit_code(self, tmp_path, monkeypatch, capsys,
                                          kind, code, label):
        cfg = write_config(tmp_path / "p.ini",
                           "[pulse]\nsigma_t = 10e-9\n[medium]\npeak_od = 4\n")

        def boom(*a, **k):
            raise kind("synthetic failure")

        monkeypatch.setattr(cli, "propagate_spectral", boom)
        assert cli.main(["propagate", "--config", cfg,
                         "--out", str(tmp_path / "o")]) == code
        # one line naming the kind, and no traceback
        assert capsys.readouterr().err.splitlines() == [
            f"{label}: synthetic failure"]

    def test_every_error_is_one_of_three_kinds(self):
        # a fourth kind would need its own exit code in cli.main
        subclasses, todo = set(), [XdwellError]
        while todo:
            for sub in todo.pop().__subclasses__():
                if sub.__module__.startswith("xdwell"):
                    subclasses.add(sub)
                    todo.append(sub)
        assert subclasses == {ConfigError, DataFormatError, ConvergenceError}

    def test_too_few_clicks_exit_3(self, tmp_path, capsys):
        # 200 default shots give about 52 clicks against the 100 a bin needs
        cfg = write_config(tmp_path / "c.ini",
                           "[experiment]\n[campaign]\nn_shots = 200\n")
        out = str(tmp_path / "run")
        assert cli.main(["simulate", "--config", cfg, "--out", out]) == 0
        assert cli.main(["analyze", "--config", cfg, "--out", out]) == 3
        assert "bin 'click'" in capsys.readouterr().err

    def test_propagate_outputs(self, tmp_path):
        cfg = write_config(tmp_path / "p.ini",
                           "[pulse]\nsigma_t = 10e-9\n[medium]\npeak_od = 4\n")
        out = tmp_path / "prop"
        assert cli.main(["propagate", "--config", cfg,
                         "--out", str(out)]) == 0
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["phase_flip_time"] is not None
        assert diag["p_transmit"] == pytest.approx(0.401914, abs=1e-4)
        areas = [float(r.split(",")[1]) for r in
                 (out / "area_vs_depth.csv").read_text().splitlines()[1:]]
        assert all(b < a for a, b in zip(areas, areas[1:]))

    def test_propagate_computes_each_depth_once(self, tmp_path, monkeypatch):
        # depths 1/4, 1/2, 3/4 and the full medium; depth 0 is the input
        cfg = write_config(tmp_path / "p.ini",
                           "[pulse]\nsigma_t = 10e-9\n[medium]\npeak_od = 4\n")
        depths = []

        def counting(env, medium, depth_fraction=1.0):
            depths.append(depth_fraction)
            return propagate_spectral(env, medium, depth_fraction)

        monkeypatch.setattr(cli, "propagate_spectral", counting)
        assert cli.main(["propagate", "--config", cfg,
                         "--out", str(tmp_path / "o")]) == 0
        assert sorted(depths) == [0.25, 0.5, 0.75, 1.0]

    def test_propagate_od0_identity(self, tmp_path):
        cfg = write_config(tmp_path / "p.ini",
                           "[pulse]\nsigma_t = 10e-9\n[medium]\npeak_od = 0\n")
        out = tmp_path / "prop0"
        assert cli.main(["propagate", "--config", cfg,
                         "--out", str(out)]) == 0
        a = (out / "envelope_in.csv").read_text()
        b = (out / "envelope_out.csv").read_text()
        rows_a = [r.split(",") for r in a.splitlines()[1:]]
        rows_b = [r.split(",") for r in b.splitlines()[1:]]
        for ra, rb in zip(rows_a, rows_b):
            assert float(ra[1]) == pytest.approx(float(rb[1]),
                                                 abs=1e-9 * 6400)

    def test_models_csv(self, tmp_path):
        cfg = write_config(tmp_path / "m.ini",
                           "[models]\nod_grid = 0.01,4\nslices = 32\n")
        out = tmp_path / "models"
        assert cli.main(["models", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "model_curves.csv").read_text().splitlines()
        assert rows[0] == \
            "model,sigma_t_ns,peak_od,p_loss,tau0,tauL,tauT,tauT_over_tau0"
        data = [r.split(",") for r in rows[1:] if not r.startswith("#")]
        assert len(data) == 8  # 2 models x 2 bandwidths x 2 ODs
        curves = {(r[0], r[1]) for r in data}
        assert len(curves) == 4
        for r in data:
            p_loss, tau0, tau_l, tau_t = map(float, (r[3], r[4], r[5], r[6]))
            assert abs(tau0 - p_loss) < 1e-3
            assert abs(p_loss * tau_l + (1 - p_loss) * tau_t - tau0) < 1e-3

    def test_workers_default_is_available_cpus(self, monkeypatch):
        # the parser is built once; main resolves the default on each call,
        # so it follows the CPUs the process may use at that moment
        seen = []
        monkeypatch.setattr(cli, "cmd_simulate",
                            lambda args: seen.append(args.workers) or 0)
        argv = ["simulate", "--config", "c.ini"]
        assert cli.main(argv) == 0
        if hasattr(os, "sched_getaffinity"):
            assert seen == [len(os.sched_getaffinity(0))]
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid: {0, 1, 2})
            assert cli.main(argv) == 0
            assert seen[1:] == [3]
        else:
            assert seen == [os.cpu_count()]

    def test_handler_replaced_after_first_call_runs(self, tmp_path,
                                                    monkeypatch):
        # main looks the handler up when it runs, so a wrapper installed
        # after the parser was built and used still fires
        cfg = write_config(tmp_path / "m.ini",
                           "[models]\nod_grid = 1\nslices = 32\n")
        argv = ["models", "--config", cfg, "--out", str(tmp_path / "o")]
        assert cli.main(argv) == 0
        real, calls = cli.cmd_models, []

        def wrapper(args):
            calls.append(args.command)
            return real(args)

        monkeypatch.setattr(cli, "cmd_models", wrapper)
        assert cli.main(argv) == 0
        assert calls == ["models"]
        assert cli._build_parser() is cli._build_parser()

    def test_models_bad_grid_exit_2(self, tmp_path):
        cfg = write_config(tmp_path / "m.ini", "[models]\nod_grid = 4,1\n")
        assert cli.main(["models", "--config", cfg,
                         "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("command,text", [
        ("models", "[models]\nod_grid = 0.5,inf\n"),
        ("models", "[models]\nsigma_t_broad = nan\n"),
        ("models", "[models]\ntau_sp = 0\n"),
        ("simulate", "[experiment]\nphi_atom = nan\n"),
        ("propagate", "[pulse]\nsigma_t = 10e-9\n[medium]\npeak_od = inf\n"),
        ("propagate", "[pulse]\nsigma_t = 10e-9\n[medium]\npeak_od = 4\n"
                      "tau_sp = 0\n"),
        ("propagate", "[medium]\npeak_od = 4\n[pulse]\nsigma_t = 10e-9\n"
                      "mean_photons = 0\n"),
        ("models", "[models]\nod_grid = \n"),
        ("simulate", "[experiment]\nmeas_bandwidth = 0\n"),
        ("simulate", "[experiment]\nsample_dt = 0\n"),
        ("simulate", "[experiment]\np_transmit = 1\n"),
        ("models", "[models]\nslices = 4\n"),
        # a bad last point fails before the first point's campaign
        ("calibrate", "[experiment]\n[calibrate]\n"
                      "photon_numbers = 588,898,1527,0\n"),
        ("calibrate", "[experiment]\n[calibrate]\n"
                      "photon_numbers = -588,898,1527,3040\n"),
        # a photon number too small for the target click rate
        ("calibrate", "[experiment]\n[calibrate]\n"
                      "photon_numbers = 0.1,898,1527,3040\n"),
        ("calibrate", "[experiment]\np_transmit = 0\n"),
        # a dark count on every shot leaves no click rate to reach
        ("calibrate", "[calibrate]\nn_shots = 1000\n"
                      "[experiment]\ndark_prob = 1\n"),
        # s^2 is fitted from at least 4 points
        ("calibrate", "[experiment]\n[calibrate]\n"
                      "photon_numbers = 588,898,1527\n"),
    ])
    def test_non_finite_or_zero_lifetime_exit_2(self, tmp_path, capsys,
                                                command, text):
        # the error names the bad key, which each text sets on its last line
        cfg = write_config(tmp_path / "c.ini", text)
        out = tmp_path / "o"
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()
        key = text.splitlines()[-1].split("=")[0].strip()
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["simulate", "--seed", "-1"], ["calibrate", "--seed", str(2**64)],
        ["simulate", "--workers", "0"]])
    def test_bad_seed_or_workers_exit_2(self, tmp_path, argv):
        cfg = write_config(tmp_path / "c.ini", SIM_INI.format(n_shots=1000))
        out = tmp_path / "o"
        assert cli.main(argv + ["--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["analyze", "--seed", "1"], ["propagate", "--workers", "2"],
        ["simulate", "--force-digest"], ["models", "--workers", "2"]])
    def test_flag_the_command_does_not_read_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--config", "c.ini"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_models_one_worker_starts_no_thread(self, tmp_path, monkeypatch):
        def no_thread(self):
            raise RuntimeError("models started a thread")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        cfg = write_config(tmp_path / "m.ini", "[models]\nod_grid = 1\n")
        out = tmp_path / "models"
        assert cli.main(["models", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "model_curves.csv").read_text().splitlines()
        assert len(rows) == 1 + 4

    def test_csv_floats_full_precision(self, tmp_path):
        cfg = write_config(tmp_path / "m.ini",
                           "[models]\nod_grid = 4\nsigma_t_narrow = 10e-9\n"
                           "slices = 32\n")
        out = tmp_path / "models"
        cli.main(["models", "--config", cfg, "--out", str(out)])
        row = (out / "model_curves.csv").read_text().splitlines()[1]
        value = row.split(",")[3]
        assert float(value) == float(format(float(value), ".17g"))
        assert len(value.split(".")[-1]) > 10  # 17 significant digits kept

    @pytest.mark.parametrize("workers", [1, 2])
    def test_calibrate_no_shots_exit_2(self, tmp_path, workers):
        cfg = write_config(tmp_path / "c.ini",
                           "[experiment]\n[calibrate]\nn_shots = 0\n")
        assert cli.main(["calibrate", "--config", cfg, "--workers",
                         str(workers), "--out", str(tmp_path / "o")]) == 2

    def test_calibrate_unresolved_phi0_exit_3(self, tmp_path):
        # at 5,000 shots with 0.5 rad of white phase noise, phi_0 of the
        # 588-photon point is expected at 2.0 sigma (mean over 40 seeds;
        # 4.3 at this one): too weak to divide by
        cfg = write_config(tmp_path / "c.ini",
                           "[experiment]\nphase_noise_rms = 0.5\n"
                           "[calibrate]\nn_shots = 5000\n")
        out = tmp_path / "o"
        assert cli.main(["calibrate", "--config", cfg, "--seed",
                         str(2**64 - 1), "--out", str(out)]) == 3
        assert not (out / "calibration.json").exists()

    def test_calibration_too_few_points_runs_no_campaign(self, monkeypatch):
        def no_batch(*a, **k):
            raise RuntimeError("run_calibration generated a batch")

        monkeypatch.setattr(shots, "_noise_free_batch", no_batch)
        with pytest.raises(ConfigError, match="photon_numbers"):
            run_calibration(ExperimentConfig(), [588, 898, 1527], 5000, seed=0)

    def test_calibration_seed_streams_distinct(self):
        # every photon-number point of every seed has its own stream, so at
        # one photon number no point of seed s repeats a point of seed s + 1;
        # the x50 phi_atom acceptance config resolves phi_0 at 5,000 shots
        base = ExperimentConfig()
        cfg = base.replace(phi_atom=50 * base.phi_atom)
        last = run_calibration(cfg, [588, 898, 1527, 3040], 5000,
                               seed=2**64 - 1)
        assert np.isfinite(last["s2"])
        excess = [{p["excess"] for p in run_calibration(
            cfg, [898] * 4, 5000, seed=seed)["points"]} for seed in (6, 7)]
        assert len(excess[0]) == len(excess[1]) == 4
        assert not excess[0] & excess[1]


def _edit_records(path, edit):
    """Apply `edit` to a shot file's records in place, header untouched."""
    header = shotfile.read_header(path)
    records = np.memmap(path, shotfile._record_dtype(header.n_samples,
                                                     header.with_truth),
                        mode="r+", offset=shotfile._HEADER.size)
    edit(records)
    records.flush()


def _set_phase(value):
    def edit(records):
        records["phases"][1234, 20] = value
    return edit


def _set_every_97th_click(records):
    records["click"][::97] = 7


class TestCorruptPayload:
    # one edit to the payload of a shot file that analyzes cleanly; the
    # header and size stay valid, so only the records tell
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("edit, message", [
        (_set_phase(np.nan), "not finite"), (_set_phase(np.inf), "not finite"),
        (_set_every_97th_click, "batch 0 holds a click byte other than 0")],
        ids=["nan", "inf", "click-byte-7"])
    def test_corrupt_payload_exit_3(self, tmp_path, capsys, edit, message):
        cfg = write_config(tmp_path / "c.ini", BOOSTED_INI)
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert cli.main(["analyze", "--config", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        _edit_records(out / "shots.bin", edit)
        assert cli.main(["analyze", "--config", cfg, "--out", str(out)]) == 3
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("data error: ") and message in line

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_finite_outlier_still_analyzed(self, tmp_path):
        # a large but finite phase is data the checks cannot tell from a
        # real one; a payload checksum would catch a corrupted one
        cfg = write_config(tmp_path / "c.ini", BOOSTED_INI)
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        _edit_records(out / "shots.bin", _set_phase(1e6))
        assert cli.main(["analyze", "--config", cfg, "--out", str(out)]) == 0


# the x50 phi_atom of the boosted acceptance campaign
BOOSTED_INI = """
[pulse]
sigma_t = 10e-9
[medium]
peak_od = 4
[models]
od_grid = 0,1
[experiment]
phi_atom = -2.551e-3
[campaign]
n_shots = 20000
[calibrate]
n_shots = 5000
"""

NO_SCIPY_RUN = """
import sys

import xdwell.cli

loaded = [m for m in sys.modules if m.startswith("scipy")]
if loaded:
    sys.exit(f"import xdwell.cli loaded {len(loaded)} scipy modules, "
             f"{loaded[0]} first")


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, NoScipy())
cfg, out = sys.argv[1:]
for command in ("propagate", "models", "simulate", "analyze", "calibrate"):
    workers = ["--workers", "2"] if command in ("simulate", "calibrate") else []
    code = xdwell.cli.main([command, "--config", cfg, "--out", out] + workers)
    if code != 0:
        sys.exit(f"{command} exited {code}")
"""


def test_runtime_needs_no_scipy(tmp_path):
    # every subcommand runs with scipy unimportable, and importing the CLI
    # loads no scipy module
    cfg = write_config(tmp_path / "c.ini", BOOSTED_INI)
    src = Path(xdwell.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_RUN, cfg,
         str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    for name in ("diagnostics.json", "model_curves.csv", "shots.bin",
                 "report.json", "calibration.json"):
        assert (tmp_path / "out" / name).is_file(), name
