"""Shot-record binary format and the experiment-config digest.

File layout (little endian):
  header: magic "XDWL" | version u32 | flags u32 | n_samples u32 |
          n_shots u64 | config digest (32 bytes, SHA-256)
  record: n_samples * float64 phases | click u8 | 3 bytes padding |
          [4 * float64 truth when flags bit 0 is set]
A file is valid only at exactly header + n_shots records, so one cut short
(or grown) after its header was written is rejected.

The digest (`experiment_digest`) is the SHA-256 of `experiment_text`, the
ExperimentConfig as an [experiment] section: one `key=value` line per
dataclass field, sorted by field name and then lower-cased, each value in
a full-precision text form, so that an analysis run can refuse data
generated under a different configuration.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "BATCH_SIZE",
    "FLAG_TRUTH",
    "Header",
    "ShotFileWriter",
    "read_header",
    "iter_shot_batches",
    "experiment_text",
    "experiment_digest",
]

MAGIC = b"XDWL"
FORMAT_VERSION = 1
FLAG_TRUTH = 0x1

_HEADER = struct.Struct("<4sIIIQ32s")

# Shots are generated, written and read in batches of 4,096: 1.2 MB of
# phases (36 float64 each), so a batch's arrays stay in a core's 2 MiB L2,
# two generating threads run at about twice the one-thread rate, and
# analysis holds one batch at a time whatever the file size.  From 8,192
# shots on the batches spill out of L2 and a second thread gains only
# 10-25%.
BATCH_SIZE = 1 << 12


@dataclass(frozen=True)
class Header:
    flags: int
    n_samples: int
    n_shots: int
    digest: bytes

    @property
    def with_truth(self) -> bool:
        return bool(self.flags & FLAG_TRUTH)


def _record_dtype(n_samples: int, with_truth: bool) -> np.dtype:
    fields = [("phases", "<f8", (n_samples,)), ("click", "u1"), ("pad", "V3")]
    if with_truth:
        fields.append(("truth", "<f8", (4,)))
    return np.dtype(fields)


class ShotFileWriter:
    """Append-only writer; the header, written at open, declares n_shots, so
    a file left short by an interrupted run fails `read_header`.

    Records go to `<path>.partial`, which a clean `close` renames to
    `path` and `discard` (or leaving a `with` block by an exception)
    deletes, so an interrupted run never replaces a complete file.
    """

    def __init__(self, path, n_samples: int, n_shots: int, digest: bytes,
                 with_truth: bool):
        if len(digest) != 32:
            raise DataFormatError("config digest must be 32 bytes")
        self.path = str(path)
        self.n_samples = n_samples
        self.with_truth = with_truth
        # filled in place for every batch; zeroed once, for the pad bytes
        self._records = np.zeros(BATCH_SIZE, _record_dtype(n_samples,
                                                           with_truth))
        flags = FLAG_TRUTH if with_truth else 0
        # packed first, so a count out of range leaves no file behind
        header = _HEADER.pack(MAGIC, FORMAT_VERSION, flags, n_samples,
                              n_shots, digest)
        self._partial = self.path + ".partial"
        self._fh = open(self._partial, "wb")
        self._fh.write(header)

    def append(self, phases: np.ndarray, clicks: np.ndarray, truth=None):
        phases = np.asarray(phases, dtype=np.float64)
        m = phases.shape[0]
        if phases.shape != (m, self.n_samples):
            raise DataFormatError(
                f"phases must have shape (m, {self.n_samples})")
        if self.with_truth and truth is None:
            raise DataFormatError("file expects truth blocks")
        clicks = np.asarray(clicks, dtype=bool)
        if self.with_truth:
            truth = np.asarray(truth, dtype=np.float64)
        for i in range(0, m, BATCH_SIZE):  # a larger batch in pieces
            part = slice(i, i + BATCH_SIZE)
            records = self._records[:min(m - i, BATCH_SIZE)]
            records["phases"] = phases[part]
            records["click"] = clicks[part]
            if self.with_truth:
                records["truth"] = truth[part]
            records.tofile(self._fh)

    def close(self):
        self._fh.close()
        os.replace(self._partial, self.path)

    def discard(self):
        self._fh.close()
        os.remove(self._partial)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *exc):
        if exc_type is None:
            self.close()
        else:
            self.discard()


def read_header(path) -> Header:
    """Parse the header and check that the file holds exactly the records
    it declares."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read(_HEADER.size)
            size = os.fstat(fh.fileno()).st_size
    except OSError as exc:
        raise DataFormatError(f"cannot read shot file {path}: {exc}") from exc
    if len(raw) < _HEADER.size:
        raise DataFormatError(f"{path}: truncated header")
    magic, version, flags, n_samples, n_shots, digest = _HEADER.unpack(raw)
    if magic != MAGIC:
        raise DataFormatError(f"{path}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise DataFormatError(
            f"{path}: format version {version} != supported {FORMAT_VERSION}")
    header = Header(flags=flags, n_samples=n_samples, n_shots=n_shots,
                    digest=digest)
    expected = _HEADER.size + n_shots * _record_dtype(
        n_samples, header.with_truth).itemsize
    if size != expected:
        raise DataFormatError(
            f"{path}: {size} bytes, but the header declares {n_shots} shots "
            f"({expected} bytes); the file is incomplete or corrupt")
    return header


def iter_shot_batches(path):
    """Yield a shot file's (phases, clicks, truth-or-None) batches.  A click
    byte other than 0 or 1 fails its batch; a NaN phase fails the sums
    (`estimator._finish`)."""
    header = read_header(path)
    dtype = _record_dtype(header.n_samples, header.with_truth)
    with open(path, "rb") as fh:
        fh.seek(_HEADER.size)
        for batch, start in enumerate(range(0, header.n_shots, BATCH_SIZE)):
            m = min(BATCH_SIZE, header.n_shots - start)
            records = np.fromfile(fh, dtype=dtype, count=m)
            if records.size != m:
                raise DataFormatError(
                    f"{path}: expected {m} more records, got {records.size}")
            if records["click"].max() > 1:
                raise DataFormatError(
                    f"{path}: batch {batch} holds a click byte other than "
                    "0 or 1")
            truth = records["truth"] if header.with_truth else None
            yield records["phases"], records["click"].astype(bool), truth


# --- experiment-config digest ------------------------------------------------


def _canonical_value(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, (list, tuple)):
        return ",".join(_canonical_value(v) for v in value)
    return str(value)


def experiment_text(cfg) -> str:
    """Byte-stable text form of an ExperimentConfig.  The keys are sorted
    before they are lower-cased, so `tauL_frac` comes before `tau_sp`."""
    lines = [f"{name.lower()}={_canonical_value(getattr(cfg, name))}"
             for name in sorted(f.name for f in dataclasses.fields(cfg))]
    return "[experiment]\n" + "\n".join(lines) + "\n"


def experiment_digest(cfg) -> bytes:
    """SHA-256 of `experiment_text(cfg)`: the shot-file key."""
    return hashlib.sha256(experiment_text(cfg).encode("utf-8")).digest()
