"""Shot-record binary format and the experiment-config digest.

File layout (little endian):
  header: magic "XDWL" | version u32 | flags u32 (0) | n_samples u32 |
          n_shots u64 | config digest (32 bytes, SHA-256)
  record: n_samples * float64 phases | click u8 | 3 bytes padding
          (292 bytes at 36 samples)
A file is valid only at exactly header + n_shots records, so one cut short
(or grown) after its header was written is rejected, and so is a file of an
earlier version whose flags (1) added 4 float64 of truth to every record.

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
    "Header",
    "ShotFileWriter",
    "read_header",
    "iter_shot_batches",
    "experiment_text",
    "experiment_digest",
]

MAGIC = b"XDWL"
FORMAT_VERSION = 1

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
    n_samples: int
    n_shots: int
    digest: bytes


def _record_dtype(n_samples: int) -> np.dtype:
    return np.dtype([("phases", "<f8", (n_samples,)), ("click", "u1"),
                     ("pad", "V3")])


class ShotFileWriter:
    """Append-only writer; the header, written at open, declares n_shots, so
    a file left short by an interrupted run fails `read_header`.

    Records go to `<path>.partial`, which a clean `close` renames to
    `path` and `discard` (or leaving a `with` block by an exception)
    deletes, so an interrupted run never replaces a complete file.
    """

    def __init__(self, path, n_samples: int, n_shots: int, digest: bytes):
        if len(digest) != 32:
            raise DataFormatError("config digest must be 32 bytes")
        self.path = str(path)
        self.n_samples = n_samples
        # filled in place for every batch; zeroed once, for the pad bytes
        self._records = np.zeros(BATCH_SIZE, _record_dtype(n_samples))
        # packed first, so a count out of range leaves no file behind
        header = _HEADER.pack(MAGIC, FORMAT_VERSION, 0, n_samples, n_shots,
                              digest)
        self._partial = self.path + ".partial"
        self._fh = open(self._partial, "wb")
        self._fh.write(header)

    def append(self, phases: np.ndarray, clicks: np.ndarray):
        """Write one batch of at most `BATCH_SIZE` shots."""
        phases = np.asarray(phases, dtype=np.float64)
        m = phases.shape[0]
        if phases.shape != (m, self.n_samples) or m > BATCH_SIZE:
            raise DataFormatError(f"phases must have shape (m <= "
                                  f"{BATCH_SIZE}, {self.n_samples})")
        records = self._records[:m]
        records["phases"] = phases
        records["click"] = np.asarray(clicks, dtype=bool)
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
    if flags != 0:
        raise DataFormatError(
            f"{path}: flags {flags:#x}: its records carry the per-shot truth "
            "blocks of an earlier version, which this version does not read")
    expected = _HEADER.size + n_shots * _record_dtype(n_samples).itemsize
    if size != expected:
        raise DataFormatError(
            f"{path}: {size} bytes, but the header declares {n_shots} shots "
            f"({expected} bytes); the file is incomplete or corrupt")
    return Header(n_samples=n_samples, n_shots=n_shots, digest=digest)


def iter_shot_batches(path):
    """Yield a shot file's (phases, clicks) batches.  A click byte other
    than 0 or 1 fails its batch; a NaN phase fails the sums
    (`estimator._finish`)."""
    header = read_header(path)
    dtype = _record_dtype(header.n_samples)
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
            yield records["phases"], records["click"].astype(bool)


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
