"""File formats: series CSV, model and trace JSON, coordinate tables, manifests.

Series CSVs have a header of series labels and one time point per row;
numbers are written with 17 significant digits so a write/read round trip is
lossless and runs with identical flags and seed produce identical bytes.

Model documents (:meth:`BandedVarModel.to_dict`, ``schema_version`` 2) hold
each lag's band, p(2k + 1) numbers, with no p x p array on save or load;
version 1 documents, with dense p x p lags, still load to the same model.
"""

from __future__ import annotations

import csv
import itertools
import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import BandedVarError, DataFormatError
from .model import BandedVarModel, TimeSeries

__all__ = [
    "fmt",
    "write_timeseries_csv",
    "read_timeseries_csv",
    "read_coords_csv",
    "write_matrix_csv",
    "save_model_json",
    "load_model_json",
    "save_json",
    "RunManifest",
]


def fmt(x: float) -> str:
    """17-significant-digit decimal form, enough to round-trip a double."""
    return format(float(x), ".17g")


def _write_csv(path, rows, header=None) -> None:
    """Optional header through ``csv`` (which quotes labels), then one line per
    row of ``rows`` in the 17-digit form of :func:`fmt`."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if header is not None:
            csv.writer(fh, lineterminator="\n").writerow(header)
        np.savetxt(fh, rows, fmt="%.17g", delimiter=",")


def write_timeseries_csv(path, ts: TimeSeries) -> None:
    _write_csv(path, ts.values.T, ts.labels or tuple(f"y{i + 1}" for i in range(ts.p)))


def read_timeseries_csv(path) -> TimeSeries:
    """Read a series CSV: a header of labels, then one time point per row.

    The header goes through ``csv`` (so quoted labels work) and the body
    through numpy's C parser. Anything that parser rejects or that fails a
    check (wrong width, no rows, non-finite values) is handed to the
    line-by-line reader, which returns the same values where ``float`` and
    ``csv`` accept the file (quoted or underscored numbers) and otherwise
    raises the :class:`DataFormatError` naming the line.
    """
    values = None
    with open(path, newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh), None)
        for first in fh:  # skip to the first non-empty line: loadtxt warns on no rows
            if first.strip("\r\n"):
                try:
                    # comments=None: with the default "#", a cell 4#5 reads as 4
                    values = np.loadtxt(
                        itertools.chain([first], fh), delimiter=",", comments=None, ndmin=2
                    )
                except ValueError:
                    pass
                break
    if (
        values is not None
        and values.shape[1] == len(header)
        and np.isfinite(values).all()
    ):
        return TimeSeries(values.T, labels=tuple(header))
    return _read_timeseries_lines(path)


def _read_timeseries_lines(path) -> TimeSeries:
    rows, linenos = [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file", line=1) from None
        width = len(header)
        if width == 0:
            raise DataFormatError(f"{path}: empty header", line=1)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != width:
                raise DataFormatError(
                    f"{path}: line {lineno}: expected {width} fields, found {len(row)}",
                    line=lineno,
                )
            try:
                # parse straight into an array: a list of Python floats per
                # row made a large read's peak memory vary from run to run
                rows.append(np.fromiter(map(float, row), dtype=float, count=width))
            except ValueError as exc:
                raise DataFormatError(
                    f"{path}: line {lineno}: {exc}", line=lineno
                ) from None
            linenos.append(lineno)
    if not rows:
        raise DataFormatError(f"{path}: no data rows", line=1)
    values = np.vstack(rows)
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        t, j = bad[0]
        raise DataFormatError(
            f"{path}: line {linenos[t]}: non-finite value {float(values[t, j])} "
            f"in column {header[j]!r}",
            line=linenos[t],
        )
    return TimeSeries(values.T, labels=tuple(header))


def read_coords_csv(path):
    """Read per-series coordinates from rows of ``label,x,y``; a header row is
    detected by non-numeric x. Returns (labels, coords array)."""
    labels, coords = [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if not row:
                continue
            if len(row) != 3:
                raise DataFormatError(
                    f"{path}: line {lineno}: expected label,x,y", line=lineno
                )
            try:
                xy = (float(row[1]), float(row[2]))
            except ValueError:
                if lineno == 1:
                    continue  # header row
                raise DataFormatError(
                    f"{path}: line {lineno}: non-numeric coordinate", line=lineno
                ) from None
            labels.append(row[0])
            coords.append(xy)
    if not coords:
        raise DataFormatError(f"{path}: no coordinate rows", line=1)
    return tuple(labels), np.array(coords)


def write_matrix_csv(path, matrix, labels=None) -> None:
    _write_csv(path, np.asarray(matrix, dtype=float), labels)


def save_model_json(path, model: BandedVarModel, means=None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model.to_dict(means=means), fh)
        fh.write("\n")


def load_model_json(path):
    """Load a model document; returns (model, means-or-None)."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path}: line {exc.lineno}: {exc.msg}", line=exc.lineno) from None
    try:
        model = BandedVarModel.from_dict(data)
    except (TypeError, ValueError, BandedVarError) as exc:  # a malformed document
        raise DataFormatError(f"{path}: {exc}") from exc
    means = data.get("means")
    return model, None if means is None else np.asarray(means, dtype=float)


def save_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass
class RunManifest:
    """Everything needed to reproduce a command-line run bit for bit.

    The creation time is written under a ``nondeterministic`` key, so two runs
    with identical flags and seed write identical manifests once that key is
    dropped.
    """

    command: list
    config: dict
    seed: int | None
    outputs: list
    version: str
    created_utc: str = field(
        default_factory=lambda: datetime.now(timezone.utc).isoformat(timespec="seconds")
    )

    def write(self, path) -> None:
        save_json(
            path,
            {
                "command": self.command,
                "config": self.config,
                "seed": self.seed,
                "outputs": [str(Path(o)) for o in self.outputs],
                "version": self.version,
                "nondeterministic": {"created_utc": self.created_utc},
            },
        )
