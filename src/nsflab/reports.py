"""Deterministic persistence in NumPy's own formats: CSV series, JSON verdicts, snapshots.

Every writer is byte-deterministic for identical inputs: column order is the
caller's insertion order, JSON keys are sorted, floats are rendered in their
shortest round-trip form (17 significant digits for CSV), a verdict is
RFC 8259 JSON with a non-finite float written as ``null``, and a snapshot is
one ``.npy`` record with a named field per array.  Each output opens without
nsflab: a series with ``np.loadtxt(path, delimiter=",", skiprows=1)``, a
snapshot with ``np.load(path)``, a verdict with ``json.load``.  A verdict decides
from :class:`Bound` records, which its command builds and :meth:`Bound.judge` judges.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

__all__ = ["Bound", "write_series", "read_series", "write_verdicts", "read_verdicts",
           "write_snapshot", "read_snapshot"]


# --------------------------------------------------------------------------
# CSV series
# --------------------------------------------------------------------------


def write_series(path, columns: Mapping[str, np.ndarray]) -> None:
    """Write named columns as CSV; order is the mapping's insertion order."""

    names = list(columns)
    if not names:
        raise ValueError("a series needs at least one column")
    arrays = [np.asarray(columns[name], dtype=float).ravel() for name in names]
    length = len(arrays[0])
    for name, arr in zip(names, arrays):
        if len(arr) != length:
            raise ValueError(
                f"column {name!r} has {len(arr)} entries; expected {length}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        np.savetxt(fh, np.column_stack(arrays), fmt="%.17g", delimiter=",",
                   header=",".join(names), comments="")


def read_series(path) -> dict[str, np.ndarray]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line for line in fh if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty series file")
    names = lines[0].strip().split(",")
    try:
        # np.loadtxt warns on an empty body, so a header-only series skips it
        data = (np.loadtxt(lines[1:], delimiter=",", ndmin=2) if lines[1:]
                else np.empty((0, len(names))))
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
    if data.shape[1] != len(names):
        raise ValueError(f"{path}: rows have {data.shape[1]} fields; header has {len(names)}")
    return {name: data[:, j].copy() for j, name in enumerate(names)}


# --------------------------------------------------------------------------
# JSON verdicts
# --------------------------------------------------------------------------


# relation -> the relation that a failing record's numbers stand in
_FAILED = {"<=": ">", ">=": "<", "<": ">="}


@dataclass(frozen=True, init=False)
class Bound:
    """One checked inequality ``value relation bound``, judged once when made:
    ``holds`` says whether it holds, and NaN fails every relation."""

    name: str
    value: float
    relation: str
    bound: float
    holds: bool

    def __init__(self, name: str, value: float, relation: str, bound: float):
        if relation not in _FAILED:
            raise ValueError(f"{name}: unknown relation {relation!r}")
        holds = bool(value <= bound if relation == "<=" else
                     value >= bound if relation == ">=" else value < bound)
        for key, val in zip(("name", "value", "relation", "bound", "holds"),
                            (name, value, relation, bound, holds)):
            object.__setattr__(self, key, val)

    def __str__(self) -> str:
        rel = self.relation if self.holds else _FAILED[self.relation]
        return f"{self.name} = {self.value:.4g} {rel} {self.bound:.4g}"

    @staticmethod
    def judge(bounds: Sequence[Bound], accepted: bool = True) -> tuple[bool, Optional[Bound]]:
        """``ok`` (the gate ``accepted`` and every record holding) and the first failing record."""
        for bound in bounds:
            if not bound.holds:
                return False, bound
        return accepted, None


def _strict(obj):
    """``obj`` as plain JSON values: numpy arrays and scalars as Python ones,
    and a non-finite float as None, which RFC 8259 JSON writes as ``null``."""
    if isinstance(obj, Mapping):
        return {key: _strict(val) for key, val in obj.items()}
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [_strict(val) for val in obj]
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if obj is None or isinstance(obj, (str, int)):  # bool is an int
        return obj
    raise TypeError(f"cannot serialize {type(obj).__name__} into a verdict file")


def write_verdicts(path, verdicts: Mapping) -> None:
    text = json.dumps(_strict(verdicts), indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def read_verdicts(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# --------------------------------------------------------------------------
# field snapshots
# --------------------------------------------------------------------------


def write_snapshot(path, fields: Mapping[str, np.ndarray]) -> None:
    """Write ``fields`` as one 0-d ``.npy`` record: a named field per array,
    with its dtype and shape, in insertion order."""

    arrays = {name: np.asarray(raw) for name, raw in fields.items()}
    for name, arr in arrays.items():
        if not name:  # numpy would rename it "f0"
            raise ValueError(f"{path}: a snapshot field needs a non-empty name")
        if arr.dtype.hasobject:
            raise ValueError(f"{path}: snapshot field {name!r} holds Python objects")
    record = np.empty((), dtype=[(name, arr.dtype, arr.shape) for name, arr in arrays.items()])
    for name, arr in arrays.items():
        record[name] = arr
    with open(path, "wb") as fh:
        np.save(fh, record, allow_pickle=False)


def read_snapshot(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        try:
            record = np.lib.format.read_array(fh, allow_pickle=False)
        except ValueError as err:
            # a read that failed at the end of the file ran out of bytes
            what = "unreadable" if fh.read(1) else "truncated"
            raise ValueError(f"{path}: {what} snapshot file ({err})") from None
        trailing = len(fh.read())
    if trailing:
        raise ValueError(f"{path}: {trailing} trailing bytes after the record")
    if record.shape != () or record.dtype.names is None:
        raise ValueError(f"{path}: not one record of named fields")
    return {name: record[name].copy() for name in record.dtype.names}
