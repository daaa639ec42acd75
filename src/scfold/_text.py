"""The one writer of artifacts and reports: JSON with sorted keys, a two-space
indent and a closing newline, CSV with each float cell written by repr, and
two-column data files of repr floats."""

import csv
import io
import json
from dataclasses import asdict, is_dataclass

import numpy as np


def _plain(o):
    if isinstance(o, np.ndarray):
        return o.tolist()
    if isinstance(o, (np.integer, np.floating)):
        return o.item()
    if is_dataclass(o):
        return asdict(o)
    return str(o)


def json_text(obj):
    return json.dumps(obj, sort_keys=True, indent=2, default=_plain) + "\n"


def float_text(v):
    """v as repr of a Python float: 0.5, where a numpy scalar's own repr reads
    np.float64(0.5)."""
    return repr(float(v))


def dat_text(rows):
    """One line per (a, b) row, the two floats separated by a space."""
    return "".join(f"{float_text(a)} {float_text(b)}\n" for a, b in rows)


def csv_text(header, rows):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([float_text(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue()
