"""Deterministic CSV/JSON emission with a hash manifest.

CSV floats are serialised with 17 significant digits, and JSON floats as
the shortest text that re-parses to the same double, so every value
re-parses to the identical double.  CSVs are comma-separated with a header
row, LF endings and UTF-8; JSON documents are written by :mod:`json` with
sorted keys, a two-space indent and non-finite floats as the strings "nan",
"inf" and "-inf".  Each run directory gets a manifest listing the
configuration, tool versions and the sha256 of every emitted file, taken
from the bytes as they are written.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

__all__ = ["fmt", "ReportWriter"]


def fmt(x) -> str:
    """17-significant-digit serialisation of one value."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


def _plain(obj):
    """``obj`` as the builtin types :mod:`json` writes, with non-finite
    floats as the strings "nan", "inf" and "-inf"."""
    if isinstance(obj, dict):
        return {key: _plain(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_plain(v) for v in obj]
    if obj is None:
        return None
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return x if np.isfinite(x) else str(x)
    return str(obj)


class ReportWriter:
    """Collects tables and documents, then writes them plus a manifest."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        os.makedirs(out_dir, exist_ok=True)
        self._sha256: dict = {}                    # file name -> hash of its bytes

    def path(self, name: str) -> str:
        return os.path.join(self.out_dir, name)

    def _write(self, name: str, text: str) -> str:
        """Write ``text`` as UTF-8 to ``name`` and record its sha256."""
        p = self.path(name)
        data = text.encode("utf-8")
        with open(p, "wb") as fh:
            fh.write(data)
        self._sha256[name] = hashlib.sha256(data).hexdigest()
        return p

    def csv(self, name: str, header, rows) -> str:
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(fmt(v) for v in row))
        return self._write(name, "\n".join(lines) + "\n")

    def json(self, name: str, obj) -> str:
        import json  # here, so that importing the CLI does not load it

        text = json.dumps(_plain(obj), indent=2, sort_keys=True,
                          ensure_ascii=False)
        return self._write(name, text + "\n")

    def manifest(self, config_text: str) -> str:
        from . import __version__
        from ._scipy import load

        doc = {
            "inputs": {"config": config_text},
            "versions": {
                "bubbletower": __version__,
                "numpy": np.__version__,
                "scipy": load("scipy.version").version,
            },
            "files": dict(self._sha256),
        }
        return self.json("manifest.json", doc)

