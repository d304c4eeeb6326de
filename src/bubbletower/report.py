"""Deterministic CSV/JSON emission with a hash manifest.

Floats are serialised with 17 significant digits so every value re-parses
to the identical double.  CSVs are comma-separated with a header row, LF
endings and UTF-8; JSON documents have sorted keys.  Each run directory
gets a manifest listing the configuration, tool versions and the sha256 of
every emitted file.
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


def _json_text(obj, indent=0) -> str:
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj):
            items.append(f'{pad}  "{key}": {_json_text(obj[key], indent + 2)}')
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = [f"{pad}  {_json_text(v, indent + 2)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if np.isnan(x):
            return '"nan"'
        if np.isinf(x):
            return '"inf"' if x > 0 else '"-inf"'
        return format(x, ".17g")
    escaped = (str(obj).replace("\\", "\\\\").replace('"', '\\"')
               .replace("\n", "\\n").replace("\r", "\\r").replace("\t", "\\t"))
    return f'"{escaped}"'


class ReportWriter:
    """Collects tables and documents, then writes them plus a manifest."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        os.makedirs(out_dir, exist_ok=True)
        self._files: list = []

    def path(self, name: str) -> str:
        return os.path.join(self.out_dir, name)

    def csv(self, name: str, header, rows) -> str:
        p = self.path(name)
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(fmt(v) for v in row))
        with open(p, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
        self._files.append(name)
        return p

    def json(self, name: str, obj) -> str:
        p = self.path(name)
        with open(p, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(_json_text(obj) + "\n")
        self._files.append(name)
        return p

    def manifest(self, config_text: str) -> str:
        import bubbletower

        from ._scipy import load

        doc = {
            "inputs": {"config": config_text},
            "versions": {
                "bubbletower": getattr(bubbletower, "__version__", "0"),
                "numpy": np.__version__,
                "scipy": load("scipy.version").version,
            },
            "files": {name: _sha256(self.path(name)) for name in self._files},
        }
        return self.json("manifest.json", doc)


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()

