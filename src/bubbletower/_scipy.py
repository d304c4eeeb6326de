"""One scipy module, loaded from its own file.

``import scipy.linalg.lapack`` runs ``scipy/__init__`` and all of
``scipy.linalg`` (with its array-API layer) before it reaches the compiled
LAPACK wrappers: about a quarter second of CPU and 20 MB per process, for
one routine.  :func:`load` loads the one module asked for and none of the
packages above it.  Skipping ``scipy/__init__`` also skips scipy's check
that the installed numpy lies in the range that scipy release supports;
that check only warns.
"""

from __future__ import annotations

import os
import sys

__all__ = ["load"]


def load(name: str):
    """The module ``name`` (a dotted name under ``scipy``), without running
    the ``__init__`` of any package above it.

    A module already in ``sys.modules`` is returned as it is.  Otherwise it
    is loaded from its file and put in ``sys.modules`` under ``name``, so a
    later ``import`` of it, or of its package, reuses the same object (the
    package, imported later, does not get it as an attribute; ``from
    package import module`` still finds it).  A module that has no file
    raises ``ImportError`` naming the directory searched.
    """
    module = sys.modules.get(name)
    if module is not None:
        return module
    import importlib.machinery
    import importlib.util

    top, *inner, leaf = name.split(".")
    # a dotted name would make find_spec import every parent package
    root = importlib.util.find_spec(top)
    if root is None:
        raise ImportError(f"no package {top!r}", name=name)
    path = [os.path.join(base, *inner)
            for base in root.submodule_search_locations]
    spec = importlib.machinery.PathFinder.find_spec(leaf, path)
    if spec is None:
        raise ImportError(f"no module {leaf!r} in {os.pathsep.join(path)}",
                          name=name)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[name]
        raise
    return module
