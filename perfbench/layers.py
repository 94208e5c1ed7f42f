"""Host-time attribution of a cProfile run to the layers of ``repro``.

A layer is a ``repro`` package.  Every package and top-level module of
``src/repro`` must appear in :data:`PACKAGE_LAYER`; a profiled frame in
a package that is missing from the map raises :class:`UnmappedPackage`,
so a new package cannot silently fall into the unattributed line.

Attribution rules:

* a function in ``src/repro`` is charged to its package's layer;
* a function of the benchmark's own files is charged to
  ``unattributed`` (the benchmark harness);
* any other function -- C builtins, the standard library, numpy, scipy
  -- is charged to whoever called it.  cProfile records the self time
  of each caller->callee edge, so one level of that split is exact;
  deeper chains of library calls are split in proportion to the
  cumulative time of each caller edge.  A chain that reaches no
  ``repro`` or harness frame is ``unattributed`` (the interpreter).

``calls_in`` counts calls into a layer from a different layer.  A call
made by a library function or builtin counts as made by the layer that
calls that function most often, so the count is an integer that repeats
exactly whenever the program's calls do.
"""

from __future__ import annotations

import os

#: the layers, in the order they are reported
LAYERS = (
    "simcore", "cluster", "transfer", "cloud", "chef", "provision", "galaxy",
    "crdata", "storage", "waas", "obs", "workloads", "core",
)

UNATTRIBUTED = "unattributed"

#: every package (or top-level module) of ``src/repro`` -> its layer;
#: packages that are not layers fold into the layer they serve
PACKAGE_LAYER = {
    **{layer: layer for layer in LAYERS},
    "security": "transfer",      # GO credentials and MyProxy
    "tools_globus": "galaxy",    # Galaxy tools that call Globus Transfer
    "reporting": "obs",          # renders obs spans and critical paths
    "provenance": "obs",         # bundles and replay of recorded runs
    "bench": "core",             # figure scripts over the core scenarios
    "calibration": "core",       # model constants
    "__init__": "core",
}


class UnmappedPackage(Exception):
    """A profiled ``repro`` frame belongs to a package with no layer."""


def repro_packages(repro_dir: str) -> set[str]:
    """Names of the packages and top-level modules in ``repro_dir``."""
    names = set()
    for entry in os.listdir(repro_dir):
        path = os.path.join(repro_dir, entry)
        if os.path.isdir(path) and os.path.exists(os.path.join(path, "__init__.py")):
            names.add(entry)
        elif entry.endswith(".py"):
            names.add(entry[:-3])
    return names


def unmapped_packages(repro_dir: str) -> list[str]:
    return sorted(repro_packages(repro_dir) - set(PACKAGE_LAYER))


class Classifier:
    """Maps a code file to a layer, ``UNATTRIBUTED`` or ``None`` (library)."""

    def __init__(self, repro_dir: str, bench_dir: str) -> None:
        self.repro_prefix = os.path.abspath(repro_dir) + os.sep
        self.bench_prefix = os.path.abspath(bench_dir) + os.sep

    def layer_of(self, filename: str) -> str | None:
        if filename.startswith(self.repro_prefix):
            rel = filename[len(self.repro_prefix):]
            head, sep, _ = rel.partition(os.sep)
            package = head if sep else head[:-3] if head.endswith(".py") else head
            try:
                return PACKAGE_LAYER[package]
            except KeyError:
                raise UnmappedPackage(
                    f"repro package {package!r} has no layer in PACKAGE_LAYER"
                ) from None
        if filename.startswith(self.bench_prefix):
            return UNATTRIBUTED
        return None


def attribute(stats: dict, classifier: Classifier) -> dict:
    """Per-layer self time and calls_in from ``pstats.Stats(...).stats``.

    ``stats`` maps ``(file, line, name)`` to ``(cc, nc, tt, ct, callers)``
    with ``callers`` mapping a caller key to ``(nc, cc, tt, ct)``.
    Returns ``{"self_s": {layer: s}, "calls_in": {layer: n},
    "total_s": s}`` with every layer and ``unattributed`` present.
    """
    keys = sorted(stats)
    own = {key: classifier.layer_of(key[0]) for key in keys}
    time_share: dict = {}
    owner: dict = {}

    def share_of(key) -> dict[str, float]:
        """Where time spent under ``key`` belongs, as layer -> weight."""
        if own[key] is not None:
            return {own[key]: 1.0}
        if key in time_share:
            return time_share[key]
        time_share[key] = {}  # cycle guard: a cycle contributes nothing
        callers = stats[key][4]
        weights: dict[str, float] = {}
        total = 0.0
        for caller in sorted(callers):
            if caller == key or caller not in stats:
                continue
            ct = callers[caller][3]
            for layer, w in share_of(caller).items():
                weights[layer] = weights.get(layer, 0.0) + ct * w
            total += ct
        if not total:
            result = {UNATTRIBUTED: 1.0}
        else:
            result = {layer: w / total for layer, w in weights.items()}
        time_share[key] = result
        return result

    def owner_of(key) -> str:
        """The layer that makes most of the calls to ``key``."""
        if own[key] is not None:
            return own[key]
        if key in owner:
            return owner[key]
        owner[key] = UNATTRIBUTED  # cycle guard
        counts: dict[str, int] = {}
        for caller, (nc, _cc, _tt, _ct) in stats[key][4].items():
            if caller != key and caller in stats:
                layer = owner_of(caller)
                counts[layer] = counts.get(layer, 0) + nc
        if counts:
            owner[key] = min(counts, key=lambda layer: (-counts[layer], layer))
        return owner[key]

    names = LAYERS + (UNATTRIBUTED,)
    self_s = dict.fromkeys(names, 0.0)
    calls_in = dict.fromkeys(names, 0)
    for key in keys:
        _cc, _nc, tt, _ct, callers = stats[key]
        layer = own[key]
        if layer is not None:
            self_s[layer] += tt
        else:
            charged = 0.0
            for caller in sorted(callers):
                if caller not in stats:
                    continue
                edge_tt = callers[caller][2]
                source = share_of(key) if caller == key else share_of(caller)
                for target, w in source.items():
                    self_s[target] += edge_tt * w
                charged += edge_tt
            # time not covered by a caller edge (a root frame)
            for target, w in share_of(key).items():
                self_s[target] += max(tt - charged, 0.0) * w
        if layer is not None and layer != UNATTRIBUTED:
            for caller, (nc, _c, _t, _ct) in callers.items():
                if caller in stats and owner_of(caller) != layer:
                    calls_in[layer] += nc
    return {"self_s": self_s, "calls_in": calls_in, "total_s": sum(self_s.values())}
