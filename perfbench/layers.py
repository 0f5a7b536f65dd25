"""Per-layer spans, recorded from outside trokit.

:func:`install` replaces each traced public function by a wrapper in
every trokit module that holds it.  Names are imported across modules
(``tro``, ``ordering`` and ``morphisms`` import ``orthonormalize``;
``ordering`` and ``cli`` import ``enumerate_central_tripotents``), so a
wrapper placed only in the defining module would miss the calls between
layers.  Spans stay in memory; :meth:`Recorder.metrics` turns them into
the per-layer metrics and :meth:`Recorder.write` writes them out as JSON
lines when the run ends.

A span's self time is its duration minus the durations of the spans it
directly encloses.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc
from pathlib import Path

# span name -> (module, attributes separated by spaces); "A.b" is b on class A
TRACED = {
    "linalg.orthonormalize": ("trokit.linalg", "orthonormalize"),
    "linalg.intersect": ("trokit.linalg", "intersect"),
    "tro.closure": ("trokit.tro", "closure_from_generators"),
    "tro.certify": ("trokit.tro", "Tro.certify"),
    "tripotents.central_blocks": ("trokit.tripotents", "central_blocks"),
    "tripotents.enumerate": ("trokit.tripotents", "enumerate_central_tripotents"),
    "tripotents.meet": ("trokit.tripotents", "meet"),
    "ordering.classify": ("trokit.ordering", "classify"),
    "ordering.cone_membership": ("trokit.ordering", "cone_membership"),
    "morphisms.ternary_check": ("trokit.morphisms", "is_ternary_star_morphism"),
    "morphisms.cp": ("trokit.morphisms", "cp_refutation"),
    "morphisms.induced_hom": ("trokit.morphisms", "induced_hom"),
    "morphisms.compress": ("trokit.morphisms", "compress"),
    "morphisms.automorphism": ("trokit.morphisms", "period_two_automorphism"),
    "commutative.space_build": ("trokit.commutative", "FiniteInvolutiveSpace.__post_init__"),
    "commutative.maximality": ("trokit.commutative", "is_maximal_antisymmetric"),
    "commutative.inclusion": ("trokit.commutative", "cone_inclusion_matches_set_inclusion"),
    "commutative.embed": ("trokit.commutative", "embed_as_tro"),
    "cli.parse": ("trokit.cli", "parse_document"),
    "cli.command": ("trokit.cli", "cmd_classify cmd_cones cmd_meet cmd_commutative cmd_checkmap"),
}

STATIC = {"Tro.certify"}

# spans whose call count is a metric as well as their self time
COUNTED = ("linalg.orthonormalize", "tro.closure", "tro.certify", "tripotents.central_blocks",
           "tripotents.enumerate", "tripotents.meet", "ordering.classify",
           "ordering.cone_membership")


class Recorder:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.stack: list[dict] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "id": len(self.spans),
                    "parent": self.stack[-1]["id"] if self.stack else None,
                    "child_ns": 0}
            self.spans.append(span)
            self.stack.append(span)
            memory = name == "tro.closure" and not tracemalloc.is_tracing()
            if memory:
                tracemalloc.start()
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["ns"] = time.perf_counter_ns() - t0
                if memory:
                    span["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2 ** 20
                    tracemalloc.stop()
                self.stack.pop()
                if self.stack:
                    self.stack[-1]["child_ns"] += span["ns"]
            _sizes(span, args, result, self.spans)
            return result

        return traced

    def metrics(self, passes: int) -> dict[str, dict]:
        """Per-layer metrics averaged over the traced passes."""
        out: dict[str, dict] = {}

        def put(key: str, value: float, unit: str) -> None:
            out[key] = {"value": value / passes if unit != "MB" else value, "unit": unit}

        for name in TRACED:
            mine = [s for s in self.spans if s["name"] == name]
            put(f"{name}.self_s", sum(s["ns"] - s["child_ns"] for s in mine) / 1e9, "s")
            if name in COUNTED:
                put(f"{name}.calls", len(mine), "count")
        ortho = [s for s in self.spans if s["name"] == "linalg.orthonormalize"]
        put("linalg.orthonormalize.rows", sum(s["rows"] for s in ortho), "count")
        closures = [s["peak_mb"] for s in self.spans if "peak_mb" in s]
        put("tro.closure.peak_mb", max(closures, default=0.0), "MB")
        enum = [s for s in self.spans if s["name"] == "tripotents.enumerate"]
        codes = sum(s.get("codes", 0) for s in enum)
        found = sum(s.get("found", 0) for s in enum)
        put("tripotents.enumerate.codes", codes, "count")
        put("tripotents.enumerate.found", found, "count")
        out["tripotents.enumerate.yield"] = {"value": found / codes if codes else 0.0,
                                             "unit": "ratio"}
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _sizes(span: dict, args: tuple, result, spans: list[dict]) -> None:
    name = span["name"]
    if name == "linalg.orthonormalize":
        span["rows"] = len(args[0])
    elif name == "tripotents.central_blocks":
        span["blocks"] = len(result)
    elif name == "tripotents.enumerate" and args[0].center.dim:
        blocks = [s["blocks"] for s in spans[span["id"] + 1:]
                  if s["name"] == "tripotents.central_blocks" and s["parent"] == span["id"]]
        span["codes"] = 3 ** blocks[0]
        span["found"] = len(result)


def install(recorder: Recorder) -> None:
    """Wrap every traced function wherever a trokit module holds it."""
    import trokit.cli  # noqa: F401  (the package itself does not load the CLI)

    modules = [m for n, m in sys.modules.items() if n == "trokit" or n.startswith("trokit.")]
    for name, (module, attr) in TRACED.items():
        owner = sys.modules[module]
        for part in attr.split():
            if "." in part:
                cls_name, meth = part.split(".")
                cls = getattr(owner, cls_name)
                fn = getattr(cls, meth)
                wrapped = recorder.wrap(name, fn)
                setattr(cls, meth, staticmethod(wrapped) if part in STATIC else wrapped)
                continue
            fn = getattr(owner, part)
            wrapped = recorder.wrap(name, fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)
