"""Layer spans recorded from outside the program.

``Tracer.install()`` replaces each stage function listed in ``STAGES`` with a
wrapper, in every ``ample.*`` namespace that binds it (``from .x import f``
copies a binding, so patching only the defining module would miss callers).
The wrapper records one span per call -- name, start, end, parent span and
command id -- in memory, plus the counters of that stage.  ``uninstall()``
puts every original object back.

Counter bookkeeping (shapes, coefficient sizes, file sizes) runs while the
span clock is paused, so it counts in the traced wall time, and so in
``trace.overhead_s``, but in no span.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import time
from array import array
from collections import defaultdict
from fractions import Fraction
from typing import Any, Callable, Iterator

# span name -> (defining module, attribute path)
STAGES: dict[str, tuple[str, str]] = {
    "rings.matmul": ("ample.rings", "Matrix.__matmul__"),
    "rings.echelon": ("ample.rings", "row_echelon"),
    "rings.inverse": ("ample.rings", "matrix_inverse"),
    "groupoid.validate": ("ample.groupoid", "validate_groupoid"),
    "groupoid.hom_set": ("ample.groupoid", "FiniteGroupoid.hom_set"),
    "groupoid.arrows_with_src": ("ample.groupoid", "FiniteGroupoid.arrows_with_src"),
    "groupoid.bisections": ("ample.groupoid", "enumerate_bisections"),
    "algebra.table": ("ample.algebra", "multiplication_table"),
    "algebra.convolve": ("ample.algebra", "convolve"),
    "gmodule.hom_basis": ("ample.gmodule", "hom_space_basis"),
    "gmodule.validate": ("ample.gmodule", "validate_module"),
    "gmodule.validate_hom": ("ample.gmodule", "validate_hom"),
    "gsheaf.validate": ("ample.gsheaf", "validate_sheaf"),
    "gsheaf.hom_basis": ("ample.gsheaf", "sheaf_hom_basis"),
    "equivalence.sheafify": ("ample.equivalence", "sheafify"),
    "equivalence.gamma_c": ("ample.equivalence", "gamma_c"),
    "equivalence.eta": ("ample.equivalence", "eta"),
    "equivalence.epsilon": ("ample.equivalence", "epsilon"),
    "equivalence.naturality": ("ample.equivalence", "check_naturality"),
    "morita.round_trip": ("ample.morita", "round_trip"),
    "morita.quasi_inverse": ("ample.morita", "pullback_quasi_inverse"),
    "morita.anchors": ("ample.morita", "anchors"),
    "morita.essential_equivalence": ("ample.morita", "is_essential_equivalence"),
    "builders.random_module": ("ample.builders", "random_module"),
    "builders.random_sheaf": ("ample.builders", "random_sheaf"),
    "builders.random_invertible": ("ample.builders", "random_invertible"),
    "documents.load": ("ample.documents", "load_document"),
    "documents.dump": ("ample.documents", "dump_payload"),
    "cli.run_command": ("ample.cli", "run_command"),
}
NAMES = tuple(STAGES)

# Per-stage counters, each computed from the call's arguments and result.


def _q_bits(matrix: Any) -> int:
    bits = 0
    for row in matrix.entries:
        for x in row:
            if isinstance(x, Fraction):
                bits = max(bits, abs(x.numerator).bit_length(), x.denominator.bit_length())
    return bits


def _count_matmul(c: "Counters", args: tuple, result: Any) -> None:
    a, b = args
    c.add("rings.matmul.mults", a.rows * a.cols * b.cols)
    if result.ring.kind == "Q":
        c.peak("rings.q.max_coeff_bits", _q_bits(result))


def _count_echelon(c: "Counters", args: tuple, result: Any) -> None:
    (a,) = args
    cells = a.rows * a.cols
    c.add("rings.echelon.cells", cells)
    c.peak("rings.echelon.max_cells", cells)
    if c.group:
        c.peak(f"rings.echelon.max_cells.{c.group}", cells)
    c.add("rings.echelon.rows", a.rows)
    c.add("rings.echelon.pivots", len(result.pivots))
    if a.ring.kind == "Q":
        c.peak("rings.q.max_coeff_bits", max(_q_bits(result.reduced), _q_bits(result.transform)))


def _count_hom_basis(c: "Counters", args: tuple, result: Any) -> None:
    m1, m2 = args
    unknowns = m1.rank * m2.rank
    c.add("gmodule.hom_basis.system_cells", unknowns * len(m1.groupoid.arrows) * unknowns)


def _count_load(c: "Counters", args: tuple, result: Any) -> None:
    c.add("documents.load.bytes", os.path.getsize(args[0]))


COUNTERS: dict[str, Callable[["Counters", tuple, Any], None]] = {
    "rings.matmul": _count_matmul,
    "rings.echelon": _count_echelon,
    "gmodule.hom_basis": _count_hom_basis,
    "documents.load": _count_load,
}


class Counters:
    """Summed and peak counters; ``group`` is the current command's size label."""

    def __init__(self) -> None:
        self.values: dict[str, int] = defaultdict(int)
        self.group = ""

    def add(self, name: str, amount: int) -> None:
        self.values[name] += amount

    def peak(self, name: str, value: int) -> None:
        if value > self.values[name]:
            self.values[name] = value


class Tracer:
    """Spans kept in memory, one entry per call in call order.

    Span ``i`` has name ``NAMES[name_index[i]]``, times ``start[i]`` and
    ``end[i]``, parent span ``parent[i]`` (-1 for a root) and the index of
    the command it ran in, ``command[i]``.  Times come from ``clock()``, a
    ``perf_counter`` that stops while counters are computed.  Arrays keep a
    span to 37 bytes; 10 s of traced ``morita-rt-fp`` record about 250 000.
    """

    def __init__(self) -> None:
        self.name_index = array("B")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.command = array("q")
        self.counters = Counters()
        self._current_command = -1
        self.paused = 0.0  # seconds the clock has stood still
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    def clock(self) -> float:
        return time.perf_counter() - self.paused

    def start_command(self, index: int, group: str) -> None:
        self._current_command = index
        self.counters.group = group

    def spans(self) -> Iterator[tuple[int, str, float, float, int, int]]:
        """``(span id, name, start, end, parent id, command)`` for every span."""
        for i in range(len(self.start)):
            yield (i, NAMES[self.name_index[i]], self.start[i], self.end[i],
                   self.parent[i], self.command[i])

    # -- patching ----------------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if m is not None and (name == "ample" or name.startswith("ample."))]
        for span, (module, path) in STAGES.items():
            owner = sys.modules[module]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(span, original)
            self._patch(owner, attr, wrapper)
            if not outer:
                for ns in namespaces:
                    for name, value in list(vars(ns).items()):
                        if value is original:
                            self._patch(ns, name, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _patch(self, owner: Any, attr: str, wrapper: Any) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, span: str, fn: Callable) -> Callable:
        count = COUNTERS.get(span)
        name_index = NAMES.index(span)
        stack, start, end = self._stack, self.start, self.end

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span_id = len(start)
            self.name_index.append(name_index)
            self.parent.append(stack[-1] if stack else -1)
            self.command.append(self._current_command)
            stack.append(span_id)
            t0 = self.clock()
            start.append(t0)
            end.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[span_id] = self.clock()
                stack.pop()
            if count is not None:
                paused = time.perf_counter()
                count(self.counters, args, result)
                self.paused += time.perf_counter() - paused
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

    # -- results -----------------------------------------------------------------

    def self_times(self) -> array:
        """Each span's duration minus the part its child spans cover."""
        out = array("d", (t1 - t0 for t0, t1 in zip(self.start, self.end)))
        for t0, t1, parent in zip(self.start, self.end, self.parent):
            if parent >= 0:
                out[parent] -= t1 - t0
        return out

    def within(self, span_id: int, name: str) -> bool:
        """Whether a span named ``name`` encloses span ``span_id``."""
        wanted = NAMES.index(name)
        parent = self.parent[span_id]
        while parent >= 0:
            if self.name_index[parent] == wanted:
                return True
            parent = self.parent[parent]
        return False

    def counter(self, name: str) -> int:
        return self.counters.values.get(name, 0)

    def write(self, path: str) -> None:
        """Write the spans as JSON lines, one ``[id, name, start, end, parent, command]`` each."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans():
                handle.write(json.dumps(span, separators=(",", ":")))
                handle.write("\n")
