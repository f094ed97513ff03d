"""Per-layer tracing of the biperiodic modules, installed from outside.

The tracer replaces the public functions of each layer with wrappers, in
every biperiodic module and class that holds them: a name imported with
``from .x import f`` (``cli.format_rational``, ``cli.term_recurrence``,
``genmatrix.term_recurrence``) and a method alias (``QuadExt.__rmul__``)
is a second reference that patching the defining module alone would
miss. The program's sources are not touched.

Timed wrappers keep a stack, so each call's self time is its duration
minus the part its traced children cover. Spans are kept in memory and
written out when the run ends. ``TermTable.term`` is timed and counted
but not kept span by span: one catalog sweep performs millions of
lookups.
"""
from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

from biperiodic import binet, cli, exact, genmatrix, identities, sequences

#: (owner, attribute, span name). A callable name is given the call's
#: arguments, so that one function can feed several named spans.
TIMED = (
    (sequences, "term_recurrence", "sequences.term_recurrence"),
    (genmatrix, "matrix_power", "genmatrix.matrix_power"),
    (genmatrix, "term_fast", "genmatrix.term_fast"),
    (genmatrix, "power_closed_form", "genmatrix.power_closed_form"),
    (genmatrix, "det_power", "genmatrix.det_power"),
    (binet, "binet_fib", "binet.binet_fib"),
    (binet, "binet_lucas", "binet.binet_lucas"),
    (exact, "format_rational", "exact.format_rational"),
    (identities, "verify_grid", lambda args: f"identities.{args[0].value}"),
    (identities.TermTable, "term", "identities.termtable"),
    (cli, "main", "cli.main"),
    (cli, "_emit_json", "cli.emit"),
)

#: (owner, attribute, counter): calls counted, not timed.
COUNTED = (
    (exact.QuadExt, "__mul__", "exact.quadext_mul.count"),
    (exact.Mat2, "__mul__", "exact.mat2_mul.count"),
)

#: Spans not kept one by one (see the module docstring).
UNRECORDED = frozenset({"identities.termtable"})

#: Engines whose results feed ``exact.result_bits.max``.
RESULT_BITS = frozenset(
    {
        "sequences.term_recurrence",
        "genmatrix.matrix_power",
        "genmatrix.term_fast",
        "genmatrix.det_power",
        "binet.binet_fib",
        "binet.binet_lucas",
    }
)


def _bits(value) -> int:
    if isinstance(value, exact.Mat2):
        return max(_bits(e) for e in (value.e11, value.e12, value.e21, value.e22))
    return max(value.numerator.bit_length(), value.denominator.bit_length())


class Tracer:
    """Collects spans and counters while ``on``; wrappers pass straight through otherwise."""

    def __init__(self):
        self.on = False
        self.request = -1
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.spans: list = []
        self.layers = defaultdict(lambda: [0, 0.0, 0.0])  # name -> calls, total_s, self_s
        self.counters = defaultdict(int)
        self._stack: list[list] = []  # per open call: [child seconds, index of recorded span]

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for owner, attr, name in TIMED:
            self._patch(getattr(owner, attr), self._timed(getattr(owner, attr), name))
        for owner, attr, counter in COUNTED:
            self._patch(getattr(owner, attr), self._counted(getattr(owner, attr), counter))
        mpc = genmatrix.matrix_power_counted
        self._patch(mpc, self._product_count(mpc))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, original, wrapper) -> None:
        """Replace every reference to ``original`` in biperiodic modules and classes."""
        owners = {}
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "biperiodic" and not mod_name.startswith("biperiodic."):
                continue
            owners[id(module)] = module
            for value in vars(module).values():
                if isinstance(value, type) and value.__module__.startswith("biperiodic"):
                    owners[id(value)] = value
        for owner in owners.values():
            for attr, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, attr, wrapper)
                    self._patches.append((owner, attr, original))

    # -- wrappers -----------------------------------------------------------

    def _timed(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            label = name(args) if callable(name) else name
            stack = tracer._stack
            parent = stack[-1][1] if stack else -1
            index = parent
            if label not in UNRECORDED:
                index = len(tracer.spans)
                tracer.spans.append(None)
            frame = [0.0, index]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except ValueError:
                if label == "exact.format_rational":
                    tracer.counters["exact.format_rational.failed"] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                layer = tracer.layers[label]
                layer[0] += 1
                layer[1] += duration
                layer[2] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if index != parent:
                    tracer.spans[index] = (tracer.request, label, start, end, parent)
            tracer._observe(label, args, result)
            return result

        return wrapper

    def _observe(self, label, args, result) -> None:
        counters = self.counters
        if label in RESULT_BITS:
            counters["exact.result_bits.max"] = max(
                counters["exact.result_bits.max"], _bits(result)
            )
        if label == "sequences.term_recurrence":
            counters["sequences.recurrence_steps"] += abs(args[2])
        elif label.startswith("identities.") and label != "identities.termtable":
            counters[label + ".checks"] += result.checked

    def _counted(self, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.on:
                tracer.counters[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _product_count(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tracer.on:
                tracer.counters["genmatrix.mat_products"] += result[1]
            return result

        return wrapper


def write_spans(spans, path: str) -> None:
    """One JSON array per line: request, name, start, end, index of the parent span."""
    with open(path, "w", encoding="utf-8") as out:
        for span in spans:
            out.write(json.dumps(span) + "\n")
