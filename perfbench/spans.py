"""In-memory spans around the calls into the package's public functions.

The package binds names with ``from ... import``, so a wrapper has to
replace every binding of a function, not only the one in its defining
module: ``cli.build_table``, ``verify.phi_split``,
``analytic.iter_prime_blocks`` and so on.  ``Tracer.installed`` finds the
bindings by identity in every loaded ``primecycles`` module, swaps in a
wrapper for the duration of a ``with`` block, and puts the originals back
afterwards, so code outside the block runs unwrapped.  A boundary whose
name no longer exists is skipped; its metrics then read 0.

Spans are kept in memory as ``[name, start, end, parent]`` lists and
written out by the caller at the end of the run.  Times are process CPU
time (``time.process_time``): the workloads are single-threaded and do no
I/O, so on an idle core this equals wall time, and unlike wall time it
leaves out the time a shared host takes the CPU away.  Generators are timed inside ``next()`` only, so a consumer's work
between blocks is not charged to the producer.
"""

import functools
import sys
import time
from contextlib import contextmanager

from primecycles.cycle_classes import CycleClassSpec
from primecycles.sampler import Sampler

# (module, attribute, kind); kind "gen" marks a generator function
FUNCTION_BOUNDARIES = (
    ("primecycles.primes", "build_sieve", "call"),
    ("primecycles.primes", "iter_prime_blocks", "gen"),
    ("primecycles.analytic", "phi_split", "call"),
    ("primecycles.analytic", "phi_eval", "call"),
    ("primecycles.analytic", "make_constants", "call"),
    ("primecycles.analytic", "yakimiv_log_model", "call"),
    ("primecycles.exact_enum", "count_exact_upto", "call"),
    ("primecycles.exact_enum", "build_table", "call"),
    ("primecycles.exact_enum", "partial_sum", "call"),
    ("primecycles.exact_enum", "dump_table", "call"),
    ("primecycles.sampler", "first_cycle_distribution", "call"),
    ("primecycles.verify", "partial_sum_table", "call"),
    ("primecycles.verify", "hlk_comparison_table", "call"),
    ("primecycles.verify", "phi_estimate_table", "call"),
    ("primecycles.verify", "pnt_table", "call"),
    ("primecycles.cli", "main", "call"),
)
METHOD_BOUNDARIES = (
    (Sampler, "sample"),
    (CycleClassSpec, "members_upto"),
)
# the two boundaries the untraced run keeps, to time table building
TABLE_BOUNDARIES = (
    ("primecycles.exact_enum", "count_exact_upto", "call"),
    ("primecycles.exact_enum", "build_table", "call"),
)
TABLE_SPANS = ("exact_enum.count_exact_upto", "exact_enum.build_table")


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def span_name(module, attr, args, kwargs):
    """Span name for one call; table-building calls are split by route."""
    base = f"{module.rsplit('.', 1)[-1]}.{attr}"
    if attr == "count_exact_upto":
        kind = getattr(_arg(args, kwargs, 0, "spec"), "kind", "other")
        return f"{base}.{'primes' if kind == 'primes' else kind}"
    if attr == "build_table":
        mode = _arg(args, kwargs, 2, "mode", "exact")
        if mode == "float" and _arg(args, kwargs, 3, "use_fast_path", False):
            mode = "fast"
        return f"{base}.{mode}"
    return base


class Tracer:
    """Records spans and the sizes each boundary handled."""

    def __init__(self, boundaries=FUNCTION_BOUNDARIES, methods=METHOD_BOUNDARIES):
        self.boundaries = boundaries
        self.methods = methods
        self.spans = []
        self.sizes = []  # [span index, size name, value]
        self._stack = []

    def _open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.process_time(), 0.0, parent])
        self._stack.append(index)
        return index

    def _close(self, index):
        self.spans[index][2] = time.process_time()
        self._stack.pop()

    def _size(self, index, key, value):
        self.sizes.append([index, key, value])

    def _wrap_call(self, module, attr, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(span_name(module, attr, args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            self._record_sizes(index, attr, args, kwargs, result)
            return result

        return wrapper

    def _wrap_gen(self, module, attr, fn):
        name = span_name(module, attr, (), {})

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            call = self._open(name + ".call")
            self._close(call)
            self._size(call, "ints", int(_arg(args, kwargs, 0, "limit", 0)))

            def timed():
                while True:
                    index = self._open(name)
                    try:
                        block = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._close(index)
                    self._size(index, "primes", len(block))
                    yield block

            return timed()

        return wrapper

    def _record_sizes(self, index, attr, args, kwargs, result):
        if attr == "build_sieve":
            self._size(index, "ints", int(_arg(args, kwargs, 0, "limit", 0)))
        elif attr in ("count_exact_upto", "build_table"):
            self._size(index, "coeffs", int(_arg(args, kwargs, 1, "n_max", -1)) + 1)
        elif attr == "sample":
            self._size(index, "cycles", len(result.lengths))

    @contextmanager
    def installed(self):
        """Wrap every boundary for the duration of the block."""
        undo = []
        try:
            for module_name, attr, kind in self.boundaries:
                module = sys.modules.get(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    continue
                make = self._wrap_gen if kind == "gen" else self._wrap_call
                wrapped = make(module_name, attr, original)
                for mod_name, mod in list(sys.modules.items()):
                    if not mod_name.startswith("primecycles"):
                        continue
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, name, wrapped)
                            undo.append((mod, name, original))
            for cls, attr in self.methods:
                original = cls.__dict__.get(attr)
                if original is None:
                    continue
                module_name = cls.__module__
                setattr(cls, attr, self._wrap_call(module_name, attr, original))
                undo.append((cls, attr, original))
            yield self
        finally:
            for owner, name, original in reversed(undo):
                setattr(owner, name, original)

    def mark(self):
        """Position to pass to ``totals`` to cover only what follows."""
        return len(self.spans), len(self.sizes)

    def totals(self, since=(0, 0)):
        """Per span name: calls, total seconds, self seconds, summed sizes."""
        first_span, first_size = since
        out = {}
        child_time = {}
        for index in range(first_span, len(self.spans)):
            name, start, end, parent = self.spans[index]
            duration = end - start
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration
            if parent >= first_span:
                child_time[parent] = child_time.get(parent, 0.0) + duration
        for index, covered in child_time.items():
            out[self.spans[index][0]]["self_s"] -= covered
        for index, key, value in self.sizes[first_size:]:
            entry = out[self.spans[index][0]]
            entry[key] = entry.get(key, 0) + value
        return out

    def outermost(self, names, since=(0, 0)):
        """Seconds and coefficient count of spans in ``names`` whose
        ancestors are not in ``names`` (a table built inside another
        table build is counted once)."""
        first_span, first_size = since
        seconds = 0.0
        top = set()
        for index in range(first_span, len(self.spans)):
            name, start, end, parent = self.spans[index]
            if not name.startswith(names):
                continue
            ancestor = parent
            nested = False
            while ancestor >= 0:
                if self.spans[ancestor][0].startswith(names):
                    nested = True
                    break
                ancestor = self.spans[ancestor][3]
            if not nested:
                seconds += end - start
                top.add(index)
        coeffs = sum(v for i, k, v in self.sizes[first_size:]
                     if k == "coeffs" and i in top)
        return seconds, coeffs

    def dump(self):
        """Spans as plain lists for JSON output."""
        sizes = {}
        for index, key, value in self.sizes:
            sizes.setdefault(index, {})[key] = value
        return [span + [sizes.get(i, {})] for i, span in enumerate(self.spans)]
