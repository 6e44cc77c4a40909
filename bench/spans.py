"""Host-time spans recorded from outside the program.

The benchmark wraps the public function at each layer boundary -- by
rebinding the name in the module that calls it -- and records (name,
start, end, parent, op id) in memory.  Nothing under ``src/`` knows it
is being traced; spans inside the program are a later change.
"""

import contextlib
import importlib
import json
import time

#: (module that makes the call, attribute it calls through, span name).
#: Only calls made *from* these modules are spanned, so recursion inside
#: a layer stays one span.
BOUNDARIES = (
    ("repro.codegen", "generate_spmd", "codegen.generate_spmd"),
    ("repro.codegen.spmd", "all_trees", "dataflow.lwt"),
    ("repro.codegen.spmd", "from_leaf", "core.commsets"),
    ("repro.codegen.spmd", "eliminate_self_reuse", "core.redundancy"),
    ("repro.codegen.spmd", "build_plan", "core.aggregation"),
    ("repro.codegen.spmd", "scan", "polyhedra.scan"),
    ("repro.codegen.spmd", "compile_node_program", "codegen.emit_py"),
    ("repro.codegen.spmd", "emit_c", "codegen.emit_c"),
    ("repro.runtime.validate", "run", "ir.interp"),
    ("repro.runtime.validate", "live_out_writes", "ir.live_out"),
    ("repro.runtime.validate", "run_spmd", "runtime.machine.run"),
    ("repro.core.serialize", "job_key", "core.job_key"),
    ("repro.core.serialize", "load_result", "core.serialize_load"),
)


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        #: (name, start, end, parent index or -1, op id)
        self.spans = []
        self._stack = []
        self.op_id = -1

    def call(self, name, fn, /, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op_id)

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every layer boundary to its traced wrapper, then restore."""
        saved = []
        try:
            for module_name, attr, span_name in BOUNDARIES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(span_name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def totals(self):
        """{name: (inclusive seconds, self seconds, calls)}; self time
        is a span's duration minus that of its direct children."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for index, (name, start, end, _parent, _op) in enumerate(self.spans):
            incl, self_, calls = out.get(name, (0.0, 0.0, 0))
            dur = end - start
            out[name] = (incl + dur, self_ + dur - child_time[index], calls + 1)
        return out

    def write_chrome(self, path):
        """Chrome ``trace_event`` JSON: one complete event per span, the
        op id as the thread so each op is its own row."""
        origin = min((s[1] for s in self.spans), default=0.0)
        events = [
            {
                "name": name,
                "ph": "X",
                "pid": 0,
                "tid": op,
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "args": {"span": index, "parent": parent},
            }
            for index, (name, start, end, parent, op) in enumerate(self.spans)
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


class Untraced:
    """The same ``call`` surface with no recording: the untraced run and
    the traced run execute identical workload code."""

    op_id = -1

    @staticmethod
    def call(_name, fn, /, *args, **kwargs):
        return fn(*args, **kwargs)
