"""In-memory span tracer that wraps race_wfl functions from outside.

``Tracer.install`` replaces each traced function with a wrapper that
records one span per call: name, start, end and the index of the span
that was open when the call began (its parent).  A function imported
by name into another module (``simulation`` and ``cli`` do this with
``optimal_allocation``, ``step_platoon`` and ``realize_gains``) is
replaced in every race_wfl module that holds it, so the wrapper runs
whichever name the caller looks up.  ``Tracer.uninstall`` restores the
originals.

A target may carry a ``split`` hook that sees each call's arguments and
result (or exception) and returns a suffix for the span name, such as
the batch size class of a forward pass or the outcome of a solve.

Self time is a span's duration minus the part of it that its direct
child spans cover.
"""

import functools
import gzip
import sys
import time
from collections import defaultdict

PACKAGE = "race_wfl"


class Tracer:
    def __init__(self):
        # one [name, start, end, parent] list per call, in call order
        self.spans = []
        self.counters = defaultdict(float)
        self._stack = []
        self._undo = []

    def wrap(self, name, fn, split=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                rec[2] = clock()
                stack.pop()
                if split is not None:
                    suffix = split(self, args, kwargs, result, exc)
                    if suffix:
                        rec[0] = f"{name}.{suffix}"

        return traced

    def install(self, targets):
        """Wrap each ``(module, qualname, split)`` target; see ``replace``."""
        for module_name, qualname, split in targets:
            name = f"{module_name}.{qualname}"
            self._undo += replace(
                module_name, qualname,
                lambda orig, name=name, split=split:
                    self.wrap(name, orig, split))

    def uninstall(self):
        restore(self._undo)

    def write(self, path):
        """All spans as gzip CSV: index, name, start, end, parent."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("index,name,start,end,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{start!r},{end!r},{parent}\n")


def replace(module_name, qualname, make_wrapper):
    """Swap a race_wfl function for ``make_wrapper(original)``.

    ``module_name`` is a race_wfl submodule name and ``qualname`` a
    function name or ``Class.method``.  A method is replaced on its
    class; a function is replaced under every name that any loaded
    race_wfl module binds it to.  Returns the undo list for ``restore``.
    """
    module = sys.modules[f"{PACKAGE}.{module_name}"]
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        cls = getattr(module, cls_name)
        orig = cls.__dict__[attr]
        setattr(cls, attr, make_wrapper(orig))
        return [(cls, attr, orig)]
    orig = getattr(module, qualname)
    wrapper = make_wrapper(orig)
    undo = []
    for mod in _package_modules():
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapper)
                undo.append((mod, attr, orig))
    return undo


def restore(undo):
    """Undo ``replace`` calls, newest first."""
    for owner, attr, orig in reversed(undo):
        setattr(owner, attr, orig)
    undo.clear()


def _package_modules():
    return [mod for key, mod in list(sys.modules.items())
            if mod is not None
            and (key == PACKAGE or key.startswith(PACKAGE + "."))]


def self_times(spans):
    """Self time of every span, in span order.

    A span's self time is its duration minus the union of its direct
    children's intervals, each clipped to the parent's interval.
    """
    children = defaultdict(list)
    for idx, (_, start, end, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, start), min(c_end, end)
            if c_end <= c_start:
                continue
            if run_end is not None and c_start <= run_end:
                run_end = max(run_end, c_end)
                continue
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = c_start, c_end
        if run_end is not None:
            covered += run_end - run_start
        out.append((end - start) - covered)
    return out


def aggregate(spans):
    """{span name: (calls, total self seconds)}."""
    totals = defaultdict(lambda: [0, 0.0])
    for (name, *_), self_s in zip(spans, self_times(spans)):
        entry = totals[name]
        entry[0] += 1
        entry[1] += self_s
    return {name: (calls, self_s) for name, (calls, self_s) in totals.items()}
