"""In-memory spans and call-boundary probes for the traced benchmark run.

A *probe* replaces one function or method of the simulator with a thin
wrapper at the name its callers actually resolve, so the simulator
itself is never edited:

* a method is replaced on the class that defines it (instances and
  subclasses resolve it through the class);
* a module-level function is replaced in *every* loaded ``repro.*``
  module that binds the original object — ``from x import f`` copies
  the binding, so ``repro.fleet.engine.restore_experiment`` and
  ``repro.campaign.runner.restore_experiment`` are separate names for
  the same function and both must be wrapped.

:meth:`Probes.uninstall` puts every original object back exactly where
it was found.

A span is (name, start, end, parent, op id, tag), recorded with
``perf_counter_ns`` into flat arrays while the pass runs and written out
once at the end.  Spans nest strictly (the benchmark is serial, one
thread), so a span's parent is whatever span was open when it began.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

NO_PARENT = -1


class SpanRecorder:
    """Append-only span store: one row per span, parallel int64 arrays."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.tag = array("q")
        self._stack: List[int] = []
        self.current_op = -1

    def intern(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = len(self.names)
            self._name_ids[name] = ident
            self.names.append(name)
        return ident

    def begin(self, name_id: int, tag_id: int = -1) -> int:
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else NO_PARENT)
        self.op.append(self.current_op)
        self.tag.append(tag_id)
        self.end.append(0)
        self._stack.append(index)
        self.start.append(time.perf_counter_ns())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError("span stack out of order")

    def set_tag(self, index: int, tag: str) -> None:
        self.tag[index] = self.intern(tag)

    def __len__(self) -> int:
        return len(self.start)

    def rows(self) -> Iterable[Tuple[str, int, int, int, int, Optional[str]]]:
        for i in range(len(self.start)):
            tag = self.tag[i]
            yield (
                self.names[self.name_id[i]],
                self.start[i],
                self.end[i],
                self.parent[i],
                self.op[i],
                self.names[tag] if tag >= 0 else None,
            )

    def save(self, path) -> None:
        """Write every span as a compressed ``.npz`` of parallel arrays."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=object).astype(str),
            name_id=np.frombuffer(self.name_id, dtype=np.int64),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int64),
            tag=np.frombuffer(self.tag, dtype=np.int64),
        )


def self_times(
    starts: Sequence[int], ends: Sequence[int], parents: Sequence[int]
) -> List[int]:
    """Each span's duration minus the part of its interval that its
    direct children cover (overlapping children are merged first, so
    time is never subtracted twice)."""
    n = len(starts)
    children: Dict[int, List[int]] = {}
    for i in range(n):
        p = parents[i]
        if p != NO_PARENT:
            children.setdefault(p, []).append(i)
    out = []
    for i in range(n):
        s, e = starts[i], ends[i]
        covered = 0
        cur_s = cur_e = None
        for c in sorted(children.get(i, ()), key=lambda c: starts[c]):
            cs, ce = max(starts[c], s), min(ends[c], e)
            if ce <= cs:
                continue
            if cur_e is None or cs > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = cs, ce
            elif ce > cur_e:
                cur_e = ce
        if cur_e is not None:
            covered += cur_e - cur_s
        out.append(e - s - covered)
    return out


@dataclass
class Probe:
    """One call boundary to wrap.

    Attributes:
        target: ``"module"`` for a function, ``"module:Class"`` for a
            method.
        attr: Function or method name.
        span: Span name, or None for a count-only probe (no timing).
        before: Optional ``before(args, kwargs) -> state`` hook.
        after: Optional ``after(args, kwargs, result, state, span)``
            hook, run after the call returns (not on exceptions).
    """

    target: str
    attr: str
    span: Optional[str] = None
    before: Optional[Callable[..., Any]] = None
    after: Optional[Callable[..., Any]] = None


def _resolve(target: str):
    module_name, _, class_name = target.partition(":")
    module = importlib.import_module(module_name)
    return module, (getattr(module, class_name) if class_name else None)


def _make_wrapper(fn, probe: Probe, recorder: Optional[SpanRecorder]):
    before, after = probe.before, probe.after
    if probe.span is None or recorder is None:

        def counting(*args, **kwargs):
            state = before(args, kwargs) if before is not None else None
            result = fn(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result, state, None)
            return result

        wrapper = counting
    else:
        name_id = recorder.intern(probe.span)
        begin, finish = recorder.begin, recorder.finish

        def timed(*args, **kwargs):
            state = before(args, kwargs) if before is not None else None
            index = begin(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(index)
            if after is not None:
                after(args, kwargs, result, state, index)
            return result

        wrapper = timed
    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", probe.attr)
    wrapper.__qualname__ = getattr(fn, "__qualname__", probe.attr)
    wrapper.__doc__ = getattr(fn, "__doc__", None)
    return wrapper


class Probes:
    """Install a set of probes; uninstall restores every original."""

    def __init__(self, probes: Sequence[Probe], recorder: Optional[SpanRecorder] = None):
        self.probes = list(probes)
        self.recorder = recorder
        self._saved: List[Tuple[Any, str, Any, bool]] = []

    def install(self) -> "Probes":
        if self._saved:
            raise RuntimeError("probes already installed")
        try:
            for probe in self.probes:
                self._install_one(probe)
        except BaseException:
            self.uninstall()
            raise
        return self

    def _install_one(self, probe: Probe) -> None:
        module, cls = _resolve(probe.target)
        if cls is not None:
            had = probe.attr in cls.__dict__
            original = cls.__dict__[probe.attr] if had else getattr(cls, probe.attr)
            wrapper = _make_wrapper(getattr(cls, probe.attr), probe, self.recorder)
            setattr(cls, probe.attr, wrapper)
            self._saved.append((cls, probe.attr, original, had))
            return
        original = getattr(module, probe.attr)
        wrapper = _make_wrapper(original, probe, self.recorder)
        for name, mod in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")) or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._saved.append((mod, attr, original, True))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original, had = self._saved.pop()
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Probes":
        return self.install()

    def __exit__(self, *exc) -> bool:
        self.uninstall()
        return False
