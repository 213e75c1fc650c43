"""In-memory spans around the public functions the deciders call.

The Tracer replaces names in ppt.algorithms and ppt.checks with wrappers
that record a Span (name, start, end, parent span, call id) and return
exactly what the wrapped function returned. Only the benchmark installs
and removes them; the library is not edited. Spans stay in memory until
the run ends and are then written out as JSON lines.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Any, Callable

import ppt.algorithms
import ppt.checks
from ppt.canonical import canonical_params


@dataclass(slots=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    call: int
    info: Any = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _find_exit(args, fr) -> dict:
    kind = "divisor" if fr.divisor is not None else "qnr" if fr.qnr is not None else "m"
    return {"exit": kind, "iters": fr.iterations}


def _pgpc_info(args, rep) -> dict:
    conds = (rep.cond1, rep.cond2, rep.cond3, rep.cond4)
    return {"m": rep.m, "reached": sum(c is not None for c in conds)}


class Tracer:
    """Records spans; installed() swaps the wrappers in for a with-block.

    m_values names the canonical parameters the workload uses, so that a
    divisor handed to polyring can be labelled Upsilon or Psi.
    """

    def __init__(self, m_values=()):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._call = 0
        self._m_values = tuple(m_values)
        self._kinds: dict[int, dict[tuple[int, ...], str]] = {}

    # ----------------------------------------------------------- recording

    def new_call(self) -> int:
        self._call += 1
        return self._call

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, 0.0, 0.0, parent, self._call)
        self.spans.append(span)
        self._stack.append(span)
        return span

    @contextmanager
    def span(self, name: str, info: Any = None):
        """A span around the with-block, as a child of the open span if any."""
        span = self._open(name)
        span.info = info
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn: Callable, annotate: Callable | None = None) -> Callable:
        """fn with a span around every call; annotate(args, result) -> info."""

        def traced(*args, **kwargs):
            span = self._open(name)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if annotate is not None:
                span.info = annotate(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------ poly labelling

    def poly_kind(self, d, n: int) -> str:
        """'upsilon' or 'psi' when d is one of the workload's divisors mod n."""
        kinds = self._kinds.get(n)
        if kinds is None:
            kinds = {}
            for m in self._m_values:
                params = canonical_params(m)
                kinds[params.upsilon.reduced(n).coeffs] = "upsilon"
                kinds[params.psi.reduced(n).coeffs] = "psi"
            self._kinds[n] = kinds
        coeffs = d.coeffs if d.n == n else d.reduced(n).coeffs
        return kinds.get(coeffs, "other")

    # ------------------------------------------------------- installation

    def targets(self) -> list[tuple[Any, str, str, Callable | None]]:
        """(module, attribute, span name, annotate) for every wrapped name."""
        alg, chk = ppt.algorithms, ppt.checks
        mbec = ("polyring.mbec_remainder", lambda a, r: self.poly_kind(a[1], a[0]))
        powm = ("polyring.poly_powmod", lambda a, r: self.poly_kind(a[0].divisor, a[0].n))
        return [
            (alg, "find_qnr", "algorithms.find_qnr", lambda a, r: {"iters": r.iterations}),
            (alg, "find_qnr_or_m", "canonical.find_qnr_or_m", _find_exit),
            (alg, "canonical_params", "canonical.canonical_params", None),
            (alg, "pgpc_check", "checks.pgpc_check", _pgpc_info),
            (alg, "fgpc_check", "checks.fgpc_check", lambda a, r: {"m": a[1].m}),
            (alg, "miller_rabin_base", "algorithms.miller_rabin_base", None),
            (alg, "jacobi", "ntcore.jacobi", None),
            (alg, "ecc", "checks.ecc", None),
            (alg, "bcc", "checks.bcc", None),
            (alg, "mbec_remainder", *mbec),
            (alg, "poly_powmod", *powm),
            (chk, "mbec_remainder", *mbec),
            (chk, "poly_powmod", *powm),
        ]

    @contextmanager
    def installed(self):
        """The wrappers in place for the with-block, the originals after it."""
        saved = []
        try:
            for module, attr, name, annotate in self.targets():
                orig = getattr(module, attr)
                saved.append((module, attr, orig))
                setattr(module, attr, self.wrap(name, orig, annotate))
            yield self
        finally:
            for module, attr, orig in reversed(saved):
                setattr(module, attr, orig)

    # ----------------------------------------------------------- analysis

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        out = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.seconds
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")
