"""Run one benchmark command in this fresh interpreter, traced.

    python3 benchmarks/trace_child.py spans|profile cli|lib ARG...

``spans`` wraps the functions named in ``layers.SPANS`` with timers and
reports calls, total and self time for each.  ``profile`` runs the
command under cProfile and reports exact call counts only, plus the
largest coefficient any ``QPoly`` product made; the profiler's own times
are inflated and never used.  ``cli`` runs
``qeuler.cli.main(ARGS)``; ``lib`` runs ``window.main(ARGS)``.

The last line of standard output is one JSON object holding the exit
code, the command's own output, monotonic timestamps (comparable with
the parent's, since both read the system-wide monotonic clock) and the
spans or counts.
"""

from __future__ import annotations

import time

T_START = time.monotonic()

import sys  # noqa: E402

import qeuler  # noqa: E402
import qeuler.cli  # noqa: E402

T_IMPORTED = time.monotonic()

import cProfile  # noqa: E402
import functools  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
from fractions import Fraction  # noqa: E402

import layers  # noqa: E402
import window  # noqa: E402


def _resolve(module: str, qualname: str):
    owner = getattr(qeuler, module)
    *classes, attr = qualname.split(".")
    for name in classes:
        owner = getattr(owner, name)
    return owner, attr, vars(owner)[attr]


class Spans:
    """Per-name [calls, total_s, self_s]; self time excludes child spans."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}
        self._children: list[float] = []

    def wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        children = self._children
        clock = time.perf_counter
        depth = [0]

        @functools.wraps(fn)
        def span(*args, **kwargs):
            children.append(0.0)
            depth[0] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                depth[0] -= 1
                stats[0] += 1
                stats[2] += dt - children.pop()
                if not depth[0]:  # a recursive call's time is in its outermost span
                    stats[1] += dt
                if children:
                    children[-1] += dt

        return span

    def install(self) -> None:
        """Replace each spanned function wherever the package holds it.

        A module-level function is also referenced by every module that
        imported it by name and by dispatch tables built at import time,
        so every qeuler module namespace and every dict in one is rebound.
        """
        modules = [m for name, m in sys.modules.items() if name.startswith("qeuler")]
        for module, qualname in layers.SPANS:
            owner, attr, fn = _resolve(module, qualname)
            wrapped = self.wrap(layers.span_name(module, qualname), fn)
            if isinstance(owner, type):
                for key, value in list(vars(owner).items()):
                    if value is fn:
                        setattr(owner, key, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)
                    elif isinstance(value, dict) and key != "__builtins__":
                        for k, v in list(value.items()):
                            if v is fn:
                                value[k] = wrapped


def _count_targets() -> dict:
    """Code object -> metric name, for the profiler pass."""
    targets = {}
    for module, qualname in layers.SPANS:
        _, _, fn = _resolve(module, qualname)
        targets[fn.__code__] = layers.span_name(module, qualname)
    for qualname in layers.QRATFUN_CONSTRUCTORS:
        _, _, fn = _resolve("algebra", qualname)
        targets[getattr(fn, "__func__", fn).__code__] = "algebra.QRatFun.new"
    for attr in layers.FRACTION_OPS:
        targets[getattr(Fraction, attr).__code__] = "algebra.fraction_ops"
    return targets


def _track_coeff_bits() -> list[int]:
    """Keep the largest numerator or denominator bit length of any QPoly product."""
    peak = [0]
    cls = qeuler.algebra.QPoly
    mul = cls.__mul__

    def tracked(self, other):
        out = mul(self, other)
        if out is not NotImplemented:
            for c in out.coeffs:
                bits = max(c.numerator.bit_length(), c.denominator.bit_length())
                if bits > peak[0]:
                    peak[0] = bits
        return out

    for key, value in list(vars(cls).items()):
        if value is mul:
            setattr(cls, key, tracked)
    return peak


def main() -> int:
    mode, kind, *argv = sys.argv[1:]
    spans = profiler = None
    if mode == "spans":
        spans = Spans()
        spans.install()
    else:
        targets = _count_targets()  # before the bit tracker replaces QPoly.__mul__
        peak_bits = _track_coeff_bits()
        profiler = cProfile.Profile()
    entry = qeuler.cli.main if kind == "cli" else window.main
    record: dict = {"t_start": T_START, "t_imported": T_IMPORTED}
    real_stdout, captured = sys.stdout, io.StringIO()
    sys.stdout = captured
    record["t_entry"] = time.monotonic()
    try:
        if profiler is not None:
            profiler.enable()
        record["exit"] = entry(argv)
        if profiler is not None:
            profiler.disable()
    finally:
        record["t_exit"] = time.monotonic()
        sys.stdout = real_stdout
    record["out"] = captured.getvalue()
    if spans is not None:
        record["spans"] = spans.stats
    else:
        counts: dict[str, int] = {}
        for stat in profiler.getstats():
            name = targets.get(stat.code)
            if name is not None:
                counts[name] = counts.get(name, 0) + stat.callcount
        record["counts"] = counts
        record["max_coeff_bits"] = peak_bits[0]
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
