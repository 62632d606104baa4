"""Run one ``splitpile`` command in-process with its layers traced.

Usage: ``python3 perfbench/tracer.py STATS.json -- <splitpile arguments>``

The program's standard output and exit status are those of the command;
the per-layer figures go to STATS.json when the command ends.  Each traced
function is replaced in every namespace that binds it (``from .asm import
...`` copies a name into ``cli``, ``qtpoly`` and ``verify``, and ``cli``
keeps the polynomial methods in a dict), so calls are caught wherever they
are looked up.  A call made while another call of the same layer is open is
part of that call and is not counted again.  Hot, fine-grained calls add to
per-layer totals only; coarse calls also leave a span (name, start, end,
parent).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

clock = time.perf_counter

# (module, attribute, layer, options); the attribute may be "Class.method".
TRACED = [
    ("cli", "main", "cli", {"span": True}),
    ("asm", "enumerate_sorted_recurrent", "asm.enumerate", {"span": True}),
    ("asm", "stabilize", "asm.stabilize", {}),
    ("toppling", "topple_cti", "toppling.trace", {}),
    ("toppling", "topple_itc", "toppling.trace", {}),
    ("toppling", "cti_sizes", "toppling.sizes", {}),
    ("toppling", "itc_sizes", "toppling.sizes", {}),
    ("toppling", "all_itc_sequences", "toppling.sequences", {"span": True, "items": len}),
    ("toppling", "enumerate_itc_sequences", "toppling.sequences",
     {"items": lambda grouped: sum(map(len, grouped.values()))}),
    ("toppling", "compositions", "toppling.sequences", {}),
    ("toppling", "_weak_compositions", "toppling.sequences", {}),
    ("schroder", "enumerate_schroder", "schroder.words", {}),
    ("schroder", "enumerate_words", "schroder.words", {}),
    ("schroder", "schroder_bounce", "schroder.bounce", {}),
    ("schroder", "bounce_haglund", "schroder.bounce", {}),
    ("schroder", "bounce_loehr", "schroder.bounce", {}),
    ("schroder", "area", "schroder.area", {}),
    ("schroder", "phi_inv", "schroder.phi_inv", {}),
    ("polyomino", "from_config", "polyomino.from_config", {}),
    ("polyomino", "area", "polyomino.area", {}),
    ("polyomino", "cti_bounce", "polyomino.bounce", {}),
    ("polyomino", "itc_bounce", "polyomino.bounce", {}),
    ("qtpoly", "itc_sum", "qtpoly.sum", {"span": True}),
    ("qtpoly", "egge_sum", "qtpoly.sum", {"span": True}),
    ("qtpoly", "f_cti", "qtpoly.brute", {"span": True}),
    ("qtpoly", "f_itc", "qtpoly.brute", {"span": True}),
    ("qtpoly", "qt_schroder", "qtpoly.brute", {"span": True}),
    ("qtpoly", "QtPolynomial.__mul__", "qtpoly.mul", {}),
    ("qtpoly", "q_binomial", "qtpoly.q_binomial", {}),
    ("cycle_lemma", "apply", "cycle_lemma.apply", {}),
    ("cycle_lemma", "class_members", "cycle_lemma.class", {}),
    ("cycle_lemma", "recurrent_representative", "cycle_lemma.class", {}),
    ("partitions", "nabla_symmetry_check", "partitions.identity", {"span": True}),
    ("verify", "run_task", "verify.task", {"span": True}),
]


class Tracer:
    """Per-layer seconds, calls and items, plus spans for coarse calls."""

    def __init__(self) -> None:
        self.frames: list[list] = []  # open calls: [seconds covered by children, own span]
        self.open_layers: defaultdict = defaultdict(int)
        self.current_span: int | None = None
        self.seconds: defaultdict = defaultdict(float)
        self.self_seconds: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.spans: list[list] = []  # [name, start, end, parent span]
        self.hooks: dict = {}  # layer -> callable(args, result, seconds)

    def _enter(self, layer: str, span: bool) -> list:
        own = None
        if span:
            own = len(self.spans)
            self.spans.append([layer, None, None, self.current_span])
            self.current_span = own
        frame = [0.0, own]
        self.frames.append(frame)
        self.open_layers[layer] += 1
        return frame

    def _leave(self, layer: str, frame: list, start: float, end: float) -> float:
        self.frames.pop()
        self.open_layers[layer] -= 1
        seconds = end - start
        self.seconds[layer] += seconds
        self.self_seconds[layer] += seconds - frame[0]
        if self.frames:
            self.frames[-1][0] += seconds
        if frame[1] is not None:
            record = self.spans[frame[1]]
            record[1:3] = [start, end]
            self.current_span = record[3]
        return seconds

    def wrap(self, fn, layer: str, span: bool = False, items=None):
        tracer = self

        def step(gen):
            # each resumption of a generator counts as time in its layer
            while True:
                frame = tracer._enter(layer, False)
                start = clock()
                try:
                    value = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer._leave(layer, frame, start, clock())
                tracer.counts[layer + ".items"] += 1
                yield value

        calls_key = layer + ".calls"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.open_layers[layer]:
                return fn(*args, **kwargs)
            frame = tracer._enter(layer, span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = tracer._leave(layer, frame, start, clock())
            tracer.counts[calls_key] += 1
            hook = tracer.hooks.get(layer)
            if hook is not None:
                hook(args, result, seconds)
            if inspect.isgenerator(result):
                return step(result)
            if items is not None:
                tracer.counts[layer + ".items"] += items(result)
            return result

        return traced


def _install(modules: list, original, replacement) -> None:
    """Rebind every module attribute, dict entry and class attribute that
    holds ``original``."""
    for module in modules:
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, replacement)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = replacement
            elif isinstance(value, type) and value.__module__ == module.__name__:
                for attr, item in list(vars(value).items()):
                    if item is original:
                        setattr(value, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every function in TRACED, in every loaded ``splitpile`` module,
    and add the hooks that need a call's arguments or result."""
    modules = [m for name, m in list(sys.modules.items())
               if name == "splitpile" or name.startswith("splitpile.")]
    for module_name, attr, layer, options in TRACED:
        owner = importlib.import_module(f"splitpile.{module_name}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if owner is None:  # renamed or removed: its layer reads zero
            continue
        _install(modules, owner, tracer.wrap(owner, layer, **options))

    asm = importlib.import_module("splitpile.asm")
    burn = getattr(asm, "_burn_sorted", None)
    if burn is not None:
        # burning tests run by an enumeration are its sorted stable candidates
        def counted_burn(*args, **kwargs):
            if tracer.open_layers["asm.enumerate"]:
                tracer.counts["asm.enumerate.candidates"] += 1
            return burn(*args, **kwargs)

        asm._burn_sorted = counted_burn

    # A call that hits the enumeration cache only hands back a stored tuple.
    cache = getattr(asm, "_enumerate_cached", None)
    misses = [cache.cache_info().misses if cache is not None else 0]

    def on_enumerate(args, result, seconds):
        if cache is not None:
            now = cache.cache_info().misses
            if now == misses[0]:
                tracer.seconds["asm.enumerate.hits"] += seconds
                return
            misses[0] = now
        tracer.counts["asm.enumerate.shapes"] += 1
        if hasattr(result, "__len__"):  # a generator's items are counted as they come
            tracer.counts["asm.enumerate.items"] += len(result)

    def on_mul(args, result, seconds):
        left, right = args  # right is a polynomial or an int
        right_terms = len(right.terms) if hasattr(right, "terms") else 1
        tracer.counts["qtpoly.mul.terms"] += len(left.terms) * right_terms

    distinct: set = set()

    def on_q_binomial(args, result, seconds):
        distinct.add(args)
        tracer.counts["qtpoly.q_binomial.distinct"] = len(distinct)

    def on_task(args, result, seconds):
        tracer.seconds["verify.check." + result.check] += seconds

    tracer.hooks.update({
        "asm.enumerate": on_enumerate,
        "qtpoly.mul": on_mul,
        "qtpoly.q_binomial": on_q_binomial,
        "verify.task": on_task,
    })


class CountingWriter:
    """Standard output that counts the bytes the program writes."""

    def __init__(self, stream) -> None:
        self._stream = stream
        self.bytes = 0

    def write(self, text: str) -> int:
        self.bytes += len(text.encode("utf-8"))
        return self._stream.write(text)

    def __getattr__(self, name):
        return getattr(self._stream, name)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        sys.stderr.write(__doc__.split("\n\n")[1] + "\n")
        return 2
    stats_path, cli_args = argv[0], argv[2:]
    from splitpile import cli  # loads every module the command can reach

    tracer = Tracer()
    install(tracer)
    out = sys.stdout = CountingWriter(sys.stdout)
    start = clock()
    code = cli.main(cli_args)
    out.flush()
    sys.stdout = out._stream
    stats = {
        "seconds": dict(tracer.seconds),
        "self_seconds": dict(tracer.self_seconds),
        "counts": dict(tracer.counts),
        "bytes_out": out.bytes,
        "spans": [[name, s - start, e - start, parent] for name, s, e, parent in tracer.spans],
    }
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump(stats, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
