"""One fedckt CLI invocation, timed from inside its own process.

usage: python child.py RESULT_JSON TRACE -- CLI_ARGS...

Runs `fedckt.cli.main(CLI_ARGS)`, exits with its code, and writes
RESULT_JSON with the wall time of `main`, the time spent in configuration
loading and population building, the process CPU time, peak RSS, and the
speed probe.

The speed probe measures how fast this CPU is running while `main` runs.
On a shared host the same code runs up to twice as slow for stretches of
seconds to minutes, so raw times of runs made minutes apart differ more than
any bound worth setting. Every 50 ms of wall time a signal handler runs a
fixed snippet of small numpy and Python operations (the mix fedckt spends
its time in) twice and times the second, warm pass: about 250 us at full
speed, whatever the program was doing before. The mean of reference/probe
time over the run is the factor that scales the run's times to the
reference speed.

With TRACE=0 only the set-up functions are wrapped (a handful of calls).
With TRACE=1 every public function of the eight layer modules is wrapped at
every place its name is bound, so `forward_logits` is traced whether it is
called as `models.forward_logits` or through the name `federation` imported.
Spans (name, start, end, parent) are kept in memory, saved next to the
result as `spans.npy`, and reduced to calls, busy time and self time per
function.
"""

from __future__ import annotations

import functools
import json
import resource
import signal
import sys
import time
import types
from collections import defaultdict
from pathlib import Path

LAYERS = ("cli", "experiment", "federation", "models", "data", "rng", "clustering", "theory")
# set-up: config parsing and population building (task generation for theory)
SETUP_FUNCTIONS = ("runconfig.load_config", "experiment.build_population", "theory.gen_task")
PROBE_INTERVAL_S = 0.05
PROBE_REF_S = 250e-6  # about the probe's time inside a run on an unloaded 2-core x86-64 VM


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _grad_phi_rows(args, kwargs, result):
    rows = len(_arg(args, kwargs, 2, "batch_inputs"))
    if _arg(args, kwargs, 6, "lam") > 0:
        rows += len(_arg(args, kwargs, 4, "public_inputs"))
    return rows


# counters taken from a traced call's arguments or result: name -> (counter, fn)
COUNTERS = {
    "models.forward_logits": ("rows", lambda a, k, r: len(_arg(a, k, 2, "inputs"))),
    "models.grad_local": ("rows", lambda a, k, r: len(_arg(a, k, 2, "inputs"))),
    "models.grad_phi_stochastic": ("rows", _grad_phi_rows),
    "clustering.cmeans_fit": ("lloyd_iters", lambda a, k, r: len(r[0].objective_trace)),
    "experiment.build_population": (
        "active_clients",
        lambda a, k, r: sum(1 for rec in r[0] if rec.bundle.active),
    ),
}


class Tracer:
    """Records a span for every call of the wrapped functions."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []  # (name id, start, end, parent span index)
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent)
            if counter is not None:
                self.counters[f"{name}.{counter[0]}"] += counter[1](args, kwargs, result)
            return result

        return traced

    def install(self, package: str, selected) -> None:
        """Wrap the selected functions of `package` and rebind every module
        attribute that refers to them."""
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == package]
        wrapped = {}
        for module in modules:
            short = module.__name__.partition(".")[2]
            for attr, obj in vars(module).items():
                name = f"{short}.{attr}"
                if (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__ == module.__name__
                    and selected(short, attr)
                ):
                    wrapped[obj] = self.wrap(name, obj)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and obj in wrapped:
                    setattr(module, attr, wrapped[obj])

    def summarize(self) -> dict[str, float]:
        """calls, busy_s (outermost spans of a name only) and self_s per
        function, plus per-module totals."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name_id, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for index, (name_id, start, end, parent) in enumerate(spans):
            name = self.names[name_id]
            duration = end - start
            self_time = duration - child_time[index]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += self_time
            module = name.partition(".")[0]
            out[f"{module}.calls"] += 1
            out[f"{module}.self_s"] += self_time
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name_id:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                out[f"{name}.busy_s"] += duration
            if name == "experiment.run_algorithm" or (
                name.startswith("federation.run_")
                and parent >= 0
                and self.names[spans[parent][0]] == "experiment.run_algorithm"
            ):
                # the round loop: run_algorithm and the federation run_* loop it
                # dispatches to, outside every wrapped callee
                out["experiment.run_algorithm.loop_self_s"] += self_time
        out.update(self.counters)
        return dict(out)

    def save(self, path: Path) -> None:
        import numpy as np

        table = np.array(
            [(n, s, e, p) for n, s, e, p in self.spans],
            dtype=[("name", "i4"), ("start", "f8"), ("end", "f8"), ("parent", "i8")],
        )
        np.save(path, table)
        path.with_suffix(".names.json").write_text(json.dumps(self.names))


class SpeedProbe:
    """Times a fixed snippet, warm, on every SIGALRM while installed.

    The snippet is one softmax-regression SGD step on a 32-row mini-batch
    drawn with `rng.choice`, one nearest-centroid assignment and mean update
    over 20 points of width 300, a 4x4 solve and an accuracy pass over 600
    rows. Smaller snippets slow less than fedckt does when the host is busy;
    this one slows by about the same factor on every workload.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._rng = rng
        self._inputs = rng.normal(size=(600, 8))
        self._labels = rng.integers(0, 10, 600)
        self._weights = rng.normal(size=(8, 10)) * 0.1
        self._points = rng.normal(size=(20, 300))
        self._system = np.eye(4) * 2.0 + 0.1
        self.samples: list[float] = []

    def _snippet(self) -> float:
        np = self._np
        start = time.perf_counter()
        idx = self._rng.choice(600, size=32, replace=False)
        batch = self._inputs[idx]
        scores = batch @ self._weights
        scores = scores - scores.max(axis=1, keepdims=True)
        probs = np.exp(scores)
        probs /= probs.sum(axis=1, keepdims=True)
        probs[np.arange(32), self._labels[idx]] -= 1.0
        batch.T @ probs
        points, centroids = self._points, self._points[:3]
        d2 = (points * points).sum(1)[:, None] + (centroids * centroids).sum(1)[None] - 2 * points @ centroids.T
        assign = d2.argmin(axis=1)
        np.stack([points[assign == j].mean(axis=0) for j in range(3)])
        np.linalg.solve(self._system, np.ones(4))
        float((np.argmax(self._inputs @ self._weights, axis=1) == self._labels).mean())
        return time.perf_counter() - start

    def _sample(self, signum, frame):
        # the first pass refills the caches the program evicted, so the timed
        # pass measures the CPU, not what the program did before the signal
        self._snippet()
        self.samples.append(self._snippet())

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @property
    def speed_factor(self) -> float | None:
        """Mean of reference/probe time: 1.0 at full speed, lower when slowed."""
        if not self.samples:
            return None
        return sum(PROBE_REF_S / t for t in self.samples) / len(self.samples)


def main(argv: list[str]) -> int:
    result_path, trace, sep, *cli_args = argv
    if sep != "--" or trace not in ("0", "1"):
        print(__doc__, file=sys.stderr)
        return 2
    traced = trace == "1"
    import fedckt.cli

    tracer = Tracer()
    tracer.install(
        "fedckt",
        lambda module, attr: f"{module}.{attr}" in SETUP_FUNCTIONS
        or (traced and module in LAYERS and not attr.startswith("_")),
    )
    with SpeedProbe() as probe:
        enter = time.monotonic()
        code = fedckt.cli.main(cli_args)
        end = time.monotonic()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    summary = tracer.summarize()
    result = {
        "main_enter_monotonic": enter,
        "main_end_monotonic": end,
        "main_s": end - enter,
        "speed_factor": probe.speed_factor,
        "probe_samples": len(probe.samples),
        "setup_in_main_s": sum(summary.get(f"{name}.busy_s", 0.0) for name in SETUP_FUNCTIONS),
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "fedckt_file": fedckt.cli.__file__,
        "trace": summary if traced else None,
    }
    if traced:
        tracer.save(Path(result_path).with_name("spans.npy"))
    Path(result_path).write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
