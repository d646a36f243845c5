"""Span tracing from outside the package, and the per-layer summary of spans.

A :class:`Tracer` replaces a module attribute (the name a caller looks up)
with a wrapper that records one span per call: id, parent id, name, trial
id, start, end, and an optional ``info`` value an observer derives from the
call's arguments and result.  Spans stay in memory until the caller writes
them out.  :meth:`Tracer.uninstall` puts every original attribute back.

Parents come from a per-thread stack of open spans.  A call made in a pool
thread with nothing open on its own stack takes as parent the innermost span
open in the thread that installed the tracer, so Monte-Carlo trials run in a
thread pool still hang under the ``monte_carlo`` span that waits for them.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, NamedTuple


class Span(NamedTuple):
    sid: int
    parent: int | None
    name: str
    trial: int | None
    start: float
    end: float
    info: object = None


class Target(NamedTuple):
    """One attribute to wrap.

    ``trial`` is ``"scope"`` for a call that is one whole trial (a new trial
    id holds for everything under it), ``"new"`` for the call that opens a
    trial when no scoped trial is running (the trial id then holds in that
    thread until the next such call), or None to inherit the current id.
    """

    owner: object
    attr: str
    trial: str | None = None
    observe: Callable | None = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._trial_ids = itertools.count()
        self._local = threading.local()
        self._root_stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.trial = None
            local.scoped = False
        return local

    def wrap(self, fn, name: str, trial: str | None = None, observe=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local = tracer._state()
            stack = local.stack
            if stack:
                parent = stack[-1]
            else:
                root = tracer._root_stack
                parent = root[-1] if root and root is not stack else None
            saved = (local.trial, local.scoped)
            if trial == "scope" or (trial == "new" and not local.scoped):
                local.trial = next(tracer._trial_ids)
                local.scoped = local.scoped or trial == "scope"
            span_trial = local.trial
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if trial == "scope":
                    local.trial, local.scoped = saved
            info = observe(args, kwargs, result) if observe is not None else None
            tracer.spans.append(Span(sid, parent, name, span_trial, start, end, info))
            return result

        return wrapper

    def install(self, targets) -> None:
        """Wrap every target; must be called from the thread that drives the run."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        self._root_stack = self._state().stack
        try:
            for t in targets:
                fn = getattr(t.owner, t.attr)
                name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
                setattr(t.owner, t.attr, self.wrap(fn, name, t.trial, t.observe))
                self._patched.append((t.owner, t.attr, fn))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)

    def write_jsonl(self, path) -> None:
        """One JSON array per span: sid, parent, name, trial, start_s, end_s, info."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(list(s), default=str) + "\n")


def covered_length(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, start), min(b, end)) for a, b in intervals if b > start and a < end
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it its direct children cover.

    Children that overlap each other (pool threads) are counted once.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.sid: (s.end - s.start) - covered_length(s.start, s.end, children.get(s.sid, ()))
        for s in spans
    }


def tail_percentile(n: int) -> int:
    """Highest whole percentile, at most 99 and at least 50, with at least ten
    of ``n`` samples above it."""
    if n <= 0:
        return 50
    return max(50, min(99, (100 * (n - 10)) // n))


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile of ``values`` (0.0 when empty)."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(spans) -> dict:
    """Per-layer metrics from the spans of a traced run.

    A trial is one trial id.  A layer's inclusive time sums its spans whose
    parent lies in another layer; its self time sums the self time of all
    its spans.  Per-call times are means over that function's
    spans.  Every value is 0.0 when the layer did no work.
    """
    by_sid = {s.sid: s for s in spans}
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    selfs = self_times(spans)
    trials = len({s.trial for s in spans if s.trial is not None})

    def per(x, n):
        return x / n if n else 0.0

    def ms_per_call(name):
        xs = by_name.get(name, [])
        return per(1e3 * sum(s.end - s.start for s in xs), len(xs))

    def count(name):
        return len(by_name.get(name, []))

    def infos(name):
        return [s.info for s in by_name.get(name, [])]

    layer_incl = defaultdict(float)
    layer_self = defaultdict(float)
    layer_calls = defaultdict(int)
    for s in spans:
        layer = _layer(s.name)
        layer_self[layer] += selfs[s.sid]
        layer_calls[layer] += 1
        parent = by_sid.get(s.parent)
        if parent is None or _layer(parent.name) != layer:
            layer_incl[layer] += s.end - s.start

    m = {}
    for layer in ("channel", "rmt", "eta", "rie", "precoding"):
        m[f"{layer}.ms_per_trial"] = per(1e3 * layer_incl[layer], trials)
        m[f"{layer}.self_ms_per_trial"] = per(1e3 * layer_self[layer], trials)
        m[f"{layer}.calls_per_trial"] = per(layer_calls[layer], trials)

    m["channel.build_bsca.ms"] = ms_per_call("channel.build_bsca")

    m["eta.estimate_eta.ms"] = ms_per_call("eta.estimate_eta")
    true_eta = {s.trial: s.info for s in by_name.get("channel.corrupt", [])}
    estimates = [(s.trial, *s.info) for s in by_name.get("eta.estimate_eta", [])]
    m["eta.abs_err_mean"] = per(
        sum(abs(eta_hat - true_eta[t]) for t, eta_hat, _ in estimates), len(estimates)
    )
    m["eta.identifiable_frac"] = per(sum(ok for _, _, ok in estimates), len(estimates))
    m["rmt.theory_evals_per_estimate"] = per(
        count("rmt.noisy_gram_cumulants_theory"), len(estimates)
    )

    m["rie.eig_bsca.ms"] = ms_per_call("rie.eig_bsca")
    m["rie.reconstruct.ms"] = ms_per_call("rie.reconstruct")
    m["rie.local_stieltjes.calls_per_clean"] = per(
        count("rie.local_stieltjes"), count("rie.clean_channel")
    )
    m["rie.shrink_clamped_frac"] = per(
        sum(infos("rie.shrink_eigenvalue")), count("rie.shrink_eigenvalue")
    )

    m["precoding.wfq_precode.ms"] = ms_per_call("precoding.wfq_precode")
    wfq = infos("precoding.wfq_precode")
    m["precoding.wfq_iterations"] = per(sum(it for it, _ in wfq), len(wfq))
    m["precoding.wfq_converged_frac"] = per(sum(ok for _, ok in wfq), len(wfq))
    m["precoding.bussgang_gain.calls_per_trial"] = per(count("precoding.bussgang_gain"), trials)
    m["precoding.quantized_power.calls_per_trial"] = per(
        count("precoding.quantized_power"), trials
    )
    m["precoding.transmit.ms"] = ms_per_call("precoding.transmit")

    trial_ms = [1e3 * (s.end - s.start) for s in by_name.get("linksim.downlink_trial", [])]
    tail = tail_percentile(len(trial_ms))
    m["linksim.trial_ms_p50"] = percentile(trial_ms, 50)
    m["linksim.trial_ms_p99"] = percentile(trial_ms, tail)
    m["linksim.trial_ms_tail_pct"] = float(tail) if trial_ms else 0.0
    m["linksim.trial_samples"] = float(len(trial_ms))
    m["linksim.self_ms_per_trial"] = per(1e3 * layer_self["linksim"], trials)
    m["linksim.modulate.ms"] = ms_per_call("linksim.modulate")
    m["linksim.demodulate.ms"] = ms_per_call("linksim.demodulate")
    mc_wall = sum(s.end - s.start for s in by_name.get("linksim.monte_carlo", []))
    m["linksim.parallelism"] = per(sum(trial_ms) / 1e3, mc_wall)

    runs = by_name.get("experiments.run_experiment", [])
    m["experiments.self_ms_per_point"] = per(
        1e3 * sum(selfs[s.sid] for s in runs), sum(s.info for s in runs)
    )
    m["experiments.write.ms"] = ms_per_call("experiments.write")
    m["trace.trials"] = float(trials)
    return m
