"""Span recorder for the traced run, built from the benchmark's own files.

``Tracer.installed()`` replaces every public function of dotkit's layer
modules, at every module that binds it (``dotkit.cli.g2_general`` and
``dotkit.fitting.g2_general`` get the same wrapper as
``dotkit.emitters.g2_general``), plus ``EnergyMeter.measure``, and puts the
originals back on exit. Each call records a span: name, start, end,
parent span and job id. Spans stay in memory; ``write`` saves them when
the run ends, and ``layer_metrics`` turns them into per-layer numbers.
"""

from __future__ import annotations

import collections
import contextlib
import inspect
import time

import numpy as np

LAYERS = ("cli", "emitters", "montecarlo", "fitting", "spectra", "tuning")
WRITERS = (
    "emitters.write_curve",
    "montecarlo.write_histogram",
    "spectra.write_spectrum",
    "tuning.write_journal",
)
READERS = (
    "emitters.read_curve",
    "montecarlo.read_histogram",
    "spectra.read_spectrum",
    "tuning.read_journal",
)

# Span fields, one list per span.
NAME, START, END, PARENT, JOB, ERROR = range(6)


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _g2_points(counters, args, kwargs, result):
    system, tau = _arg(args, kwargs, 0, "system"), _arg(args, kwargs, 1, "tau")
    counters["emitters.g2_general.point_emitters"] += np.size(tau) * len(system)


def _mc_points(counters, args, kwargs, result):
    system = _arg(args, kwargs, 0, "system")
    tau = _arg(args, kwargs, 1, "tau_grid")
    n_real = _arg(args, kwargs, 2, "n_real")
    unique = np.unique(np.abs(np.asarray(tau, dtype=float))).size
    counters["montecarlo.mc_g2.traj_points"] += n_real * len(system) * unique


def _events(counters, args, kwargs, result):
    counters["montecarlo.sample_coincidences.events"] += _arg(args, kwargs, 1, "n_events")


def _scan_points(counters, args, kwargs, result):
    counters["spectra.synth_spectrum.points"] += result.energies.size


def _nit(counters, args, kwargs, result):
    counters["fitting.fit_g2_joint.nit"] += result.n_iterations


# Counts taken from a call's arguments or result, after the span ends.
OBSERVERS = {
    "emitters.g2_general": _g2_points,
    "montecarlo.mc_g2": _mc_points,
    "montecarlo.sample_coincidences": _events,
    "spectra.synth_spectrum": _scan_points,
    "fitting.fit_g2_joint": _nit,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = collections.defaultdict(int)
        self._stack: list[int] = []
        self._job = -1

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        observer = OBSERVERS.get(name)
        counters = self.counters

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._job, ""]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if observer is not None:
                observer(counters, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, job: int):
        """Trace every layer function while the block runs, as job ``job``."""
        import dotkit
        from dotkit import tuning

        modules = [dotkit] + [getattr(dotkit, layer) for layer in LAYERS]
        owned = {f"dotkit.{layer}" for layer in LAYERS}
        wrappers: dict[int, object] = {}
        originals = []
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ not in owned:
                    continue
                if id(obj) not in wrappers:
                    name = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                    wrappers[id(obj)] = self._wrap(name, obj)
                originals.append((module, attr, obj))
                setattr(module, attr, wrappers[id(obj)])
        measure = tuning.EnergyMeter.measure
        originals.append((tuning.EnergyMeter, "measure", measure))
        tuning.EnergyMeter.measure = self._wrap("tuning.measure", measure)
        self._job = job
        try:
            yield self
        finally:
            for owner, attr, obj in reversed(originals):
                setattr(owner, attr, obj)
            self._job = -1

    def write(self, path) -> None:
        """Save the spans as tab-separated text, one span per line."""
        with open(path, "w") as out:
            out.write("id\tparent\tjob\tname\tstart_s\tend_s\terror\n")
            for k, s in enumerate(self.spans):
                out.write(
                    f"{k}\t{s[PARENT]}\t{s[JOB]}\t{s[NAME]}\t{s[START]:.9f}\t{s[END]:.9f}\t{s[ERROR]}\n"
                )


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, n_emitters: dict[int, int], bytes_out: int) -> dict[str, float]:
    """Per-layer numbers from the spans of the traced jobs.

    Times and counts are per traced job; rates and shares are ratios over
    all traced jobs. A self time is a span's duration minus the time its
    child spans cover.
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    errors: dict[tuple[str, str], int] = {}
    job_time: dict[int, float] = {}
    by_job: dict[tuple[int, str], float] = {}
    for k, s in enumerate(spans):
        name, duration = s[NAME], s[END] - s[START]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + duration
        own[name] = own.get(name, 0.0) + duration - child[k]
        if s[ERROR]:
            errors[name, s[ERROR]] = errors.get((name, s[ERROR]), 0) + 1
        if name == "cli.main":
            job_time[s[JOB]] = job_time.get(s[JOB], 0.0) + duration
        by_job[s[JOB], name] = by_job.get((s[JOB], name), 0.0) + duration

    # Spans of one name never nest in one another here, so summed durations
    # are the wall time spent inside that layer.
    jobs = len(job_time)
    counters = tracer.counters

    def per_job(value):
        return _ratio(value, jobs)

    def share(name, job_ids=job_time):
        inside = sum(by_job.get((j, name), 0.0) for j in job_ids)
        return _ratio(inside, sum(job_time[j] for j in job_ids))

    most = max(n_emitters[j] for j in job_time)
    largest = [j for j in job_time if n_emitters[j] == most]
    attempts_in_meter = sum(
        1
        for s in spans
        if s[NAME] == "spectra.synth_spectrum" and s[PARENT] >= 0
        and spans[s[PARENT]][NAME] == "tuning.measure"
    )

    def returned(name):
        return calls.get(name, 0) - sum(v for (n, _), v in errors.items() if n == name)

    return {
        "cli.self_s": per_job(sum(v for n, v in own.items() if n.startswith("cli."))),
        "cli.write_s": per_job(sum(total.get(n, 0.0) for n in WRITERS)),
        "cli.read_s": per_job(sum(total.get(n, 0.0) for n in READERS)),
        "cli.bytes_out": per_job(bytes_out),
        "emitters.g2_general.calls": per_job(calls.get("emitters.g2_general", 0)),
        "emitters.g2_general.self_s": per_job(own.get("emitters.g2_general", 0.0)),
        "emitters.g2_general.ns_per_point_emitter": 1e9 * _ratio(
            own.get("emitters.g2_general", 0.0),
            counters.get("emitters.g2_general.point_emitters", 0),
        ),
        "emitters.g2_general.share": share("emitters.g2_general"),
        "emitters.g2_general.share_largest_n": share("emitters.g2_general", largest),
        "emitters.convolve_irf.calls": per_job(calls.get("emitters.convolve_irf", 0)),
        "emitters.convolve_irf.self_s": per_job(own.get("emitters.convolve_irf", 0.0)),
        "montecarlo.mc_g2.self_s": per_job(own.get("montecarlo.mc_g2", 0.0)),
        "montecarlo.mc_g2.traj_points_per_s": _ratio(
            counters.get("montecarlo.mc_g2.traj_points", 0), own.get("montecarlo.mc_g2", 0.0)
        ),
        "montecarlo.mc_g2.share": share("montecarlo.mc_g2"),
        "montecarlo.sample_coincidences.self_s": per_job(
            own.get("montecarlo.sample_coincidences", 0.0)
        ),
        "montecarlo.sample_coincidences.events_per_s": _ratio(
            counters.get("montecarlo.sample_coincidences.events", 0),
            own.get("montecarlo.sample_coincidences", 0.0),
        ),
        "fitting.objective_evals": per_job(calls.get("fitting.evaluate_fit_model", 0)),
        "fitting.evaluate_fit_model.self_s": per_job(own.get("fitting.evaluate_fit_model", 0.0)),
        "fitting.evaluate_fit_model.share": share("fitting.evaluate_fit_model"),
        "fitting.fit_g2_joint.self_s": per_job(own.get("fitting.fit_g2_joint", 0.0)),
        "fitting.fit_g2_joint.nit": per_job(counters.get("fitting.fit_g2_joint.nit", 0)),
        "fitting.fit_spectrum_peaks.calls": per_job(calls.get("fitting.fit_spectrum_peaks", 0)),
        "fitting.fit_spectrum_peaks.self_s": per_job(own.get("fitting.fit_spectrum_peaks", 0.0)),
        "fitting.fit_spectrum_peaks.share": share("fitting.fit_spectrum_peaks"),
        "spectra.synth_spectrum.calls": per_job(calls.get("spectra.synth_spectrum", 0)),
        "spectra.synth_spectrum.failed": per_job(
            errors.get(("spectra.synth_spectrum", "GridCoverageError"), 0)
        ),
        "spectra.synth_spectrum.self_s": per_job(own.get("spectra.synth_spectrum", 0.0)),
        "spectra.synth_spectrum.points_per_scan": _ratio(
            counters.get("spectra.synth_spectrum.points", 0), returned("spectra.synth_spectrum")
        ),
        "tuning.exposures": per_job(returned("tuning.apply_exposure")),
        "tuning.measure.calls": per_job(calls.get("tuning.measure", 0)),
        "tuning.measure.self_s": per_job(own.get("tuning.measure", 0.0)),
        "tuning.scan_yield": _ratio(returned("tuning.measure"), attempts_in_meter),
        "tuning.align_resonance.self_s": per_job(own.get("tuning.align_resonance", 0.0)),
        "tuning.apply_exposure.self_s": per_job(own.get("tuning.apply_exposure", 0.0)),
    }
