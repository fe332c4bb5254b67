"""Harness tests: wrapper coverage and restore, span nesting, repeatable
counts, and answer checks.  Run with ``python3 -m pytest perfbench -q``.

Each workload is traced on a few of its jobs chosen to reach every layer
mapped to it, so the whole file runs in well under a minute.
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import reference
import tracing
from run import END_TO_END_UNITS, per_layer_metrics, traced_pass
from workloads import WORKLOADS, WrongAnswer

from minvec import bessel, characters, global_whittaker, minimal
from minvec.residues import LocalElement

SEED = 3

# job names traced per workload
SUBSETS = {
    "pair-scan": None,   # all three jobs
    "whittaker-dual": ("(3, 1) sample 0", "(5, 1) sample 0", "(3, 2) sample 0"),
    "holo-scan": ("N=3 k=12 sato-tate", "N=15 k=12 all-ones"),
    "maass-scan": ("N=1 t=2", "N=3 t=5"),
}

# every timed layer, and the workload on which it must record spans
LAYER_WORKLOAD = {
    "characters.enumerate_theta": "pair-scan",
    "characters.MinimalVectorSpec.build": "pair-scan",
    "global_whittaker.RamifiedData.build": "holo-scan",
    "cosets.kt_support": "pair-scan",
    "cosets.mat_keys": "pair-scan",
    "cosets.random_kt_elements": "pair-scan",
    "characters.ChiEvaluator.build": "pair-scan",
    "characters.ChiEvaluator.exponents": "pair-scan",
    "minimal.convolution_check": "pair-scan",
    "minimal.whittaker_oracle": "whittaker-dual",
    "minimal.whittaker_closed": "whittaker-dual",
    "minimal.matrix_coefficient": "whittaker-dual",
    "characters.chi_value": "whittaker-dual",
    "matgroups.decompose_B1T": "whittaker-dual",
    "matgroups.subgroup_member": "whittaker-dual",
    "bessel.bessel_K_imag": "maass-scan",
    "global_whittaker.c_infty": "maass-scan",
    "global_whittaker.kappa": "holo-scan",
    "global_whittaker.lambda_prime_fast": "holo-scan",
    "global_whittaker.values_upto": "holo-scan",
    "global_whittaker.fft": "holo-scan",
    "global_whittaker.scan_supnorm": "holo-scan",
}

# counters and the workload on which each must be positive
COUNTER_WORKLOAD = {
    "cosets.mat_keys.in_bytes": "pair-scan",
    "characters.ChiEvaluator.exponents.rows": "pair-scan",
    "minimal.convolution_check.pairs": "pair-scan",
    "minimal.matrix_coefficient.hits": "whittaker-dual",
    "residues.local_ops": "whittaker-dual",
    "global_whittaker.scan_supnorm.rows": "holo-scan",
}


def _traced(name):
    workload = WORKLOADS[name]
    jobs = workload.jobs(workload.setup(), SEED)
    if SUBSETS[name] is not None:
        jobs = [job for job in jobs if job.name.split(" low=")[0] in SUBSETS[name]]
        assert len(jobs) == len(SUBSETS[name])
    return traced_pass(workload, jobs)


@pytest.fixture(scope="module")
def traced_twice():
    return {name: (_traced(name), _traced(name)) for name in WORKLOADS}


def test_every_timed_layer_is_mapped():
    assert {name for name, *_ in tracing.TIMED} == set(LAYER_WORKLOAD)


def test_every_mapped_metric_records_spans(traced_twice):
    for layer, name in LAYER_WORKLOAD.items():
        (_, tracer), _ = traced_twice[name]
        assert tracer.layer_stats()[layer]["calls"] > 0, (layer, name)
    for key, name in COUNTER_WORKLOAD.items():
        (_, tracer), _ = traced_twice[name]
        assert tracer.counts[key] > 0, (key, name)


def test_counts_repeat_with_the_same_seed(traced_twice):
    for name, ((loop1, t1), (loop2, t2)) in traced_twice.items():
        assert t1.counts == t2.counts, name
        calls1 = {k: (s["calls"], s["failed"]) for k, s in t1.layer_stats().items()}
        calls2 = {k: (s["calls"], s["failed"]) for k, s in t2.layer_stats().items()}
        assert calls1 == calls2, name
        assert (loop1.work, loop1.errors) == (loop2.work, loop2.errors), name


def test_child_spans_never_exceed_their_parent(traced_twice):
    for name, runs in traced_twice.items():
        for _, tracer in runs:
            covered = [0.0] * len(tracer.spans)
            for rec in tracer.spans:
                parent = rec[tracing.PARENT]
                if parent < 0:
                    continue
                outer = tracer.spans[parent]
                assert outer[tracing.START] <= rec[tracing.START] <= rec[tracing.END] <= outer[tracing.END]
                assert outer[tracing.OP] == rec[tracing.OP]
                covered[parent] += rec[tracing.END] - rec[tracing.START]
            for rec, child in zip(tracer.spans, covered):
                assert child <= rec[tracing.END] - rec[tracing.START], name


def test_known_failures_are_recorded(traced_twice):
    (loop, tracer), _ = traced_twice["maass-scan"]
    assert loop.errors == {"N=3 t=5": "IndexError"}
    assert tracer.layer_stats()["global_whittaker.scan_supnorm"]["failed"] == 1


def _bindings():
    out = {}
    for modname, mod in sys.modules.items():
        if modname == "minvec" or modname.startswith("minvec."):
            out.update({(modname, k): v for k, v in vars(mod).items()})
    for cls in (characters.ChiEvaluator, characters.MinimalVectorSpec,
                global_whittaker.RamifiedData, global_whittaker.CoefficientSource, LocalElement):
        out.update({(cls.__qualname__, k): v for k, v in vars(cls).items()})
    out[("numpy.fft", "ifft")] = np.fft.ifft
    return out


def test_wrappers_bind_where_callers_look_and_are_restored():
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module, attr in ((minimal, "chi_value"), (characters, "chi_value"),
                             (global_whittaker, "bessel_K_imag"), (bessel, "bessel_K_imag"),
                             (global_whittaker, "c_infty"), (minimal, "decompose_B1T"),
                             (characters, "decompose_B1T"), (minimal, "kt_support")):
            assert getattr(module, attr) is not before[(module.__name__, attr)], (module, attr)
        assert np.fft.ifft is not before[("numpy.fft", "ifft")]
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()
    tracer.names = ["outer", "inner"]
    tracer.spans = [[0, 0.0, 10.0, -1, 0, False],
                    [1, 1.0, 3.0, 0, 0, False],
                    [1, 4.0, 7.0, 0, 0, False],
                    [0, 5.0, 6.0, 2, 0, False]]
    assert tracer.self_times() == {"outer": 6.0, "inner": 4.0}


def test_wrong_answers_are_caught():
    workload = WORKLOADS["pair-scan"]
    job = workload.jobs(workload.setup(), SEED)[0]
    rep = job.run()
    assert job.check(rep) == 648 * 648
    for field, bad in (("closure_violations", 1), ("multiplicativity_violations", 1),
                       ("pairs_checked", 648 * 647), ("density", Fraction(1, 7))):
        wrong = minimal.ConvolutionReport(**{**vars(rep), field: bad})
        with pytest.raises(WrongAnswer):
            job.check(wrong)


def test_reported_metrics_match_the_benchmark_file(traced_twice):
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    (_, tracer), _ = traced_twice["pair-scan"]
    reported = per_layer_metrics(tracer, 1.0, 1.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: v["unit"] for k, v in reported.items()}
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


def test_reference_work_records_no_spans():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        reference.rescaled(0.01)
    finally:
        tracer.uninstall()
    assert not tracer.spans and not any(tracer.counts.values())
