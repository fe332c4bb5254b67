"""The library API that the benchmark harness in perfbench/ pins.

pytest collects only tests/, so these checks keep a rename or deletion that
breaks the benchmark from passing the suite: every layer the tracer wraps must
resolve, a traced scan must record the layers it runs, and the harness's own
oracle window must agree with the library's.
"""

import random
import sys
from pathlib import Path

import pytest

from minvec import global_whittaker, minimal
from minvec.characters import MinimalVectorSpec, enumerate_theta
from minvec.matgroups import TorusSpec

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def test_every_traced_layer_resolves():
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()


def test_a_traced_sato_tate_holo_scan_records_the_sieve_and_the_kernel():
    # one holo-scan job (N = 21, k = 120); a change to how the scan calls the
    # sieve or the kernel must not leave their layers empty
    rams = workloads._scan_setup([21])
    arch = global_whittaker.ArchParams("holomorphic", k=120)
    job = workloads._scan_job("N=21 k=120 sato-tate", rams[21], arch, "sato-tate", 3)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        rep = job.run()
    finally:
        tracer.uninstall()
    assert job.check(rep) == len(rep.rows) > 0
    stats = tracer.layer_stats()
    for layer in ("global_whittaker.values_upto", "global_whittaker.kappa"):
        assert stats[layer]["calls"] > 0 and stats[layer]["self_s"] > 0, layer


def test_a_traced_random_pair_job_records_its_layers_once_per_row():
    # the (3,2) random job of pair-scan: every draw and exponent lookup is
    # traced, and each pair's three exponents are computed once
    job = next(j for j in workloads._pair_jobs(workloads._pair_setup(), 3)
               if j.name == "(3,2) random")
    pairs = next(count for p, n, mode, count in workloads.PAIR_JOBS
                 if (p, n, mode) == (3, 2, "random"))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        rep = job.run()
    finally:
        tracer.uninstall()
    assert job.check(rep) == pairs
    stats = tracer.layer_stats()
    for layer in ("cosets.random_kt_elements", "characters.ChiEvaluator.exponents"):
        assert stats[layer]["calls"] > 0 and stats[layer]["self_s"] > 0, layer
    assert tracer.counts["characters.ChiEvaluator.exponents.rows"] == 3 * pairs
    assert tracer.counts["minimal.convolution_check.pairs"] == pairs


@pytest.mark.parametrize("seed", [1, 2])
def test_harness_oracle_window_matches_the_library(seed):
    spec = TorusSpec(3, 1)
    mv = MinimalVectorSpec.build(spec, enumerate_theta(spec)[0])
    samples = workloads.whittaker_samples(mv, workloads.WINDOW_QUOTAS[(3, 1)], random.Random(seed))
    assert {low for low, _ in samples} == {1, 2}
    for low, g in samples:
        assert workloads.oracle_window(mv, g) == minimal.oracle_window(mv, g) == low
