"""The library API that the benchmark harness in perfbench/ pins.

pytest collects only tests/, so these checks keep a rename or deletion that
breaks the benchmark from passing the suite: every layer the tracer wraps must
resolve, and the harness's own oracle window must agree with the library's.
"""

import random
import sys
from pathlib import Path

import pytest

from minvec import minimal
from minvec.characters import MinimalVectorSpec, enumerate_theta
from minvec.matgroups import TorusSpec

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def test_every_traced_layer_resolves():
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()


@pytest.mark.parametrize("seed", [1, 2])
def test_harness_oracle_window_matches_the_library(seed):
    spec = TorusSpec(3, 1)
    mv = MinimalVectorSpec.build(spec, enumerate_theta(spec)[0])
    samples = workloads.whittaker_samples(mv, workloads.WINDOW_QUOTAS[(3, 1)], random.Random(seed))
    assert {low for low, _ in samples} == {1, 2}
    for low, g in samples:
        assert workloads.oracle_window(mv, g) == minimal.oracle_window(mv, g) == low
