"""The traced run's wrappers reach every lookup site and are put back."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import frobtilt  # noqa: E402
import frobtilt.cli  # noqa: E402
import tracing  # noqa: E402


def test_wrappers_installed_at_lookup_sites_and_restored():
    cohomology_mod = sys.modules["frobtilt.cohomology"]
    sites = [
        (cohomology_mod, "feasible"),
        (sys.modules["frobtilt.frobenius"], "divisor_class"),
        (frobtilt.cli, "orlov_check"),
        (frobtilt, "cohomology"),
    ]
    originals = [getattr(m, name) for m, name in sites]
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        for (m, name), original in zip(sites, originals):
            assert getattr(m, name) is not original
        fan = frobtilt.projective_space(2)
        D = frobtilt.TorusDivisor(fan, (-3, 0, 0))
        assert frobtilt.cohomology(fan, D).dims == (0, 0, 1)
        assert frobtilt.cohomology(fan, D).dims == (0, 0, 1)
    for (m, name), original in zip(sites, originals):
        assert getattr(m, name) is original
    metrics = tracer.layer_metrics()
    assert metrics["cohomology.calls"] == 2
    assert metrics["cohomology.class_cache_hits"] == 1
    assert metrics["lattice.feasible_calls"] == metrics["cohomology.patterns_scanned"] > 0
    assert {name for name, _, _ in tracing.PER_LAYER} >= set(metrics)
