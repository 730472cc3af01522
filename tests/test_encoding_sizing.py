"""The size estimator must match the actually-built full model exactly."""

import pytest

from repro.constraints import build_energy, build_link_quality, build_mapping
from repro.encoding import FullPathEncoder
from repro.encoding.sizing import estimate_full_encoding_stats
from repro.library import default_catalog
from repro.milp import Model
from repro.network import (
    LifetimeRequirement,
    LinkQualityRequirement,
    RequirementSet,
    TdmaConfig,
    small_grid_template,
)


def build_full(instance, requirements):
    library = default_catalog()
    model = Model()
    mapping = build_mapping(model, instance.template, library)
    encoding = FullPathEncoder().encode(
        model, instance.template, requirements.routes, mapping.node_used
    )
    lq = build_link_quality(
        model, instance.template, mapping, encoding, requirements.link_quality
    )
    if requirements.lifetime is not None:
        build_energy(
            model, instance.template, mapping, encoding, lq,
            requirements.tdma, requirements.power, requirements.lifetime,
        )
    return model


@pytest.mark.parametrize("with_lq", [False, True])
@pytest.mark.parametrize("with_lifetime", [False, True])
@pytest.mark.parametrize("replicas,disjoint", [(1, False), (2, True)])
def test_estimate_matches_built_model(with_lq, with_lifetime, replicas,
                                      disjoint):
    instance = small_grid_template(nx=4, ny=3)
    requirements = RequirementSet()
    for s in instance.sensor_ids:
        requirements.require_route(s, instance.sink_id, replicas=replicas,
                                   disjoint=disjoint)
    if with_lq:
        requirements.link_quality = LinkQualityRequirement(min_snr_db=20.0)
    if with_lifetime:
        requirements.lifetime = LifetimeRequirement(years=5.0)

    model = build_full(instance, requirements)
    stats = model.stats()
    estimate = estimate_full_encoding_stats(
        instance.template, requirements, default_catalog()
    )
    assert estimate.num_vars == stats.num_vars
    assert estimate.num_constraints == stats.num_constraints


def test_estimate_counts_schedulability_rows():
    """A 40 ms report interval leaves 40 slots: busy nodes get a
    ``k[i]:schedulable`` row, which the estimate must count too."""
    instance = small_grid_template(nx=4, ny=3)
    requirements = RequirementSet()
    for s in instance.sensor_ids:
        requirements.require_route(s, instance.sink_id, replicas=2,
                                   disjoint=True)
    requirements.lifetime = LifetimeRequirement(years=0.001)
    requirements.tdma = TdmaConfig(report_interval_s=0.04)
    model = build_full(instance, requirements)
    assert any(c.name.endswith(":schedulable") for c in model.constraints)
    estimate = estimate_full_encoding_stats(
        instance.template, requirements, default_catalog()
    )
    assert estimate.num_constraints == model.stats().num_constraints
    assert estimate.num_vars == model.stats().num_vars


def test_estimate_with_hop_bounds():
    instance = small_grid_template(nx=4, ny=3)
    requirements = RequirementSet()
    requirements.require_route(instance.sensor_ids[0], instance.sink_id,
                               replicas=1, disjoint=False, max_hops=3)
    requirements.require_route(instance.sensor_ids[1], instance.sink_id,
                               replicas=1, disjoint=False, exact_hops=2)
    model = build_full(instance, requirements)
    estimate = estimate_full_encoding_stats(
        instance.template, requirements, default_catalog()
    )
    assert estimate.num_constraints == model.stats().num_constraints
    assert estimate.num_vars == model.stats().num_vars


def test_estimate_scales_superlinearly_with_routes():
    instance = small_grid_template(nx=4, ny=3)
    one = RequirementSet()
    one.require_route(instance.sensor_ids[0], instance.sink_id)
    many = RequirementSet()
    for s in instance.sensor_ids:
        many.require_route(s, instance.sink_id, replicas=2, disjoint=True)
    lib = default_catalog()
    small = estimate_full_encoding_stats(instance.template, one, lib)
    large = estimate_full_encoding_stats(instance.template, many, lib)
    # 6x the replicas more than triples the row count (per-replica blocks
    # plus the quadratic disjointness rows).
    assert large.num_constraints > 3 * small.num_constraints
