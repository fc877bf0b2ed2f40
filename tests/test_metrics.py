"""Requirement derivation: energy, power, availability and cost models."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpckit.errors import UnreachableTargetError
from hpckit.metrics import (
    AvailabilityModel,
    CostModel,
    derive_cost,
    derive_dataset,
    derive_energy,
    derive_power,
    min_servers,
    server_availability,
    system_availability,
)
from hpckit.sweep import REQUIREMENT_FIELDS, SweepDataset

from util import brute_force_system_availability, monitor_vector, named, space_of


# -------------------------------------------------------------- energy/power


def test_energy_of_reference_thresholds():
    assert derive_energy(600.0, 81.0) == 48600.0


def test_energy_of_zero_time_is_zero():
    assert derive_energy(0.0, 81.0) == 0.0


def test_energy_direct_multiplication():
    assert math.isclose(derive_energy(123.4, 55.5), 6848.7, rel_tol=1e-12)


def test_energy_rejects_negative_inputs():
    with pytest.raises(ValueError):
        derive_energy(-1.0, 10.0)


def test_power_is_cpu_plus_dram():
    assert derive_power(70.0, 11.0) == 81.0
    assert derive_power(0.0, 0.0) == 0.0
    assert derive_power(64.2, 9.3) == 73.5


# ------------------------------------------------------- server availability


def test_server_availability_examples():
    assert server_availability(999.0, 1.0) == 0.999
    assert server_availability(1.0, 1.0) == 0.5
    assert math.isclose(server_availability(8760.0, 24.0),
                        0.9972677595628415, rel_tol=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=1.0, max_value=1e9),
    st.floats(min_value=1e-3, max_value=1e4),
)
def test_server_availability_lies_in_unit_interval(mtbf, mttr):
    a = server_availability(mtbf, mttr)
    assert 0.0 < a < 1.0


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=1.0, max_value=1e8),
    st.floats(min_value=1.0, max_value=1e8),
    st.floats(min_value=1e-3, max_value=1e4),
)
def test_server_availability_monotone_in_mtbf(m1, m2, mttr):
    lo, hi = sorted((m1, m2))
    assert server_availability(lo, mttr) <= server_availability(hi, mttr)


# ------------------------------------------------------- system availability


def test_system_availability_examples():
    assert math.isclose(system_availability(2, 2, 0.99), 0.9801, rel_tol=1e-12)
    assert math.isclose(system_availability(3, 2, 0.99), 0.999702, rel_tol=1e-12)
    assert math.isclose(system_availability(5, 5, 0.9), 0.59049, rel_tol=1e-12)


def test_system_availability_rejects_bad_counts():
    with pytest.raises(ValueError):
        system_availability(2, 3, 0.9)
    with pytest.raises(ValueError):
        system_availability(0, 0, 0.9)
    with pytest.raises(ValueError):
        system_availability(2, 2, 1.5)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.data(),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_system_availability_matches_state_enumeration(servers, data, a):
    required = data.draw(st.integers(min_value=1, max_value=servers))
    expected = brute_force_system_availability(servers, required, a)
    assert math.isclose(system_availability(servers, required, a),
                        expected, rel_tol=1e-12, abs_tol=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=11),
    st.data(),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_system_availability_monotone_in_servers_and_a(servers, data, a):
    required = data.draw(st.integers(min_value=1, max_value=servers))
    base = system_availability(servers, required, a)
    assert system_availability(servers + 1, required, a) >= base - 1e-15
    higher_a = min(1.0, a + data.draw(st.floats(min_value=0.0, max_value=1.0)) * (1.0 - a))
    assert system_availability(servers, required, higher_a) >= base - 1e-15


# ---------------------------------------------------------------- min servers


def test_min_servers_examples():
    assert min_servers(2, 0.99, 0.99) == (3, system_availability(3, 2, 0.99))
    assert min_servers(1, 0.999, 0.99) == (1, system_availability(1, 1, 0.999))


def test_min_servers_unreachable_target_reports_best():
    with pytest.raises(UnreachableTargetError) as exc:
        min_servers(2, 0.5, 0.999999, cap=4)
    assert exc.value.best_availability == 0.6875


def test_min_servers_rejects_cap_below_required():
    with pytest.raises(ValueError):
        min_servers(3, 0.9, 0.9, cap=2)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.floats(min_value=0.5, max_value=0.999),
    st.floats(min_value=0.5, max_value=0.99),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_min_servers_monotone_in_target_and_availability(required, a, target, frac):
    try:
        base, _ = min_servers(required, a, target)
    except UnreachableTargetError:
        return
    # a tighter target can never need fewer servers
    tighter = target + frac * (0.9999 - target)
    try:
        assert min_servers(required, a, tighter)[0] >= base
    except UnreachableTargetError:
        pass
    # a better server can never need more servers
    better = a + frac * (0.9999 - a)
    if better >= a:
        assert min_servers(required, better, target)[0] <= base


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.floats(min_value=0.3, max_value=0.999),
    st.floats(min_value=0.5, max_value=0.9999),
)
def test_min_servers_result_meets_target_and_is_minimal(required, a, target):
    try:
        s, availability = min_servers(required, a, target)
    except UnreachableTargetError:
        return
    assert availability == system_availability(s, required, a)
    assert system_availability(s, required, a) >= target
    if s > required:
        assert system_availability(s - 1, required, a) < target


# ----------------------------------------------------------------------- cost


def test_cost_zero_energy_zero_maintenance():
    model = CostModel(server_price=2000.0, infra_price=500.0,
                      energy_price_per_j=1e-6, maintenance_rate=0.0)
    cost = derive_cost(2, 0.0, model)
    assert cost.capex == 5000.0
    assert cost.opex == 0.0
    assert cost.total == 5000.0


def test_capex_is_linear_in_servers():
    model = CostModel(server_price=2000.0, infra_price=500.0,
                      energy_price_per_j=1e-6, maintenance_rate=0.01)
    assert derive_cost(3, 100.0, model).capex / derive_cost(2, 100.0, model).capex == 1.5


def test_opex_plug_in_example():
    model = CostModel(server_price=2000.0, infra_price=500.0,
                      energy_price_per_j=1e-6, maintenance_rate=0.01)
    cost = derive_cost(2, 48600.0, model)
    assert math.isclose(cost.opex, 50.0972, rel_tol=1e-12)


def test_cost_rejects_bad_inputs():
    model = CostModel()
    with pytest.raises(ValueError):
        derive_cost(0, 10.0, model)
    with pytest.raises(ValueError):
        derive_cost(2, -1.0, model)


# ------------------------------------------------------ requirement derivation


def _models():
    return (
        AvailabilityModel(mttr_h=24.0, required_servers=2,
                          availability_target=0.99, max_servers=16),
        CostModel(server_price=2000.0, infra_price=500.0,
                  energy_price_per_j=1e-6, maintenance_rate=0.01),
    )


def derive_requirements(monitors, avail_model, cost_model):
    """Requirements and provisioned monitors of a one-row dataset."""
    derived = derive_dataset(SweepDataset(space_of(2), [(0,)], [monitors]), avail_model, cost_model)
    return named(derived.requirements[0], REQUIREMENT_FIELDS), named(derived.monitors[0])


def test_derive_requirements_reference_monitors():
    avail, cost = _models()
    mon = monitor_vector(execution_time=600.0, cpu_power=70.0, dram_power=11.0,
                         peak_power=95.0)
    req, _ = derive_requirements(mon, avail, cost)
    assert req.performance == 600.0
    assert req.power == 81.0
    assert req.energy == 48600.0


def test_derive_requirements_no_overprovisioning_branch():
    avail, cost_model = _models()
    # availability target met already at S = N servers
    mon = monitor_vector(server_mtbf=1e9)
    req, updated = derive_requirements(mon, avail, cost_model)
    a = server_availability(1e9, 24.0)
    assert req.availability == a * a
    assert updated.capex == 2 * 2500.0
    assert updated.system_mtbf == 1e9 / 2


def test_derive_requirements_binomial_branch():
    avail, cost_model = _models()
    mtbf = 1e9 / 4000.0  # a FIT rate of 4000 failures per 1e9 hours
    assert mtbf == 250000.0
    mon = monitor_vector(server_mtbf=mtbf)
    req, updated = derive_requirements(mon, avail, cost_model)
    a = server_availability(mtbf, 24.0)
    # independent provisioning search against the brute-force oracle
    servers = next(
        s for s in range(2, 17)
        if brute_force_system_availability(s, 2, a) >= 0.99
    )
    assert updated.capex == servers * 2500.0
    assert math.isclose(req.availability,
                        brute_force_system_availability(servers, 2, a),
                        rel_tol=1e-12)
    assert req.availability >= 0.99


def test_derived_dataset_has_its_own_metadata():
    avail, cost = _models()
    raw = SweepDataset(space_of(2), [(0,)], [monitor_vector()], metadata={"seed": "12"})
    derived = derive_dataset(raw, avail, cost)
    derived.metadata["manifest"] = "{}"
    assert derived.metadata == {"seed": "12", "manifest": "{}"}
    assert raw.metadata == {"seed": "12"}


def test_derived_energy_uses_same_arithmetic_path():
    avail, cost_model = _models()
    mon = monitor_vector(execution_time=123.4, cpu_power=46.2, dram_power=9.3)
    req, _ = derive_requirements(mon, avail, cost_model)
    assert req.energy == req.performance * req.power


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=1e3, max_value=1e8),
    st.floats(min_value=1e3, max_value=1e8),
)
def test_better_servers_never_cost_more_or_lose_availability(m1, m2):
    """Per-server availability rises with MTBF, so the provisioning search
    can only need the same number of servers or fewer, making capex
    non-increasing and the per-server availability non-decreasing."""
    avail, cost_model = _models()
    lo, hi = sorted((m1, m2))
    try:
        _, up_lo = derive_requirements(monitor_vector(server_mtbf=lo), avail, cost_model)
        _, up_hi = derive_requirements(monitor_vector(server_mtbf=hi), avail, cost_model)
    except UnreachableTargetError:
        return
    assert server_availability(hi, 24.0) >= server_availability(lo, 24.0)
    assert up_hi.capex <= up_lo.capex


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=1e3, max_value=1e9))
def test_derived_availability_meets_target_when_reachable(mtbf):
    avail, cost_model = _models()
    try:
        req, _ = derive_requirements(monitor_vector(server_mtbf=mtbf), avail, cost_model)
    except UnreachableTargetError:
        return
    assert req.availability >= avail.availability_target
    assert 0.0 <= req.availability <= 1.0


# ----------------------------------------------------------- model validation


def test_availability_model_validation():
    with pytest.raises(ValueError):
        AvailabilityModel(mttr_h=0.0)
    with pytest.raises(ValueError):
        AvailabilityModel(required_servers=0)
    with pytest.raises(ValueError):
        AvailabilityModel(availability_target=1.5)
    with pytest.raises(ValueError):
        AvailabilityModel(required_servers=4, max_servers=2)


def test_cost_model_validation():
    with pytest.raises(ValueError):
        CostModel(server_price=-1.0)
    with pytest.raises(ValueError):
        CostModel(maintenance_rate=-0.1)
