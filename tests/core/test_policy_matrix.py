"""Every figure arm states its point of the paper's QoS matrix.

The paper's contribution is a matrix — priority vs reservation, OS vs
network — and each arm of each kernel-running figure is one
:class:`~repro.core.policies.QosPolicy` on it.  This file walks
:data:`~repro.experiments.scenario_registry.FIGURES`, so an arm class
without a policy fails here, and pins the arms that define the matrix
to the paper's tables.
"""

import pytest

from repro.core.policies import QosPolicy
from repro.experiments.priority_exp import HIGH_PRIORITY, PriorityArm
from repro.experiments.reservation_cpu_exp import CpuArm
from repro.experiments.reservation_net_exp import NetworkArm
from repro.experiments.scenario_registry import ARM_SCENARIOS, FIGURES
from repro.oskernel.reserve import EnforcementPolicy
from repro.experiments.capacity_exp import BASE_CORBA_PRIORITY, CapacityArm
from repro.experiments.scale_exp import ScaleArm

#: The per-stream inputs an arm class's ``policy`` takes: a sender's
#: CORBA priority, or a farm stream's lane and admission verdict.
STREAM_INPUTS = {
    PriorityArm: [(HIGH_PRIORITY,)],
    CapacityArm: [(BASE_CORBA_PRIORITY, True), (BASE_CORBA_PRIORITY, False)],
    ScaleArm: [(BASE_CORBA_PRIORITY, True), (None, False)],
}

#: Figures that carry no arm objects: fig 2 never runs the kernel, and
#: each ablation arm is one switch of its own scenario.
ARMLESS = {
    "fig2_priority_propagation", "ablation_ecn", "ablation_phb",
    "ablation_reserve_policy", "ablation_priority_driven_reservation",
}


def figure_arms():
    for figure in FIGURES.values():
        if figure.scenario not in ARM_SCENARIOS:
            continue
        arm_type = ARM_SCENARIOS[figure.scenario][0]
        for label, params in figure.arms:
            yield figure.name, arm_type(**params["arm"])


def arm(arm_type, name):
    """The arm named ``name`` among the figures' arms."""
    return next(candidate for _, candidate in ARMS
                if type(candidate) is arm_type and candidate.name == name)


def cells(policy):
    """The policy as plain values (a FlowSpec compares by identity)."""
    reservation = policy.reservation
    return (policy.priority, policy.dscp, policy.cpu, policy.enforcement,
            None if reservation is None
            else (reservation.rate_bps, reservation.bucket_bytes),
            policy.mandatory)


NONE = cells(QosPolicy())
ARMS = list(figure_arms())


def test_every_kernel_running_figure_has_arm_objects():
    assert {name for name, figure in FIGURES.items()
            if figure.scenario not in ARM_SCENARIOS} == ARMLESS


@pytest.mark.parametrize(
    "figure,arm_obj", ARMS,
    ids=[f"{figure}:{arm_obj.name}" for figure, arm_obj in ARMS])
def test_every_arm_yields_a_policy(figure, arm_obj):
    for inputs in STREAM_INPUTS.get(type(arm_obj), [()]):
        assert isinstance(arm_obj.policy(*inputs), QosPolicy)


def test_fig4_control_arms_manage_nothing():
    for name in ("fig4a-control-idle", "fig4b-control-congested"):
        assert cells(arm(PriorityArm, name).policy(HIGH_PRIORITY)) == NONE


def test_fig5_is_priority_without_dscp():
    for name in ("fig5a-threads-cpuload", "fig5b-threads-cpuload-congested"):
        policy = arm(PriorityArm, name).policy(HIGH_PRIORITY)
        assert cells(policy) == cells(QosPolicy(HIGH_PRIORITY))


def test_fig6_is_priority_with_dscp():
    policy = arm(PriorityArm, "fig6-threads-dscp-congested").policy(
        HIGH_PRIORITY)
    assert cells(policy) == cells(QosPolicy(HIGH_PRIORITY, dscp=True))


def test_table1_is_three_reservation_levels_by_filtering():
    levels = {}
    for filtering in (False, True):
        for _, candidate in ARMS:
            if (type(candidate) is NetworkArm
                    and candidate.filtering == filtering):
                reservation = candidate.policy().reservation
                levels.setdefault(filtering, {})[candidate.reservation] = (
                    None if reservation is None else reservation.rate_bps)
    expected = {None: None, "partial": 670e3, "full": 1.3e6}
    assert levels == {False: expected, True: expected}
    for name in ("2-partial", "6-full-filtering"):
        policy = arm(NetworkArm, name).policy()
        assert policy.reservation.bucket_bytes == 40_000
        assert policy.mandatory and policy.priority is None
        assert policy.cpu is None


def test_table2_reserves_only_under_load_plus_reserve():
    for name in ("no-load", "load"):
        assert cells(arm(CpuArm, name).policy()) == NONE
    policy = arm(CpuArm, "load+reserve").policy()
    assert cells(policy) == cells(QosPolicy(
        cpu=(0.45, 0.5), enforcement=EnforcementPolicy.SOFT))


def test_fig9_four_mechanism_arms():
    lane = BASE_CORBA_PRIORITY
    best_effort = arm(CapacityArm, "best-effort")
    assert cells(best_effort.policy(None, False)) == NONE
    priority = arm(CapacityArm, "priority")
    assert cells(priority.policy(lane, False)) == cells(
        QosPolicy(lane, dscp=True))
    for name in ("reserves", "adaptive"):
        mechanisms = arm(CapacityArm, name)
        admitted = mechanisms.policy(lane, True)
        assert (admitted.priority, admitted.dscp) == (lane, True)
        assert admitted.cpu == pytest.approx((0.003, 1 / 30))
        assert admitted.enforcement is EnforcementPolicy.HARD
        assert (admitted.reservation.rate_bps,
                admitted.reservation.bucket_bytes) == (1.3e6, 40_000)
        assert admitted.mandatory
        # A rejected stream falls back to best effort.
        assert cells(mechanisms.policy(lane, False)) == NONE


def test_an_arm_class_without_a_policy_fails():
    from dataclasses import dataclass

    from repro.experiments.arm import Arm

    @dataclass
    class NewArm(Arm):
        name: str

    with pytest.raises(NotImplementedError):
        NewArm("new").policy()
