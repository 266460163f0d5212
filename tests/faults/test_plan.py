"""FaultPlan / FaultEvent: validation, ordering, serialization."""

import pytest

from repro.faults import FaultEvent, FaultPlan


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------
def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultEvent("meteor_strike", at=1.0)


def test_missing_required_fields_rejected():
    with pytest.raises(ValueError, match="missing fields"):
        FaultEvent("link_flap", at=1.0, duration=2.0)  # no link


def test_unexpected_fields_rejected():
    with pytest.raises(ValueError, match="unexpected fields"):
        FaultEvent("link_flap", link=["a", "b"], at=1.0, duration=2.0,
                   color="red")


def test_negative_at_rejected():
    with pytest.raises(ValueError, match="'at' must be >= 0"):
        FaultEvent("resv_loss", flow="video", at=-0.1)


@pytest.mark.parametrize("duration", [0.0, -1.0])
def test_windowed_faults_need_positive_duration(duration):
    with pytest.raises(ValueError, match="'duration' must be positive"):
        FaultEvent("link_flap", link=["a", "b"], at=1.0, duration=duration)


@pytest.mark.parametrize("loss", [0.0, 1.5, -0.2])
def test_loss_burst_probability_range(loss):
    with pytest.raises(ValueError, match="'loss' must be in"):
        FaultEvent("loss_burst", link=["a", "b"], at=1.0, duration=1.0,
                   loss=loss)


@pytest.mark.parametrize("factor", [0.0, 1.0, 2.0])
def test_link_degrade_factor_range(factor):
    with pytest.raises(ValueError, match="'factor' must be in"):
        FaultEvent("link_degrade", link=["a", "b"], at=1.0, duration=1.0,
                   factor=factor)


def test_link_must_be_a_pair():
    with pytest.raises(ValueError, match="device, device"):
        FaultEvent("link_flap", link="a-b", at=1.0, duration=1.0)


def test_targets_may_be_indexes():
    event = FaultEvent("link_flap", link=7, at=1.0, duration=1.0)
    assert event.link == 7 and event.label() == "link_flap:7"
    assert FaultEvent("node_crash", node=3, at=1.0,
                      duration=1.0).label() == "node_crash:3"
    with pytest.raises(ValueError, match="or an index"):
        FaultEvent("link_flap", link=True, at=1.0, duration=1.0)
    with pytest.raises(ValueError, match="device name or an index"):
        FaultEvent("node_crash", node=1.5, at=1.0, duration=1.0)


def test_events_are_immutable():
    event = FaultEvent("resv_loss", flow="video", at=3.0)
    with pytest.raises(AttributeError):
        event.at = 5.0


# ----------------------------------------------------------------------
# Defaults, labels and windows
# ----------------------------------------------------------------------
def test_node_crash_loses_state_by_default():
    event = FaultEvent("node_crash", node="r1", at=1.0, duration=2.0)
    assert event.lose_state is True
    assert event.until == pytest.approx(3.0)


def test_labels_are_stable():
    assert FaultEvent("link_flap", link=["r1", "dst"], at=0.0,
                      duration=1.0).label() == "link_flap:r1-dst"
    assert FaultEvent("node_crash", node="r1", at=0.0,
                      duration=1.0).label() == "node_crash:r1"
    assert FaultEvent("resv_loss", flow="video",
                      at=0.0).label() == "resv_loss:video"


def test_plan_windows_and_horizon():
    plan = FaultPlan([
        FaultEvent("link_flap", link=["a", "b"], at=2.0, duration=3.0),
        FaultEvent("resv_loss", flow="video", at=1.0),
    ])
    assert plan.windows() == [("resv_loss:video", 1.0, 1.0),
                              ("link_flap:a-b", 2.0, 5.0)]
    assert plan.horizon == pytest.approx(5.0)
    assert FaultPlan().horizon == 0.0


# ----------------------------------------------------------------------
# Ordering and serialization
# ----------------------------------------------------------------------
def test_plan_sorts_by_onset_keeping_authoring_order_on_ties():
    early = FaultEvent("resv_loss", flow="x", at=1.0)
    tie_a = FaultEvent("resv_loss", flow="a", at=5.0)
    tie_b = FaultEvent("resv_loss", flow="b", at=5.0)
    plan = FaultPlan([tie_a, tie_b, early])
    assert list(plan) == [early, tie_a, tie_b]
    assert len(plan) == 3


def test_dict_round_trip_preserves_plan():
    plan = FaultPlan([
        FaultEvent("link_degrade", link=["r", "dst"], at=2.0, duration=10.0,
                   factor=0.05),
        FaultEvent("loss_burst", link=["src", "r"], at=15.0, duration=1.0,
                   loss=0.3),
        FaultEvent("node_crash", node="r", at=20.0, duration=1.0,
                   lose_state=False),
        FaultEvent("resv_loss", flow="video", at=25.0),
    ])
    assert FaultPlan.from_dicts(plan.to_dicts()) == plan


def test_canonical_dict_form_is_order_independent():
    a = FaultEvent("resv_loss", flow="x", at=1.0)
    b = FaultEvent("link_flap", link=["r", "dst"], at=2.0, duration=1.0)
    assert FaultPlan([a, b]).to_dicts() == FaultPlan([b, a]).to_dicts()


def test_link_endpoints_coerced_to_strings():
    event = FaultEvent("link_flap", link=("r1", "dst"), at=0.0, duration=1.0)
    assert event.fields["link"] == ["r1", "dst"]
    assert event.to_dict()["link"] == ["r1", "dst"]
