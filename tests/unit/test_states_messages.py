"""Unit tests for repro.core.states and repro.core.messages."""

import dataclasses
import pickle

import pytest

from repro.core import (
    LEGAL_TRANSITIONS,
    DeathCause,
    NodeMode,
    ProbeMessage,
    ReplyMessage,
    check_transition,
)


class TestStates:
    def test_figure1_edges_present(self):
        assert NodeMode.PROBING in LEGAL_TRANSITIONS[NodeMode.SLEEPING]
        assert NodeMode.SLEEPING in LEGAL_TRANSITIONS[NodeMode.PROBING]
        assert NodeMode.WORKING in LEGAL_TRANSITIONS[NodeMode.PROBING]

    def test_overlap_resolution_edge(self):
        """§4 adds Working -> Sleeping."""
        assert NodeMode.SLEEPING in LEGAL_TRANSITIONS[NodeMode.WORKING]

    def test_death_reachable_from_all_live_modes(self):
        for mode in (NodeMode.SLEEPING, NodeMode.PROBING, NodeMode.WORKING):
            assert NodeMode.DEAD in LEGAL_TRANSITIONS[mode]

    def test_dead_is_terminal(self):
        assert LEGAL_TRANSITIONS[NodeMode.DEAD] == frozenset()

    def test_no_sleeping_to_working_shortcut(self):
        """Figure 1: a node must probe before working."""
        assert NodeMode.WORKING not in LEGAL_TRANSITIONS[NodeMode.SLEEPING]

    def test_check_transition_accepts_legal(self):
        check_transition(NodeMode.SLEEPING, NodeMode.PROBING)

    def test_check_transition_rejects_illegal(self):
        with pytest.raises(ValueError):
            check_transition(NodeMode.SLEEPING, NodeMode.WORKING)
        with pytest.raises(ValueError):
            check_transition(NodeMode.DEAD, NodeMode.SLEEPING)

    def test_death_causes(self):
        assert DeathCause.ENERGY.value == "energy"
        assert DeathCause.FAILURE.value == "failure"


class TestProbeMessage:
    def test_wakeup_key(self):
        message = ProbeMessage(prober_id=7, wakeup_seq=3, probe_index=1)
        assert message.wakeup_key == (7, 3)

    def test_probe_index_excluded_from_key(self):
        """All frames of one wakeup share the key (measurement dedup)."""
        first = ProbeMessage(7, 3, 0)
        second = ProbeMessage(7, 3, 2)
        assert first.wakeup_key == second.wakeup_key

    def test_validation(self):
        with pytest.raises(ValueError):
            ProbeMessage(1, -1)
        with pytest.raises(ValueError):
            ProbeMessage(1, 0, probe_index=-2)
        with pytest.raises(ValueError, match="nonnegative"):
            ProbeMessage(1, -3, -3)

    def test_frozen(self):
        with pytest.raises(Exception):
            ProbeMessage(1, 0).wakeup_seq = 5


class TestReplyMessage:
    def test_carries_adaptive_sleeping_feedback(self):
        reply = ReplyMessage(
            worker_id=2, measured_rate=0.05, desired_rate=0.02, working_duration=120.0
        )
        assert reply.measured_rate == 0.05
        assert reply.desired_rate == 0.02
        assert reply.working_duration == 120.0

    def test_none_measurement_allowed(self):
        reply = ReplyMessage(2, None, 0.02, 0.0)
        assert reply.measured_rate is None

    def test_validation(self):
        with pytest.raises(ValueError):
            ReplyMessage(2, 0.0, 0.02, 0.0)
        with pytest.raises(ValueError):
            ReplyMessage(2, 0.05, 0.0, 0.0)
        with pytest.raises(ValueError):
            ReplyMessage(2, 0.05, 0.02, -1.0)
        with pytest.raises(ValueError, match="measured_rate"):
            ReplyMessage(2, -1.0, 0.02, 0.0)
        with pytest.raises(ValueError, match="desired_rate"):
            ReplyMessage(2, None, -0.02, 0.0)


class TestMessageContract:
    """The hand-built constructors keep the frozen-dataclass contract."""

    PROBE = dict(prober_id=7, wakeup_seq=3, probe_index=2)
    REPLY = dict(worker_id=2, measured_rate=0.05, desired_rate=0.02,
                 working_duration=120.0, answering=(7, 3))

    @pytest.mark.parametrize("cls, fields", [(ProbeMessage, PROBE), (ReplyMessage, REPLY)])
    def test_value_equality_and_hashing(self, cls, fields):
        first, second = cls(**fields), cls(*fields.values())
        assert first == second and first is not second
        assert hash(first) == hash(second)
        assert len({first, second}) == 1
        changed = dict(fields)
        key = next(iter(changed))
        changed[key] = 99
        assert cls(**changed) != first
        assert first != tuple(fields.values())

    @pytest.mark.parametrize("cls, fields", [(ProbeMessage, PROBE), (ReplyMessage, REPLY)])
    def test_every_field_is_immutable(self, cls, fields):
        message = cls(**fields)
        for name in fields:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(message, name, 1)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(message, name)
        # A name that is no field has no slot either; CPython 3.11's frozen
        # slots dataclasses report that as TypeError, later ones otherwise.
        with pytest.raises((dataclasses.FrozenInstanceError, AttributeError, TypeError)):
            message.extra = 1
        assert [getattr(message, name) for name in fields] == list(fields.values())
        assert [f.name for f in dataclasses.fields(cls)] == list(fields)

    def test_defaults(self):
        assert ProbeMessage(1, 0).probe_index == 0
        assert ReplyMessage(2, None, 0.02, 0.0).answering is None

    @pytest.mark.parametrize("cls, fields", [(ProbeMessage, PROBE), (ReplyMessage, REPLY)])
    def test_pickles_by_value(self, cls, fields):
        message = cls(**fields)
        assert pickle.loads(pickle.dumps(message)) == message
