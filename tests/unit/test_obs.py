"""Unit tests for the observability layer: events, sinks, tracer, schema,
manifests (``repro.obs``)."""

import inspect
import json

import numpy as np
import pytest

from repro.obs import (
    NdjsonSink,
    RingBufferSink,
    Tracer,
    build_manifest,
    config_hash,
    code_fingerprint,
    events,
    load_manifest,
    save_manifest,
    schema,
    validate_event,
    validate_trace_file,
)
from repro.obs.events import encode_event
from repro.obs.manifest import MANIFEST_SCHEMA
from repro.obs.schema import iter_trace_file


def _dumps(event):
    return json.dumps(event, sort_keys=True, separators=(",", ":"))


def _constructor_calls():
    """``(constructor, args, optional)`` covering every public constructor;
    ``optional`` sets each keyword field the constructor may leave out."""
    return [
        (events.state, (1.0, 3, "sleeping", "probing"), {}),
        (events.state, (2.0, 3, "working", "dead"),
         {"cause": "energy", "rate_hz": 0.1}),
        (events.probe_tx, (1.0, 3, 2, 0), {}),
        (events.reply_tx, (1.0, "anchor0", None, 12.5), {}),
        (events.reply_tx, (1.0, 4, 0.02, 12.5), {}),
        (events.collision, (1.0, 3, 2), {}),
        (events.drop, (1.0, 3, "half_duplex"), {}),
        (events.lambda_hat, (1.0, 3, 0.05, 1), {}),
        (events.rate, (1.0, 3, 1.0, 0.5, 0.05), {}),
        (events.fail, (1.0, 3), {}),
        (events.energy, (1.0, 3, "probe_tx", 0.0006), {}),
        (events.fault_arm, (0.0, "fault0", "region_kill"), {}),
        (events.fault_fire, (5.0, "fault0", "region_kill", 7), {}),
        (events.fault_clear, (9.0, "fault1", "transient_outage"), {}),
    ]


def _every_constructor():
    """Each call built with its optional fields left out and, if it has
    any, again with all of them set."""
    built = []
    for constructor, args, optional in _constructor_calls():
        built.append(constructor(*args))
        if optional:
            built.append(constructor(*args, **optional))
    return built


class TestEvents:
    def test_every_constructor_validates(self):
        for event in _every_constructor():
            assert validate_event(event) is None, event

    def test_constructors_match_the_schema_one_to_one(self):
        # Constructors are named after the event type they build.
        public = {
            name for name in events.__all__
            if inspect.isfunction(getattr(events, name)) and name != "encode_event"
        }
        called = {c.__name__ for c, _args, _optional in _constructor_calls()}
        built = {event["ev"] for event in _every_constructor()}
        assert called == public
        arms = {
            arm["properties"]["ev"]["const"]
            for arm in schema.TRACE_EVENT_SCHEMA["oneOf"]
        }
        assert built == arms == public

    def test_optional_fields_are_all_exercised(self):
        covered = {}
        for constructor, _args, optional in _constructor_calls():
            covered.setdefault(constructor, set()).update(optional)
        for constructor, fields in covered.items():
            parameters = inspect.signature(constructor).parameters.values()
            defaults = {p.name for p in parameters if p.default is not p.empty}
            assert fields == defaults, constructor.__name__

    def test_encode_is_canonical(self):
        # Same logical event, different insertion order -> same bytes.
        a = {"t": 1.0, "ev": "fail", "node": 2}
        b = {"node": 2, "ev": "fail", "t": 1.0}
        assert encode_event(a) == encode_event(b)
        assert "\n" not in encode_event(a)
        assert " " not in encode_event(a)


class TestEncoderEquivalence:
    """``encode_event`` reuses one prebuilt encoder; its bytes must be
    exactly those of the per-call ``json.dumps`` it replaces."""

    def test_every_constructor_matches_dumps(self):
        samples = _every_constructor()
        assert {e["ev"] for e in samples} == set(events.EVENT_TYPES)
        for event in samples:
            assert encode_event(event) == _dumps(event), event

    @pytest.mark.parametrize(
        "value",
        [
            float("nan"),
            float("inf"),
            float("-inf"),
            None,
            True,
            False,
            0,
            -(2**63),
            2**64 + 1,
            10**300,
            1e-320,
            -0.0,
            0.1 + 0.2,
            np.float64(0.1),
            np.float64("nan"),
            'quote"d',
            "back\\slash",
            "ctl\x00\x1f\n\t\r",
            "caf\u00e9 \u03bb\u0302 \U0001f4e1",
            "\ud800",
            "\x7f\u2028",
        ],
    )
    def test_edge_values_match_dumps(self, value):
        event = {"t": 1.0, "ev": "x", "node": value, "j": value}
        assert encode_event(event) == _dumps(event)

    @pytest.mark.parametrize("value", [np.int64(3), object(), {1, 2}, b"raw"])
    def test_unserializable_raises_type_error_on_both_paths(self, value):
        event = {"t": 1.0, "ev": "fail", "node": value}
        with pytest.raises(TypeError):
            _dumps(event)
        with pytest.raises(TypeError):
            encode_event(event)

    def test_fallback_without_c_encoder_matches(self, monkeypatch):
        samples = _every_constructor()
        fast = [encode_event(e) for e in samples]
        monkeypatch.setattr(events, "_ENCODE", None)
        assert [encode_event(e) for e in samples] == fast

    def test_prebuilt_encoder_in_use_when_available(self):
        if json.encoder.c_make_encoder is None:
            pytest.skip("interpreter has no _json accelerator")
        assert events._ENCODE is not None


class TestSchemaValidation:
    def test_unknown_type_rejected(self):
        assert "unknown event type" in validate_event({"t": 0, "ev": "nope", "node": 1})

    def test_non_dict_rejected(self):
        assert validate_event([1, 2]) is not None

    def test_negative_time_rejected(self):
        assert "'t'" in validate_event({"t": -1.0, "ev": "fail", "node": 1})

    def test_missing_field_rejected(self):
        bad = {"t": 0.0, "ev": "drop", "node": 1}
        assert "missing field 'why'" in validate_event(bad)

    def test_bad_state_name_rejected(self):
        bad = events.state(0.0, 1, "sleeping", "Zombie")
        assert "must be one of" in validate_event(bad)

    def test_bad_drop_reason_rejected(self):
        bad = events.drop(0.0, 1, "gremlins")
        assert "'why'" in validate_event(bad)

    def test_unexpected_field_rejected(self):
        bad = events.fail(0.0, 1)
        bad["extra"] = True
        assert "unexpected fields" in validate_event(bad)

    def test_bool_is_not_a_number(self):
        bad = {"t": True, "ev": "fail", "node": 1}
        assert validate_event(bad) is not None

    def test_validate_trace_file(self, tmp_path):
        path = tmp_path / "trace.ndjson"
        lines = [
            encode_event(events.fail(1.0, 2)),
            "this is not json",
            encode_event({"t": 2.0, "ev": "bogus", "node": 3}),
        ]
        path.write_text("\n".join(lines) + "\n")
        errors = validate_trace_file(path)
        assert len(errors) == 2
        assert errors[0].startswith("line 2:")
        assert errors[1].startswith("line 3:")

    def test_validate_trace_file_truncates(self, tmp_path):
        path = tmp_path / "broken.ndjson"
        path.write_text("nope\n" * 50)
        errors = validate_trace_file(path, max_errors=5)
        assert len(errors) == 6  # 5 problems + truncation marker
        assert "stopped after" in errors[-1]


class TestSinks:
    def test_ring_buffer_keeps_newest_and_counts_drops(self):
        sink = RingBufferSink(capacity=2)
        for i in range(5):
            sink.emit((events.FAIL, float(i), i))
        assert sink.emitted == 5
        assert sink.dropped == 3
        assert [e["node"] for e in sink.events()] == [3, 4]
        assert len(sink) == 2

    def test_ring_buffer_unbounded(self):
        sink = RingBufferSink()
        for i in range(10):
            sink.emit((events.FAIL, float(i), i))
        assert sink.dropped == 0 and len(sink) == 10

    def test_ring_buffer_type_filter(self):
        sink = RingBufferSink()
        sink.emit((events.FAIL, 0.0, 1))
        sink.emit((events.COLLISION, 1.0, 2, 2))
        assert [e["ev"] for e in sink.events("collision")] == ["collision"]

    def test_ring_buffer_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            RingBufferSink(capacity=0)

    def test_ndjson_sink_writes_canonical_lines(self, tmp_path):
        path = tmp_path / "out.ndjson"
        sink = NdjsonSink(path)
        sink.emit((events.FAIL, 1.0, 2))
        sink.emit((events.COLLISION, 2.0, 3, 1))
        sink.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0]) == {"t": 1.0, "ev": "fail", "node": 2}
        assert sink.emitted == 2 and sink.dropped == 0

    def test_ndjson_sink_rotation(self, tmp_path):
        path = tmp_path / "big.ndjson"
        sink = NdjsonSink(path, rotate_bytes=1024)
        record = (events.ENERGY, 0.0, 1, "probe_tx", 0.123456)
        line_len = len(encode_event(events.energy(*record[1:]))) + 1
        for _ in range(3 * (1024 // line_len) + 3):
            sink.emit(record)
        sink.close()
        assert sink.rotations >= 2
        chunks = sink.chunk_paths()
        assert chunks[0] == path
        assert all(chunk.exists() for chunk in chunks)
        for chunk in chunks[:-1]:
            assert chunk.stat().st_size <= 1024
        total_lines = sum(
            len(chunk.read_text().splitlines()) for chunk in chunks
        )
        assert total_lines == sink.emitted

    def test_ndjson_sink_rejects_tiny_rotation(self, tmp_path):
        with pytest.raises(ValueError):
            NdjsonSink(tmp_path / "x.ndjson", rotate_bytes=10)


class TestTracer:
    def test_stats_reflect_sink(self):
        tracer = Tracer(RingBufferSink(capacity=1))
        tracer.emit(events.FAIL, 0.0, 1)
        tracer.emit(events.FAIL, 1.0, 2)
        assert tracer.stats() == {"emitted": 2, "dropped": 1}


class TestManifest:
    def test_config_hash_is_stable_and_sensitive(self):
        from repro.experiments import Scenario

        a = Scenario(num_nodes=10, seed=1)
        b = Scenario(num_nodes=10, seed=1)
        c = Scenario(num_nodes=11, seed=1)
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash(c)
        assert len(config_hash(a)) == 16

    def test_build_manifest_shape(self):
        manifest = build_manifest(
            seed=7,
            config={"x": 1},
            rng_streams=("b", "a"),
            wall_time_s=1.234567,
            events_executed=100,
            sim_end_time_s=50.0,
            trace={"emitted": 3, "dropped": 0},
            mac={"num_probes": 3},
        )
        assert manifest["schema"] == MANIFEST_SCHEMA
        assert manifest["code_fingerprint"] == code_fingerprint()
        assert manifest["seed"] == 7
        assert manifest["rng_streams"] == ["a", "b"]
        assert manifest["timing"]["wall_time_s"] == 1.2346
        assert manifest["events_executed"] == 100
        assert manifest["trace"]["emitted"] == 3
        assert manifest["mac"]["num_probes"] == 3
        assert "python" in manifest["packages"]

    def test_manifest_round_trip(self, tmp_path):
        manifest = build_manifest(seed=1, config={"a": 2})
        path = tmp_path / "run.manifest.json"
        save_manifest(manifest, path)
        assert load_manifest(path) == manifest

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "other/9"}')
        with pytest.raises(ValueError):
            load_manifest(path)


class TestIterTraceFile:
    def test_skips_blank_lines(self, tmp_path):
        path = tmp_path / "trace.ndjson"
        path.write_text(encode_event(events.fail(0.0, 1)) + "\n\n")
        assert len(list(iter_trace_file(path))) == 1
