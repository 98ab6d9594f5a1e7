//! Flight-recorder coverage for the fleet-resilience event kinds.
//!
//! The retry/hedge/shed events are what an operator needs when a
//! breaker trips: the dump has to show the resilience machinery's last
//! actions, not just solver outcomes. This test pins three properties
//! for every one of those kinds: the ring captures it, it survives a
//! `to_jsonl` round-trip as valid JSON carrying its kind tag, and it is
//! present in the dump a breaker trip triggers.

use std::sync::Arc;

use batsolv_trace::{validate_json, EventKind, FlightRecorder, MemorySink, Tracer};

/// The four kinds the fleet resilience layer emits.
fn resilience_events() -> Vec<(EventKind, &'static str)> {
    vec![
        (
            EventKind::RetryAttempt {
                from: 0,
                to: 2,
                size: 8,
                attempt: 2,
                backoff_us: 1500,
                reason: "device_failure",
            },
            "retry_attempt",
        ),
        (
            EventKind::HedgeFired {
                primary: 0,
                hedge: 1,
                size: 16,
                age_us: 40_000,
            },
            "hedge_fired",
        ),
        (
            EventKind::HedgeWon {
                winner: 1,
                loser: 0,
                size: 16,
            },
            "hedge_won",
        ),
        (EventKind::Shed { shard: 2, size: 4 }, "shed"),
    ]
}

#[test]
fn ring_captures_every_resilience_kind() {
    let flight = FlightRecorder::new(64);
    let tracer = Tracer::with_flight_recorder(Arc::new(MemorySink::new()), Arc::new(flight));
    let kinds = resilience_events();
    for (i, (kind, _)) in kinds.iter().enumerate() {
        tracer.emit(Some(i as u64), kind.clone());
    }
    let dump = tracer.dump_flight("coverage").expect("recorder attached");
    assert_eq!(dump.events.len(), kinds.len());
    assert_eq!(dump.dropped, 0);
    for (i, ((_, name), got)) in kinds.iter().zip(dump.events.iter()).enumerate() {
        assert_eq!(got.kind.name(), *name, "ring preserves order");
        assert_eq!(got.trace_id, Some(i as u64));
    }
}

#[test]
fn dump_jsonl_round_trips_each_kind() {
    let flight = FlightRecorder::new(64);
    let tracer = Tracer::with_flight_recorder(Arc::new(MemorySink::new()), Arc::new(flight));
    for (kind, _) in resilience_events() {
        tracer.emit(Some(9), kind);
    }
    let dump = tracer.dump_flight("jsonl").expect("recorder attached");
    let jsonl = dump.to_jsonl();
    let lines: Vec<&str> = jsonl.lines().collect();
    // Header line plus one line per event.
    assert_eq!(lines.len(), 1 + resilience_events().len());
    for line in &lines {
        validate_json(line).unwrap_or_else(|e| panic!("invalid JSON line {line:?}: {e}"));
    }
    for (_, name) in resilience_events() {
        let tag = format!("\"kind\":\"{name}\"");
        assert!(
            lines[1..].iter().any(|l| l.contains(&tag)),
            "dump JSONL is missing {tag}"
        );
    }
}

#[test]
fn breaker_trip_dump_carries_the_resilience_history() {
    let sink = Arc::new(MemorySink::new());
    let flight = Arc::new(FlightRecorder::new(64));
    let tracer = Tracer::with_flight_recorder(sink.clone(), flight.clone());
    for (kind, _) in resilience_events() {
        tracer.emit(Some(41), kind);
    }
    // The trip itself is recorded, then the dump fires with the ring
    // contents at that instant.
    tracer.emit(None, EventKind::BreakerTrip);
    let dump = tracer
        .dump_flight("breaker_trip")
        .expect("recorder attached");
    assert_eq!(dump.reason, "breaker_trip");
    assert!(dump.contains_trace(41));
    for (_, name) in resilience_events() {
        assert!(
            dump.events.iter().any(|e| e.kind.name() == name),
            "breaker-trip dump is missing kind {name}"
        );
    }
    // The recorder retains the dump for post-mortem retrieval and the
    // marker event reached the primary sink.
    assert!(flight.last_dump().is_some());
    assert!(sink.snapshot().iter().any(|e| matches!(
        e.kind,
        EventKind::FlightDump {
            reason: "breaker_trip",
            ..
        }
    )));
}
