//! Every schema reads back what its writer wrote: writer → reader →
//! writer is byte-identical, for generated values of each type and for
//! every golden file the repository pins.

#[path = "support/schemas.rs"]
mod schemas;

use ct_obs::flight::FlightDump;
use ct_obs::health::HealthEvent;
use ct_obs::json::Value;
use ct_obs::metrics::Histogram;
use ct_obs::{Event, Postmortem, SeriesExport, SeriesSample, StallReport, TelemetrySnapshot};
use proptest::prelude::*;
use schemas::Draw;

/// Render, read back and render again through a `from_value` reader.
fn again<T>(json: &str, read: fn(&Value) -> Result<T, String>) -> T {
    let v = Value::parse(json).unwrap_or_else(|e| panic!("{e}: {json}"));
    read(&v).unwrap_or_else(|e| panic!("{e}: {json}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn event_round_trips(e in Draw(schemas::event)) {
        let json = e.to_json();
        let read = Event::from_json(&json).unwrap_or_else(|err| panic!("{err}: {json}"));
        prop_assert_eq!(&read, &e);
        prop_assert_eq!(read.to_json(), json);
    }

    #[test]
    fn histogram_round_trips(h in Draw(schemas::histogram)) {
        let json = h.to_json();
        prop_assert_eq!(again(&json, Histogram::from_value).to_json(), json);
    }

    #[test]
    fn telemetry_snapshot_round_trips(s in Draw(schemas::snapshot)) {
        let json = s.to_json();
        let read = TelemetrySnapshot::from_json(&json).unwrap_or_else(|e| panic!("{e}: {json}"));
        prop_assert_eq!(&read, &s);
        prop_assert_eq!(read.to_json(), json);
    }

    #[test]
    fn series_sample_round_trips(s in Draw(schemas::sample)) {
        let json = s.to_json();
        let read = again(&json, SeriesSample::from_value);
        prop_assert_eq!(&read, &s);
        prop_assert_eq!(read.to_json(), json);
    }

    #[test]
    fn health_event_round_trips(e in Draw(schemas::health)) {
        let json = e.to_json();
        let read = again(&json, HealthEvent::from_value);
        prop_assert_eq!(&read, &e);
        prop_assert_eq!(read.to_json(), json);
    }

    #[test]
    fn flight_dump_round_trips(d in Draw(schemas::flight)) {
        let json = d.to_json();
        let read = again(&json, FlightDump::from_value);
        prop_assert_eq!(&read, &d);
        prop_assert_eq!(read.to_json(), json);
    }

    #[test]
    fn stall_report_round_trips(s in Draw(schemas::stall)) {
        let json = s.to_json();
        let read = again(&json, StallReport::from_value);
        prop_assert_eq!(&read, &s);
        prop_assert_eq!(read.to_json(), json);
    }

    #[test]
    fn postmortem_round_trips(pm in Draw(schemas::postmortem)) {
        let json = pm.to_json();
        let read = Postmortem::from_json(&json).unwrap_or_else(|e| panic!("{e}: {json}"));
        prop_assert_eq!(read.to_json(), json);
    }
}

#[test]
fn golden_telemetry_reads_back_as_written() {
    let golden = include_str!("../../analyze/tests/data/golden_telemetry.json");
    let snap = TelemetrySnapshot::from_json(golden).unwrap();
    assert_eq!(snap.to_json() + "\n", golden);
}

#[test]
fn golden_series_reads_back_as_written() {
    let golden = include_str!("../../analyze/tests/data/golden_series.jsonl");
    let export = SeriesExport::from_jsonl(golden).unwrap();
    assert!(
        !export.health.is_empty(),
        "the golden export has health lines"
    );
    assert_eq!(export.to_jsonl(), golden);
}

#[test]
fn golden_postmortem_reads_back_as_written() {
    let golden = include_str!("../../../tests/data/golden_postmortem.json");
    let pm = Postmortem::from_json(golden).unwrap();
    assert_eq!(pm.to_json() + "\n", golden);
}

#[test]
fn golden_trace_reads_back_as_written() {
    let golden = include_str!("../../sim/tests/data/golden_p4.jsonl");
    let again: String = golden
        .lines()
        .map(|line| Event::from_json(line).unwrap().to_json() + "\n")
        .collect();
    assert_eq!(again, golden);
}
