//! Telemetry end to end: counters, spans, snapshots and progress ticks.
//!
//! Telemetry state is process-global, so this is a single-test binary:
//! in the library's unit-test binary, sweeps running concurrently in
//! other tests would add to the counters this test pins exactly.

use ccmm_core::telemetry::{
    count, drain_events, enabled, progress_tick, set_enabled, set_events, set_progress,
    snapshot_and_reset, span, Counter, NUM_COUNTERS,
};

#[test]
fn counters_spans_and_snapshots_work_end_to_end() {
    assert!(!enabled());
    count(Counter::PairsChecked, 5);
    assert_eq!(snapshot_and_reset()[Counter::PairsChecked as usize], 0, "off = not recorded");

    set_enabled(true);
    count(Counter::PairsChecked, 5);
    count(Counter::PairsChecked, 2);
    count(Counter::Quarantines, 1);
    std::thread::scope(|s| {
        for _ in 0..3 {
            s.spawn(|| count(Counter::PairsChecked, 10));
        }
    });
    let snap = snapshot_and_reset();
    assert_eq!(snap[Counter::PairsChecked as usize], 37);
    assert_eq!(snap[Counter::Quarantines as usize], 1);
    assert_eq!(snap[Counter::WorklistPops as usize], 0);
    let zeroed = snapshot_and_reset();
    assert!(zeroed.iter().all(|&v| v == 0), "snapshot resets the sinks");
    set_enabled(false);

    // Spans: inert when off, recorded with ordered timestamps when on.
    drop(span("off"));
    assert!(drain_events().is_empty());
    set_events(true);
    {
        let _g = span("outer");
        let _inner = span("inner");
    }
    set_events(false);
    let evs = drain_events();
    assert_eq!(evs.len(), 2);
    assert_eq!(evs[0].name, "inner", "inner guard drops first");
    assert_eq!(evs[1].name, "outer");
    for e in &evs {
        assert!(e.start_us <= e.end_us);
    }
    assert!(drain_events().is_empty(), "drain empties the buffer");

    // The name table is total and stable.
    assert_eq!(Counter::ALL.len(), NUM_COUNTERS);
    let mut names: Vec<_> = Counter::ALL.iter().map(|c| c.name()).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), NUM_COUNTERS, "counter names are unique");

    // Progress ticks never panic, on or off.
    progress_tick(1, 10, 0);
    set_progress(true);
    progress_tick(0, 10, 0);
    progress_tick(5, 10, 1);
    set_progress(false);
}
