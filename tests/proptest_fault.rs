//! Property-based tests of the fault/perturbation spec grammars
//! (`FaultPlan::from_spec`, `PerturbPlan::from_spec`,
//! `ServeFaultPlan::from_spec`), which share one entry tokenizer and one
//! renderer. Two contracts:
//!
//! 1. **Round trip.** `Display` renders the canonical spec string, and
//!    parse ∘ display ∘ parse is the identity: whatever a spec meant,
//!    the rendered form means the same thing. (The raw input itself is
//!    not a fixed point — entries may be reordered or deduplicated into
//!    canonical form — so the property is checked one render deep.)
//! 2. **No panics.** Arbitrary input — near-miss grammar tokens,
//!    multi-byte UTF-8, empty entries — must come back as an `Err`
//!    naming the 1-based offending entry, never as a panic.

use ccmm::core::fault::{FaultPlan, PerturbPlan, ServeFaultPlan};
use proptest::prelude::*;

/// A syntactically valid `FaultPlan` spec entry.
fn arb_fault_entry() -> impl Strategy<Value = String> {
    prop_oneof![
        (0usize..100).prop_map(|n| format!("panic-at-task={n}")),
        (0usize..100).prop_map(|n| format!("panic-once-at-task={n}")),
        Just("panic-at-task=seeded".to_string()),
        Just("panic-once-at-task=seeded".to_string()),
        (0usize..100, 0usize..50).prop_map(|(i, ms)| format!("delay-at-task={i}:{ms}")),
        (0usize..100).prop_map(|k| format!("kill-after-ckpt={k}")),
        (0usize..100).prop_map(|n| format!("panic-at-fixpoint={n}")),
        (0usize..100).prop_map(|n| format!("panic-once-at-fixpoint={n}")),
        (1usize..100).prop_map(|k| format!("io-error-at-record={k}")),
        any::<u64>().prop_map(|s| format!("seed={s}")),
    ]
}

/// A syntactically valid `ServeFaultPlan` spec entry.
fn arb_serve_entry() -> impl Strategy<Value = String> {
    prop_oneof![
        (0u64..1000).prop_map(|n| format!("panic-at-request={n}")),
        (0u64..1000).prop_map(|n| format!("drop-at-request={n}")),
        (0u64..1000).prop_map(|n| format!("truncate-at-request={n}")),
        (0u64..1000, 0u64..50).prop_map(|(i, ms)| format!("delay-at-request={i}:{ms}")),
        (1u64..64).prop_map(|k| format!("panic=1/{k}")),
        (1u64..64).prop_map(|k| format!("drop=1/{k}")),
        (1u64..64).prop_map(|k| format!("truncate=1/{k}")),
        (1u64..64, 0u64..50).prop_map(|(k, ms)| format!("delay=1/{k}:{ms}")),
        any::<u64>().prop_map(|s| format!("seed={s}")),
    ]
}

/// A syntactically valid `PerturbPlan` spec entry.
fn arb_perturb_entry() -> impl Strategy<Value = String> {
    prop_oneof![
        (1u32..64).prop_map(|k| format!("yield=1/{k}")),
        (1u32..64, 0u32..4096).prop_map(|(k, s)| format!("spin=1/{k}:{s}")),
        Just("steal=rotate".to_string()),
        any::<u64>().prop_map(|s| format!("seed={s}")),
    ]
}

/// Characters biased toward the spec grammar so random picks land on
/// token shapes the parsers almost accept (plus multi-byte UTF-8 to
/// probe byte-boundary handling in error rendering).
const CHARSET: [char; 32] = [
    'p', 'a', 'n', 'i', 'c', 't', 's', 'k', 'd', 'y', '-', '=', ':', '/', ',', ' ', '\t', '0', '1',
    '2', '7', '9', 'e', 'l', 'r', 'o', 'Ω', 'ñ', '€', '✓', 'ß', 'λ',
];

/// A short lowercase identifier that is never a grammar key (the caller
/// prefixes it with `zz-`).
fn arb_junk_key() -> impl Strategy<Value = String> {
    proptest::collection::vec(0u8..26, 1..8)
        .prop_map(|bytes| bytes.into_iter().map(|b| (b'a' + b) as char).collect())
}

fn arb_text(max_len: usize) -> impl Strategy<Value = String> {
    proptest::collection::vec(any::<u8>(), 0..max_len)
        .prop_map(|bytes| bytes.into_iter().map(|b| CHARSET[b as usize % CHARSET.len()]).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn fault_spec_round_trips_through_display(
        entries in proptest::collection::vec(arb_fault_entry(), 0..6)
    ) {
        let spec = entries.join(",");
        let plan = FaultPlan::from_spec(&spec).expect("generated spec parses");
        let rendered = plan.to_string();
        let reparsed = FaultPlan::from_spec(&rendered)
            .unwrap_or_else(|e| panic!("canonical form `{rendered}` must re-parse: {e}"));
        // FaultPlan carries interior-mutable fire counters, so equality
        // is checked on the canonical rendering, which covers exactly
        // the parsed configuration.
        prop_assert_eq!(rendered, reparsed.to_string());
    }

    #[test]
    fn perturb_spec_round_trips_through_display(
        entries in proptest::collection::vec(arb_perturb_entry(), 0..5)
    ) {
        let spec = entries.join(",");
        let plan = PerturbPlan::from_spec(&spec).expect("generated spec parses");
        let reparsed = PerturbPlan::from_spec(&plan.to_string())
            .unwrap_or_else(|e| panic!("canonical form `{plan}` must re-parse: {e}"));
        prop_assert_eq!(&plan, &reparsed);
        prop_assert_eq!(plan.to_string(), reparsed.to_string());
    }

    #[test]
    fn serve_fault_spec_round_trips_through_display(
        entries in proptest::collection::vec(arb_serve_entry(), 0..6)
    ) {
        let spec = entries.join(",");
        let plan = ServeFaultPlan::from_spec(&spec).expect("generated spec parses");
        let reparsed = ServeFaultPlan::from_spec(&plan.to_string())
            .unwrap_or_else(|e| panic!("canonical form `{plan}` must re-parse: {e}"));
        prop_assert_eq!(&plan, &reparsed);
        // Fault resolution is pure in (plan, index): the reparsed plan
        // injects byte-identical faults at every request index.
        for idx in 0..64 {
            prop_assert_eq!(plan.action(idx), reparsed.action(idx));
        }
    }

    #[test]
    fn fault_spec_parsing_never_panics(text in arb_text(120)) {
        let _ = FaultPlan::from_spec(&text);
    }

    #[test]
    fn serve_fault_spec_parsing_never_panics(text in arb_text(120)) {
        let _ = ServeFaultPlan::from_spec(&text);
    }

    #[test]
    fn perturb_spec_parsing_never_panics(text in arb_text(120)) {
        let _ = PerturbPlan::from_spec(&text);
    }

    #[test]
    fn malformed_trailing_entry_error_names_its_position(
        prefix in proptest::collection::vec(arb_fault_entry(), 0..4),
        junk in arb_junk_key(),
    ) {
        // Append a key that is never part of the grammar: the error must
        // name the entry's 1-based position, not just echo the string.
        let bad = format!("zz-{junk}=1");
        let spec = if prefix.is_empty() { bad } else { format!("{},{bad}", prefix.join(",")) };
        let err = FaultPlan::from_spec(&spec).expect_err("unknown key must not parse");
        let entry_no = prefix.len() + 1;
        prop_assert!(
            err.contains(&format!("entry {entry_no}")),
            "error must name entry {entry_no}: {err}"
        );
    }

    #[test]
    fn malformed_perturb_entry_error_names_its_position(
        prefix in proptest::collection::vec(arb_perturb_entry(), 0..3),
        junk in arb_junk_key(),
    ) {
        let bad = format!("zz-{junk}=1");
        let spec = if prefix.is_empty() { bad } else { format!("{},{bad}", prefix.join(",")) };
        let err = PerturbPlan::from_spec(&spec).expect_err("unknown key must not parse");
        let entry_no = prefix.len() + 1;
        prop_assert!(
            err.contains(&format!("entry {entry_no}")),
            "error must name entry {entry_no}: {err}"
        );
    }

    #[test]
    fn malformed_serve_entry_error_names_its_position(
        prefix in proptest::collection::vec(arb_serve_entry(), 0..4),
        junk in arb_junk_key(),
    ) {
        let bad = format!("zz-{junk}=1");
        let spec = if prefix.is_empty() { bad } else { format!("{},{bad}", prefix.join(",")) };
        let err = ServeFaultPlan::from_spec(&spec).expect_err("unknown key must not parse");
        let entry_no = prefix.len() + 1;
        prop_assert!(
            err.contains(&format!("entry {entry_no}")),
            "error must name entry {entry_no}: {err}"
        );
    }
}

/// Every plan's error texts, byte for byte: the plan's label in the
/// prefix, the 1-based entry number and text, and the shared messages
/// for an unknown key, a missing `=`, a bad number, a bad or zero `1/K`
/// ratio, a missing `:` half and a bad seed.
#[test]
fn spec_error_texts_are_pinned_byte_for_byte() {
    type Parse = fn(&str) -> Result<(), String>;
    let fault: Parse = |s| FaultPlan::from_spec(s).map(drop);
    let perturb: Parse = |s| PerturbPlan::from_spec(s).map(drop);
    let serve: Parse = |s| ServeFaultPlan::from_spec(s).map(drop);
    let table: [(Parse, &str, &str); 16] = [
        (fault, "seed=1,zap=2", "fault spec entry 2 (`zap=2`): unknown fault key `zap`"),
        (fault, "panic-at-task", "fault spec entry 1 (`panic-at-task`): needs key=value"),
        (
            fault,
            "kill-after-ckpt=x",
            "fault spec entry 1 (`kill-after-ckpt=x`): `x` is not a number",
        ),
        (fault, "delay-at-task=3", "fault spec entry 1 (`delay-at-task=3`): needs task:millis"),
        (fault, "seed=-1", "fault spec entry 1 (`seed=-1`): `-1` is not a valid seed"),
        (perturb, "zap=1", "perturb spec entry 1 (`zap=1`): unknown perturb key `zap`"),
        (perturb, "yield=2", "perturb spec entry 1 (`yield=2`): `2` is not a 1/K ratio"),
        (
            perturb,
            "seed=1,yield=1/0",
            "perturb spec entry 2 (`yield=1/0`): ratio denominator must be at least 1",
        ),
        (perturb, "spin=1/4", "perturb spec entry 1 (`spin=1/4`): needs 1/K:iters"),
        (
            perturb,
            "steal=shuffle",
            "perturb spec entry 1 (`steal=shuffle`): unknown steal mode `shuffle`",
        ),
        (serve, "zap=1", "serve fault spec entry 1 (`zap=1`): unknown serve fault key `zap`"),
        (
            serve,
            "seed=1,drop=1/x",
            "serve fault spec entry 2 (`drop=1/x`): `1/x` is not a 1/K ratio",
        ),
        (
            serve,
            "panic=1/0",
            "serve fault spec entry 1 (`panic=1/0`): ratio denominator must be at least 1",
        ),
        (serve, "delay=1/4", "serve fault spec entry 1 (`delay=1/4`): needs 1/K:millis"),
        (
            serve,
            "delay-at-request=3",
            "serve fault spec entry 1 (`delay-at-request=3`): needs request:millis",
        ),
        (serve, "seed=s", "serve fault spec entry 1 (`seed=s`): `s` is not a valid seed"),
    ];
    for (parse, spec, want) in table {
        assert_eq!(parse(spec).expect_err(spec), want, "spec `{spec}`");
    }
}

/// Spot checks pinning corner cases the generators are unlikely to hit
/// on any given run.
#[test]
fn empty_and_whitespace_specs_are_the_empty_plan() {
    for s in ["", " ", ",", " , ", ",,,"] {
        assert!(FaultPlan::from_spec(s).expect("empty-ish spec parses").is_empty(), "spec {s:?}");
        assert!(PerturbPlan::from_spec(s).expect("empty-ish spec parses").is_empty(), "spec {s:?}");
    }
}

#[test]
fn zero_ratio_denominator_is_rejected_not_a_divide_by_zero() {
    let err = PerturbPlan::from_spec("yield=1/0").expect_err("1/0 must not parse");
    assert!(err.contains("entry 1"), "error must name the entry: {err}");
}
