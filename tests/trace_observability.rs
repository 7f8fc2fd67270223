//! The observability layer's two load-bearing guarantees:
//!
//! 1. **Byte stability.** The Chrome-trace JSON for a fixed-seed run is
//!    a pure function of the configuration — same config, same bytes.
//!    A golden file pins the exporter's format and the event stream's
//!    determinism at once; regenerate it after intentional changes with
//!    `UPDATE_GOLDEN=1 cargo test --test trace_observability`.
//!
//! 2. **Accounting.** Trace-derived byte totals must equal the cache's
//!    own [`OffloadStats`] counters exactly — including under injected
//!    faults, where failed stores are re-routed (fallback) or kept
//!    resident and must leave the primary account through the same
//!    identities the trace records.

use ssdtrain::{
    chrome_trace_json, ArgValue, EventKind, OffloadClass, OffloadStats, RecoveryPolicy,
    TensorCacheConfig, TraceCategory, TraceEvent, TraceSink,
};
use ssdtrain_models::ModelConfig;
use ssdtrain_simhw::{FaultKind, FaultPlan, FaultTrigger, SystemConfig};
use ssdtrain_train::{OffloadBackend, SessionBuilder, SessionConfig, TrainSession};
use std::collections::BTreeSet;
use std::path::Path;

const STEPS: usize = 2;

/// The fixed-seed configuration both the golden file and the accounting
/// tests run: a numeric tiny-GPT step offloading everything, so every
/// lane of the trace carries events.
fn traced_session(
    sink: TraceSink,
    backend: OffloadBackend,
    recovery: RecoveryPolicy,
    fault: Option<FaultPlan>,
    fallback: Option<OffloadBackend>,
) -> TrainSession {
    let mut builder = SessionConfig::builder()
        .model(ModelConfig::tiny_gpt())
        .batch_size(2)
        .cache(TensorCacheConfig::offload_everything())
        .recovery(recovery)
        .seed(7)
        .backend(backend)
        .trace(sink);
    if let Some(plan) = fault {
        builder = builder.fault(plan);
    }
    if let Some(fb) = fallback {
        builder = builder.fallback(fb);
    }
    TrainSession::new(builder.build().expect("valid config")).expect("session")
}

/// Runs `STEPS` steps and returns the per-step offload stats snapshot.
fn run(session: &mut TrainSession) -> Vec<OffloadStats> {
    (0..STEPS)
        .map(|_| session.run_step().expect("step").offload)
        .collect()
}

/// Sums the byte payloads of all events named `name` within `step`.
fn sum_bytes(events: &[TraceEvent], step: u32, name: &str) -> u64 {
    events
        .iter()
        .filter(|e| e.step == step && e.name == name)
        .filter_map(|e| e.bytes())
        .sum()
}

/// Asserts the per-step trace/stat identities the exporter documents:
/// every byte the cache reports moving is visible in the event stream.
fn assert_accounting(events: &[TraceEvent], per_step: &[OffloadStats]) {
    for (i, stats) in per_step.iter().enumerate() {
        let step = (i + 1) as u32;
        let stored = sum_bytes(events, step, "store.enqueue")
            - sum_bytes(events, step, "store.cancel")
            - sum_bytes(events, step, "recovery.keep_resident")
            - sum_bytes(events, step, "recovery.fallback");
        assert_eq!(stored, stats.offloaded_bytes, "step {step}: store bytes");
        assert_eq!(
            sum_bytes(events, step, "load"),
            stats.reloaded_bytes,
            "step {step}: load bytes"
        );
        assert_eq!(
            sum_bytes(events, step, "recovery.fallback"),
            stats.fallback_bytes,
            "step {step}: fallback bytes"
        );
        assert_eq!(
            sum_bytes(events, step, "recovery.keep_resident"),
            stats.kept_resident_bytes,
            "step {step}: kept-resident bytes"
        );
        assert_eq!(
            sum_bytes(events, step, "store.cancel"),
            stats.cancelled_bytes,
            "step {step}: cancelled bytes"
        );
    }
}

#[test]
fn golden_chrome_trace_is_byte_stable() {
    // CPU target: no spill files, so the run touches nothing outside the
    // simulator — the trace depends on the configuration alone.
    let sink = TraceSink::enabled();
    let mut s = traced_session(
        sink.clone(),
        OffloadBackend::Dram,
        RecoveryPolicy::KeepResident,
        None,
        None,
    );
    let _ = run(&mut s);
    let json = chrome_trace_json(&sink.events());

    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/quickstart_trace.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden, &json).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&golden).expect(
        "golden file missing; regenerate with UPDATE_GOLDEN=1 cargo test --test trace_observability",
    );
    assert_eq!(
        json, want,
        "chrome trace drifted from tests/golden/quickstart_trace.json; if the \
         change is intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn identical_runs_emit_identical_traces() {
    // The same determinism as the golden test, but self-contained (and
    // on the SSD target, where real spill files are in the loop).
    let trace_of = || {
        let sink = TraceSink::enabled();
        let mut s = traced_session(
            sink.clone(),
            OffloadBackend::Ssd,
            RecoveryPolicy::KeepResident,
            None,
            None,
        );
        let _ = run(&mut s);
        chrome_trace_json(&sink.events())
    };
    assert_eq!(trace_of(), trace_of());
}

#[test]
fn trace_byte_totals_match_offload_stats() {
    let sink = TraceSink::enabled();
    let mut s = traced_session(
        sink.clone(),
        OffloadBackend::Ssd,
        RecoveryPolicy::KeepResident,
        None,
        None,
    );
    let per_step = run(&mut s);
    assert!(per_step.iter().all(|m| m.offloaded_bytes > 0));
    assert_accounting(&sink.events(), &per_step);
}

#[test]
fn trace_accounting_survives_injected_write_faults() {
    // Keep-resident: failed stores stay on the GPU and the trace's
    // recovery lane must carry exactly the bytes the stats report.
    let plan = FaultPlan::new(42).with_recurring_fault(
        FaultTrigger::ByteThreshold { bytes: 16 << 10 },
        FaultKind::WriteError,
    );
    let sink = TraceSink::enabled();
    let mut s = traced_session(
        sink.clone(),
        OffloadBackend::Ssd,
        RecoveryPolicy::KeepResident,
        Some(plan),
        None,
    );
    let per_step = run(&mut s);
    assert!(
        per_step.iter().any(|m| m.kept_resident_bytes > 0),
        "the fault plan must actually fire"
    );
    let events = sink.events();
    assert_accounting(&events, &per_step);
    let cats: BTreeSet<&str> = events.iter().map(|e| e.cat.as_str()).collect();
    assert!(cats.contains(TraceCategory::Fault.as_str()));
    assert!(cats.contains(TraceCategory::Recovery.as_str()));
}

#[test]
fn trace_accounting_survives_fallback_rerouting() {
    // Fallback-target: failed stores re-route to the host pool; the
    // byte identities still close because the fallback lane absorbs
    // exactly what leaves the primary account.
    let plan = FaultPlan::new(42).with_recurring_fault(
        FaultTrigger::ByteThreshold { bytes: 16 << 10 },
        FaultKind::WriteError,
    );
    let sink = TraceSink::enabled();
    let mut s = traced_session(
        sink.clone(),
        OffloadBackend::Ssd,
        RecoveryPolicy::FallbackTarget,
        Some(plan),
        Some(OffloadBackend::Dram),
    );
    let per_step = run(&mut s);
    assert!(
        per_step.iter().any(|m| m.fallback_bytes > 0),
        "the fault plan must actually fire"
    );
    assert_accounting(&sink.events(), &per_step);
}

/// Coalesced-path variant of the fixed-seed session: same model and
/// seed, but stores ride 1 MiB segments and backward consumes groups of
/// two modules on the double buffer.
fn coalesced_session(
    sink: TraceSink,
    recovery: RecoveryPolicy,
    fault: Option<FaultPlan>,
    fallback: Option<OffloadBackend>,
) -> TrainSession {
    let mut cache = TensorCacheConfig::offload_everything();
    cache.coalesce_segment_bytes = 1 << 20;
    cache.prefetch_group_modules = 2;
    let mut builder = SessionConfig::builder()
        .model(ModelConfig::tiny_gpt())
        .batch_size(2)
        .cache(cache)
        .recovery(recovery)
        .seed(7)
        .backend(OffloadBackend::Ssd)
        .trace(sink);
    if let Some(plan) = fault {
        builder = builder.fault(plan);
    }
    if let Some(fb) = fallback {
        builder = builder.fallback(fb);
    }
    TrainSession::new(builder.build().expect("valid config")).expect("session")
}

#[test]
fn trace_accounting_holds_on_the_coalesced_path() {
    // Segments batch many tensors into one store job, but the per-record
    // byte identities must close exactly as on the per-tensor path.
    let sink = TraceSink::enabled();
    let mut s = coalesced_session(sink.clone(), RecoveryPolicy::KeepResident, None, None);
    let per_step = run(&mut s);
    assert!(per_step.iter().all(|m| m.offloaded_bytes > 0));
    assert!(
        per_step.iter().any(|m| m.coalesce_segments > 0),
        "the coalescer must actually seal segments"
    );
    assert!(
        per_step.iter().any(|m| m.prefetch_groups > 0),
        "group prefetch must actually run"
    );
    assert_accounting(&sink.events(), &per_step);
    let cats: BTreeSet<&str> = sink.events().iter().map(|e| e.cat.as_str()).collect();
    assert!(cats.contains(TraceCategory::Coalesce.as_str()));
    assert!(cats.contains(TraceCategory::Arena.as_str()));
}

#[test]
fn trace_accounting_survives_faults_on_the_coalesced_path() {
    // A failed segment write degrades the whole segment per the policy;
    // the recovery lane must absorb exactly the bytes that leave the
    // primary account — same identity, segment granularity.
    for (recovery, fallback) in [
        (RecoveryPolicy::KeepResident, None),
        (RecoveryPolicy::FallbackTarget, Some(OffloadBackend::Dram)),
    ] {
        let plan = FaultPlan::new(42).with_recurring_fault(
            FaultTrigger::ByteThreshold { bytes: 16 << 10 },
            FaultKind::WriteError,
        );
        let sink = TraceSink::enabled();
        let mut s = coalesced_session(sink.clone(), recovery, Some(plan), fallback);
        let per_step = run(&mut s);
        assert!(
            per_step
                .iter()
                .any(|m| m.kept_resident_bytes > 0 || m.fallback_bytes > 0),
            "{recovery:?}: the fault plan must actually fire"
        );
        assert_accounting(&sink.events(), &per_step);
    }
}

/// The traffic class of a store-account event: state classes carry a
/// `class` argument, untagged events are activations.
fn event_class(e: &TraceEvent) -> &str {
    e.args
        .iter()
        .find_map(|(k, v)| match (k, v) {
            (&"class", ArgValue::Str(s)) => Some(s.as_str()),
            _ => None,
        })
        .unwrap_or(OffloadClass::Activation.label())
}

/// [`assert_accounting`]'s store identity, per offload class:
/// Σ`store.enqueue` − Σ`store.cancel` − recoveries == the class lane's
/// `offloaded_bytes`, step by step.
fn assert_class_accounting(events: &[TraceEvent], per_step: &[OffloadStats]) {
    for (i, stats) in per_step.iter().enumerate() {
        let step = (i + 1) as u32;
        for class in OffloadClass::ALL {
            let sum = |name: &str| -> u64 {
                events
                    .iter()
                    .filter(|e| e.step == step && e.name == name && event_class(e) == class.label())
                    .filter_map(|e| e.bytes())
                    .sum()
            };
            let stored = sum("store.enqueue")
                - sum("store.cancel")
                - sum("recovery.keep_resident")
                - sum("recovery.fallback");
            let lane = stats.class(class).map_or(0, |c| c.offloaded_bytes);
            assert_eq!(stored, lane, "step {step}: {class} store bytes");
        }
    }
}

/// [`coalesced_session`] also offloading gradients and optimizer state:
/// all three classes ride the segment path.
fn coalesced_state_session(
    sink: TraceSink,
    recovery: RecoveryPolicy,
    fault: Option<FaultPlan>,
    fallback: Option<OffloadBackend>,
) -> TrainSession {
    let builder = coalesced_state_builder(1 << 20, sink, recovery, fault, fallback);
    TrainSession::new(builder.build().expect("valid config")).expect("session")
}

/// The configuration of [`coalesced_state_session`] with segments of
/// `segment_bytes`.
fn coalesced_state_builder(
    segment_bytes: u64,
    sink: TraceSink,
    recovery: RecoveryPolicy,
    fault: Option<FaultPlan>,
    fallback: Option<OffloadBackend>,
) -> SessionBuilder {
    let mut cache = TensorCacheConfig::offload_everything();
    cache.coalesce_segment_bytes = segment_bytes;
    cache.prefetch_group_modules = 2;
    let mut builder = SessionConfig::builder()
        .model(ModelConfig::tiny_gpt())
        .batch_size(2)
        .cache(cache)
        .offload(OffloadClass::Gradient, true)
        .offload(OffloadClass::OptimizerState, true)
        .overlap_optimizer(true)
        .momentum(0.9)
        .recovery(recovery)
        .seed(7)
        .backend(OffloadBackend::Ssd)
        .trace(sink);
    if let Some(plan) = fault {
        builder = builder.fault(plan);
    }
    if let Some(fb) = fallback {
        builder = builder.fallback(fb);
    }
    builder
}

#[test]
fn trace_accounting_closes_per_class_on_the_coalesced_state_path() {
    // Healthy and under recurring write faults (absorbed by both
    // policies), the store identity holds globally and per class once
    // gradients and momentum share the segment path with activations.
    let fault = || {
        FaultPlan::new(42).with_recurring_fault(
            FaultTrigger::ByteThreshold { bytes: 16 << 10 },
            FaultKind::WriteError,
        )
    };
    for (recovery, plan, fallback) in [
        (RecoveryPolicy::KeepResident, None, None),
        (RecoveryPolicy::KeepResident, Some(fault()), None),
        (
            RecoveryPolicy::FallbackTarget,
            Some(fault()),
            Some(OffloadBackend::Dram),
        ),
    ] {
        let faulted = plan.is_some();
        let sink = TraceSink::enabled();
        let mut s = coalesced_state_session(sink.clone(), recovery, plan, fallback);
        let per_step = run(&mut s);
        let events = sink.events();
        assert_accounting(&events, &per_step);
        assert_class_accounting(&events, &per_step);
        for class in [OffloadClass::Gradient, OffloadClass::OptimizerState] {
            let segments = per_step
                .iter()
                .filter_map(|m| m.class(class))
                .map(|c| c.stores)
                .sum::<u64>();
            assert!(segments > 0, "{recovery:?}: {class} must ride segments");
            let recovered = events.iter().any(|e| {
                e.name.starts_with("recovery.")
                    && e.bytes().is_some()
                    && event_class(e) == class.label()
            });
            assert_eq!(
                recovered, faulted,
                "{recovery:?}: {class} recovery events iff the fault plan fired"
            );
        }
    }
}

#[test]
fn trace_accounting_closes_while_the_opening_window_is_held() {
    // A write link slow enough that the backward's opening window cannot
    // land before the forward ends: from the second step on, the
    // coalesced path holds those segments and the forward exit forwards
    // their members instead of writing and re-reading them. The store
    // identity must still close, globally and per class, healthy and
    // under every write-fault trigger both absorbing policies handle.
    let mut sys = SystemConfig::dac_testbed();
    sys.ssd_array.member.write_bps = 1e6;
    let mut plans = vec![("healthy", None)];
    plans.extend(
        [
            (
                "nth-op",
                FaultTrigger::NthOp { nth: 0 },
                FaultKind::WriteError,
            ),
            (
                "byte-threshold",
                FaultTrigger::ByteThreshold { bytes: 1 },
                FaultKind::WriteError,
            ),
            (
                "wear-fraction",
                FaultTrigger::WearFraction { fraction: 0.0 },
                FaultKind::EnduranceExhausted,
            ),
            (
                "random",
                FaultTrigger::Random { prob: 1.0 },
                FaultKind::WriteError,
            ),
        ]
        .map(|(name, trigger, kind)| (name, Some(FaultPlan::new(7).with_fault(trigger, kind)))),
    );
    plans.push((
        "recurring",
        Some(FaultPlan::new(42).with_recurring_fault(
            FaultTrigger::ByteThreshold { bytes: 16 << 10 },
            FaultKind::WriteError,
        )),
    ));
    for (name, plan) in plans {
        for (recovery, fallback) in [
            (RecoveryPolicy::KeepResident, None),
            (RecoveryPolicy::FallbackTarget, Some(OffloadBackend::Dram)),
        ] {
            let sink = TraceSink::enabled();
            let cfg =
                coalesced_state_builder(16 << 10, sink.clone(), recovery, plan.clone(), fallback)
                    .system(sys.clone())
                    .build()
                    .expect("valid config");
            let mut s = TrainSession::new(cfg).expect("session");
            let per_step: Vec<OffloadStats> = (0..4)
                .map(|_| s.run_step().expect("step").offload)
                .collect();
            let events = sink.events();
            assert_accounting(&events, &per_step);
            assert_class_accounting(&events, &per_step);
            for (i, stats) in per_step.iter().enumerate().skip(1) {
                assert!(
                    stats.forwarded > 0,
                    "{name}/{recovery:?}: step {} forwards the window",
                    i + 1
                );
            }
            assert!(
                events
                    .iter()
                    .any(|e| e.step > 1 && e.name == "coalesce.hold"),
                "{name}/{recovery:?}: a window segment must be held"
            );
            assert_eq!(
                per_step.iter().any(|m| m.store_failures > 0),
                plan.is_some(),
                "{name}/{recovery:?}: stores fail iff a fault is planned"
            );
        }
    }
}

#[test]
fn tier_drain_spans_match_the_stall_counters() {
    // Per step, the `tier.drain.<link>` spans decompose the stall the
    // stats report: their summed durations equal the summed per-tier
    // stall counters, and `store_stall_secs` — the simulated clock's
    // advance at the barriers — is bounded by that sum (links drain
    // concurrently inside one barrier) with exact equality on a
    // single-link backend. The `tier.io.<name>` instants mirror the same
    // counters byte for byte.
    //
    // The testbed's array hides the tiny model's traffic entirely, so
    // slow its write path until a stage barrier exposes a drain. The
    // forward's stores run into the backward, where the memory wait
    // absorbs them; the gradient stash still drains at the post-backward
    // barrier.
    let mut sys = SystemConfig::dac_testbed();
    sys.ssd_array.member.write_bps = 1e6;
    let sink = TraceSink::enabled();
    let cfg = SessionConfig::builder()
        .model(ModelConfig::tiny_gpt())
        .batch_size(2)
        .cache(TensorCacheConfig::offload_everything())
        .offload(OffloadClass::Gradient, true)
        .system(sys)
        .seed(7)
        .backend(OffloadBackend::Ssd)
        .trace(sink.clone())
        .build()
        .expect("valid config");
    let mut s = TrainSession::new(cfg).expect("session");
    let per_step = run(&mut s);
    let events = sink.events();

    let mut saw_a_drain = false;
    for (i, stats) in per_step.iter().enumerate() {
        let step = (i + 1) as u32;
        let span_sum: f64 = events
            .iter()
            .filter(|e| {
                e.step == step && e.cat == TraceCategory::Tier && e.name.starts_with("tier.drain.")
            })
            .map(|e| match e.kind {
                EventKind::Span { dur_secs } => dur_secs,
                _ => panic!("tier.drain must be a span"),
            })
            .sum();
        let counter_sum: f64 = stats.tiers.iter().map(|t| t.stall_secs).sum();
        assert!(
            (span_sum - counter_sum).abs() < 1e-9,
            "step {step}: drain spans {span_sum} vs stall counters {counter_sum}"
        );
        // Single-link backend: the clock stall IS the one link's drain.
        assert!(
            (stats.store_stall_secs - span_sum).abs() < 1e-9,
            "step {step}: store_stall_secs {} vs spans {span_sum}",
            stats.store_stall_secs
        );
        saw_a_drain |= span_sum > 0.0;

        for counters in &stats.tiers {
            let name = format!("tier.io.{}", counters.name);
            if counters.bytes_written == 0 && counters.bytes_read == 0 {
                continue;
            }
            let ev = events
                .iter()
                .find(|e| e.step == step && e.name == name)
                .unwrap_or_else(|| panic!("step {step}: missing {name} instant"));
            let arg_u64 = |key: &str| match ev.args.iter().find(|(k, _)| *k == key) {
                Some((_, ArgValue::U64(v))) => *v,
                other => panic!("{name} {key}: unexpected arg {other:?}"),
            };
            let arg_f64 = |key: &str| match ev.args.iter().find(|(k, _)| *k == key) {
                Some((_, ArgValue::F64(v))) => *v,
                other => panic!("{name} {key}: unexpected arg {other:?}"),
            };
            assert_eq!(arg_u64("bytes_written"), counters.bytes_written);
            assert_eq!(arg_u64("bytes_read"), counters.bytes_read);
            assert!((arg_f64("write_busy_secs") - counters.write_busy_secs).abs() < 1e-12);
            assert!((arg_f64("read_busy_secs") - counters.read_busy_secs).abs() < 1e-12);
            assert!((arg_f64("stall_secs") - counters.stall_secs).abs() < 1e-12);
        }
    }
    assert!(
        saw_a_drain,
        "the slowed write link must expose at least one drain span"
    );
}

#[test]
fn traced_run_covers_the_documented_categories() {
    let plan = FaultPlan::new(42).with_fault(FaultTrigger::NthOp { nth: 6 }, FaultKind::WriteError);
    let sink = TraceSink::enabled();
    let mut s = traced_session(
        sink.clone(),
        OffloadBackend::Ssd,
        RecoveryPolicy::KeepResident,
        Some(plan),
        None,
    );
    let _ = run(&mut s);
    let cats: BTreeSet<&str> = sink.events().iter().map(|e| e.cat.as_str()).collect();
    for required in [
        TraceCategory::Session,
        TraceCategory::Stage,
        TraceCategory::Store,
        TraceCategory::Load,
        TraceCategory::Prefetch,
        TraceCategory::Dedup,
        TraceCategory::Fault,
        TraceCategory::Recovery,
        TraceCategory::Alloc,
        TraceCategory::Arena,
    ] {
        assert!(
            cats.contains(required.as_str()),
            "missing {required:?} in {cats:?}"
        );
    }
}

#[test]
fn disabled_sink_records_nothing() {
    // The default session carries a disabled sink: the step must not
    // accumulate events anywhere (the "free when off" overhead bound).
    let mut s = traced_session(
        TraceSink::disabled(),
        OffloadBackend::Ssd,
        RecoveryPolicy::KeepResident,
        None,
        None,
    );
    let _ = run(&mut s);
    assert!(s.trace().is_empty());
    assert!(!s.trace().is_enabled());
}
