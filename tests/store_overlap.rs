//! The forward's stores run into the backward: no barrier at the forward
//! exit, three waits instead. These tests pin what the waits promise on
//! the benchmark's configurations — a started store is never forwarded
//! there (every offloaded byte of every class is read back), and a
//! backward allocation waits for stores to land rather than lift the
//! step's GPU high-water above the forward's.

use ssdtrain::{
    EventKind, OffloadClass, OffloadStats, PlacementStrategy, TraceCategory, TraceSink,
};
use ssdtrain_models::{Arch, ModelConfig};
use ssdtrain_train::{OffloadBackend, SessionBuilder, SessionConfig, TrainSession};

/// A paper-scale (symbolic) model with TP=2 on the Table 3 testbed,
/// seed 42 — the benchmark's starting point.
fn paper_testbed(arch: Arch, hidden: usize, layers: usize, batch: usize) -> SessionBuilder {
    SessionConfig::builder()
        .model(ModelConfig::paper_scale(arch, hidden, layers).with_tp(2))
        .batch_size(batch)
        .symbolic(true)
        .seed(42)
}

/// Per class, the bytes offloaded equal the bytes reloaded: no store
/// was forwarded after its job started.
fn assert_every_write_is_read(step: usize, o: &OffloadStats) {
    for c in &o.classes {
        assert_eq!(
            c.offloaded_bytes, c.reloaded_bytes,
            "step {step}, class {}: offloaded != reloaded",
            c.class
        );
    }
}

#[test]
fn the_backward_waits_for_stores_instead_of_lifting_the_peak() {
    // The benchmark's smallblock configuration: BERT H2048 L8 (B8) over
    // a 1 GiB DRAM tier spilling to the array, 256 MiB segments, 2×2
    // group prefetch, gradients and momentum offloaded, the update
    // overlapped. The third step is the first steady one.
    let sink = TraceSink::enabled();
    let cfg = paper_testbed(Arch::Bert, 2048, 8, 8)
        .strategy(PlacementStrategy::Offload)
        .backend(OffloadBackend::Tiered {
            dram_bytes: 1 << 30,
        })
        .store_job_overhead(1e-3)
        .ssd_write_overhead(512 << 10)
        .coalesce_segment(256 << 20)
        .prefetch_group(2)
        .prefetch_depth(2)
        .offload(OffloadClass::Gradient, true)
        .offload(OffloadClass::OptimizerState, true)
        .overlap_optimizer(true)
        .momentum(0.9)
        .trace(sink.clone())
        .build()
        .expect("valid config");
    let mut session = TrainSession::new(cfg).expect("session");
    for _ in 0..2 {
        session.run_step().expect("warm-up step");
    }
    let m = session.run_step().expect("measured step");
    let events = sink.events();
    let step = |e: &&ssdtrain::TraceEvent| e.step == 3;
    let span = |name: &str| {
        events
            .iter()
            .filter(step)
            .filter(|e| e.name == name)
            .filter_map(|e| match e.kind {
                EventKind::Span { dur_secs } => Some((e.ts, dur_secs)),
                _ => None,
            })
            .collect::<Vec<_>>()
    };

    let waits = span("stall.memory");
    assert!(!waits.is_empty(), "the backward must wait for a store");
    assert!(waits.iter().all(|(_, d)| *d > 0.0));
    let waited: f64 = waits.iter().map(|(_, d)| d).sum();
    assert!(
        (waited - m.offload.memory_stall_secs).abs() < 1e-12,
        "stall.memory spans {waited} vs memory_stall_secs {}",
        m.offload.memory_stall_secs
    );
    assert!(waits.iter().all(|(ts, _)| events
        .iter()
        .filter(step)
        .any(|e| e.cat == TraceCategory::Stage && e.name == "stage.backward" && e.ts <= *ts)));

    let (fwd_start, fwd_secs) = span("stage.forward")[0];
    let fwd_end = fwd_start.plus_secs(fwd_secs);
    let forward_high_water = m
        .timeline
        .iter()
        .filter(|p| p.time <= fwd_end)
        .map(|p| p.total)
        .max()
        .expect("the forward allocates");
    assert_eq!(
        m.total_peak_bytes, forward_high_water,
        "the backward lifted the GPU peak above the forward's high-water"
    );
    assert_every_write_is_read(3, &m.offload);
}

#[test]
fn the_fig10_configuration_reads_back_every_byte_it_writes() {
    // The paper's Figure 10 point (GPT H8192 L4, B16, TP=2, SSD) after
    // its profiling step: the per-tensor stores run into the backward,
    // and none is forwarded once its job started.
    let cfg = paper_testbed(Arch::Gpt, 8192, 4, 16)
        .strategy(PlacementStrategy::Offload)
        .build()
        .expect("valid config");
    let mut session = TrainSession::new(cfg).expect("session");
    session.profile_step().expect("profile step");
    for step in 1..=3 {
        let m = session.run_step().expect("step");
        assert!(m.offload.offloaded_bytes > 0);
        assert_eq!(
            m.offload.store_stall_secs + m.offload.memory_stall_secs,
            0.0
        );
        assert_every_write_is_read(step, &m.offload);
    }
}
