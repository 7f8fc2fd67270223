//! Backend differential suite: the tiered DRAM→SSD stack must be a pure
//! performance/endurance knob — numerics are bit-identical across every
//! backend (and against keeping activations resident), and the per-tier
//! counters account exactly the traffic the flat design aggregated.

use ssdtrain::{OffloadClass, OffloadStats, PlacementStrategy, TensorCacheConfig};
use ssdtrain_models::{Arch, ModelConfig};
use ssdtrain_train::{OffloadBackend, SessionConfig, StepMetrics, TrainSession};

const STEPS: usize = 3;

fn run_backend(backend: OffloadBackend) -> Vec<StepMetrics> {
    let cfg = SessionConfig::builder()
        .model(ModelConfig::tiny_gpt())
        .batch_size(2)
        .cache(TensorCacheConfig::offload_everything())
        .seed(23)
        .backend(backend)
        .build()
        .expect("valid config");
    let mut s = TrainSession::new(cfg).expect("session");
    (0..STEPS).map(|_| s.run_step().expect("step")).collect()
}

fn losses(metrics: &[StepMetrics]) -> Vec<f32> {
    metrics.iter().map(|m| m.loss).collect()
}

/// Bytes that actually reached a device this step: every offloaded byte
/// except the data-forwarded stores that were never cancelled — those
/// stay priced on the simulated link but their commit is skipped, which
/// is exactly what the flat design's target-level aggregate excluded.
fn committed_bytes(m: &StepMetrics) -> u64 {
    m.offload.offloaded_bytes - (m.offload.forwarded_bytes - m.offload.cancelled_bytes)
}

#[test]
fn every_backend_is_bit_identical_to_keeping_resident() {
    let keep_cfg = SessionConfig::builder()
        .model(ModelConfig::tiny_gpt())
        .batch_size(2)
        .strategy(PlacementStrategy::Keep)
        .seed(23)
        .build()
        .expect("valid config");
    let mut keep = TrainSession::new(keep_cfg).expect("session");
    let keep_losses: Vec<f32> = (0..STEPS)
        .map(|_| keep.run_step().expect("step").loss)
        .collect();

    let ssd = run_backend(OffloadBackend::Ssd);
    let dram = run_backend(OffloadBackend::Dram);
    // An 8 KiB front tier forces mid-step spilling; a huge one absorbs
    // everything. Both must leave the numbers untouched.
    let spilling = run_backend(OffloadBackend::Tiered {
        dram_bytes: 8 << 10,
    });
    let roomy = run_backend(OffloadBackend::Tiered {
        dram_bytes: 1 << 30,
    });

    assert_eq!(losses(&ssd), keep_losses, "ssd vs keep");
    assert_eq!(losses(&dram), keep_losses, "dram vs keep");
    assert_eq!(losses(&spilling), keep_losses, "spilling tiered vs keep");
    assert_eq!(losses(&roomy), keep_losses, "roomy tiered vs keep");
}

#[test]
fn single_tier_backends_expose_one_tier_of_counters() {
    let ssd = run_backend(OffloadBackend::Ssd);
    for m in &ssd {
        let tiers = &m.offload.tiers;
        assert_eq!(tiers.len(), 1);
        assert_eq!(tiers[0].name, "ssd");
        assert_eq!(tiers[0].spilled_in_bytes, 0);
        assert_eq!(tiers[0].demoted_in_bytes, 0);
        // The single tier carries the whole device-level aggregate the
        // flat design exposed, and never more than the link-priced
        // traffic (forwarded-but-uncancelled stores skip their commit).
        assert_eq!(tiers[0].bytes_written, committed_bytes(m));
        assert!(tiers[0].bytes_written <= m.ssd_host_writes);
        assert_eq!(m.ssd_host_writes, m.offload.offloaded_bytes);
    }

    let dram = run_backend(OffloadBackend::Dram);
    for m in &dram {
        assert_eq!(m.offload.tiers.len(), 1);
        assert_eq!(m.offload.tiers[0].name, "cpu");
    }
}

#[test]
fn tight_front_tier_spills_and_conserves_the_aggregate() {
    let metrics = run_backend(OffloadBackend::Tiered {
        dram_bytes: 8 << 10,
    });
    for m in &metrics {
        let tiers = &m.offload.tiers;
        assert_eq!(tiers.len(), 2);
        assert_eq!(tiers[0].name, "dram");
        assert_eq!(tiers[1].name, "ssd");
        // The tight front tier fills and the overflow lands behind it.
        assert!(tiers[0].bytes_written > 0, "front tier absorbs something");
        assert!(tiers[1].spilled_in_bytes > 0, "overflow spills to ssd");
        assert_eq!(m.offload.spilled_bytes, tiers[1].spilled_in_bytes);
        // Per-tier writes sum back to the flat aggregate, and every
        // committed byte is on exactly one tier.
        let per_tier: u64 = tiers.iter().map(|t| t.bytes_written).sum();
        assert_eq!(per_tier, committed_bytes(m));
        // Healthy run: demotion is a fault-recovery path only.
        assert_eq!(tiers[1].demoted_in_bytes, 0);
    }
}

#[test]
fn roomy_front_tier_keeps_the_ssd_idle() {
    let metrics = run_backend(OffloadBackend::Tiered {
        dram_bytes: 1 << 30,
    });
    for m in &metrics {
        let tiers = &m.offload.tiers;
        assert_eq!(tiers.len(), 2);
        assert!(tiers[0].bytes_written > 0);
        assert_eq!(tiers[1].bytes_written, 0, "nothing reaches the ssd");
        assert_eq!(m.offload.spilled_bytes, 0);
    }
}

/// BERT H2048 L8 (B8) on `backend`, coalesced, with gradients and
/// momentum offloaded and the update overlapped: `steps` steps.
fn run_state_backend(backend: OffloadBackend, steps: usize) -> Vec<StepMetrics> {
    let cfg = SessionConfig::builder()
        .model(ModelConfig::paper_scale(Arch::Bert, 2048, 8).with_tp(2))
        .batch_size(8)
        .symbolic(true)
        .seed(23)
        .backend(backend)
        .coalesce_segment(256 << 20)
        .prefetch_group(2)
        .prefetch_depth(2)
        .offload(OffloadClass::Gradient, true)
        .offload(OffloadClass::OptimizerState, true)
        .overlap_optimizer(true)
        .momentum(0.9)
        .build()
        .expect("valid config");
    let mut s = TrainSession::new(cfg).expect("session");
    (0..steps).map(|_| s.run_step().expect("step")).collect()
}

/// Bytes of `class` the step admitted into the tier stack, the cancelled
/// ones included (only activations are cancelled or withdrawn here).
fn admitted(m: &StepMetrics, class: OffloadClass) -> u64 {
    let offloaded = m.offload.class(class).map_or(0, |c| c.offloaded_bytes);
    match class {
        OffloadClass::Activation => offloaded + m.offload.cancelled_bytes,
        _ => offloaded,
    }
}

#[test]
fn momentum_placement_is_stable_on_a_contended_front_tier() {
    // Measure one steady step's demand on a front tier that holds all of
    // it: nothing is contended, so nothing reaches the ssd.
    let roomy = run_state_backend(
        OffloadBackend::Tiered {
            dram_bytes: 64 << 30,
        },
        3,
    );
    let steady = &roomy[2];
    assert_eq!(steady.offload.tiers[1].bytes_written, 0, "roomy: ssd idle");
    let activations = admitted(steady, OffloadClass::Activation);
    let state =
        admitted(steady, OffloadClass::Gradient) + admitted(steady, OffloadClass::OptimizerState);
    assert!(activations > 0 && state > 0);

    // A front tier between the activation demand and the activation +
    // state demand: contended, so momentum takes the ssd. The forecast
    // reads admitted bytes, which do not depend on where momentum went,
    // so consecutive steady steps are identical.
    let front = activations + state / 2;
    let metrics = run_state_backend(OffloadBackend::Tiered { dram_bytes: front }, 6);
    for pair in metrics[2..].windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        assert_eq!(a.step_secs, b.step_secs, "step time drifted");
        assert_eq!(a.total_peak_bytes, b.total_peak_bytes, "gpu peak drifted");
        assert_eq!(
            a.act_peak_bytes, b.act_peak_bytes,
            "activation peak drifted"
        );
        assert_eq!(a.opt_exposed_secs, b.opt_exposed_secs, "exposure drifted");
        // Slab reuses count over the arena's life, not per step.
        let account = |m: &StepMetrics| OffloadStats {
            arena_slab_reuses: 0,
            ..m.offload.clone()
        };
        assert_eq!(account(a), account(b), "offload account drifted");
    }
    let last = &metrics[metrics.len() - 1];
    assert!(
        last.offload.tiers[1].bytes_written
            >= last
                .offload
                .class(OffloadClass::OptimizerState)
                .map_or(0, |c| c.offloaded_bytes),
        "momentum must land on the back tier"
    );
}
