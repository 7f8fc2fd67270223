//! Determinism guarantees: the whole stack — kernels, RNG, scheduler,
//! cache, simulator — must be exactly reproducible, because the paper's
//! methodology (and our bit-identical-numerics claim) depends on it.

use ssdtrain::{PlacementStrategy, TensorCacheConfig};
use ssdtrain_models::{Arch, ModelConfig};
use ssdtrain_train::{SessionConfig, StepMetrics, TrainSession};

fn run_steps(strategy: PlacementStrategy, symbolic: bool, steps: usize) -> Vec<StepMetrics> {
    let model = if symbolic {
        ModelConfig::paper_scale(Arch::Bert, 2048, 2).with_tp(2)
    } else {
        ModelConfig::tiny_gpt()
    };
    let cfg = SessionConfig::builder()
        .model(model)
        .batch_size(if symbolic { 8 } else { 2 })
        .strategy(strategy)
        .cache(if symbolic {
            TensorCacheConfig::default()
        } else {
            TensorCacheConfig::offload_everything()
        })
        .symbolic(symbolic)
        .seed(99)
        .build()
        .expect("valid config");
    let mut s = TrainSession::new(cfg).expect("session");
    (0..steps).map(|_| s.run_step().expect("step")).collect()
}

#[test]
fn identical_sessions_produce_identical_metrics() {
    for strategy in [
        PlacementStrategy::Keep,
        PlacementStrategy::Offload,
        PlacementStrategy::Recompute,
        PlacementStrategy::Hybrid {
            recompute_layers: 1,
        },
    ] {
        let a = run_steps(strategy, true, 2);
        let b = run_steps(strategy, true, 2);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.step_secs, y.step_secs, "{strategy}");
            assert_eq!(x.act_peak_bytes, y.act_peak_bytes, "{strategy}");
            assert_eq!(x.total_peak_bytes, y.total_peak_bytes, "{strategy}");
            assert_eq!(x.model_flops, y.model_flops, "{strategy}");
            assert_eq!(
                x.offload.offloaded_bytes, y.offload.offloaded_bytes,
                "{strategy}"
            );
            assert_eq!(x.timeline.len(), y.timeline.len(), "{strategy}");
        }
    }
}

#[test]
fn numeric_losses_are_reproducible_across_sessions() {
    let a: Vec<f32> = run_steps(PlacementStrategy::Offload, false, 4)
        .iter()
        .map(|m| m.loss)
        .collect();
    let b: Vec<f32> = run_steps(PlacementStrategy::Offload, false, 4)
        .iter()
        .map(|m| m.loss)
        .collect();
    assert_eq!(a, b);
}

#[test]
fn model_flops_are_strategy_independent() {
    // The *algorithmic* FLOP count (model throughput's numerator) must
    // not depend on the placement strategy — recompute's extra passes
    // are excluded by definition (Section 4.3).
    let keep = run_steps(PlacementStrategy::Keep, true, 1)[0].model_flops;
    let off = run_steps(PlacementStrategy::Offload, true, 1)[0].model_flops;
    let rec = run_steps(PlacementStrategy::Recompute, true, 1)[0].model_flops;
    assert_eq!(keep, off);
    assert_eq!(keep, rec);
}

#[test]
fn different_seeds_change_numerics_but_not_timing() {
    // Symbolic timing depends on shapes only; seeds must not perturb it.
    let mk = |seed: u64| {
        let cfg = SessionConfig::builder()
            .model(ModelConfig::paper_scale(Arch::Bert, 2048, 2).with_tp(2))
            .batch_size(8)
            .strategy(PlacementStrategy::Keep)
            .symbolic(true)
            .seed(seed)
            .build()
            .expect("valid config");
        let mut s = TrainSession::new(cfg).expect("session");
        s.run_step().expect("step").step_secs
    };
    assert_eq!(mk(1), mk(2));
}

#[test]
fn arena_traffic_is_reported_per_step() {
    // The arena's counters are cumulative; the stats report this step's
    // share, so two identical steady-state steps stage the same bytes.
    let metrics = run_steps(PlacementStrategy::Offload, true, 3);
    let arena = |m: &StepMetrics| {
        (
            m.offload.arena_acquired_bytes,
            m.offload.arena_released_bytes,
        )
    };
    let (acquired, released) = arena(&metrics[1]);
    assert!(acquired > 0, "offloaded bytes pass through the arena");
    assert_eq!(acquired, released, "a step returns every slab it takes");
    assert_eq!(arena(&metrics[2]), (acquired, released));
}
