//! Timing-differential suite: tier link speeds must show up in the step
//! critical path where the links bind, and nowhere else. The forward's
//! stores run into the backward (no forward-exit barrier), so on the
//! paper testbed adaptive offloading hides every store behind compute —
//! the paper's Figure 10 — and every backend reports the compute-bound
//! step. Where the links are too slow for that (adaptive offloading off
//! at half the testbed's link speed), the dram, tiered and ssd backends
//! report *different* step times ordered by their links — and slowing a
//! link can only ever slow the step. When bandwidth is ample the step is
//! the compute-bound time, bit-identically across link speeds.

use ssdtrain::{OffloadClass, PlacementStrategy, TensorCacheConfig};
use ssdtrain_models::{Arch, ModelConfig};
use ssdtrain_simhw::SystemConfig;
use ssdtrain_train::{OffloadBackend, SessionConfig, StepMetrics, TrainSession};

/// The bench model (BERT H8192 L4, TP=2): deep enough that the testbed's
/// links expose a store drain at the stage barriers.
fn paper_model() -> ModelConfig {
    ModelConfig::paper_scale(Arch::Bert, 8192, 4).with_tp(2)
}

fn run_on(backend: OffloadBackend, system: SystemConfig) -> StepMetrics {
    run_built(backend, system, TensorCacheConfig::default(), false)
}

/// [`run_on`] with adaptive offloading off: every eligible tensor is
/// offloaded whatever the links, so a link too slow to hide its stores
/// shows up as exposed time rather than as a higher activation peak.
fn run_unplanned(backend: OffloadBackend, system: SystemConfig) -> StepMetrics {
    let cache = TensorCacheConfig {
        adaptive: false,
        ..TensorCacheConfig::default()
    };
    run_built(backend, system, cache, false)
}

/// [`run_on`] at the testbed with gradients offloaded too: their stash
/// drains at the post-backward stage barrier, which the testbed still
/// exposes (the forward's activation stores hide behind the backward).
fn run_stashing_grads(backend: OffloadBackend) -> StepMetrics {
    run_built(
        backend,
        SystemConfig::dac_testbed(),
        TensorCacheConfig::default(),
        true,
    )
}

fn run_built(
    backend: OffloadBackend,
    system: SystemConfig,
    cache: TensorCacheConfig,
    grads: bool,
) -> StepMetrics {
    let cfg = SessionConfig::builder()
        .system(system)
        .model(paper_model())
        .batch_size(16)
        .strategy(PlacementStrategy::Offload)
        .cache(cache)
        .symbolic(true)
        .seed(42)
        .backend(backend)
        .offload(OffloadClass::Gradient, grads)
        .build()
        .expect("valid config");
    let mut session = TrainSession::new(cfg).expect("session");
    let _ = session.profile_step().expect("profile step");
    session.run_step().expect("measured step")
}

fn run(backend: OffloadBackend) -> StepMetrics {
    run_on(backend, SystemConfig::dac_testbed())
}

/// The testbed with every offload-path link scaled by `f` (PCIe and the
/// SSD array together, so the effective min scales too).
fn scaled_testbed(f: f64) -> SystemConfig {
    let mut sys = SystemConfig::dac_testbed();
    sys.pcie_bps *= f;
    sys.ssd_array.member.write_bps *= f;
    sys.ssd_array.member.read_bps *= f;
    sys
}

/// Where the links bind: the testbed at half its link speed with
/// adaptive offloading off (see [`run_unplanned`]).
const BINDING_SCALE: f64 = 0.5;

/// Seconds the step waited for stores to land: stage-barrier drains plus
/// the backward's memory wait.
fn store_wait_secs(m: &StepMetrics) -> f64 {
    m.offload.store_stall_secs + m.offload.memory_stall_secs
}

#[test]
fn step_times_are_ordered_by_link_speed() {
    // A front tier sized to hold part of one step's activations: the
    // rest spills to the (slower) array, landing the step between the
    // two single-tier extremes.
    let tiered_backend = OffloadBackend::Tiered {
        dram_bytes: 2 << 30,
    };
    let backends = [
        ("ssd", OffloadBackend::Ssd),
        ("dram", OffloadBackend::Dram),
        ("tiered", tiered_backend),
    ];
    // At the testbed point every store hides behind compute (the
    // paper's Figure 10): each backend reports the compute-bound step,
    // the one ten times faster links give, with no store wait exposed.
    let compute_bound = run_on(OffloadBackend::Ssd, scaled_testbed(10.0)).step_secs;
    for (name, backend) in backends {
        let m = run(backend);
        assert_eq!(
            store_wait_secs(&m),
            0.0,
            "{name}: the testbed must hide every store"
        );
        assert_eq!(
            m.step_secs, compute_bound,
            "{name}: the testbed step must be the compute-bound one"
        );
    }

    // Where the links bind, the backends order by link speed.
    let [ssd, dram, tiered] =
        backends.map(|(_, b)| run_unplanned(b, scaled_testbed(BINDING_SCALE)));
    assert!(
        tiered.offload.spilled_bytes > 0,
        "the tiered run must actually split traffic across both links"
    );
    for (name, m) in [("ssd", &ssd), ("dram", &dram), ("tiered", &tiered)] {
        assert!(
            store_wait_secs(m) > 0.0,
            "{name}: at ×{BINDING_SCALE} with every tensor offloaded some \
             store wait must be exposed"
        );
    }
    assert!(
        dram.step_secs < tiered.step_secs,
        "dram {} !< tiered {}",
        dram.step_secs,
        tiered.step_secs
    );
    assert!(
        tiered.step_secs < ssd.step_secs,
        "tiered {} !< ssd {}",
        tiered.step_secs,
        ssd.step_secs
    );
}

#[test]
fn slowing_the_array_never_speeds_the_step() {
    let mut prev: Option<f64> = None;
    for f in [1.0, 0.5, 0.25] {
        let mut sys = SystemConfig::dac_testbed();
        sys.ssd_array.member.write_bps *= f;
        let m = run_on(OffloadBackend::Ssd, sys);
        if let Some(p) = prev {
            assert!(
                m.step_secs >= p,
                "slowing the array write link (×{f}) sped the step up: \
                 {} < {p}",
                m.step_secs
            );
        }
        prev = Some(m.step_secs);
    }
}

#[test]
fn a_slower_write_link_grows_the_exposed_stall() {
    // Where the links bind (see `step_times_are_ordered_by_link_speed`),
    // one halving of the array's write link in: the memory wait moves in
    // whole store landings, and the first halving at ×0.5 still lands
    // the same stores in time (0.018270 s either way).
    let array_write = |f: f64| {
        let mut sys = scaled_testbed(BINDING_SCALE);
        sys.ssd_array.member.write_bps *= f;
        run_unplanned(OffloadBackend::Ssd, sys)
    };
    let fast = array_write(0.5);
    let slow = array_write(0.25);
    assert!(
        store_wait_secs(&slow) > store_wait_secs(&fast),
        "halving write bandwidth must expose more store wait: {} !> {}",
        store_wait_secs(&slow),
        store_wait_secs(&fast)
    );
    assert!(slow.step_secs > fast.step_secs);
}

#[test]
fn ample_bandwidth_is_compute_bound_and_scale_invariant() {
    // 10× and 100× the testbed's links both hide every transfer inside
    // compute; the step times must agree to the bit and no store drain
    // may surface — the pre-barrier, compute-bound behaviour.
    let x10 = run_on(OffloadBackend::Ssd, scaled_testbed(10.0));
    let x100 = run_on(OffloadBackend::Ssd, scaled_testbed(100.0));
    assert_eq!(x10.offload.store_stall_secs, 0.0);
    assert_eq!(x100.offload.store_stall_secs, 0.0);
    assert_eq!(
        x10.step_secs, x100.step_secs,
        "fully-overlapped runs must not depend on the link speed"
    );
    // With writes hidden, the backend choice stops mattering as well.
    let dram_x10 = run_on(OffloadBackend::Dram, scaled_testbed(10.0));
    assert_eq!(x10.step_secs, dram_x10.step_secs);
}

#[test]
fn tier_stall_counters_decompose_the_store_stall() {
    // Per-tier stall counters cover the step's store stall: their sum
    // bounds it from above (links drain concurrently inside one
    // barrier) and equals it for a single-tier backend. The gradient
    // stash gives the testbed a barrier drain to decompose.
    let ssd = run_stashing_grads(OffloadBackend::Ssd);
    assert!(ssd.offload.store_stall_secs > 0.0, "no drain to decompose");
    let per_tier: f64 = ssd.offload.tiers.iter().map(|t| t.stall_secs).sum();
    assert!((per_tier - ssd.offload.store_stall_secs).abs() < 1e-9);

    let tiered = run_stashing_grads(OffloadBackend::Tiered {
        dram_bytes: 2 << 30,
    });
    assert!(
        tiered.offload.store_stall_secs > 0.0,
        "no drain to decompose"
    );
    let per_tier: f64 = tiered.offload.tiers.iter().map(|t| t.stall_secs).sum();
    assert!(per_tier >= tiered.offload.store_stall_secs - 1e-9);
    for t in &tiered.offload.tiers {
        assert!(
            t.bytes_written == 0 || t.write_busy_secs > 0.0,
            "tier {} wrote bytes but reports no link busy time",
            t.name
        );
    }
}

/// Step time of the third step of BERT H2048 L8 (B8) on `backend` over
/// `system`, coalesced into 256 MiB segments with a 2×2 group prefetch:
/// from the second step the coalesced path holds the backward's opening
/// window in memory, so the measured step runs with the hold engaged.
/// With `state`, gradients and momentum ride the same stack and the
/// update overlaps the next forward; the third step is then the first
/// steady one (the second runs the first deferred update).
fn coalesced_step(backend: OffloadBackend, system: SystemConfig, state: bool) -> StepMetrics {
    let cfg = SessionConfig::builder()
        .system(system)
        .model(ModelConfig::paper_scale(Arch::Bert, 2048, 8).with_tp(2))
        .batch_size(8)
        .strategy(PlacementStrategy::Offload)
        .symbolic(true)
        .seed(42)
        .backend(backend)
        .coalesce_segment(256 << 20)
        .prefetch_group(2)
        .prefetch_depth(2)
        .offload(OffloadClass::Gradient, state)
        .offload(OffloadClass::OptimizerState, state)
        .overlap_optimizer(state)
        .momentum(if state { 0.9 } else { 0.0 })
        .build()
        .expect("valid config");
    let mut session = TrainSession::new(cfg).expect("session");
    for _ in 0..2 {
        session.run_step().expect("warm-up step");
    }
    session.run_step().expect("measured step")
}

#[test]
fn slowing_the_links_never_speeds_a_coalesced_step() {
    // The hold decision depends on the forward order and the forecast
    // forward length only, and the optimizer-state placement on the
    // previous step's admitted bytes only, so a slower link can only add
    // held bytes: per backend and input, the step time never falls as
    // every offload-path link slows down. Backends are not ordered
    // against each other here, with one exception: a front tier roomy
    // enough for the whole step is never contended, places everything
    // front first and must report exactly the dram backend's step.
    const SCALES: [f64; 6] = [8.0, 4.0, 2.0, 1.0, 0.5, 0.25];
    let roomy = OffloadBackend::Tiered {
        dram_bytes: 64 << 30,
    };
    for state in [false, true] {
        let mut steps = Vec::new();
        for backend in [
            OffloadBackend::Ssd,
            OffloadBackend::Dram,
            OffloadBackend::Tiered {
                dram_bytes: 1 << 30,
            },
            roomy,
        ] {
            let mut prev: Option<(f64, f64)> = None;
            let mut forwarded = 0;
            let mut per_scale = Vec::new();
            for f in SCALES {
                let m = coalesced_step(backend, scaled_testbed(f), state);
                forwarded += m.offload.forwarded;
                // Group slabs are sized by what reloads, never by members
                // the hold kept resident.
                let reloaded = m
                    .offload
                    .class(OffloadClass::Activation)
                    .map_or(0, |c| c.reloaded_bytes);
                assert!(
                    m.offload.prefetch_group_bytes <= reloaded,
                    "{backend:?} state={state} ×{f}: group bytes {} exceed reloads {reloaded}",
                    m.offload.prefetch_group_bytes
                );
                if let Some((pf, p)) = prev {
                    assert!(
                        m.step_secs >= p,
                        "{backend:?} state={state}: slowing the links ×{pf} → ×{f} sped \
                         the step up: {} < {p}",
                        m.step_secs
                    );
                }
                prev = Some((f, m.step_secs));
                per_scale.push(m.step_secs);
            }
            assert!(
                forwarded > 0,
                "{backend:?} state={state}: the grid must reach the opening-window hold"
            );
            steps.push((backend, per_scale));
        }
        let of = |b: OffloadBackend| steps.iter().find(|(k, _)| *k == b).map(|(_, s)| s);
        assert_eq!(
            of(roomy),
            of(OffloadBackend::Dram),
            "state={state}: the uncontended 64 GiB front tier must report dram's steps \
             over ×{SCALES:?}"
        );
    }
}
