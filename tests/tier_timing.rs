//! Timing-differential suite: tier link speeds must show up in the step
//! critical path. The stage-barrier store drain
//! (`TensorCache::drain_stores`) makes each backend's step time
//! `max(compute, non-overlapped per-tier I/O)` per stage, so on the
//! paper testbed the dram, tiered and ssd backends report *different*
//! step times ordered by their links — and slowing a link can only ever
//! slow the step. When bandwidth is ample the barrier costs nothing and
//! the step collapses back to the compute-bound time, bit-identically
//! across link speeds.

use ssdtrain::{OffloadClass, PlacementStrategy};
use ssdtrain_models::{Arch, ModelConfig};
use ssdtrain_simhw::SystemConfig;
use ssdtrain_train::{OffloadBackend, SessionConfig, StepMetrics, TrainSession};

/// The bench model (BERT H8192 L4, TP=2): deep enough that the testbed's
/// links expose a store drain at the stage barriers.
fn paper_model() -> ModelConfig {
    ModelConfig::paper_scale(Arch::Bert, 8192, 4).with_tp(2)
}

fn run_on(backend: OffloadBackend, system: SystemConfig) -> StepMetrics {
    let cfg = SessionConfig::builder()
        .system(system)
        .model(paper_model())
        .batch_size(16)
        .strategy(PlacementStrategy::Offload)
        .symbolic(true)
        .seed(42)
        .backend(backend)
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

#[test]
fn step_times_are_ordered_by_link_speed() {
    let ssd = run(OffloadBackend::Ssd);
    let dram = run(OffloadBackend::Dram);
    // A front tier sized to hold part of one step's activations: the
    // rest spills to the (slower) array, landing the drain between the
    // two single-tier extremes.
    let tiered = run(OffloadBackend::Tiered {
        dram_bytes: 2 << 30,
    });

    assert!(
        tiered.offload.spilled_bytes > 0,
        "the tiered run must actually split traffic across both links"
    );
    for (name, m) in [("ssd", &ssd), ("dram", &dram), ("tiered", &tiered)] {
        assert!(
            m.offload.store_stall_secs > 0.0,
            "{name}: the testbed's links are slow enough that some store \
             drain must be exposed"
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
    let fast = run(OffloadBackend::Ssd);
    let mut sys = SystemConfig::dac_testbed();
    sys.ssd_array.member.write_bps *= 0.5;
    let slow = run_on(OffloadBackend::Ssd, sys);
    assert!(
        slow.offload.store_stall_secs > fast.offload.store_stall_secs,
        "halving write bandwidth must expose more drain: {} !> {}",
        slow.offload.store_stall_secs,
        fast.offload.store_stall_secs
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
    // barrier) and equals it for a single-tier backend.
    let ssd = run(OffloadBackend::Ssd);
    let per_tier: f64 = ssd.offload.tiers.iter().map(|t| t.stall_secs).sum();
    assert!((per_tier - ssd.offload.store_stall_secs).abs() < 1e-9);

    let tiered = run(OffloadBackend::Tiered {
        dram_bytes: 2 << 30,
    });
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
fn coalesced_step(backend: OffloadBackend, system: SystemConfig) -> StepMetrics {
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
    // forward length only, so a slower link can only add held bytes:
    // per backend, the step time never falls as every offload-path link
    // slows down. Backends are not compared with each other here.
    for backend in [
        OffloadBackend::Ssd,
        OffloadBackend::Dram,
        OffloadBackend::Tiered {
            dram_bytes: 1 << 30,
        },
    ] {
        let mut prev: Option<(f64, f64)> = None;
        let mut forwarded = 0;
        for f in [8.0, 4.0, 2.0, 1.0, 0.5, 0.25] {
            let m = coalesced_step(backend, scaled_testbed(f));
            forwarded += m.offload.forwarded;
            // Group slabs are sized by what reloads, never by members the
            // hold kept resident.
            let reloaded = m
                .offload
                .class(OffloadClass::Activation)
                .map_or(0, |c| c.reloaded_bytes);
            assert!(
                m.offload.prefetch_group_bytes <= reloaded,
                "{backend:?} ×{f}: group bytes {} exceed reloads {reloaded}",
                m.offload.prefetch_group_bytes
            );
            if let Some((pf, p)) = prev {
                assert!(
                    m.step_secs >= p,
                    "{backend:?}: slowing the links ×{pf} → ×{f} sped the step up: {} < {p}",
                    m.step_secs
                );
            }
            prev = Some((f, m.step_secs));
        }
        assert!(
            forwarded > 0,
            "{backend:?}: the grid must reach the opening-window hold"
        );
    }
}
