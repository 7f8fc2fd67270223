//! End-to-end behaviour of the tensor cache on real autograd graphs:
//! numerics equivalence, memory reclaim, forwarding, deduplication,
//! parameter exclusion, stall accounting and adaptive profiling.

use ssdtrain::{
    CpuTarget, IoEngine, OffloadClass, OffloadTarget, SsdTarget, StageHint, TensorCache,
    TensorCacheConfig,
};
use ssdtrain_autograd::{ops, ExecObserver, Graph, OpCost, Phase, SavedTensorHooks, Var};
use ssdtrain_simhw::{GpuMemory, SimClock, WearMeter};
use ssdtrain_tensor::{Device, MemClass, Prng, Tensor};
use std::sync::Arc;

/// Advances the simulated clock by a fixed duration per operator, so
/// store/load jobs overlap with "compute" deterministically.
struct FixedOpTime {
    clock: SimClock,
    secs_per_op: f64,
}

impl ExecObserver for FixedOpTime {
    fn on_op(&self, _name: &str, _cost: &OpCost, _phase: Phase) {
        self.clock.advance_by(self.secs_per_op);
    }
}

struct Rig {
    dev: Device,
    graph: Graph,
    cache: Arc<TensorCache>,
    mem: Arc<GpuMemory>,
    /// Kept alive so tests can advance simulated time explicitly.
    #[allow(dead_code)]
    clock: SimClock,
}

fn rig(config: TensorCacheConfig, write_bps: f64, read_bps: f64, secs_per_op: f64) -> Rig {
    let clock = SimClock::new();
    let mem = Arc::new(GpuMemory::new(clock.clone(), 1 << 40));
    let dev = Device::cpu();
    dev.set_tracker(mem.clone());
    let io = IoEngine::new(clock.clone(), write_bps, read_bps);
    let target = Arc::new(CpuTarget::new(1 << 40));
    let cache = TensorCache::new(config, target, io, mem.clone());
    let graph = Graph::new(&dev, 7);
    cache.install(&graph);
    graph.set_observer(Arc::new(FixedOpTime {
        clock: clock.clone(),
        secs_per_op,
    }));
    Rig {
        dev,
        graph,
        cache,
        mem,
        clock,
    }
}

/// A two-module MLP forward pass under module scopes; returns the loss.
fn two_layer_forward(g: &Graph, x: &Tensor, w1: &Var, w2: &Var) -> ssdtrain_autograd::Value {
    let xv = g.constant(x.clone());
    let h1 = g.scoped("l0", || {
        let h = ops::matmul(g, &xv, &g.leaf(w1));
        ops::gelu(g, &h)
    });
    let h2 = g.scoped("l1", || {
        let h = ops::matmul(g, &h1, &g.leaf(w2));
        ops::gelu(g, &h)
    });
    ops::mean_all(g, &h2)
}

fn offload_all_config() -> TensorCacheConfig {
    TensorCacheConfig {
        min_offload_numel: 0,
        adaptive: false,
        ..TensorCacheConfig::default()
    }
}

fn run_step(r: &Rig, x: &Tensor, w1: &Var, w2: &Var) -> f32 {
    r.cache.begin_step();
    r.graph.reset_tape();
    r.graph.set_phase(Phase::Forward);
    r.cache.register_parameter(&w1.tensor());
    r.cache.register_parameter(&w2.tensor());
    let loss = two_layer_forward(&r.graph, x, w1, w2);
    r.cache.prefetch_last_module();
    let l = loss.tensor().item();
    r.graph.backward(&loss);
    r.cache.wait_io();
    l
}

fn sgd_step(vars: &[&Var], lr: f32) {
    for v in vars {
        if let Some(g) = v.grad() {
            let next = v.tensor().sub(&g.scale(lr));
            v.set_tensor(next.deep_clone_as(MemClass::Parameter));
            v.zero_grad();
        }
    }
}

fn init_weights(dev: &Device, seed: u64) -> (Tensor, Tensor, Tensor) {
    let mut rng = Prng::seed_from_u64(seed);
    let (w1, w2) = dev.with_class(MemClass::Parameter, || {
        (
            Tensor::randn([8, 8], 0.4, &mut rng, dev),
            Tensor::randn([8, 8], 0.4, &mut rng, dev),
        )
    });
    let x = Tensor::randn([4, 8], 1.0, &mut rng, dev);
    (w1, w2, x)
}

// ---------------------------------------------------------------------
// Numerics
// ---------------------------------------------------------------------

#[test]
fn offloaded_training_is_bit_identical_to_keep() {
    // Reference run: plain graph, no cache.
    let dev_ref = Device::cpu();
    let (w1t, w2t, xt) = init_weights(&dev_ref, 21);
    let w1_ref = Var::new("w1", w1t.clone());
    let w2_ref = Var::new("w2", w2t.clone());
    let mut ref_losses = Vec::new();
    for _ in 0..3 {
        let g = Graph::new(&dev_ref, 7);
        let loss = two_layer_forward(&g, &xt, &w1_ref, &w2_ref);
        ref_losses.push(loss.tensor().item());
        g.backward(&loss);
        sgd_step(&[&w1_ref, &w2_ref], 0.1);
    }

    // Offloaded run on the cache rig (slow enough that real reloads
    // happen, fast ops so stores finish before backward).
    let r = rig(offload_all_config(), 1e6, 1e6, 1.0);
    let w1 = Var::new("w1", w1t.deep_clone_as(MemClass::Parameter));
    let w2 = Var::new("w2", w2t.deep_clone_as(MemClass::Parameter));
    // Recreate x on the tracked device for identical values.
    let x = Tensor::from_vec(xt.to_vec(), [4, 8], &r.dev);
    let mut off_losses = Vec::new();
    for _ in 0..3 {
        off_losses.push(run_step(&r, &x, &w1, &w2));
        sgd_step(&[&w1, &w2], 0.1);
    }

    assert_eq!(ref_losses, off_losses, "losses must match bit-for-bit");
    assert_eq!(w1_ref.tensor().to_vec(), w1.tensor().to_vec());
    assert_eq!(w2_ref.tensor().to_vec(), w2.tensor().to_vec());
    // And the run actually exercised the offload path.
    let stats = r.cache.stats();
    assert!(stats.store_jobs > 0, "{stats:?}");
    assert!(
        stats.sync_loads + stats.prefetches + stats.forwarded > 0,
        "{stats:?}"
    );
}

// ---------------------------------------------------------------------
// Memory
// ---------------------------------------------------------------------

#[test]
fn offloading_reduces_activation_peak() {
    // Keep run (hooks installed but nothing offloads: threshold huge).
    let keep_cfg = TensorCacheConfig {
        min_offload_numel: usize::MAX,
        ..TensorCacheConfig::default()
    };
    let rk = rig(keep_cfg, 1e9, 1e9, 0.001);
    let (w1t, w2t, xt) = init_weights(&rk.dev, 5);
    let w1 = Var::new("w1", w1t);
    let w2 = Var::new("w2", w2t);
    run_step(&rk, &xt, &w1, &w2);
    let keep_peak = rk.mem.peak_activations();

    // Offload run with ample bandwidth: stores commit quickly.
    let ro = rig(offload_all_config(), 1e12, 1e12, 0.001);
    let (w1t, w2t, xt) = init_weights(&ro.dev, 5);
    let w1 = Var::new("w1", w1t);
    let w2 = Var::new("w2", w2t);
    run_step(&ro, &xt, &w1, &w2);
    let off_peak = ro.mem.peak_activations();

    assert!(
        off_peak < keep_peak,
        "offload peak {off_peak} must be below keep peak {keep_peak}"
    );
}

#[test]
fn all_records_released_after_step() {
    let r = rig(offload_all_config(), 1e9, 1e9, 0.001);
    let (w1t, w2t, xt) = init_weights(&r.dev, 9);
    let w1 = Var::new("w1", w1t);
    let w2 = Var::new("w2", w2t);
    run_step(&r, &xt, &w1, &w2);
    r.graph.reset_tape();
    r.cache.flush();
    // The step input is still held by this test (like a dataloader
    // buffer); everything else must be gone.
    assert_eq!(r.mem.resident(MemClass::Activation), xt.bytes());
    drop(xt);
    assert_eq!(r.mem.resident(MemClass::Activation), 0);
}

// ---------------------------------------------------------------------
// Forwarding and cancellation
// ---------------------------------------------------------------------

#[test]
fn slow_stores_are_forwarded_and_queued_ones_cancelled() {
    // Glacial write bandwidth: every store is still in flight when
    // backward needs the tensor -> forwarding; queued stores cancel.
    // A job that already started carries its forwarded member on, and
    // commit writes those bytes while the tensor stays resident: per
    // tensor or coalesced, every offloaded byte is one the tier and the
    // link wrote.
    for segment in [0, 512] {
        let cfg = TensorCacheConfig {
            coalesce_segment_bytes: segment,
            ..offload_all_config()
        };
        let r = rig(cfg, 1.0, 1.0, 1e-6);
        let (w1t, w2t, xt) = init_weights(&r.dev, 13);
        let w1 = Var::new("w1", w1t);
        let w2 = Var::new("w2", w2t);
        let loss = run_step(&r, &xt, &w1, &w2);
        assert!(loss.is_finite());
        let stats = r.cache.stats();
        assert!(stats.forwarded > 0, "{stats:?}");
        // The four records fill one 512 B segment whose job starts at
        // once, so on that input nothing is left queued to cancel.
        assert_eq!(stats.cancelled_stores > 0, segment == 0, "{stats:?}");
        // Forwarding means no reload traffic for those tensors and no stall.
        assert_eq!(stats.sync_loads + stats.prefetches, 0, "{stats:?}");
        assert!(w1.grad().is_some() && w2.grad().is_some());
        r.cache.drain_stores();
        r.cache.flush();
        let stats = r.cache.stats();
        let written: u64 = stats.tiers.iter().map(|t| t.bytes_written).sum();
        assert!(stats.offloaded_bytes > 0, "segment {segment}: {stats:?}");
        assert_eq!(
            (written, r.cache.io().bytes_written()),
            (stats.offloaded_bytes, stats.offloaded_bytes),
            "segment {segment}: tier and link writes must equal the offloaded bytes"
        );
    }
}

#[test]
fn a_per_tensor_store_is_a_one_member_segment() {
    // With prefetching off there is no opening window and nothing is
    // held, so a 1-byte segment threshold seals every staged record on
    // its own: the coalesced path then runs the same 1-member segments
    // the per-tensor path submits, at any link speed.
    for (write_bps, read_bps) in [(1e3, 1e3), (1e9, 1e9), (1e5, 1e4)] {
        let run = |segment: u64| {
            let cfg = TensorCacheConfig {
                coalesce_segment_bytes: segment,
                prefetch: false,
                ..offload_all_config()
            };
            let r = rig(cfg, write_bps, read_bps, 1e-3);
            let (w1t, w2t, xt) = init_weights(&r.dev, 31);
            let w1 = Var::new("w1", w1t);
            let w2 = Var::new("w2", w2t);
            let mut steps = Vec::new();
            for _ in 0..3 {
                r.cache.begin_step();
                r.graph.reset_tape();
                r.graph.set_phase(Phase::Forward);
                r.cache.register_parameter(&w1.tensor());
                r.cache.register_parameter(&w2.tensor());
                let loss = {
                    let _forward = r.cache.stage_scope(StageHint::Forward);
                    two_layer_forward(&r.graph, &xt, &w1, &w2)
                };
                {
                    let _backward = r.cache.stage_scope(StageHint::Backward);
                    r.graph.backward(&loss);
                }
                sgd_step(&[&w1, &w2], 0.1);
                let s = r.cache.stats();
                steps.push((
                    loss.tensor().item().to_bits(),
                    r.clock.now(),
                    (s.stall_secs, s.store_stall_secs, s.store_jobs),
                    (s.forwarded, s.cancelled_stores),
                    (s.offloaded_bytes, s.reloaded_bytes),
                    (r.mem.peak_activations(), r.mem.peak_total()),
                ));
            }
            steps
        };
        assert_eq!(run(0), run(1), "links {write_bps}/{read_bps} B/s");
    }
}

#[test]
fn forwarding_a_queued_segment_member_reseals_the_segment() {
    // Two 2-member segments seal at the threshold; the second queues
    // behind the first on a slow link. Consuming one of its members
    // before the drain forwards it from memory: the queued segment is
    // re-sealed without that member, so its bytes leave the store
    // account and every offloaded byte is one the tier wrote.
    let cfg = TensorCacheConfig {
        coalesce_segment_bytes: 512,
        ..offload_all_config()
    };
    let r = rig(cfg, 1e3, 1e9, 0.0);
    r.cache.begin_step();
    let packed: Vec<_> = (0..4)
        .map(|i| {
            let t = Tensor::from_vec(vec![i as f32; 64], [8, 8], &r.dev);
            r.cache.pack(&t)
        })
        .collect();
    assert_eq!(r.cache.stats().coalesce_segments, 2);
    let t = r.cache.unpack(&packed[2]);
    assert_eq!(t.to_vec(), vec![2.0; 64], "forwarded from memory");
    drop(t);
    let stats = r.cache.stats();
    assert_eq!((stats.forwarded, stats.cancelled_stores), (1, 1));
    assert_eq!(stats.store_jobs, 2, "the remaining member rides a new job");
    assert_eq!(stats.offloaded_bytes, 3 * 256);
    r.cache.drain_stores();
    r.cache.flush();
    let stats = r.cache.stats();
    let written: u64 = stats.tiers.iter().map(|t| t.bytes_written).sum();
    assert_eq!(written, stats.offloaded_bytes);
    assert_eq!(r.cache.io().bytes_written(), stats.offloaded_bytes);
}

#[test]
fn the_opening_window_stays_in_memory_once_a_step_forecasts_it() {
    // Per-module prefetch of depth 1: the backward's opening window is
    // `l1`'s two saved activations. Segments seal at three records, so
    // the first window record would share a segment with `l0`'s records
    // unless the boundary seals the open segment first. On the first step
    // (no forecast) only the still-staged window record is withdrawn at
    // the forward exit; from the second step the whole window is.
    let cfg = TensorCacheConfig {
        coalesce_segment_bytes: 3 * 128,
        prefetch_depth: 1,
        ..offload_all_config()
    };
    let r = rig(cfg, 1e9, 1e9, 1e-3);
    let (w1t, w2t, xt) = init_weights(&r.dev, 29);
    let w1 = Var::new("w1", w1t);
    let w2 = Var::new("w2", w2t);
    let mut forwarded = Vec::new();
    for _ in 0..3 {
        r.cache.begin_step();
        r.graph.reset_tape();
        r.graph.set_phase(Phase::Forward);
        r.cache.register_parameter(&w1.tensor());
        r.cache.register_parameter(&w2.tensor());
        let loss = {
            let _forward = r.cache.stage_scope(StageHint::Forward);
            two_layer_forward(&r.graph, &xt, &w1, &w2)
        };
        r.cache.prefetch_last_module();
        r.graph.backward(&loss);
        r.cache.wait_io();
        let stats = r.cache.stats();
        forwarded.push((stats.forwarded_bytes, stats.offloaded_bytes));
    }
    assert_eq!(forwarded, vec![(128, 384), (256, 256), (256, 256)]);
}

#[test]
fn a_started_store_that_lands_in_time_is_reloaded_not_forwarded() {
    // 128 B stores at 64 kB/s take 2 ms each and queue FIFO behind one
    // another while the forward runs at 1 ms per op: when the prefetch
    // arrives the last module's stores are still writing, but they land
    // and read back (1 GB/s) long before the backward's forecast end.
    // A started one is reloaded once it lands; only a store still queued
    // is forwarded, and it is cancelled, so every offloaded byte is read
    // back. The input batch, which the test itself holds, stays resident
    // like a parameter.
    let r = rig(offload_all_config(), 64e3, 1e9, 1e-3);
    let (w1t, w2t, xt) = init_weights(&r.dev, 37);
    let w1 = Var::new("w1", w1t);
    let w2 = Var::new("w2", w2t);
    r.cache.register_parameter(&xt);
    let loss = run_step(&r, &xt, &w1, &w2);
    assert!(loss.is_finite());
    let stats = r.cache.stats();
    assert!(stats.prefetches > 0, "{stats:?}");
    assert_eq!(stats.forwarded, stats.cancelled_stores, "{stats:?}");
    let act = stats
        .class(OffloadClass::Activation)
        .expect("activation lane");
    assert!(act.offloaded_bytes > 0, "{stats:?}");
    assert_eq!(act.offloaded_bytes, act.reloaded_bytes, "{stats:?}");
}

#[test]
fn a_reload_reads_only_after_its_store_lands() {
    // A state slot commits when its job is submitted, so it is offloaded
    // while the job still writes: 256 B at 1 kB/s lands at 0.256 s.
    // Reading it straight back starts at the landing, not now: the
    // 0.256 s read ends at 0.512 s.
    let r = rig(offload_all_config(), 1e3, 1e3, 0.0);
    r.cache.begin_step();
    let t = Tensor::from_vec(vec![1.5; 64], [8, 8], &r.dev);
    let slot = r
        .cache
        .offload_state(&t, OffloadClass::OptimizerState)
        .expect("state offloaded");
    let landed = r.cache.state_available_at(slot).expect("store submitted");
    assert!((landed.as_secs() - 0.256).abs() < 1e-12, "{landed:?}");
    let ready = r.cache.load_state(slot).expect("known slot");
    assert!((ready.as_secs() - 0.512).abs() < 1e-12, "{ready:?}");
    assert_eq!(t.to_vec(), vec![1.5; 64]);
}

#[test]
fn forwarding_disabled_exposes_store_latency() {
    let cfg = TensorCacheConfig {
        forwarding: false,
        cancel_forwarded_stores: false,
        prefetch: false,
        ..offload_all_config()
    };
    let r = rig(cfg, 100.0, 100.0, 1e-6);
    let (w1t, w2t, xt) = init_weights(&r.dev, 17);
    let w1 = Var::new("w1", w1t);
    let w2 = Var::new("w2", w2t);
    run_step(&r, &xt, &w1, &w2);
    let stats = r.cache.stats();
    assert!(stats.stall_secs > 0.0, "{stats:?}");
    assert_eq!(stats.forwarded, 0);
    assert!(stats.sync_loads > 0, "{stats:?}");
}

// ---------------------------------------------------------------------
// Deduplication and parameter exclusion
// ---------------------------------------------------------------------

#[test]
fn duplicate_saves_deduplicate_to_one_store() {
    let r = rig(offload_all_config(), 1e9, 1e9, 0.0);
    let x = Tensor::from_vec(vec![1.0; 64], [8, 8], &r.dev);
    r.cache.begin_step();
    r.graph.set_phase(Phase::Forward);
    let xv = r.graph.constant(x);
    // `mul` saves both inputs; using the same value twice saves the same
    // tensor identity twice.
    let y = r.graph.scoped("m", || ops::mul(&r.graph, &xv, &xv));
    let loss = ops::sum_all(&r.graph, &y);
    let stats_before = r.cache.stats();
    assert_eq!(stats_before.store_jobs, 1, "{stats_before:?}");
    assert_eq!(stats_before.dedup_hits, 1, "{stats_before:?}");
    r.graph.backward(&loss);
}

#[test]
fn dedup_disabled_stores_twice() {
    let cfg = TensorCacheConfig {
        dedup: false,
        ..offload_all_config()
    };
    let r = rig(cfg, 1e9, 1e9, 0.0);
    let x = Tensor::from_vec(vec![1.0; 64], [8, 8], &r.dev);
    r.cache.begin_step();
    r.graph.set_phase(Phase::Forward);
    let xv = r.graph.constant(x);
    let y = r.graph.scoped("m", || ops::mul(&r.graph, &xv, &xv));
    let _loss = ops::sum_all(&r.graph, &y);
    assert_eq!(r.cache.stats().store_jobs, 2);
    let _ = y;
}

#[test]
fn parameters_and_their_transposes_are_never_offloaded() {
    let r = rig(offload_all_config(), 1e9, 1e9, 0.0);
    let (w1t, _w2t, xt) = init_weights(&r.dev, 23);
    let w1 = Var::new("w1", w1t);
    r.cache.begin_step();
    r.cache.register_parameter(&w1.tensor());
    r.graph.set_phase(Phase::Forward);
    let xv = r.graph.constant(xt);
    // matmul saves x and w; w must be excluded, x offloaded.
    let y = r
        .graph
        .scoped("m", || ops::matmul(&r.graph, &xv, &r.graph.leaf(&w1)));
    let loss = ops::mean_all(&r.graph, &y);
    let stats = r.cache.stats();
    assert_eq!(stats.store_jobs, 1, "only the input offloads: {stats:?}");
    r.graph.backward(&loss);
    assert!(w1.grad().is_some());
}

// ---------------------------------------------------------------------
// Small-tensor threshold and backward-phase saves
// ---------------------------------------------------------------------

#[test]
fn small_tensors_stay_resident() {
    // Default threshold is 2^20 elements; a 64-element tensor stays.
    let r = rig(TensorCacheConfig::default(), 1e9, 1e9, 0.0);
    let (w1t, w2t, xt) = init_weights(&r.dev, 29);
    let w1 = Var::new("w1", w1t);
    let w2 = Var::new("w2", w2t);
    run_step(&r, &xt, &w1, &w2);
    let stats = r.cache.stats();
    assert_eq!(stats.store_jobs, 0, "{stats:?}");
    assert_eq!(stats.offloaded_bytes, 0);
}

// ---------------------------------------------------------------------
// Profiling and the adaptive plan
// ---------------------------------------------------------------------

#[test]
fn profiling_step_builds_module_profile_and_plan() {
    let r = rig(
        TensorCacheConfig {
            min_offload_numel: 0,
            ..TensorCacheConfig::default()
        },
        1e9,
        1e9,
        0.001,
    );
    let (w1t, w2t, xt) = init_weights(&r.dev, 31);
    let w1 = Var::new("w1", w1t);
    let w2 = Var::new("w2", w2t);
    r.cache.begin_profile_step();
    r.graph.set_phase(Phase::Forward);
    r.cache.register_parameter(&w1.tensor());
    r.cache.register_parameter(&w2.tensor());
    let loss = two_layer_forward(&r.graph, &xt, &w1, &w2);
    let (profile, plan) = r.cache.end_profile_step();
    r.graph.backward(&loss);

    assert_eq!(profile.modules.len(), 2);
    assert_eq!(profile.modules[0].path, "l0");
    assert_eq!(profile.modules[1].path, "l1");
    assert!(profile.modules.iter().all(|m| m.offload_bytes > 0));
    assert!(profile.modules.iter().all(|m| m.fwd_secs > 0.0));
    assert!(profile.fwd_total_secs > 0.0);
    // Ample bandwidth: the plan keeps (at least) the last module.
    assert!(plan.keeps("l1"));
    assert!(!plan.keeps("l0"));
}

#[test]
fn kept_modules_do_not_offload_after_planning() {
    let r = rig(
        TensorCacheConfig {
            min_offload_numel: 0,
            ..TensorCacheConfig::default()
        },
        1e9,
        1e9,
        0.001,
    );
    let (w1t, w2t, xt) = init_weights(&r.dev, 37);
    let w1 = Var::new("w1", w1t);
    let w2 = Var::new("w2", w2t);
    // Profile step.
    r.cache.begin_profile_step();
    r.graph.set_phase(Phase::Forward);
    r.cache.register_parameter(&w1.tensor());
    r.cache.register_parameter(&w2.tensor());
    let loss = two_layer_forward(&r.graph, &xt, &w1, &w2);
    let _ = r.cache.end_profile_step();
    r.graph.backward(&loss);
    r.graph.reset_tape();

    // Planned step: module l1 is kept, so only l0's two tensors store.
    let profile_jobs = {
        run_step(&r, &xt, &w1, &w2);
        r.cache.stats()
    };
    assert!(profile_jobs.kept > 0, "{profile_jobs:?}");
    assert_eq!(profile_jobs.store_jobs, 2, "{profile_jobs:?}");
}

// ---------------------------------------------------------------------
// Symbolic execution
// ---------------------------------------------------------------------

#[test]
fn symbolic_offload_accounts_identical_bytes_with_f32_widths() {
    // Numeric rig.
    let rn = rig(offload_all_config(), 1e9, 1e9, 0.001);
    let (w1t, w2t, xt) = init_weights(&rn.dev, 41);
    let w1 = Var::new("w1", w1t);
    let w2 = Var::new("w2", w2t);
    run_step(&rn, &xt, &w1, &w2);
    let numeric_bytes = rn.cache.stats().offloaded_bytes;

    // Symbolic rig with the same shapes; force F32 accounting to match
    // the numeric device's default dtype.
    let clock = SimClock::new();
    let mem = Arc::new(GpuMemory::new(clock.clone(), 1 << 40));
    let dev = Device::symbolic();
    dev.set_default_dtype(ssdtrain_tensor::DType::F32);
    dev.set_tracker(mem.clone());
    let io = IoEngine::new(clock.clone(), 1e9, 1e9);
    let cache = TensorCache::new(
        offload_all_config(),
        Arc::new(CpuTarget::new(1 << 40)),
        io,
        mem.clone(),
    );
    let graph = Graph::new(&dev, 7);
    cache.install(&graph);
    graph.set_observer(Arc::new(FixedOpTime {
        clock: clock.clone(),
        secs_per_op: 0.001,
    }));
    let w1s = Var::new("w1", Tensor::zeros([8, 8], &dev));
    let w2s = Var::new("w2", Tensor::zeros([8, 8], &dev));
    let xs = Tensor::zeros([4, 8], &dev);
    cache.begin_step();
    graph.set_phase(Phase::Forward);
    cache.register_parameter(&w1s.tensor());
    cache.register_parameter(&w2s.tensor());
    let loss = two_layer_forward(&graph, &xs, &w1s, &w2s);
    cache.prefetch_last_module();
    graph.backward(&loss);
    cache.wait_io();

    assert_eq!(cache.stats().offloaded_bytes, numeric_bytes);
    assert!(w1s.grad().is_some());
}

// ---------------------------------------------------------------------
// SSD target integration (real files)
// ---------------------------------------------------------------------

#[test]
fn ssd_target_round_trips_through_real_files() {
    let dir = std::env::temp_dir().join(format!("ssdtrain-cache-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let clock = SimClock::new();
    let mem = Arc::new(GpuMemory::new(clock.clone(), 1 << 40));
    let dev = Device::cpu();
    dev.set_tracker(mem.clone());
    let io = IoEngine::new(clock.clone(), 1e6, 1e6);
    let target = Arc::new(SsdTarget::new(&dir, WearMeter::new(1e15, 1.0)).unwrap());
    let cache = TensorCache::new(offload_all_config(), target.clone(), io, mem.clone());
    let graph = Graph::new(&dev, 7);
    cache.install(&graph);
    graph.set_observer(Arc::new(FixedOpTime {
        clock: clock.clone(),
        secs_per_op: 1.0,
    }));

    let (w1t, w2t, xt) = init_weights(&dev, 43);
    let w1 = Var::new("w1", w1t);
    let w2 = Var::new("w2", w2t);
    let r = Rig {
        dev,
        graph,
        cache,
        mem,
        clock,
    };
    let loss = run_step(&r, &xt, &w1, &w2);
    assert!(loss.is_finite());
    let t: &Arc<SsdTarget> = &target;
    assert!(t.bytes_written() > 0, "wear metered");
    assert!(w1.grad().is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Scheduler stage hints (Algorithm 1)
// ---------------------------------------------------------------------

#[test]
fn stage_scopes_drive_microbatch_switch_and_prefetch() {
    use ssdtrain::{StageHint, TraceCategory, TraceSink};

    let r = rig(offload_all_config(), 1e9, 1e9, 0.001);
    let sink = TraceSink::enabled();
    r.cache.set_trace(sink.clone());
    let (w1t, w2t, xt) = init_weights(&r.dev, 51);
    let w1 = Var::new("w1", w1t);
    let w2 = Var::new("w2", w2t);

    r.cache.begin_step();
    r.graph.set_phase(Phase::Forward);
    r.cache.register_parameter(&w1.tensor());
    r.cache.register_parameter(&w2.tensor());

    // Entering a micro-batch-load scope switches the record set
    // (Algorithm 1 line 9).
    drop(r.cache.stage_scope(StageHint::MicroBatchLoad(3)));
    r.graph.set_micro_batch(3);

    let fwd = r.cache.stage_scope(StageHint::Forward);
    let loss = two_layer_forward(&r.graph, &xt, &w1, &w2);

    // Advance past every store's completion so prefetches issue reads.
    r.clock.advance_by(10.0);

    // Lines 10-13: announcing an upcoming backward pass prefetches.
    let before = r.cache.stats().prefetches;
    fwd.announce_next(StageHint::Backward);
    assert!(
        r.cache.stats().prefetches > before,
        "announce_next(Backward) must prefetch the tail module"
    );
    drop(fwd);

    {
        let _bwd = r.cache.stage_scope(StageHint::Backward);
        r.graph.backward(&loss);
        // Line 15 runs on drop: waiting after a backward stage is a
        // no-op here (all loads consumed) but must not panic or stall.
    }

    // Every completed scope left a stage span on the trace.
    let stages: Vec<String> = sink
        .events()
        .iter()
        .filter(|e| e.cat == TraceCategory::Stage)
        .map(|e| e.name.clone())
        .collect();
    assert_eq!(
        stages,
        vec!["stage.load_mb3", "stage.forward", "stage.backward"]
    );
}

#[test]
fn stage_scopes_cover_the_algorithm1_shim_semantics() {
    use ssdtrain::StageHint;

    let r = rig(offload_all_config(), 1e9, 1e9, 0.001);
    let (w1t, w2t, xt) = init_weights(&r.dev, 51);
    let w1 = Var::new("w1", w1t);
    let w2 = Var::new("w2", w2t);

    r.cache.begin_step();
    r.graph.set_phase(Phase::Forward);
    r.cache.register_parameter(&w1.tensor());
    r.cache.register_parameter(&w2.tensor());

    // Algorithm 1 line 9: a micro-batch load switches the record set on
    // scope entry.
    let loss = {
        let _load = r.cache.stage_scope(StageHint::MicroBatchLoad(3));
        r.graph.set_micro_batch(3);
        two_layer_forward(&r.graph, &xt, &w1, &w2)
    };

    // Advance past every store's completion so prefetches issue reads.
    r.clock.advance_by(10.0);

    // Lines 10-13: announcing an upcoming backward prefetches the tail.
    let forward = r.cache.stage_scope(StageHint::Forward);
    let before = r.cache.stats().prefetches;
    forward.announce_next(StageHint::Backward);
    assert!(
        r.cache.stats().prefetches > before,
        "announce_next(Backward) must prefetch the tail module"
    );
    // Dropping a non-backward scope never triggers the I/O wait.
    drop(forward);

    // Line 15: leaving a backward scope drains I/O — a no-op here (all
    // loads consumed) but it must not panic or stall.
    let backward = r.cache.stage_scope(StageHint::Backward);
    r.graph.backward(&loss);
    let t = r.clock.now();
    drop(backward);
    assert_eq!(r.clock.now().as_secs(), t.as_secs());

    // Optimizer announcements are accepted and do nothing.
    let opt = r.cache.stage_scope(StageHint::Forward);
    opt.announce_next(StageHint::Optimizer);
}
