//! The tensor cache (paper Section 3.2, Algorithms 1–2, Figure 6).
//!
//! The cache registers itself as the autograd engine's saved-tensor hooks
//! and module hooks. When an operator saves an activation, `pack`
//! decides — parameter? small? kept module? backward phase? — and either
//! leaves the tensor on the graph or replaces it with an opaque record id
//! while a store job streams the bytes to the offload target. `unpack`
//! resolves ids back, *forwarding* tensors whose store is still in
//! flight and blocking (simulated-clock stall) on reloads that have not
//! arrived — that stall is exactly the exposed I/O latency the paper
//! evaluates (Q1).
//!
//! Memory-accounting subtlety: an offloaded tensor's GPU memory is freed
//! *when its store completes*, which is in the simulated future at the
//! time we learn it. The cache therefore defers the release and stamps
//! the free event with the store's completion time
//! ([`ssdtrain_simhw::GpuMemory::with_time`]); a tensor that ends up
//! forwarded was never actually released, and no event is emitted.

use crate::adaptive::{AdaptivePlan, ModuleProfile, StepProfile};
use crate::coalesce::{SealedSegment, SegmentEntry, WriteCoalescer};
use crate::config::{RecoveryPolicy, TensorCacheConfig};
use crate::costmodel::{CostModel, TierPlan};
use crate::error::OffloadError;
use crate::id::{storage_stamp, tensor_key, TensorKey};
use crate::io::{IoEngine, JobId};
use crate::placement::{OffloadClass, Placement, PlacementPolicy, PlacementQuery};
use crate::stats::OffloadStats;
use crate::target::{BatchItem, OffloadTarget};
use crate::tier::{TierId, TierPlacement, TierStack};
use parking_lot::Mutex;
use ssdtrain_autograd::{ModuleHooks, Packed, Phase, SavedTensorHooks, ScopeInfo};
use ssdtrain_simhw::{ArenaStats, BufferArena, GpuMemory, PinnedSlab, SimTime};
use ssdtrain_tensor::Tensor;
use ssdtrain_trace::{ArgValue, TraceCategory, TraceSink};
use std::collections::{HashMap, HashSet};
use std::io;
use std::sync::Arc;

type RecordId = u64;

/// The stage kinds the scheduler announces to the cache (the `cmd`
/// argument of the paper's `tc.set_stage`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageHint {
    /// A micro-batch is being loaded (switches the cache's records).
    MicroBatchLoad(usize),
    /// A forward pass.
    Forward,
    /// A backward pass.
    Backward,
    /// A communication/boundary stage (gradient reduction etc.).
    Communication,
    /// The optimizer update.
    Optimizer,
}

impl StageHint {
    /// The span name a [`StageScope`] emits for this stage.
    pub fn trace_label(self) -> String {
        match self {
            StageHint::MicroBatchLoad(mb) => format!("stage.load_mb{mb}"),
            StageHint::Forward => "stage.forward".to_owned(),
            StageHint::Backward => "stage.backward".to_owned(),
            StageHint::Communication => "stage.comm".to_owned(),
            StageHint::Optimizer => "stage.optimizer".to_owned(),
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum RecState {
    /// In GPU memory (loaded back or forwarded).
    Resident,
    /// Staged in the write coalescer's open segment for its (tier,
    /// class); no store job exists yet and the data is still resident.
    /// Consuming a staged record evicts it from the segment — forwarding
    /// that never even queued a job.
    Staged,
    /// Store in flight; data still resident (release deferred).
    Storing { job: JobId },
    /// On the offload target; GPU memory already freed (at the store's
    /// completion time).
    Offloaded,
    /// Reload in flight; resident from `ready` on.
    Loading { ready: SimTime },
}

/// How long a record stays in the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lifetime {
    /// Activations: released by backward consumption or the end-of-step
    /// flush.
    Step,
    /// Gradients and optimizer state: survive `flush` and `begin_step`
    /// until [`TensorCache::release_state`]. State has no forwarding
    /// path, so a store commits as soon as its job is submitted (its
    /// per-tensor job at admission, its segment's job at seal) and no
    /// job id outlives the step's I/O queues.
    Persistent,
}

impl Lifetime {
    /// Activations are step-scoped; every state class is persistent.
    fn of(class: OffloadClass) -> Lifetime {
        match class {
            OffloadClass::Activation => Lifetime::Step,
            OffloadClass::Gradient | OffloadClass::OptimizerState => Lifetime::Persistent,
        }
    }
}

/// The trace tag on `class`'s store-account events (`store.enqueue`,
/// `store.cancel`, `recovery.*`), so the trace's byte identity splits
/// per class. Activation events, the default class, stay untagged.
fn class_tag(class: OffloadClass) -> Option<(&'static str, &'static str)> {
    (class != OffloadClass::Activation).then(|| ("class", class.label()))
}

struct Record {
    key: TensorKey,
    tensor: Tensor,
    bytes: u64,
    class: OffloadClass,
    lifetime: Lifetime,
    state: RecState,
    scopes: HashSet<u64>,
    /// The tier holding (or about to hold) the bytes; demotion moves it.
    tier: TierId,
    /// The sealed segment carrying this record's store, when the bytes
    /// ride a coalesced job rather than a per-tensor one.
    seg: Option<u64>,
    /// Pinned staging slab the bytes occupy while a store is staged or
    /// in flight; released exactly once when the staging retires.
    slab: Option<PinnedSlab>,
    /// When the committed store's job ends — the bytes' earliest legal
    /// read. Reset at `begin_step`: the previous step's drains landed
    /// every store before the clock restarted.
    landed: SimTime,
    /// Admitted by a module the previous step's opening prefetch window
    /// covered (see [`WindowForecast`]): a staged member of a segment
    /// that may be held rather than submitted.
    window: bool,
}

/// A sealed segment whose store job is in flight: the per-segment index
/// that lets commit and recovery keep member identity (one failed
/// segment degrades per [`RecoveryPolicy`], not per tensor).
struct SegmentState {
    job: JobId,
    tier: TierId,
    class: OffloadClass,
    entries: Vec<SegmentEntry>,
}

/// Opaque handle to an offloaded state tensor (a gradient or optimizer
/// state slot created by [`TensorCache::offload_state`]): the id of a
/// persistent record. Unlike activation records, state slots survive
/// step boundaries: optimizer state lives across steps and is reloaded
/// by the next step's optimizer jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StateSlot(RecordId);

#[derive(Default)]
struct ScopeMeta {
    path: String,
    /// Position in its micro-batch's forward order.
    pos: usize,
    records: Vec<RecordId>,
    enter: SimTime,
    fwd_secs: f64,
    offload_bytes: u64,
    /// Simulated link occupancy of this module's store jobs.
    store_secs: f64,
    /// Simulated link occupancy of this module's reloads.
    load_secs: f64,
}

/// What the previous step's forward of one micro-batch predicts about
/// this one (the coalesced path's opening-window hold, DESIGN §10).
struct WindowForecast {
    /// Forward-order positions of the modules the backward's opening
    /// prefetch covered ([`TensorCache::opening_window`]).
    positions: HashSet<usize>,
    /// The forward stage's length up to its exit, before the store drain.
    fwd_secs: f64,
}

struct Inner {
    records: HashMap<RecordId, Record>,
    by_key: HashMap<TensorKey, RecordId>,
    next_id: RecordId,
    param_stamps: HashSet<u64>,
    /// Innermost-first stack of open forward scopes (seq ids).
    stack: Vec<u64>,
    scopes: HashMap<u64, ScopeMeta>,
    /// Forward order of scope seqs per micro-batch.
    forward_order: HashMap<usize, Vec<u64>>,
    current_mb: usize,
    phase: Phase,
    profiling: bool,
    fwd_start: SimTime,
    fwd_secs: f64,
    /// Sealed segments whose coalesced store jobs are in flight,
    /// committed (written through [`crate::TierStack::write_segment`])
    /// or recovered as a unit; removal marks the segment committed.
    segments: HashMap<u64, SegmentState>,
    /// Groups already prefetched this step (group double-buffering must
    /// never load a group twice).
    groups_loaded: HashSet<(usize, usize)>,
    /// Pinned staging slab per in-flight prefetch group; released when
    /// backward consumption moves past the group.
    group_slabs: HashMap<(usize, usize), PinnedSlab>,
    /// When the current forward stage began.
    fwd_stage_enter: SimTime,
    /// What this step's forward exits observed, per micro-batch: the
    /// next step's forecast.
    next_forecast: HashMap<usize, WindowForecast>,
    /// The previous step's windows, per micro-batch; empty on the first
    /// step, so nothing is held then.
    forecast: HashMap<usize, WindowForecast>,
}

impl Default for Inner {
    fn default() -> Self {
        Inner {
            records: HashMap::new(),
            by_key: HashMap::new(),
            next_id: 0,
            param_stamps: HashSet::new(),
            stack: Vec::new(),
            scopes: HashMap::new(),
            forward_order: HashMap::new(),
            current_mb: 0,
            phase: Phase::Forward,
            profiling: false,
            fwd_start: SimTime::ZERO,
            fwd_secs: 0.0,
            segments: HashMap::new(),
            groups_loaded: HashSet::new(),
            group_slabs: HashMap::new(),
            fwd_stage_enter: SimTime::ZERO,
            next_forecast: HashMap::new(),
            forecast: HashMap::new(),
        }
    }
}

/// The SSDTrain tensor cache.
///
/// One instance serves one (simulated) GPU. Register it on a graph with
/// [`TensorCache::install`].
///
/// # Failure handling
///
/// Offload-target failures (a vanished spill directory, an exhausted
/// host pool, an injected fault) do **not** panic: store failures are
/// recovered per the configured [`RecoveryPolicy`] — the tensor stays
/// resident, optionally re-routed to a fallback target — and load
/// failures are retried and then surfaced as a structured
/// [`OffloadError`] via [`TensorCache::take_error`] at the end of the
/// step. The only remaining hook panic is unpacking an opaque value
/// after its records were released, which is an engine-integration bug
/// rather than a recoverable condition.
///
/// ```
/// use ssdtrain::{CpuTarget, IoEngine, TensorCache, TensorCacheConfig};
/// use ssdtrain_autograd::{ops, Graph, Var};
/// use ssdtrain_simhw::{GpuMemory, SimClock};
/// use ssdtrain_tensor::{Device, Tensor};
/// use std::sync::Arc;
///
/// let clock = SimClock::new();
/// let mem = Arc::new(GpuMemory::new(clock.clone(), 1 << 30));
/// let dev = Device::cpu();
/// dev.set_tracker(mem.clone());
/// let io = IoEngine::new(clock, 1e9, 1e9);
/// let cache = TensorCache::new(
///     TensorCacheConfig::offload_everything(),
///     Arc::new(CpuTarget::new(1 << 30)),
///     io,
///     mem,
/// );
/// let graph = Graph::new(&dev, 1);
/// cache.install(&graph);
/// // Saved activations now flow through the cache; training is
/// // numerically unchanged while their memory is reclaimable.
/// let w = Var::new("w", Tensor::from_vec(vec![2.0], [1, 1], &dev));
/// let x = graph.constant(Tensor::from_vec(vec![3.0], [1, 1], &dev));
/// let y = ops::matmul(&graph, &x, &graph.leaf(&w));
/// let loss = ops::mean_all(&graph, &y);
/// graph.backward(&loss);
/// assert_eq!(w.grad().unwrap().to_vec(), vec![3.0]);
/// assert!(cache.stats().store_jobs > 0);
/// ```
pub struct TensorCache {
    config: TensorCacheConfig,
    placement: PlacementPolicy,
    tiers: Arc<TierStack>,
    io: IoEngine,
    mem: Arc<GpuMemory>,
    /// Pinned host staging arena every offloaded byte passes through —
    /// store staging slabs and group-prefetch landing buffers alike.
    arena: BufferArena,
    /// The write coalescer between `pack` and the per-tier store queues
    /// (inert when [`TensorCacheConfig::coalesce_segment_bytes`] is 0).
    /// Lock order: `inner` before `coalescer`, never the reverse.
    coalescer: Mutex<WriteCoalescer>,
    inner: Mutex<Inner>,
    /// The arena's cumulative counters at the last `begin_step`; the
    /// per-step stats report deltas against it.
    arena_base: Mutex<ArenaStats>,
    stats: Mutex<OffloadStats>,
    plan: Mutex<AdaptivePlan>,
    tier_plan: Mutex<TierPlan>,
    /// Per-link stage-barrier stall time this step (see
    /// [`TensorCache::drain_stores`]); indexed by I/O link.
    link_stalls: Mutex<Vec<f64>>,
    pending_error: Mutex<Option<OffloadError>>,
    trace: Mutex<TraceSink>,
}

impl TensorCache {
    /// Creates a cache over a single offload target and its I/O engine —
    /// the flat shape, expressed as a one-tier [`TierStack`]
    /// ([`TierStack::single`]); behavior is identical to the pre-tier
    /// design.
    pub fn new(
        config: TensorCacheConfig,
        target: Arc<dyn OffloadTarget>,
        io: IoEngine,
        mem: Arc<GpuMemory>,
    ) -> Arc<TensorCache> {
        TensorCache::with_tiers(config, Arc::new(TierStack::single(target)), io, mem)
    }

    /// Creates a cache over an ordered tier stack; each tier's transfers
    /// are priced on its [`crate::Tier::link`] of `io` (so build the
    /// engine with [`IoEngine::tiered`] and matching link indices).
    pub fn with_tiers(
        config: TensorCacheConfig,
        tiers: Arc<TierStack>,
        io: IoEngine,
        mem: Arc<GpuMemory>,
    ) -> Arc<TensorCache> {
        let placement = PlacementPolicy::from_config(&config);
        let coalescer = Mutex::new(WriteCoalescer::new(config.coalesce_segment_bytes));
        Arc::new(TensorCache {
            config,
            placement,
            tiers,
            io,
            mem,
            arena: BufferArena::new(),
            coalescer,
            inner: Mutex::new(Inner::default()),
            arena_base: Mutex::new(ArenaStats::default()),
            stats: Mutex::new(OffloadStats::default()),
            plan: Mutex::new(AdaptivePlan::default()),
            tier_plan: Mutex::new(TierPlan::default()),
            link_stalls: Mutex::new(Vec::new()),
            pending_error: Mutex::new(None),
            trace: Mutex::new(TraceSink::disabled()),
        })
    }

    /// Routes this cache's tensor-lifecycle events into `sink` and wires
    /// the shared [`IoEngine`] to the same sink, so stores, loads,
    /// prefetches, dedup hits, forwarding, stalls, stage spans and
    /// recovery actions all land on one timeline.
    pub fn set_trace(&self, sink: TraceSink) {
        self.io.set_trace(sink.clone());
        *self.trace.lock() = sink;
    }

    fn trace(&self) -> TraceSink {
        self.trace.lock().clone()
    }

    /// Installs the secondary target [`RecoveryPolicy::FallbackTarget`]
    /// re-routes refused stores to (typically a [`crate::CpuTarget`]
    /// pinned pool) — expressed as a demotion-only tier appended to the
    /// stack; its loads travel the front tier's simulated link, exactly
    /// as the flat design priced fallback reads.
    pub fn set_fallback_target(&self, target: Arc<dyn OffloadTarget>) {
        self.tiers.push_demotion(target);
    }

    /// Takes the first offload failure recovery could not absorb this
    /// step, if any. The training loop calls this at the step boundary;
    /// under [`RecoveryPolicy::FailStep`] a store failure lands here,
    /// and a permanently failed load lands here under every policy.
    pub fn take_error(&self) -> Option<OffloadError> {
        self.pending_error.lock().take()
    }

    /// Registers this cache's hook pairs on `graph` — the
    /// `configure_tensor_cache` of the paper's Algorithm 1.
    pub fn install(self: &Arc<Self>, graph: &ssdtrain_autograd::Graph) {
        graph.set_saved_tensor_hooks(self.clone());
        graph.add_module_hooks(self.clone());
    }

    /// Excludes a parameter (any view of its storage) from offloading
    /// (Algorithm 1 lines 3–4). Linear-layer weight transposes share the
    /// storage stamp, so they are covered automatically (Section 3.3.1).
    pub fn register_parameter(&self, t: &Tensor) {
        let stamp = storage_stamp(t);
        self.inner.lock().param_stamps.insert(stamp);
    }

    /// The I/O engine (for end-of-step queries).
    pub fn io(&self) -> &IoEngine {
        &self.io
    }

    /// The tier stack (placement capacities, per-tier counters).
    pub fn tiers(&self) -> &Arc<TierStack> {
        &self.tiers
    }

    /// The front tier's offload target (the single device in flat
    /// configurations).
    pub fn target(&self) -> Arc<dyn OffloadTarget> {
        self.tiers.front_device()
    }

    /// Snapshot of this step's statistics, per-tier counters included.
    /// Tier timing (stage-barrier stalls, link busy time) is overlaid
    /// from the I/O engine so the snapshot and the trace agree.
    pub fn stats(&self) -> OffloadStats {
        let mut stats = self.stats.lock().clone();
        let arena = self.arena.stats();
        let base = *self.arena_base.lock();
        stats.arena_acquired_bytes = arena.acquired_bytes - base.acquired_bytes;
        stats.arena_released_bytes = arena.released_bytes - base.released_bytes;
        stats.arena_high_water_bytes = arena.high_water_bytes;
        stats.arena_footprint_bytes = arena.footprint_bytes;
        stats.arena_slab_reuses = arena.slab_reuses;
        stats.tiers = self.tiers.counters();
        let stalls = self.link_stalls.lock();
        for (tier, counters) in self.tiers.tier_ids().iter().zip(stats.tiers.iter_mut()) {
            let link = self.tiers.link(*tier);
            counters.stall_secs = stalls.get(link).copied().unwrap_or(0.0);
            counters.write_busy_secs = self.io.write_busy_secs_on(link);
            counters.read_busy_secs = self.io.read_busy_secs_on(link);
        }
        stats
    }

    /// A [`CostModel`] over this cache's links and tiers as currently
    /// priced — what the planner and the capacity bench use to price
    /// state load/store jobs without replaying them.
    pub fn cost_model(&self) -> CostModel {
        CostModel::from_parts(&self.io, &self.tiers)
            .with_segment_bytes(self.config.coalesce_segment_bytes)
    }

    /// The pinned staging arena (high-water and reuse telemetry).
    pub fn arena(&self) -> &BufferArena {
        &self.arena
    }

    /// The write coalescer's conservation counters for this step.
    pub fn coalesce_counts(&self) -> crate::coalesce::CoalesceCounts {
        self.coalescer.lock().counts()
    }

    /// The adaptive plan currently applied.
    pub fn plan(&self) -> AdaptivePlan {
        self.plan.lock().clone()
    }

    /// Overrides the adaptive plan (tests, ablations).
    pub fn set_plan(&self, plan: AdaptivePlan) {
        *self.plan.lock() = plan;
    }

    /// The profile-guided tier plan currently applied (empty until a
    /// profiling step ran with [`TensorCacheConfig::profile_guided`]).
    pub fn tier_plan(&self) -> TierPlan {
        self.tier_plan.lock().clone()
    }

    // ------------------------------------------------------------------
    // Step lifecycle and scheduler hints (Algorithm 1)
    // ------------------------------------------------------------------

    /// Starts a measured step: clears per-step structures, the I/O job
    /// queues and statistics. Call after the runtime's clock was reset.
    /// Under [`TensorCacheConfig::profile_guided`] the previous step's
    /// observed timings re-derive the tier plan first, so placement
    /// tracks the workload step over step.
    pub fn begin_step(&self) {
        self.replan_from_last_step();
        self.flush();
        // Leftover records were just flushed against the old queues; new
        // jobs must not queue behind the previous step's transfers.
        self.io.reset();
        // The flush sealed and committed every staged byte; a fresh step
        // starts with fresh conservation counters and a high-water mark
        // tracking only the slabs that survived the boundary.
        *self.coalescer.lock() = WriteCoalescer::new(self.config.coalesce_segment_bytes);
        self.arena.begin_step();
        *self.arena_base.lock() = self.arena.stats();
        let mut inner = self.inner.lock();
        inner.forecast = std::mem::take(&mut inner.next_forecast);
        inner.stack.clear();
        inner.scopes.clear();
        inner.forward_order.clear();
        inner.segments.clear();
        inner.groups_loaded.clear();
        for rec in inner.records.values_mut() {
            rec.landed = SimTime::ZERO;
        }
        inner.phase = Phase::Forward;
        inner.fwd_start = self.io.clock().now();
        inner.fwd_stage_enter = inner.fwd_start;
        inner.fwd_secs = 0.0;
        *self.stats.lock() = OffloadStats::default();
        self.link_stalls.lock().clear();
        self.tiers.reset_counters();
        // Failures during the flush above belong to the step that
        // already reported; the new step starts clean.
        *self.pending_error.lock() = None;
    }

    /// Enables profiling for the next step: every eligible tensor is
    /// offloaded regardless of plan, and per-module transfer sizes and
    /// compute times are collected (Section 3.3.3).
    pub fn begin_profile_step(&self) {
        self.begin_step();
        self.inner.lock().profiling = true;
    }

    /// Ends a profiling step: builds the [`StepProfile`], derives the
    /// adaptive plan (when enabled) and applies it to subsequent steps.
    /// Under [`TensorCacheConfig::profile_guided`] the same profile also
    /// drives the [`CostModel`] tier planner.
    pub fn end_profile_step(&self) -> (StepProfile, AdaptivePlan) {
        let profile = {
            let mut inner = self.inner.lock();
            inner.profiling = false;
            if inner.fwd_secs == 0.0 {
                // Called at the forward/backward boundary before the
                // phase switch was observed.
                inner.fwd_secs = self.io.clock().now().since(inner.fwd_start);
            }
            self.build_profile(&inner)
        };
        let plan = self.replan(&profile);
        (profile, plan)
    }

    /// Builds a [`StepProfile`] from the current step's scope metadata
    /// (shared by [`TensorCache::end_profile_step`] and the between-step
    /// re-plan).
    fn build_profile(&self, inner: &Inner) -> StepProfile {
        let fwd_total_secs = if inner.fwd_secs == 0.0 {
            self.io.clock().now().since(inner.fwd_start)
        } else {
            inner.fwd_secs
        };
        let order = inner
            .forward_order
            .get(&inner.current_mb)
            .cloned()
            .unwrap_or_default();
        let modules: Vec<ModuleProfile> = order
            .iter()
            .filter_map(|seq| {
                let meta = inner.scopes.get(seq)?;
                if meta.records.is_empty() {
                    return None;
                }
                Some(ModuleProfile {
                    path: meta.path.clone(),
                    offload_bytes: meta.offload_bytes,
                    fwd_secs: meta.fwd_secs,
                    store_secs: meta.store_secs,
                    load_secs: meta.load_secs,
                })
            })
            .collect();
        StepProfile {
            modules,
            fwd_total_secs,
            fwd_io_bytes: self.io.bytes_written(),
            fwd_io_secs: self.io.write_busy_secs(),
        }
    }

    /// Derives and applies the plans for `profile`: the adaptive ROK
    /// cutoff always, plus the cost-model tier assignment when
    /// [`TensorCacheConfig::profile_guided`] is set. The adaptive budget
    /// is the [`CostModel`]'s effective write bandwidth of the byte
    /// split the stack would actually produce — bus-serialised when a
    /// shared write bus is configured — rather than a single link's
    /// rated figure.
    fn replan(&self, profile: &StepProfile) -> AdaptivePlan {
        let plan = if self.config.adaptive {
            let cost = CostModel::from_parts(&self.io, &self.tiers)
                .with_segment_bytes(self.config.coalesce_segment_bytes);
            if self.config.profile_guided && !cost.tiers().is_empty() {
                let tier_plan = cost.plan(profile, self.config.bwd_fwd_ratio);
                let plan = AdaptivePlan::decide_with_cost(
                    profile,
                    &cost,
                    &tier_plan,
                    self.config.bwd_fwd_ratio,
                );
                self.trace().instant_with(
                    TraceCategory::Tier,
                    "tier.replan",
                    self.io.clock().now(),
                    vec![
                        (
                            "modeled_step_secs",
                            ArgValue::F64(tier_plan.modeled_step_secs),
                        ),
                        (
                            "baseline_step_secs",
                            ArgValue::F64(tier_plan.baseline_step_secs),
                        ),
                    ],
                );
                *self.tier_plan.lock() = tier_plan;
                plan
            } else {
                let split = cost.split_for(profile, &cost.front_first_assignment(profile));
                AdaptivePlan::decide(
                    profile,
                    cost.effective_write_bps(&split),
                    self.config.bwd_fwd_ratio,
                )
            }
        } else {
            let paths: Vec<String> = profile.modules.iter().map(|m| m.path.clone()).collect();
            AdaptivePlan::keep_last_only(&paths)
        };
        *self.plan.lock() = plan.clone();
        plan
    }

    /// Re-derives the plans from the step that just finished (scope
    /// metadata still holds its observed timings when this runs at the
    /// top of [`TensorCache::begin_step`]). Only active under
    /// [`TensorCacheConfig::profile_guided`]; a profiling step keeps its
    /// explicit [`TensorCache::end_profile_step`] flow.
    fn replan_from_last_step(&self) {
        if !(self.config.adaptive && self.config.profile_guided) {
            return;
        }
        let profile = {
            let inner = self.inner.lock();
            if inner.profiling || inner.scopes.is_empty() {
                return;
            }
            self.build_profile(&inner)
        };
        if profile.modules.is_empty() {
            return;
        }
        self.replan(&profile);
    }

    /// The forward-order positions of up to `depth` record-holding
    /// modules before position `pos`, nearest first.
    fn modules_before(inner: &Inner, mb: usize, pos: usize, depth: usize) -> Vec<usize> {
        let Some(order) = inner.forward_order.get(&mb) else {
            return Vec::new();
        };
        (0..pos.min(order.len()))
            .rev()
            .filter(|p| {
                inner
                    .scopes
                    .get(&order[*p])
                    .is_some_and(|m| !m.records.is_empty())
            })
            .take(depth)
            .collect()
    }

    /// The records of the modules at forward-order `positions`, in order.
    fn module_records(inner: &Inner, mb: usize, positions: &[usize]) -> Vec<RecordId> {
        let Some(order) = inner.forward_order.get(&mb) else {
            return Vec::new();
        };
        positions
            .iter()
            .filter_map(|p| inner.scopes.get(&order[*p]))
            .flat_map(|m| m.records.iter().copied())
            .collect()
    }

    /// The backward's *opening window*: the forward-order positions, last
    /// first, of the modules [`TensorCache::prefetch_last_module`] issues
    /// — every module of the last `prefetch_depth` groups in group mode,
    /// else the last `prefetch_depth` record-holding modules. Empty with
    /// prefetching off. The coalesced path keeps these records in memory
    /// instead of writing them and reading them straight back.
    fn opening_window(&self, inner: &Inner, mb: usize) -> Vec<usize> {
        let len = inner.forward_order.get(&mb).map_or(0, Vec::len);
        let depth = self.config.prefetch_depth.max(1);
        let g = self.config.prefetch_group_modules;
        if !self.config.prefetch || len == 0 {
            return Vec::new();
        }
        if g == 0 {
            return Self::modules_before(inner, mb, len, depth);
        }
        let groups = (len - 1) / g + 1;
        let first = groups.saturating_sub(depth) * g;
        (first..len).rev().collect()
    }

    /// Whether prefetching record `rec` at `now` reloads its bytes (a
    /// store still in flight is forwarded instead; staged and resident
    /// records never left memory).
    fn will_reload(&self, rec: &Record, now: SimTime) -> bool {
        match rec.state {
            RecState::Offloaded => true,
            RecState::Storing { job } => now >= self.io.store_end(job),
            _ => false,
        }
    }

    /// The record ids of prefetch group `gidx` — the modules at
    /// forward-order positions `[gidx·G, (gidx+1)·G)` for `G =
    /// prefetch_group_modules` — and the bytes of those a prefetch at
    /// `now` actually reloads.
    fn group_records(
        &self,
        inner: &Inner,
        mb: usize,
        gidx: usize,
        now: SimTime,
    ) -> (Vec<RecordId>, u64) {
        let Some(order) = inner.forward_order.get(&mb) else {
            return (Vec::new(), 0);
        };
        let g = self.config.prefetch_group_modules.max(1);
        let start = gidx.saturating_mul(g);
        if start >= order.len() {
            return (Vec::new(), 0);
        }
        let end = start.saturating_add(g).min(order.len());
        let mut ids = Vec::new();
        let mut bytes = 0u64;
        for seq in &order[start..end] {
            let Some(meta) = inner.scopes.get(seq) else {
                continue;
            };
            for id in &meta.records {
                if !ids.contains(id) {
                    ids.push(*id);
                    bytes += inner
                        .records
                        .get(id)
                        .filter(|r| self.will_reload(r, now))
                        .map_or(0, |r| r.bytes);
                }
            }
        }
        (ids, bytes)
    }

    /// Issues prefetch group `gidx` of micro-batch `mb` onto a fresh
    /// arena staging slab sized to the bytes it reloads — at most once
    /// per step (the double buffer must never load a group twice;
    /// re-requests are no-ops). A group with nothing to reload only
    /// settles its members and is not counted.
    fn prefetch_group(&self, mb: usize, gidx: usize) {
        if !self.config.prefetch {
            return;
        }
        let now = self.io.clock().now();
        let (ids, bytes) = {
            let mut inner = self.inner.lock();
            if !inner.groups_loaded.insert((mb, gidx)) {
                return;
            }
            let (ids, bytes) = self.group_records(&inner, mb, gidx, now);
            if bytes == 0 {
                drop(inner);
                self.prefetch_records(&ids);
                return;
            }
            if let Some(slab) = self.arena.acquire(bytes) {
                self.trace()
                    .instant_bytes(TraceCategory::Arena, "arena.acquire", now, bytes);
                inner.group_slabs.insert((mb, gidx), slab);
            }
            (ids, bytes)
        };
        let mut stats = self.stats.lock();
        stats.prefetch_groups += 1;
        stats.prefetch_group_bytes += bytes;
        drop(stats);
        self.trace().instant_with(
            TraceCategory::Prefetch,
            "prefetch.group",
            now,
            vec![
                ("group", ArgValue::U64(gidx as u64)),
                ("bytes", ArgValue::U64(bytes)),
            ],
        );
        self.prefetch_records(&ids);
    }

    /// Enters `stage` and returns an RAII guard covering it: the
    /// Algorithm 1 line 9 entry actions (`tc.set_stage(cmd)`) run now,
    /// the line 15 exit actions (`tc.stage_done(cmd)`, draining I/O
    /// after backward) run when the guard drops, and the guard emits the
    /// stage's span into the trace. This replaces the manual
    /// `set_stage`/`stage_done` call pairs, which could be forgotten or
    /// mismatched.
    ///
    /// ```
    /// # use ssdtrain::{CpuTarget, IoEngine, StageHint, TensorCache, TensorCacheConfig};
    /// # use ssdtrain_simhw::{GpuMemory, SimClock};
    /// # use std::sync::Arc;
    /// # let clock = SimClock::new();
    /// # let mem = Arc::new(GpuMemory::new(clock.clone(), 1 << 30));
    /// # let io = IoEngine::new(clock, 1e9, 1e9);
    /// # let cache = TensorCache::new(
    /// #     TensorCacheConfig::offload_everything(),
    /// #     Arc::new(CpuTarget::new(1 << 30)),
    /// #     io,
    /// #     mem,
    /// # );
    /// {
    ///     let scope = cache.stage_scope(StageHint::Forward);
    ///     scope.announce_next(StageHint::Backward); // prefetch overlaps the tail
    ///     // ... run the stage ...
    /// } // exit actions + trace span happen here
    /// ```
    pub fn stage_scope(&self, stage: StageHint) -> StageScope<'_> {
        self.enter_stage(stage);
        StageScope {
            cache: self,
            stage,
            enter: self.io.clock().now(),
        }
    }

    fn enter_stage(&self, stage: StageHint) {
        match stage {
            StageHint::MicroBatchLoad(mb) => self.set_micro_batch(mb),
            StageHint::Forward => self.inner.lock().fwd_stage_enter = self.io.clock().now(),
            _ => {}
        }
    }

    fn exit_stage(&self, stage: StageHint) {
        match stage {
            StageHint::Forward => self.withdraw_opening_window(),
            StageHint::Backward => self.wait_io(),
            _ => {}
        }
        self.drain_stores();
        if matches!(stage, StageHint::Optimizer) {
            self.emit_tier_io();
        }
    }

    /// Stage-barrier store drain: the next stage cannot begin while
    /// store queues are still writing, so the simulated clock advances
    /// to the last submitted store's completion. The exposed time — the
    /// drain minus whatever compute already covered it — lands in
    /// [`OffloadStats::store_stall_secs`] and, per link, in the tier
    /// counters' `stall_secs`, with a `tier.drain.<link>` span
    /// ([`TraceCategory::Tier`]) over each link's exposed window. A
    /// fully-overlapped stage drains for free: no time passes, no span
    /// or counter is emitted, and the step is byte-identical to the
    /// pre-barrier behaviour.
    ///
    /// This is what makes backends with different [`crate::TierLink`]
    /// speeds report different step times: the write direction's
    /// critical-path contribution is `max(compute, store drain)` per
    /// stage instead of compute alone.
    pub fn drain_stores(&self) {
        // A stage barrier flushes the pipeline: partial segments seal
        // and submit before the drain is measured, so no staged byte
        // outlives the stage that produced it.
        self.seal_open_segments();
        let now0 = self.io.clock().now();
        let links = self.io.link_count();
        let mut drains = Vec::with_capacity(links);
        let mut latest = now0;
        for link in 0..links {
            let d = self.io.writes_drain_at_on(link);
            latest = latest.max(d);
            drains.push(d);
        }
        let stall = self.io.clock().advance_to(latest);
        if stall <= 0.0 {
            return;
        }
        self.stats.lock().store_stall_secs += stall;
        let trace = self.trace();
        let mut per_link = self.link_stalls.lock();
        if per_link.len() < links {
            per_link.resize(links, 0.0);
        }
        for (link, drain) in drains.iter().enumerate() {
            let exposed = drain.since(now0);
            if exposed > 0.0 {
                per_link[link] += exposed;
                trace.span(
                    TraceCategory::Tier,
                    // ssdtrain-lint: allow(no-alloc-hot-loop): per-link drain
                    // label, bounded by link count, built only on a stall
                    format!("tier.drain.{}", self.io.link_name(link)),
                    now0,
                    *drain,
                );
            }
        }
    }

    /// The forward exit on the coalesced path: records the window and the
    /// forward stage's length (the next step's forecast) and withdraws every
    /// opening-window record still staged — held or in an open segment —
    /// instead of letting the drain seal it. Each is forwarded from
    /// memory: its store is cancelled before any job carried it, so
    /// backward has nothing to reload. Whether a member is still staged
    /// here depends only on the forward order and the seal-time hold
    /// decision, never on which jobs happened to start.
    fn withdraw_opening_window(&self) {
        if self.config.coalesce_segment_bytes == 0 {
            return;
        }
        let mut inner = self.inner.lock();
        let mb = inner.current_mb;
        let window = self.opening_window(&inner, mb);
        let forecast = WindowForecast {
            positions: window.iter().copied().collect(),
            fwd_secs: self.io.clock().now().since(inner.fwd_stage_enter),
        };
        inner.next_forecast.insert(mb, forecast);
        for id in Self::module_records(&inner, mb, &window) {
            if matches!(
                inner.records.get(&id).map(|r| r.state),
                Some(RecState::Staged)
            ) {
                self.evict_staged(&mut inner, id, true);
            }
        }
    }

    /// Emits one `tier.io.<name>` instant per tier and one
    /// `class.io.<label>` instant per [`OffloadClass`] that saw traffic
    /// this step (at the optimizer stage's exit, i.e. the end of the
    /// step), carrying byte counts — the trace-side mirror of the
    /// [`OffloadStats`] tier and class counters.
    fn emit_tier_io(&self) {
        let trace = self.trace();
        if !trace.is_enabled() {
            return;
        }
        let now = self.io.clock().now();
        for c in self.stats.lock().classes.iter() {
            if c.offloaded_bytes == 0 && c.reloaded_bytes == 0 {
                continue;
            }
            trace.instant_with(
                TraceCategory::Tier,
                // ssdtrain-lint: allow(no-alloc-hot-loop): once-per-step class
                // summary, bounded by class count, gated on trace enablement
                format!("class.io.{}", c.class),
                now,
                // ssdtrain-lint: allow(no-alloc-hot-loop): once-per-step class
                // summary, bounded by class count, gated on trace enablement
                vec![
                    ("offloaded_bytes", ArgValue::U64(c.offloaded_bytes)),
                    ("reloaded_bytes", ArgValue::U64(c.reloaded_bytes)),
                    ("stores", ArgValue::U64(c.stores)),
                    ("loads", ArgValue::U64(c.loads)),
                ],
            );
        }
        let stalls = self.link_stalls.lock().clone();
        for (tier, counters) in self.tiers.tier_ids().iter().zip(self.tiers.counters()) {
            if counters.bytes_written == 0 && counters.bytes_read == 0 {
                continue;
            }
            let link = self.tiers.link(*tier);
            trace.instant_with(
                TraceCategory::Tier,
                // ssdtrain-lint: allow(no-alloc-hot-loop): once-per-step tier
                // summary, bounded by tier count, gated on trace enablement
                format!("tier.io.{}", counters.name),
                now,
                // ssdtrain-lint: allow(no-alloc-hot-loop): once-per-step tier
                // summary, bounded by tier count, gated on trace enablement
                vec![
                    ("bytes_written", ArgValue::U64(counters.bytes_written)),
                    ("bytes_read", ArgValue::U64(counters.bytes_read)),
                    (
                        "write_busy_secs",
                        ArgValue::F64(self.io.write_busy_secs_on(link)),
                    ),
                    (
                        "read_busy_secs",
                        ArgValue::F64(self.io.read_busy_secs_on(link)),
                    ),
                    (
                        "stall_secs",
                        ArgValue::F64(stalls.get(link).copied().unwrap_or(0.0)),
                    ),
                ],
            );
        }
    }

    /// Scheduler hint (Algorithm 1 line 13): the step is about to switch
    /// to backward propagation — prefetch the tail modules' activations.
    /// In group mode ([`TensorCacheConfig::prefetch_group_modules`]) the
    /// last `prefetch_depth` groups are issued instead, filling both
    /// halves of the double buffer before backward starts consuming.
    pub fn prefetch_last_module(&self) {
        let (mb, window, ids) = {
            let inner = self.inner.lock();
            let mb = inner.current_mb;
            let window = self.opening_window(&inner, mb);
            let ids = Self::module_records(&inner, mb, &window);
            (mb, window, ids)
        };
        let g = self.config.prefetch_group_modules;
        if g == 0 {
            self.prefetch_records(&ids);
            return;
        }
        let mut groups: Vec<usize> = window.iter().map(|p| p / g).collect();
        groups.dedup();
        for gidx in groups {
            // ssdtrain-lint: allow(no-alloc-hot-loop): issuing a group
            // prefetch submits the group's reloads — the data path
            self.prefetch_group(mb, gidx);
        }
    }

    /// Scheduler hint (Algorithm 1 line 15): block until in-flight
    /// reloads complete.
    pub fn wait_io(&self) {
        let latest = {
            let inner = self.inner.lock();
            inner
                .records
                .values()
                .filter_map(|r| match r.state {
                    RecState::Loading { ready } => Some(ready),
                    _ => None,
                })
                .fold(SimTime::ZERO, SimTime::max)
        };
        let stall = self.io.clock().advance_to(latest);
        self.stats.lock().stall_secs += stall;
        if stall > 0.0 {
            self.trace().span(
                TraceCategory::Stall,
                "stall.drain",
                latest.plus_secs(-stall),
                latest,
            );
        }
    }

    /// Micro-batch switch hint (Figure 4 ③): subsequent scopes belong to
    /// micro-batch `mb` and the cache switches to its record set.
    pub fn set_micro_batch(&self, mb: usize) {
        self.inner.lock().current_mb = mb;
    }

    /// Releases every remaining step-scoped record (end of step); stores
    /// still in flight commit at their completion times. Persistent
    /// records stay.
    pub fn flush(&self) {
        self.seal_open_segments();
        let ids: Vec<RecordId> = self
            .inner
            .lock()
            .records
            .iter()
            .filter(|(_, r)| r.lifetime == Lifetime::Step)
            .map(|(id, _)| *id)
            .collect();
        for id in ids {
            // ssdtrain-lint: allow(no-alloc-hot-loop): releasing a record
            // serialises and writes its payload — the buffer is the offload
            self.release_record(id);
        }
        let mut inner = self.inner.lock();
        inner.by_key.clear();
        inner
            .records
            .retain(|_, r| r.lifetime == Lifetime::Persistent);
        inner.segments.clear();
        inner.groups_loaded.clear();
        let slabs: Vec<PinnedSlab> = inner.group_slabs.drain().map(|(_, s)| s).collect();
        drop(inner);
        let now = self.io.clock().now();
        let trace = self.trace();
        for slab in slabs {
            let len = slab.len;
            if self.arena.release(slab) {
                trace.instant_bytes(TraceCategory::Arena, "arena.release", now, len);
            }
        }
    }

    // ------------------------------------------------------------------
    // State offload (gradients, optimizer state)
    // ------------------------------------------------------------------

    /// Offloads a state tensor (gradient or optimizer state) through the
    /// same placement → tier → coalescer → I/O path activations use, as a
    /// persistent record. Returns the slot handle, or `None` when the
    /// tensor stays resident — placement keep, full tiers, or a failed
    /// write absorbed by recovery.
    ///
    /// The store job rides the admitting tier's [`crate::TierLink`] (and
    /// the shared write bus, when configured) — with
    /// [`TensorCacheConfig::coalesce_segment_bytes`] set, as part of a
    /// segment of its class, sealed at the size threshold, the next
    /// stage drain or the slot's first read. The bytes cross to the tier
    /// when the job is submitted, and the tensor's GPU memory is freed at
    /// the job's simulated completion. A failed write is recovered per
    /// the configured [`RecoveryPolicy`] exactly like an activation's
    /// (under [`RecoveryPolicy::FailStep`] the error also lands in
    /// [`TensorCache::take_error`]); a tensor kept resident by a failed
    /// per-tensor write gets no slot, one in a failed segment stays
    /// resident behind its slot.
    pub fn offload_state(&self, tensor: &Tensor, class: OffloadClass) -> Option<StateSlot> {
        let query = PlacementQuery {
            class,
            is_parameter: false,
            numel: tensor.numel(),
            in_backward: false,
            module_kept: false,
        };
        if self.placement_keeps(&query) {
            return None;
        }
        let bytes = tensor.bytes();
        let Some(placement) = self.tiers.reserve(bytes) else {
            self.refuse_full(bytes);
            return None;
        };
        let mut inner = self.inner.lock();
        let (id, _) = self.admit(
            &mut inner,
            tensor,
            tensor_key(tensor),
            placement,
            class,
            HashSet::new(),
        );
        let rec = inner.records.get(&id)?;
        if rec.seg.is_some() || !matches!(rec.state, RecState::Resident) {
            return Some(StateSlot(id));
        }
        // Its own write failed and recovery kept the tensor: like a keep,
        // it gets no slot, no store job and its reservation returns now.
        let rec = inner.records.remove(&id)?;
        drop(inner);
        self.tiers.remove(rec.tier, &rec.key, rec.bytes);
        let mut stats = self.stats.lock();
        stats.store_jobs -= 1;
        stats.class_mut(rec.class).stores -= 1;
        None
    }

    /// Reloads an offloaded state slot's bytes back into its tensor and
    /// returns the simulated time the load completes. The caller decides
    /// what to do with that time — the unoverlapped optimizer stalls on
    /// it, the overlap engine compares it against the next forward's
    /// arrival. A slot still staged seals its segment first; the ready
    /// time is clamped to the end of the job that carried the bytes, so
    /// state is never read before its store landed. A slot already
    /// resident returns `now`; an unknown slot returns `None`.
    pub fn load_state(&self, slot: StateSlot) -> Option<SimTime> {
        let id = slot.0;
        let mut inner = self.inner.lock();
        let rec = inner
            .records
            .get(&id)
            .filter(|r| r.lifetime == Lifetime::Persistent)?;
        if let RecState::Staged = rec.state {
            let sealed = self.coalescer.lock().seal(rec.tier, rec.class);
            if let Some(seg) = sealed {
                self.seal_segment(&mut inner, seg, false);
            }
        }
        let rec = inner.records.get_mut(&id)?;
        if !matches!(rec.state, RecState::Offloaded) {
            return Some(self.io.clock().now());
        }
        let link = self.tiers.link(rec.tier);
        let ready = self.io.submit_load_from(link, rec.bytes).max(rec.landed);
        self.restore_record(rec, ready);
        rec.state = RecState::Resident;
        let (bytes, class) = (rec.bytes, rec.class);
        drop(inner);
        let mut stats = self.stats.lock();
        stats.reloaded_bytes += bytes;
        let c = stats.class_mut(class);
        c.reloaded_bytes += bytes;
        c.loads += 1;
        drop(stats);
        Some(ready)
    }

    /// The simulated time `slot`'s store drains (its earliest legal
    /// read), or `None` for unknown, resident or still-staged slots (a
    /// staged slot has no job until its segment seals).
    pub fn state_available_at(&self, slot: StateSlot) -> Option<SimTime> {
        let inner = self.inner.lock();
        let rec = inner
            .records
            .get(&slot.0)
            .filter(|r| r.lifetime == Lifetime::Persistent)?;
        matches!(rec.state, RecState::Offloaded).then_some(rec.landed)
    }

    /// Drops a state slot, returning its tier reservation. Bytes still
    /// offloaded are abandoned on the tier (the optimizer overwrites
    /// state wholesale each step; there is nothing to read back).
    pub fn release_state(&self, slot: StateSlot) {
        let mut inner = self.inner.lock();
        let Some(rec) = inner
            .records
            .get(&slot.0)
            .filter(|r| r.lifetime == Lifetime::Persistent)
        else {
            return;
        };
        if let RecState::Staged = rec.state {
            // Released before its segment sealed: the bytes never offload.
            self.evict_staged(&mut inner, slot.0, false);
        }
        let Some(rec) = inner.records.remove(&slot.0) else {
            return;
        };
        drop(inner);
        // Dropping the cache's handle frees a resident tensor's memory if
        // it held the last reference.
        self.tiers.remove(rec.tier, &rec.key, rec.bytes);
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn innermost_kept(&self, inner: &Inner) -> bool {
        if inner.profiling {
            return false;
        }
        let Some(seq) = inner.stack.last() else {
            return false;
        };
        let path = &inner.scopes[seq].path;
        self.plan.lock().keeps(path)
    }

    /// Placement's keep decision for `query`, counted in the stats when
    /// its reason asks to be.
    fn placement_keeps(&self, query: &PlacementQuery) -> bool {
        let Placement::Keep(reason) = self.placement.decide(query) else {
            return false;
        };
        if reason.counts_in_stats() {
            self.stats.lock().kept += 1;
        }
        true
    }

    /// A full tier stack refused admission: the tensor stays resident,
    /// numerics untouched.
    fn refuse_full(&self, bytes: u64) {
        let mut stats = self.stats.lock();
        stats.kept += 1;
        stats.placement_kept_bytes += bytes;
        drop(stats);
        self.trace().instant_bytes(
            TraceCategory::Tier,
            "tier.full",
            self.io.clock().now(),
            bytes,
        );
    }

    /// The one store entry point every class shares: admits `tensor`
    /// (its bytes already reserved at `placement`) as a new record. The
    /// bytes enter the pinned staging arena; with coalescing enabled the
    /// record is *staged* into the open segment of its (tier, class) —
    /// the store job is submitted when the segment seals, so store jobs
    /// count segments, not tensors — otherwise a per-tensor store job is
    /// submitted now (Figure 4 ①). The memory release is deferred until
    /// the store commits — at once for persistent records. Returns the
    /// record id and the per-tensor job's link occupancy (zero when
    /// staged: the segment attributes it at seal time).
    fn admit(
        &self,
        inner: &mut Inner,
        tensor: &Tensor,
        key: TensorKey,
        placement: TierPlacement,
        class: OffloadClass,
        scopes: HashSet<u64>,
    ) -> (RecordId, f64) {
        let bytes = tensor.bytes();
        let lifetime = Lifetime::of(class);
        let slab = self.arena.acquire(bytes);
        let slab_acquired = slab.is_some();
        let staged = self.config.coalesce_segment_bytes > 0
            && (lifetime == Lifetime::Persistent || !inner.phase.in_backward());
        let window =
            staged && class == OffloadClass::Activation && Self::forecast_covers(inner, &scopes);
        let (state, store_secs) = if staged {
            (RecState::Staged, 0.0)
        } else {
            let job = self
                .io
                .submit_store_to(self.tiers.link(placement.tier), bytes);
            let (start, end) = self.io.store_span(job);
            (RecState::Storing { job }, end.since(start))
        };
        let id = inner.next_id;
        inner.next_id += 1;
        inner.records.insert(
            id,
            Record {
                key,
                tensor: tensor.clone(),
                bytes,
                class,
                lifetime,
                state,
                scopes,
                tier: placement.tier,
                seg: None,
                slab,
                landed: SimTime::ZERO,
                window,
            },
        );
        let mut stats = self.stats.lock();
        stats.offloaded_bytes += bytes;
        if placement.spilled {
            stats.spilled_bytes += bytes;
        }
        let c = stats.class_mut(class);
        c.offloaded_bytes += bytes;
        if !staged {
            c.stores += 1;
            stats.store_jobs += 1;
        }
        drop(stats);
        let trace = self.trace();
        let now = self.io.clock().now();
        if slab_acquired {
            trace.instant_bytes(TraceCategory::Arena, "arena.acquire", now, bytes);
        }
        trace.instant_bytes_tagged(
            TraceCategory::Store,
            "store.enqueue",
            now,
            bytes,
            class_tag(class),
        );
        if placement.spilled {
            trace.instant_with(
                TraceCategory::Tier,
                "tier.spill",
                now,
                vec![
                    ("bytes", ArgValue::U64(bytes)),
                    ("tier", ArgValue::from(self.tiers.name(placement.tier))),
                ],
            );
        }
        if staged {
            let mut coalescer = self.coalescer.lock();
            // A segment never mixes opening-window members with others:
            // the first member of the other kind seals the open segment.
            let mixes = coalescer
                .open_entries(placement.tier, class)
                .first()
                .and_then(|e| inner.records.get(&e.record))
                .is_some_and(|r| r.window != window);
            let boundary = mixes
                .then(|| coalescer.seal(placement.tier, class))
                .flatten();
            let full = coalescer.stage(placement.tier, id, bytes, class);
            drop(coalescer);
            if let Some(seg) = boundary {
                self.seal_segment(inner, seg, true);
            }
            if let Some(seg) = full {
                self.seal_segment(inner, seg, true);
            }
        } else if lifetime == Lifetime::Persistent {
            self.commit(inner, id);
        }
        (id, store_secs)
    }

    /// Whether the module admitting a record (its only scope, `scopes`)
    /// sat in the previous step's opening window of this micro-batch.
    fn forecast_covers(inner: &Inner, scopes: &HashSet<u64>) -> bool {
        let Some(forecast) = inner.forecast.get(&inner.current_mb) else {
            return false;
        };
        scopes
            .iter()
            .filter_map(|seq| inner.scopes.get(seq))
            .any(|meta| forecast.positions.contains(&meta.pos))
    }

    /// Commits record `id`'s in-flight store through whichever job
    /// carries it: its sealed segment (committing every sibling with it)
    /// or its own per-tensor job. A no-op unless the record is storing.
    fn commit(&self, inner: &mut Inner, id: RecordId) {
        let Some(rec) = inner.records.get_mut(&id) else {
            return;
        };
        match (rec.state, rec.seg) {
            (RecState::Storing { .. }, Some(seg)) => self.commit_segment(inner, seg),
            (RecState::Storing { job }, None) => self.commit_store(rec, job),
            _ => {}
        }
    }

    /// Evicts staged record `id` from its open segment. Its bytes never
    /// queued a job, so the admission-time enqueue is balanced by a
    /// cancel and the trace byte identity holds; `forwarded` marks a
    /// consumer that took the tensor from memory — forwarding that never
    /// queued a job. Returns the resident tensor.
    fn evict_staged(&self, inner: &mut Inner, id: RecordId, forwarded: bool) -> Option<Tensor> {
        let rec = inner.records.get_mut(&id)?;
        rec.state = RecState::Resident;
        let (tier, bytes, class, slab) = (rec.tier, rec.bytes, rec.class, rec.slab.take());
        let tensor = rec.tensor.clone();
        self.coalescer.lock().evict(tier, id);
        self.retire_slab(slab);
        let mut stats = self.stats.lock();
        if forwarded {
            stats.forwarded += 1;
            stats.forwarded_bytes += bytes;
        }
        stats.cancelled_stores += 1;
        stats.cancelled_bytes += bytes;
        stats.offloaded_bytes -= bytes;
        stats.coalesce_evictions += 1;
        stats.class_mut(class).offloaded_bytes -= bytes;
        drop(stats);
        let now = self.io.clock().now();
        let trace = self.trace();
        if forwarded {
            trace.instant_bytes(TraceCategory::Forwarding, "forward", now, bytes);
        }
        trace.instant_bytes_tagged(
            TraceCategory::Store,
            "store.cancel",
            now,
            bytes,
            class_tag(class),
        );
        trace.instant_bytes(TraceCategory::Coalesce, "coalesce.evict", now, bytes);
        Some(tensor)
    }

    /// Data forwarding (Section 3.3.2): record `id`, whose store `job`
    /// is still in flight, is consumed from memory and skips the reload.
    /// A store that has not started is cancelled (adaptive feature 1): a
    /// per-tensor job outright, a segment job by re-sealing the segment
    /// without this member. A started segment job carries the member's
    /// siblings on, and commit skips this member. Returns the resident
    /// tensor.
    fn forward(&self, inner: &mut Inner, id: RecordId, job: JobId, now: SimTime) -> Option<Tensor> {
        let rec = inner.records.get_mut(&id)?;
        rec.state = RecState::Resident;
        let (bytes, class, seg, slab) = (rec.bytes, rec.class, rec.seg, rec.slab.take());
        let tensor = rec.tensor.clone();
        self.retire_slab(slab);
        let (cancelled, job_gone) = match seg {
            _ if !self.config.cancel_forwarded_stores => (false, false),
            None => {
                let cancelled = self.io.try_cancel_store(job, now);
                (cancelled, cancelled)
            }
            Some(seg) => self.reseal_without(inner, seg, now),
        };
        let mut stats = self.stats.lock();
        stats.forwarded += 1;
        stats.forwarded_bytes += bytes;
        if cancelled {
            stats.cancelled_stores += 1;
            stats.cancelled_bytes += bytes;
            stats.offloaded_bytes -= bytes;
            stats.class_mut(class).offloaded_bytes -= bytes;
            if seg.is_some() {
                stats.coalesced_bytes -= bytes;
                stats.coalesce_segments -= u64::from(job_gone);
            }
        }
        if job_gone {
            stats.store_jobs -= 1;
            stats.class_mut(class).stores -= 1;
        }
        drop(stats);
        let trace = self.trace();
        trace.instant_bytes(TraceCategory::Forwarding, "forward", now, bytes);
        if cancelled {
            trace.instant_bytes_tagged(
                TraceCategory::Store,
                "store.cancel",
                now,
                bytes,
                class_tag(class),
            );
        }
        Some(tensor)
    }

    /// Re-seals segment `seg_id` without its forwarded members when its
    /// job has not started by `now`: the job is cancelled and the members
    /// still riding it are resubmitted as one job, or none when no member
    /// is left. Returns whether the forwarded member's store was
    /// cancelled and whether the segment's job went away with it.
    fn reseal_without(&self, inner: &mut Inner, seg_id: u64, now: SimTime) -> (bool, bool) {
        let Some(seg) = inner.segments.get_mut(&seg_id) else {
            return (false, false);
        };
        let old = seg.job;
        if !self.io.try_cancel_store(old, now) {
            return (false, false);
        }
        let records = &inner.records;
        seg.entries.retain(|e| {
            records
                .get(&e.record)
                .is_some_and(|r| matches!(r.state, RecState::Storing { job } if job == old))
        });
        if seg.entries.is_empty() {
            inner.segments.remove(&seg_id);
            return (true, true);
        }
        let total = seg.entries.iter().map(|e| e.bytes).sum();
        let job = self.io.submit_store_to(self.tiers.link(seg.tier), total);
        seg.job = job;
        for e in &seg.entries {
            if let Some(rec) = inner.records.get_mut(&e.record) {
                rec.state = RecState::Storing { job };
            }
        }
        (true, false)
    }

    /// Releases a staging slab back to the arena, emitting the
    /// `arena.release` instant the Arena trace lane is built from.
    fn retire_slab(&self, slab: Option<PinnedSlab>) {
        let Some(slab) = slab else { return };
        let len = slab.len;
        if self.arena.release(slab) {
            self.trace().instant_bytes(
                TraceCategory::Arena,
                "arena.release",
                self.io.clock().now(),
                len,
            );
        }
    }

    /// Seals every open segment and submits their coalesced store jobs
    /// (stage barriers and flushes call this so no staged byte outlives
    /// the stage that produced it).
    fn seal_open_segments(&self) {
        let mut inner = self.inner.lock();
        let sealed = self.coalescer.lock().seal_all();
        for seg in sealed {
            // ssdtrain-lint: allow(no-alloc-hot-loop): sealing submits the
            // segment's store job — the data path, one call per segment
            self.seal_segment(&mut inner, seg, false);
        }
    }

    /// Submits one coalesced store job for a sealed segment and flips
    /// its members `Staged` → `Storing`. One segment is one job on the
    /// tier's link ([`OffloadStats::store_jobs`] and the segment's class
    /// lane count segments, not tensors) and will be one device write
    /// operation at commit — at once for a persistent class, which has
    /// no forwarding window. The members' byte accounting stayed
    /// per-record at admission, so the trace identity `Σstore.enqueue −
    /// Σstore.cancel − recoveries == offloaded_bytes` holds unchanged
    /// through the coalesced path.
    ///
    /// With `may_hold` (a seal during the forward, not a stage barrier),
    /// a segment made only of forecast opening-window members whose
    /// write could not land before the forecast forward end is held
    /// instead: no job, its members stay staged for the forward exit to
    /// withdraw ([`TensorCache::withdraw_opening_window`]).
    fn seal_segment(&self, inner: &mut Inner, seg: SealedSegment, may_hold: bool) {
        let total = seg.total_bytes();
        if total == 0 {
            return;
        }
        let link = self.tiers.link(seg.tier);
        if may_hold && self.lands_after_forward(inner, &seg, link, total) {
            self.coalescer.lock().hold(seg);
            self.trace().instant_bytes(
                TraceCategory::Coalesce,
                "coalesce.hold",
                self.io.clock().now(),
                total,
            );
            return;
        }
        let job = self.io.submit_store_to(link, total);
        let (start, end) = self.io.store_span(job);
        let seg_secs = end.since(start);
        for e in &seg.entries {
            let scope = {
                let Some(rec) = inner.records.get_mut(&e.record) else {
                    continue;
                };
                rec.state = RecState::Storing { job };
                rec.seg = Some(seg.id);
                rec.scopes.iter().min().copied()
            };
            // Profiling sees the segment's link occupancy distributed
            // over its members proportional to their bytes.
            if let Some(s) = scope {
                if let Some(meta) = inner.scopes.get_mut(&s) {
                    meta.store_secs += seg_secs * e.bytes as f64 / total as f64;
                }
            }
        }
        let entries = seg.entries.len() as u64;
        let (id, class) = (seg.id, seg.class);
        inner.segments.insert(
            seg.id,
            SegmentState {
                job,
                tier: seg.tier,
                class: seg.class,
                entries: seg.entries,
            },
        );
        let mut stats = self.stats.lock();
        stats.store_jobs += 1;
        stats.coalesce_segments += 1;
        stats.coalesced_bytes += total;
        stats.class_mut(class).stores += 1;
        drop(stats);
        self.trace().instant_with(
            TraceCategory::Coalesce,
            "coalesce.seal",
            self.io.clock().now(),
            // ssdtrain-lint: allow(no-alloc-hot-loop): once-per-segment
            // telemetry; segments are bounded by bytes/segment_size
            vec![
                ("bytes", ArgValue::U64(total)),
                ("entries", ArgValue::U64(entries)),
            ],
        );
        if Lifetime::of(class) == Lifetime::Persistent {
            self.commit_segment(inner, id);
        }
    }

    /// Whether `seg` holds only forecast opening-window members and its
    /// write, submitted now on `link`, could not land before the forecast
    /// forward end (this forward stage's start plus the previous step's
    /// forward length). The forecast is compute-only, so a slower link
    /// can only hold more.
    fn lands_after_forward(
        &self,
        inner: &Inner,
        seg: &SealedSegment,
        link: usize,
        total: u64,
    ) -> bool {
        let Some(forecast) = inner.forecast.get(&inner.current_mb) else {
            return false;
        };
        let window_only = seg
            .entries
            .iter()
            .all(|e| inner.records.get(&e.record).is_some_and(|r| r.window));
        window_only
            && self.io.store_end_if_submitted(link, total)
                > inner.fwd_stage_enter.plus_secs(forecast.fwd_secs)
    }

    /// Commits a sealed segment: one batched device write for every
    /// member still riding the job (members forwarded after sealing are
    /// skipped — their bytes never leave memory), memory freed at the
    /// job's completion time. Idempotent: removal from the segment map
    /// marks the segment committed. A failed batch write degrades the
    /// *segment* per the configured [`RecoveryPolicy`], not per tensor.
    fn commit_segment(&self, inner: &mut Inner, seg_id: u64) {
        let Some(seg) = inner.segments.remove(&seg_id) else {
            return;
        };
        let end = self.io.store_end(seg.job);
        let mut members: Vec<(TensorKey, Option<Vec<u8>>, u64, RecordId)> =
            // ssdtrain-lint: allow(no-alloc-hot-loop): assembling the batch
            // serialises the payload being offloaded — the data path
            Vec::with_capacity(seg.entries.len());
        for e in &seg.entries {
            let Some(rec) = inner.records.get_mut(&e.record) else {
                continue;
            };
            if !matches!(rec.state, RecState::Storing { job } if job == seg.job) {
                continue;
            }
            if rec.lifetime == Lifetime::Step && rec.tensor.storage().strong_count() > 1 {
                // Live references outside the cache: like the per-tensor
                // commit, the activation simply stays resident.
                rec.state = RecState::Resident;
                let slab = rec.slab.take();
                self.retire_slab(slab);
                continue;
            }
            // The real payload crosses the filesystem at commit (wall
            // time); the simulated transfer finished at `end`.
            let data = rec.tensor.storage().to_bytes();
            members.push((rec.key.clone(), data, e.bytes, e.record));
        }
        if members.is_empty() {
            return;
        }
        let items: Vec<BatchItem<'_>> = members
            .iter()
            // ssdtrain-lint: allow(no-alloc-hot-loop): borrow view over the
            // batch being written — the data path
            .map(|(k, d, b, _)| (k, d.as_deref(), *b))
            .collect();
        match self.tiers.write_segment(seg.tier, &items) {
            Ok(()) => {
                let total: u64 = members.iter().map(|(_, _, b, _)| *b).sum();
                let (start, _) = self.io.store_span(seg.job);
                for (_, _, _, id) in &members {
                    let slab = {
                        let Some(rec) = inner.records.get_mut(id) else {
                            continue;
                        };
                        self.mem.with_time(end, || rec.tensor.storage().release());
                        rec.state = RecState::Offloaded;
                        rec.landed = end;
                        rec.slab.take()
                    };
                    self.retire_slab(slab);
                }
                self.trace()
                    .span_bytes(TraceCategory::Store, "store", start, end, total);
            }
            Err(err) => self.recover_failed_segment(inner, &seg, &members, end, err),
        }
    }

    /// Segment-level recovery: the batched write failed before any
    /// member's bytes landed ([`crate::OffloadTarget::write_batch`]
    /// unwinds partial writes), so every member is still resident and
    /// the step stays numerically exact. One failure, one policy
    /// decision — [`RecoveryPolicy::FallbackTarget`] demotes the members
    /// individually (the per-segment index keeps their identity), the
    /// keep-resident policies absorb the whole segment at once.
    fn recover_failed_segment(
        &self,
        inner: &mut Inner,
        seg: &SegmentState,
        members: &[(TensorKey, Option<Vec<u8>>, u64, RecordId)],
        end: SimTime,
        err: io::Error,
    ) {
        self.stats.lock().store_failures += 1;
        let mut fell_back = 0u64;
        let mut kept = 0u64;
        let mut fallback_dest: Option<TierId> = None;
        for (key, data, bytes, id) in members {
            let demoted = (self.config.recovery == RecoveryPolicy::FallbackTarget)
                .then(|| {
                    // ssdtrain-lint: allow(no-alloc-hot-loop): recovery slow path — demotion rewrites the failed member on the fallback device
                    self.tiers.demote(
                        seg.tier,
                        key,
                        data.as_deref(),
                        *bytes,
                        self.config.max_io_retries,
                    )
                })
                .flatten();
            let slab = {
                let Some(rec) = inner.records.get_mut(id) else {
                    continue;
                };
                match demoted {
                    Some(dest) => {
                        self.mem.with_time(end, || rec.tensor.storage().release());
                        rec.state = RecState::Offloaded;
                        rec.landed = end;
                        rec.tier = dest;
                        fell_back += bytes;
                        fallback_dest = Some(dest);
                    }
                    None => {
                        rec.state = RecState::Resident;
                        kept += bytes;
                    }
                }
                rec.slab.take()
            };
            self.retire_slab(slab);
        }
        if kept > 0 && fell_back == 0 {
            // Nothing from this segment is in flight any more; return
            // the dead job if it still sits in the queue.
            let _ = self.io.try_cancel_store(seg.job, self.io.clock().now());
        }
        let Some((key, _, _, _)) = members.first() else {
            return;
        };
        let failed = OffloadError::Store {
            key: key.clone(),
            bytes: kept,
            target: self.tiers.name(seg.tier),
            source: err,
        };
        self.book_recovery(seg.class, fell_back, fallback_dest, kept, failed);
    }

    /// Commits a completed store: memory freed at the store's end time.
    ///
    /// Mirrors Python garbage collection (paper Section 3.2): an
    /// activation's memory is reclaimable only once the cache holds the
    /// *last* reference to the storage. If model code still holds the
    /// tensor (e.g. a step input reused across steps), the record simply
    /// stays resident. Persistent state is released regardless: the
    /// optimizer's handle is restored by the reload.
    fn commit_store(&self, rec: &mut Record, job: JobId) {
        if rec.lifetime == Lifetime::Step && rec.tensor.storage().strong_count() > 1 {
            rec.state = RecState::Resident;
            let slab = rec.slab.take();
            self.retire_slab(slab);
            return;
        }
        let end = self.io.store_end(job);
        // The real payload crosses the filesystem here (wall time); the
        // simulated transfer finished at `end`.
        let data = rec.tensor.storage().to_bytes();
        match self
            .tiers
            .write(rec.tier, &rec.key, data.as_deref(), rec.bytes)
        {
            Ok(()) => {
                self.mem.with_time(end, || rec.tensor.storage().release());
                rec.state = RecState::Offloaded;
                rec.landed = end;
                let (start, end) = self.io.store_span(job);
                self.trace()
                    .span_bytes(TraceCategory::Store, "store", start, end, rec.bytes);
            }
            Err(err) => self.recover_failed_store(rec, job, err),
        }
        // Whatever the outcome, the staging buffer's job is done.
        let slab = rec.slab.take();
        self.retire_slab(slab);
    }

    /// Recovery for a store the target refused. The payload only
    /// crosses to the target at commit time, so the tensor is still in
    /// GPU memory and every [`RecoveryPolicy`] keeps the step
    /// numerically exact — the policy decides whether the failure is
    /// absorbed, re-routed to the fallback target, or surfaced as a
    /// step error.
    fn recover_failed_store(&self, rec: &mut Record, job: JobId, err: io::Error) {
        self.stats.lock().store_failures += 1;
        if self.config.recovery == RecoveryPolicy::FallbackTarget {
            let data = rec.tensor.storage().to_bytes();
            if let Some(dest) = self.tiers.demote(
                rec.tier,
                &rec.key,
                data.as_deref(),
                rec.bytes,
                self.config.max_io_retries,
            ) {
                let end = self.io.store_end(job);
                self.mem.with_time(end, || rec.tensor.storage().release());
                rec.state = RecState::Offloaded;
                rec.landed = end;
                let failed = self.store_error(rec, err);
                rec.tier = dest;
                self.book_recovery(rec.class, rec.bytes, Some(dest), 0, failed);
                return;
            }
        }
        // Keep the tensor resident (also the fallback's last resort).
        // The store job is dead weight now — cancel it if it still sits
        // in the queue, reusing the forwarding machinery.
        rec.state = RecState::Resident;
        let _ = self.io.try_cancel_store(job, self.io.clock().now());
        let failed = self.store_error(rec, err);
        self.book_recovery(rec.class, 0, None, rec.bytes, failed);
    }

    /// The step error a failed write of `rec` surfaces under
    /// [`RecoveryPolicy::FailStep`].
    fn store_error(&self, rec: &Record, source: io::Error) -> OffloadError {
        OffloadError::Store {
            key: rec.key.clone(),
            bytes: rec.bytes,
            target: self.tiers.name(rec.tier),
            source,
        }
    }

    /// The recovery epilogue both store paths share: moves `fell_back`
    /// bytes (demoted to `dest`) and `kept` bytes (left resident) of
    /// `class` out of the primary account and traces them; under
    /// [`RecoveryPolicy::FailStep`] `failed` becomes the step's error.
    fn book_recovery(
        &self,
        class: OffloadClass,
        fell_back: u64,
        dest: Option<TierId>,
        kept: u64,
        failed: OffloadError,
    ) {
        let mut stats = self.stats.lock();
        stats.offloaded_bytes -= fell_back + kept;
        stats.fallback_bytes += fell_back;
        stats.kept_resident_bytes += kept;
        stats.class_mut(class).offloaded_bytes -= fell_back + kept;
        drop(stats);
        let now = self.io.clock().now();
        let trace = self.trace();
        if let Some(dest) = dest {
            let mut args = vec![
                ("bytes", ArgValue::U64(fell_back)),
                ("target", ArgValue::from(self.tiers.name(dest))),
            ];
            args.extend(class_tag(class).map(|(k, v)| (k, ArgValue::from(v))));
            trace.instant_with(TraceCategory::Recovery, "recovery.fallback", now, args);
        }
        if kept > 0 {
            let tag = class_tag(class);
            trace.instant_bytes_tagged(
                TraceCategory::Recovery,
                "recovery.keep_resident",
                now,
                kept,
                tag,
            );
        }
        if self.config.recovery == RecoveryPolicy::FailStep {
            trace.instant(TraceCategory::Recovery, "recovery.fail_step", now);
            let mut pending = self.pending_error.lock();
            if pending.is_none() {
                *pending = Some(failed);
            }
        }
    }

    /// Reloads a record's bytes, retrying up to `max_io_retries` times.
    /// A load that still fails is unrecoverable — the activation is
    /// gone — so the tensor is restored to zeros to keep the graph
    /// executable and a structured error is queued; it surfaces at the
    /// step boundary under *every* policy.
    fn restore_record(&self, rec: &mut Record, ready: SimTime) {
        self.read_back(&rec.key, rec.tier, rec.bytes, &rec.tensor, ready);
    }

    /// Shared read-with-retries path for activation records and state
    /// slots: reloads `bytes` from `tier` into `tensor` (retrying up to
    /// `max_io_retries`), restoring zeros and queuing a structured
    /// [`OffloadError::Load`] when the data is permanently gone.
    fn read_back(
        &self,
        key: &TensorKey,
        tier: TierId,
        bytes: u64,
        tensor: &Tensor,
        ready: SimTime,
    ) {
        let mut attempts = 0u32;
        let data = loop {
            attempts += 1;
            match self.tiers.read(tier, key, bytes) {
                Ok(d) => break d,
                Err(err) if attempts > self.config.max_io_retries => {
                    let mut stats = self.stats.lock();
                    stats.load_retries += u64::from(attempts - 1);
                    drop(stats);
                    let mut pending = self.pending_error.lock();
                    if pending.is_none() {
                        *pending = Some(OffloadError::Load {
                            key: key.clone(),
                            bytes,
                            target: self.tiers.name(tier),
                            attempts,
                            source: err,
                        });
                    }
                    drop(pending);
                    self.trace().instant_with(
                        TraceCategory::Recovery,
                        "recovery.load_failed",
                        ready,
                        // ssdtrain-lint: allow(no-alloc-hot-loop): recovery
                        // path only — runs after `max_io_retries` failures
                        vec![
                            ("bytes", ArgValue::U64(bytes)),
                            ("attempts", ArgValue::U64(u64::from(attempts))),
                        ],
                    );
                    let numel = tensor.numel();
                    self.mem.with_time(ready, || {
                        // ssdtrain-lint: allow(no-alloc-hot-loop): recovery
                        // zero-fill after an unrecoverable load failure
                        tensor.storage().restore_numeric(vec![0.0; numel]);
                    });
                    return;
                }
                Err(_) => {}
            }
        };
        if attempts > 1 {
            self.stats.lock().load_retries += u64::from(attempts - 1);
            self.trace().instant_with(
                TraceCategory::Recovery,
                "recovery.load_retry",
                ready,
                // ssdtrain-lint: allow(no-alloc-hot-loop): retry-path
                // telemetry only; clean loads never build this vector
                vec![
                    ("bytes", ArgValue::U64(bytes)),
                    ("retries", ArgValue::U64(u64::from(attempts - 1))),
                ],
            );
        }
        self.mem.with_time(ready, || match data {
            Some(raw) => {
                let decoded = tensor.storage().decode_bytes(&raw);
                tensor.storage().restore_numeric(decoded);
            }
            None => tensor.storage().restore_symbolic(),
        });
    }

    fn prefetch_records(&self, ids: &[RecordId]) {
        if !self.config.prefetch {
            return;
        }
        let now = self.io.clock().now();
        let mut inner = self.inner.lock();
        for id in ids {
            match inner.records.get(id).map(|r| r.state) {
                Some(RecState::Staged) => {
                    // Prefetch reached a record whose bytes are still
                    // staged: the tensor never left memory.
                    self.evict_staged(&mut inner, *id, true);
                    continue;
                }
                Some(RecState::Storing { job }) => {
                    if now < self.io.store_end(job) {
                        // Still being stored: data forwarding at prefetch
                        // time (Section 3.3.2) keeps the in-memory
                        // reference so the store's completion never
                        // frees it.
                        self.forward(&mut inner, *id, job, now);
                        continue;
                    }
                    // ssdtrain-lint: allow(no-alloc-hot-loop): committing serialises the payload being offloaded — the data path, not bookkeeping
                    self.commit(&mut inner, *id);
                    // Immediately reload below.
                }
                Some(RecState::Offloaded) => {}
                _ => continue,
            }
            let Some(rec) = inner.records.get_mut(id) else {
                continue;
            };
            if let RecState::Offloaded = rec.state {
                self.trace().instant_bytes(
                    TraceCategory::Prefetch,
                    "prefetch.issue",
                    now,
                    rec.bytes,
                );
                let link = self.tiers.link(rec.tier);
                let busy0 = self.io.read_busy_secs_on(link);
                // ssdtrain-lint: allow(no-alloc-hot-loop): submitting the
                // reload is the data path; its bookkeeping rides the transfer
                let ready = self.io.submit_load_from(link, rec.bytes);
                let load_secs = self.io.read_busy_secs_on(link) - busy0;
                self.restore_record(rec, ready);
                rec.state = RecState::Loading { ready };
                let bytes = rec.bytes;
                let seq = rec.scopes.iter().min().copied();
                if let Some(seq) = seq {
                    if let Some(meta) = inner.scopes.get_mut(&seq) {
                        meta.load_secs += load_secs;
                    }
                }
                let mut stats = self.stats.lock();
                stats.prefetches += 1;
                stats.reloaded_bytes += bytes;
                let c = stats.class_mut(OffloadClass::Activation);
                c.reloaded_bytes += bytes;
                c.loads += 1;
            }
        }
    }

    fn release_record(&self, id: RecordId) {
        let mut inner = self.inner.lock();
        // Coalesced pre-handling, while the record is still in the map
        // (segment commit needs every member resolvable by id).
        match inner.records.get(&id).map(|r| (r.state, r.seg)) {
            None => return,
            Some((RecState::Staged, _)) => {
                // Released before its segment filled: the bytes never
                // offload (no forwarding — nothing consumed the tensor).
                self.evict_staged(&mut inner, id, false);
            }
            Some((RecState::Storing { .. }, Some(sid))) => {
                // The paper's "excessive offloading" effect on the
                // coalesced path: committing the whole segment settles
                // this member (and its siblings) before release.
                self.commit_segment(&mut inner, sid);
            }
            _ => {}
        }
        let Some(mut rec) = inner.records.remove(&id) else {
            return;
        };
        inner.by_key.remove(&rec.key);
        drop(inner);
        let now = self.io.clock().now();
        // Releasing frees memory only when the cache's reference is the
        // last one — like Python GC, a tensor the model still holds keeps
        // its memory (the storage's own drop reports the eventual free).
        let exclusive = rec.tensor.storage().strong_count() == 1;
        match rec.state {
            // Staged was evicted to Resident above; both free the bytes.
            RecState::Resident | RecState::Staged => {
                if exclusive {
                    rec.tensor.storage().release();
                }
            }
            RecState::Loading { ready } => {
                // Loaded data is reclaimed once the (simulated) load has
                // landed; releasing earlier would be double-counting.
                if exclusive {
                    self.mem
                        .with_time(ready.max(now), || rec.tensor.storage().release());
                }
            }
            RecState::Storing { job } => {
                // The paper's "excessive offloading" effect: the tensor
                // was never reused, its memory comes back only when the
                // store completes.
                self.commit_store(&mut rec, job);
                // A failed commit keeps the tensor resident; free it
                // now if the cache holds the last reference.
                if matches!(rec.state, RecState::Resident) && exclusive {
                    rec.tensor.storage().release();
                }
            }
            RecState::Offloaded => {}
        }
        // Catch-all: whatever path retired the record, its staging slab
        // must go back to the arena exactly once.
        let slab = rec.slab.take();
        self.retire_slab(slab);
        // Drop the entry wherever it lives and return the admission
        // reservation — the single release point of a record's bytes.
        self.tiers.remove(rec.tier, &rec.key, rec.bytes);
    }
}

/// RAII guard for one scheduler stage (created by
/// [`TensorCache::stage_scope`]).
///
/// Entry actions ran when the guard was created; dropping the guard runs
/// the exit actions (backward stages drain outstanding I/O) and emits
/// the stage's span (category `stage`) into the cache's trace sink,
/// closing the window between the paper's Algorithm 1 lines 9 and 15.
#[must_use = "dropping the scope immediately would end the stage before it ran"]
#[derive(Debug)]
pub struct StageScope<'c> {
    cache: &'c TensorCache,
    stage: StageHint,
    enter: SimTime,
}

impl StageScope<'_> {
    /// The stage this guard covers.
    pub fn stage(&self) -> StageHint {
        self.stage
    }

    /// Algorithm 1 lines 10–13 (`tc.set_next_stage(nxcmd)`): announces
    /// the *upcoming* stage; an upcoming backward pass prefetches the
    /// tail modules so their first reloads overlap the end of forward.
    pub fn announce_next(&self, next: StageHint) {
        if matches!(next, StageHint::Backward) {
            self.cache.prefetch_last_module();
        }
    }
}

impl Drop for StageScope<'_> {
    fn drop(&mut self) {
        self.cache.exit_stage(self.stage);
        let now = self.cache.io.clock().now();
        self.cache.trace().span(
            TraceCategory::Stage,
            self.stage.trace_label(),
            self.enter,
            now,
        );
    }
}

impl SavedTensorHooks for TensorCache {
    fn pack(&self, tensor: &Tensor) -> Packed {
        let mut inner = self.inner.lock();

        // Algorithm 2 lines 12 and 15 as a pure policy decision
        // (parameter / small / backward-phase / kept-module).
        let stamp = storage_stamp(tensor);
        let query = PlacementQuery {
            class: OffloadClass::Activation,
            is_parameter: inner.param_stamps.contains(&stamp),
            numel: tensor.numel(),
            in_backward: inner.phase.in_backward(),
            module_kept: self.innermost_kept(&inner),
        };
        if self.placement_keeps(&query) {
            return Packed::Tensor(tensor.clone());
        }

        let key = tensor_key(tensor);
        let cur_scope = inner.stack.last().copied();

        // Deduplication (Section 3.3.1).
        if self.config.dedup {
            if let Some(&id) = inner.by_key.get(&key) {
                let bytes = inner.records[&id].bytes;
                if let Some(seq) = cur_scope {
                    if let Some(rec) = inner.records.get_mut(&id) {
                        rec.scopes.insert(seq);
                    }
                    if let Some(meta) = inner.scopes.get_mut(&seq) {
                        if !meta.records.contains(&id) {
                            meta.records.push(id);
                        }
                    }
                }
                let mut stats = self.stats.lock();
                stats.dedup_hits += 1;
                stats.dedup_avoided_bytes += bytes;
                drop(stats);
                self.trace().instant_bytes(
                    TraceCategory::Dedup,
                    "dedup.hit",
                    self.io.clock().now(),
                    bytes,
                );
                return Packed::Opaque(id);
            }
        }

        // Tier admission: reserve capacity before any store job exists,
        // so a bounded front tier can never be oversubscribed by jobs
        // already in flight. A full stack refuses gracefully — the
        // tensor stays on the graph, numerics untouched. Under a
        // profile-guided tier plan the planned tier is preferred (its
        // fallback is the plain front-first walk).
        let bytes = tensor.bytes();
        let preferred = if self.config.profile_guided {
            cur_scope.and_then(|seq| {
                let path = &inner.scopes[&seq].path;
                self.tier_plan.lock().preferred(path)
            })
        } else {
            None
        };
        let placement = match preferred {
            Some(tier) => self.tiers.reserve_preferring(tier, bytes),
            None => self.tiers.reserve(bytes),
        };
        let Some(placement) = placement else {
            drop(inner);
            self.refuse_full(bytes);
            return Packed::Tensor(tensor.clone());
        };
        let scopes: HashSet<u64> = cur_scope.into_iter().collect();
        let (id, store_secs) = self.admit(
            &mut inner,
            tensor,
            key.clone(),
            placement,
            OffloadClass::Activation,
            scopes,
        );
        inner.by_key.insert(key, id);
        if let Some(seq) = cur_scope {
            if let Some(meta) = inner.scopes.get_mut(&seq) {
                meta.records.push(id);
                meta.offload_bytes += bytes;
                // A staged record's link occupancy is attributed when its
                // segment seals.
                meta.store_secs += store_secs;
            }
        }
        Packed::Opaque(id)
    }

    fn unpack(&self, packed: &Packed) -> Tensor {
        let id = match packed {
            // Algorithm 2, line 20.
            Packed::Tensor(t) => return t.clone(),
            Packed::Opaque(id) => *id,
        };
        let now = self.io.clock().now();
        let mut inner = self.inner.lock();
        // Bytes that have not landed are settled first: a staged record
        // is evicted, a storing one forwarded or committed.
        match inner.records.get(&id).map(|r| r.state) {
            Some(RecState::Staged) => {
                // The bytes never queued a job, so eviction is free
                // forwarding regardless of `config.forwarding`.
                if let Some(t) = self.evict_staged(&mut inner, id, true) {
                    return t;
                }
            }
            Some(RecState::Storing { job }) => {
                let end = self.io.store_end(job);
                if self.config.forwarding && now < end {
                    if let Some(t) = self.forward(&mut inner, id, job, now) {
                        return t;
                    }
                }
                if now < end {
                    // Forwarding disabled: the load cannot begin until
                    // the store finishes.
                    // ssdtrain-lint: allow(lock-discipline): the record must commit under the same guard right after the drain; the simulation is single-threaded, so the hold cannot block a peer
                    let stall = self.io.clock().advance_to(end);
                    self.stats.lock().stall_secs += stall;
                    if stall > 0.0 {
                        self.trace().span(
                            TraceCategory::Stall,
                            "stall.store_drain",
                            end.plus_secs(-stall),
                            end,
                        );
                    }
                }
                // Offloaded now (reload below) or resident (commit found
                // live references, or recovery kept it).
                self.commit(&mut inner, id);
            }
            _ => {}
        }
        let rec = inner
            .records
            .get_mut(&id)
            .unwrap_or_else(|| panic!("unpack of unknown record {id}")); // ssdtrain-lint: allow(panic-free-hot-path): unpack of an unregistered id is an engine-integration bug, not a recoverable runtime failure
        match rec.state {
            // Staged and storing records were settled above; whatever
            // remains is resident-equivalent.
            RecState::Resident | RecState::Staged | RecState::Storing { .. } => rec.tensor.clone(),
            RecState::Offloaded => {
                let link = self.tiers.link(rec.tier);
                let busy0 = self.io.read_busy_secs_on(link);
                // ssdtrain-lint: allow(no-alloc-hot-loop): submitting the
                // reload is the data path; its bookkeeping rides the transfer
                let ready = self.io.submit_load_from(link, rec.bytes);
                let load_secs = self.io.read_busy_secs_on(link) - busy0;
                self.restore_record(rec, ready);
                rec.state = RecState::Resident;
                let bytes = rec.bytes;
                let t = rec.tensor.clone();
                let seq = rec.scopes.iter().min().copied();
                if let Some(seq) = seq {
                    if let Some(meta) = inner.scopes.get_mut(&seq) {
                        meta.load_secs += load_secs;
                    }
                }
                drop(inner);
                let stall = self.io.clock().advance_to(ready);
                let mut stats = self.stats.lock();
                stats.sync_loads += 1;
                stats.reloaded_bytes += bytes;
                stats.stall_secs += stall;
                let c = stats.class_mut(OffloadClass::Activation);
                c.reloaded_bytes += bytes;
                c.loads += 1;
                drop(stats);
                if stall > 0.0 {
                    self.trace().span(
                        TraceCategory::Stall,
                        "stall.load",
                        ready.plus_secs(-stall),
                        ready,
                    );
                }
                t
            }
            RecState::Loading { ready } => {
                rec.state = RecState::Resident;
                let t = rec.tensor.clone();
                drop(inner);
                let stall = self.io.clock().advance_to(ready);
                self.stats.lock().stall_secs += stall;
                if stall > 0.0 {
                    self.trace().span(
                        TraceCategory::Stall,
                        "stall.load",
                        ready.plus_secs(-stall),
                        ready,
                    );
                }
                t
            }
        }
    }
}

impl ModuleHooks for TensorCache {
    fn forward_pre(&self, scope: &ScopeInfo) {
        let mut inner = self.inner.lock();
        if inner.phase != Phase::Forward {
            return;
        }
        inner.current_mb = scope.micro_batch;
        inner.stack.push(scope.seq);
        let pos = inner
            .forward_order
            .get(&scope.micro_batch)
            .map_or(0, Vec::len);
        inner.scopes.insert(
            scope.seq,
            ScopeMeta {
                path: scope.path.clone(),
                pos,
                records: Vec::new(),
                enter: self.io.clock().now(),
                fwd_secs: 0.0,
                offload_bytes: 0,
                store_secs: 0.0,
                load_secs: 0.0,
            },
        );
        inner
            .forward_order
            .entry(scope.micro_batch)
            .or_default()
            .push(scope.seq);
    }

    fn forward_post(&self, scope: &ScopeInfo) {
        let mut inner = self.inner.lock();
        if inner.phase != Phase::Forward {
            return;
        }
        let now = self.io.clock().now();
        if let Some(meta) = inner.scopes.get_mut(&scope.seq) {
            meta.fwd_secs = now.since(meta.enter);
        }
        if inner.stack.last() == Some(&scope.seq) {
            inner.stack.pop();
        }
    }

    fn backward_pre(&self, scope: &ScopeInfo) {
        // Prefetch the activations of the modules processed next in
        // backward order, i.e. the nearest earlier modules in forward
        // order that hold records (Section 3.3.2). Depth > 1 keeps the
        // read channel saturated across module boundaries.
        let pos = {
            let inner = self.inner.lock();
            let Some(order) = inner.forward_order.get(&scope.micro_batch) else {
                return;
            };
            match order.iter().position(|s| *s == scope.seq) {
                Some(p) => p,
                None => return,
            }
        };
        let g = self.config.prefetch_group_modules;
        if self.config.prefetch && g > 0 {
            // Group-based double buffering: while the current group is
            // consumed the previous one loads on the second buffer —
            // `prefetch_depth` groups stay in flight.
            let cur = pos / g;
            for d in 0..self.config.prefetch_depth.max(1) {
                if d > cur {
                    break;
                }
                // ssdtrain-lint: allow(no-alloc-hot-loop): issuing a group
                // prefetch submits the group's reloads — the data path
                self.prefetch_group(scope.micro_batch, cur - d);
            }
            // Groups above the current one were fully consumed; return
            // their staging slabs so the double buffer stays two deep.
            let slabs: Vec<PinnedSlab> = {
                let mut inner = self.inner.lock();
                let done: Vec<(usize, usize)> = inner
                    .group_slabs
                    .keys()
                    .filter(|(mb, gi)| *mb == scope.micro_batch && *gi > cur)
                    .copied()
                    .collect();
                done.iter()
                    .filter_map(|k| inner.group_slabs.remove(k))
                    .collect()
            };
            let now = self.io.clock().now();
            let trace = self.trace();
            for slab in slabs {
                let len = slab.len;
                if self.arena.release(slab) {
                    trace.instant_bytes(TraceCategory::Arena, "arena.release", now, len);
                }
            }
            return;
        }
        let ids = {
            let inner = self.inner.lock();
            let depth = self.config.prefetch_depth.max(1);
            let modules = Self::modules_before(&inner, scope.micro_batch, pos, depth);
            Self::module_records(&inner, scope.micro_batch, &modules)
        };
        self.prefetch_records(&ids);
    }

    fn backward_post(&self, scope: &ScopeInfo) {
        // Algorithm 2 lines 8–10: drop this scope from its records and
        // release records nobody references.
        let to_release: Vec<RecordId> = {
            let mut inner = self.inner.lock();
            let Some(meta) = inner.scopes.get(&scope.seq) else {
                return;
            };
            let ids = meta.records.clone();
            let mut done = Vec::new();
            for id in ids {
                if let Some(rec) = inner.records.get_mut(&id) {
                    rec.scopes.remove(&scope.seq);
                    if rec.scopes.is_empty() {
                        done.push(id);
                    }
                }
            }
            done
        };
        for id in to_release {
            // ssdtrain-lint: allow(no-alloc-hot-loop): releasing a record
            // serialises and writes its payload — the buffer is the offload
            self.release_record(id);
        }
    }

    fn phase_changed(&self, phase: Phase) {
        let mut inner = self.inner.lock();
        if inner.phase == Phase::Forward && phase == Phase::Backward {
            inner.fwd_secs = self.io.clock().now().since(inner.fwd_start);
        }
        inner.phase = phase;
    }
}

impl std::fmt::Debug for TensorCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("TensorCache")
            .field("records", &inner.records.len())
            .field("phase", &inner.phase)
            .field("stats", &*self.stats.lock())
            .finish()
    }
}
