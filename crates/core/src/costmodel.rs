//! Profile-guided placement cost model.
//!
//! The static [`crate::PlacementPolicy`] decides *whether* a tensor
//! offloads; the [`TierStack`] decides *where* with a fixed front-first
//! walk. Neither sees time. This module closes the loop the way
//! 10Cache's profile-guided tier assignment does: it rebuilds the step's
//! critical path from a [`StepProfile`] — forward compute vs the store
//! drain at the forward/backward barrier, backward compute vs the reload
//! traffic — and scores candidate per-module tier assignments by the
//! modeled step time. [`CostModel::plan`] returns the deterministic
//! greedy best assignment as a [`TierPlan`]; the cache applies it at
//! pack time (via [`TierStack::reserve_preferring`]) and re-plans
//! between steps as fresh profiles arrive, promoting hot (late-forward,
//! early-backward) modules up the stack and demoting cold ones.
//!
//! The same model replaces the adaptive planner's parallel bandwidth
//! estimate: [`CostModel::effective_write_bps`] prices a byte split over
//! the tiers it actually lands on — serialised across the shared write
//! bus when one is configured — instead of summing link bandwidths that
//! cannot be used concurrently.
//!
//! Timing semantics mirror a stage-barrier schedule (see
//! [`crate::TensorCache::drain_stores`]): stores submitted during
//! forward cannot begin before the first module's compute finishes
//! (`t0`), the forward stage ends at `max(compute, t0 + store drain)`,
//! and the backward stage ends at `max(compute, reload time)`. The cache
//! itself no longer drains at the forward exit — the forward's stores
//! run into the backward — so the model is conservative there: it
//! prices a drain the simulated step only pays where a reload, a
//! prefetch or a backward allocation waits on a store.

use crate::adaptive::StepProfile;
use crate::io::IoEngine;
use crate::tier::{TierId, TierStack};
use std::collections::BTreeMap;

/// One placement tier as the cost model prices it.
#[derive(Debug, Clone, PartialEq)]
pub struct TierCost {
    /// The tier's id in the owning [`TierStack`].
    pub tier: TierId,
    /// The tier's display name.
    pub name: String,
    /// Effective store bandwidth, bytes/s (link rate capped by the
    /// shared write bus when one is configured).
    pub write_bps: f64,
    /// Load bandwidth, bytes/s (reads are independent per link).
    pub read_bps: f64,
    /// Admission capacity, `None` when unbounded.
    pub capacity_bytes: Option<u64>,
}

/// The modeled step-time calculator over a stack's placement tiers.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    tiers: Vec<TierCost>,
    bus_write_bps: Option<f64>,
    /// Fixed per-store-job submission cost, seconds (mirrors
    /// [`IoEngine::store_job_overhead_secs`]).
    store_job_overhead_secs: f64,
    /// Coalescer segment size the drain is priced under (0 = one job
    /// per tier, the pre-coalescer lower bound).
    segment_bytes: u64,
}

/// A planned per-module tier assignment plus its modeled step times —
/// what [`CostModel::plan`] produces and the cache consults at pack
/// time.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TierPlan {
    assignments: BTreeMap<String, TierId>,
    /// Planned bytes per cost-model tier (same order as
    /// [`CostModel::tiers`]).
    pub tier_bytes: Vec<u64>,
    /// Modeled step time of the planned assignment, seconds.
    pub modeled_step_secs: f64,
    /// Modeled step time of the static front-first assignment, seconds
    /// (the delta against `modeled_step_secs` is the plan's predicted
    /// win).
    pub baseline_step_secs: f64,
}

impl TierPlan {
    /// The planned tier for `path`, matching the innermost planned
    /// ancestor the same way [`crate::AdaptivePlan::keeps`] does.
    pub fn preferred(&self, path: &str) -> Option<TierId> {
        if let Some(t) = self.assignments.get(path) {
            return Some(*t);
        }
        self.assignments
            .iter()
            .filter(|(k, _)| {
                path.starts_with(k.as_str()) && path.as_bytes().get(k.len()) == Some(&b'/')
            })
            .max_by_key(|(k, _)| k.len())
            .map(|(_, t)| *t)
    }

    /// The planned module-path → tier map.
    pub fn assignments(&self) -> &BTreeMap<String, TierId> {
        &self.assignments
    }

    /// Whether the plan carries any assignment at all.
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }
}

impl CostModel {
    /// Builds the model from the engine's link pricing and the stack's
    /// placement tiers (demotion-only tiers are a recovery path and are
    /// not planned over).
    pub fn from_parts(io: &IoEngine, tiers: &TierStack) -> CostModel {
        let bus = io.bus_write_bps();
        let tiers = tiers
            .placement_tiers()
            .into_iter()
            .map(|s| TierCost {
                write_bps: match bus {
                    Some(b) => io.write_bps_of(s.link).min(b),
                    None => io.write_bps_of(s.link),
                },
                read_bps: io.read_bps_of(s.link),
                tier: s.tier,
                name: s.name,
                capacity_bytes: s.capacity_bytes,
            })
            .collect();
        CostModel {
            tiers,
            bus_write_bps: bus,
            store_job_overhead_secs: io.store_job_overhead_secs(),
            segment_bytes: 0,
        }
    }

    /// Prices the store drain as if the coalescer sealed segments of
    /// `bytes` (0 restores one-job-per-tier pricing). The cache passes
    /// its configured `coalesce_segment_bytes` here so planning sees the
    /// same job counts the simulator will charge overhead for.
    pub fn with_segment_bytes(mut self, bytes: u64) -> CostModel {
        self.segment_bytes = bytes;
        self
    }

    /// The segment size the drain is priced under.
    pub fn segment_bytes(&self) -> u64 {
        self.segment_bytes
    }

    /// Store jobs needed to move `bytes` to one tier under the priced
    /// segment size. With coalescing off the model prices the lower
    /// bound of one job per non-empty tier — the per-tensor job count is
    /// a runtime quantity only the simulator sees.
    pub fn jobs_for(&self, bytes: u64) -> u64 {
        if bytes == 0 {
            0
        } else if self.segment_bytes > 0 {
            bytes.div_ceil(self.segment_bytes)
        } else {
            1
        }
    }

    /// The tiers the model prices, front first.
    pub fn tiers(&self) -> &[TierCost] {
        &self.tiers
    }

    /// Index of `tier` inside [`CostModel::tiers`].
    pub fn tier_index(&self, tier: TierId) -> Option<usize> {
        self.tiers.iter().position(|t| t.tier == tier)
    }

    /// Seconds until the last store drains, given `bytes_per_tier`
    /// (indexed like [`CostModel::tiers`]; missing entries are zero).
    /// With a shared bus every job serialises, so the drain is the sum
    /// of per-tier transfer times; without one the links run in
    /// parallel and the slowest tier bounds the drain. Each tier also
    /// pays [`CostModel::jobs_for`] × the engine's per-job submission
    /// overhead, which is what makes coalesced segments strictly cheaper
    /// to drain than per-tensor jobs once the overhead is non-zero.
    pub fn store_drain_secs(&self, bytes_per_tier: &[u64]) -> f64 {
        let per_tier = self.tiers.iter().enumerate().map(|(i, t)| {
            let bytes = bytes_per_tier.get(i).copied().unwrap_or(0);
            bytes as f64 / t.write_bps + self.jobs_for(bytes) as f64 * self.store_job_overhead_secs
        });
        if self.bus_write_bps.is_some() {
            per_tier.sum()
        } else {
            per_tier.fold(0.0, f64::max)
        }
    }

    /// Seconds until every reload finishes — reads are full duplex and
    /// independent per link, so the slowest tier bounds the time.
    pub fn load_secs(&self, bytes_per_tier: &[u64]) -> f64 {
        self.tiers
            .iter()
            .enumerate()
            .map(|(i, t)| bytes_per_tier.get(i).copied().unwrap_or(0) as f64 / t.read_bps)
            .fold(0.0, f64::max)
    }

    /// The effective aggregate store bandwidth of a byte split: total
    /// bytes over their drain time. This is the adaptive planner's
    /// budget — with a shared bus it is strictly less than the sum of
    /// link bandwidths the pre-cost-model planner assumed.
    pub fn effective_write_bps(&self, bytes_per_tier: &[u64]) -> f64 {
        let total: u64 = bytes_per_tier.iter().sum();
        let drain = self.store_drain_secs(bytes_per_tier);
        if total == 0 || drain <= 0.0 {
            self.aggregate_write_bps()
        } else {
            total as f64 / drain
        }
    }

    /// Price of one optimizer-stage state job on `tier`: load the
    /// stage's optimizer state and gradients back from the tier, then
    /// store the refreshed state. Reads are full duplex; the store-back
    /// rides the (possibly bus-capped) write path. The overlap engine
    /// uses this to decide how much of each stage's update the next
    /// step's forward can hide (GreedySnake's schedule), on the same
    /// model the activation planner prices stores with.
    pub fn state_job_secs(&self, tier_idx: usize, load_bytes: u64, store_bytes: u64) -> f64 {
        let Some(t) = self.tiers.get(tier_idx) else {
            return 0.0;
        };
        let write_bps = match self.bus_write_bps {
            Some(b) => b.min(t.write_bps),
            None => t.write_bps,
        };
        load_bytes as f64 / t.read_bps.max(f64::MIN_POSITIVE)
            + store_bytes as f64 / write_bps.max(f64::MIN_POSITIVE)
    }

    /// Upper bound on deliverable store bandwidth: the link sum, capped
    /// by the shared bus when one is configured.
    pub fn aggregate_write_bps(&self) -> f64 {
        let sum: f64 = self.tiers.iter().map(|t| t.write_bps).sum();
        match self.bus_write_bps {
            Some(b) => b.min(sum.max(f64::MIN_POSITIVE)),
            None => sum.max(f64::MIN_POSITIVE),
        }
    }

    /// The byte split of the static front-first placement (each module
    /// lands on the first tier with capacity headroom — what
    /// [`TierStack::reserve`] does without a plan).
    pub fn front_first_assignment(&self, profile: &StepProfile) -> Vec<Option<usize>> {
        let mut used = vec![0u64; self.tiers.len()];
        profile
            .modules
            .iter()
            .map(|m| {
                for (i, t) in self.tiers.iter().enumerate() {
                    let fits = t
                        .capacity_bytes
                        .map(|c| used[i].saturating_add(m.offload_bytes) <= c)
                        .unwrap_or(true);
                    if fits {
                        used[i] += m.offload_bytes;
                        return Some(i);
                    }
                }
                None
            })
            .collect()
    }

    /// Sums each tier's planned bytes under `assignment` (entries are
    /// indices into [`CostModel::tiers`]; `None` keeps the module
    /// resident).
    pub fn split_for(&self, profile: &StepProfile, assignment: &[Option<usize>]) -> Vec<u64> {
        let mut split = vec![0u64; self.tiers.len()];
        for (m, a) in profile.modules.iter().zip(assignment) {
            if let Some(i) = *a {
                if i < split.len() {
                    split[i] += m.offload_bytes;
                }
            }
        }
        split
    }

    /// The modeled step time of `assignment`: forward stage
    /// `max(compute, t0 + store drain)` plus backward stage
    /// `max(compute, reload time)`, with `t0` the first module's forward
    /// time (no store can be submitted before it) and backward compute
    /// `bwd_fwd_ratio ×` forward.
    pub fn modeled_step_secs(
        &self,
        profile: &StepProfile,
        assignment: &[Option<usize>],
        bwd_fwd_ratio: f64,
    ) -> f64 {
        let split = self.split_for(profile, assignment);
        let fwd = profile
            .fwd_total_secs
            .max(profile.modules.iter().map(|m| m.fwd_secs).sum::<f64>());
        let t0 = profile.modules.first().map(|m| m.fwd_secs).unwrap_or(0.0);
        let fwd_stage = fwd.max(t0 + self.store_drain_secs(&split));
        let bwd = bwd_fwd_ratio * fwd;
        let bwd_stage = bwd.max(self.load_secs(&split));
        fwd_stage + bwd_stage
    }

    /// Plans a per-module tier assignment for `profile`, deterministic
    /// for a fixed profile:
    ///
    /// 1. **Hot-first seeding** — modules late in forward reload first
    ///    in backward; they get the frontmost tier with headroom, colder
    ///    modules take what remains (cold tensors are thereby demoted
    ///    relative to the front-first walk, hot ones promoted).
    /// 2. **Greedy improvement** — single-module moves between tiers,
    ///    accepted only when the modeled step time strictly drops,
    ///    scanned in fixed order for a bounded number of passes.
    ///
    /// Capacity bounds are respected throughout; a module that fits
    /// nowhere is left unassigned (kept resident, exactly like a failed
    /// [`TierStack::reserve`]).
    pub fn plan(&self, profile: &StepProfile, bwd_fwd_ratio: f64) -> TierPlan {
        let n = profile.modules.len();
        let mut assign: Vec<Option<usize>> = vec![None; n];
        let mut used = vec![0u64; self.tiers.len()];
        for m in (0..n).rev() {
            let bytes = profile.modules[m].offload_bytes;
            for (i, t) in self.tiers.iter().enumerate() {
                let fits = t
                    .capacity_bytes
                    .map(|c| used[i].saturating_add(bytes) <= c)
                    .unwrap_or(true);
                if fits {
                    assign[m] = Some(i);
                    used[i] += bytes;
                    break;
                }
            }
        }
        let mut best = self.modeled_step_secs(profile, &assign, bwd_fwd_ratio);
        for _pass in 0..4 {
            let mut improved = false;
            for m in 0..n {
                let Some(cur) = assign[m] else { continue };
                let bytes = profile.modules[m].offload_bytes;
                for cand in 0..self.tiers.len() {
                    if cand == cur {
                        continue;
                    }
                    let fits = self.tiers[cand]
                        .capacity_bytes
                        .map(|c| used[cand].saturating_add(bytes) <= c)
                        .unwrap_or(true);
                    if !fits {
                        continue;
                    }
                    assign[m] = Some(cand);
                    let score = self.modeled_step_secs(profile, &assign, bwd_fwd_ratio);
                    if score + 1e-12 < best {
                        best = score;
                        used[cur] -= bytes;
                        used[cand] += bytes;
                        improved = true;
                        break;
                    }
                    assign[m] = Some(cur);
                }
            }
            if !improved {
                break;
            }
        }
        let baseline = self.front_first_assignment(profile);
        let baseline_step_secs = self.modeled_step_secs(profile, &baseline, bwd_fwd_ratio);
        let tier_bytes = self.split_for(profile, &assign);
        let assignments = profile
            .modules
            .iter()
            .zip(&assign)
            .filter_map(|(m, a)| a.map(|i| (m.path.clone(), self.tiers[i].tier)))
            .collect();
        TierPlan {
            assignments,
            tier_bytes,
            modeled_step_secs: best,
            baseline_step_secs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::ModuleProfile;
    use crate::io::TierLink;
    use crate::target::CpuTarget;
    use crate::tier::Tier;
    use ssdtrain_simhw::SimClock;
    use std::sync::Arc;

    fn two_tier_model(front_cap: u64, bus: Option<f64>) -> CostModel {
        let links = vec![
            TierLink::new("dram", 2e9, 2e9),
            TierLink::new("ssd", 1e9, 1e9),
        ];
        let io = match bus {
            Some(b) => IoEngine::tiered_with_bus(SimClock::new(), links, b),
            None => IoEngine::tiered(SimClock::new(), links),
        };
        let stack = TierStack::new(vec![
            Tier::new("dram", Arc::new(CpuTarget::new(1 << 40)), 0).with_capacity(front_cap),
            Tier::new("ssd", Arc::new(CpuTarget::new(1 << 40)), 1),
        ]);
        CostModel::from_parts(&io, &stack)
    }

    fn profile(mods: &[(&str, u64, f64)]) -> StepProfile {
        StepProfile {
            modules: mods
                .iter()
                .map(|(p, b, t)| ModuleProfile {
                    path: (*p).into(),
                    offload_bytes: *b,
                    fwd_secs: *t,
                    store_secs: 0.0,
                    load_secs: 0.0,
                })
                .collect(),
            fwd_total_secs: mods.iter().map(|m| m.2).sum(),
            fwd_io_bytes: mods.iter().map(|m| m.1).sum(),
            fwd_io_secs: 0.0,
        }
    }

    #[test]
    fn bus_serialises_the_modeled_drain() {
        let with_bus = two_tier_model(u64::MAX, Some(2e9));
        let without = two_tier_model(u64::MAX, None);
        let split = [2_000_000_000, 1_000_000_000];
        // Bus: 1 s + 1 s serialised; independent links: max(1, 1).
        assert_eq!(with_bus.store_drain_secs(&split), 2.0);
        assert_eq!(without.store_drain_secs(&split), 1.0);
        assert!(with_bus.effective_write_bps(&split) < without.effective_write_bps(&split));
    }

    #[test]
    fn effective_bandwidth_never_exceeds_the_bus() {
        let m = two_tier_model(u64::MAX, Some(2e9));
        assert_eq!(m.aggregate_write_bps(), 2e9);
        assert!(m.effective_write_bps(&[1 << 30, 1 << 30]) <= 2e9);
    }

    #[test]
    fn plan_respects_tier_capacity() {
        let gb = 1_000_000_000u64;
        let m = two_tier_model(gb, Some(2e9));
        let p = profile(&[("l0", gb, 0.5), ("l1", gb, 0.5), ("l2", gb, 0.5)]);
        let plan = m.plan(&p, 2.0);
        assert!(plan.tier_bytes[0] <= gb, "front tier overcommitted");
        assert_eq!(plan.tier_bytes.iter().sum::<u64>(), 3 * gb);
    }

    #[test]
    fn hot_tail_lands_on_the_front_tier() {
        let gb = 1_000_000_000u64;
        let m = two_tier_model(gb, Some(2e9));
        let p = profile(&[("l0", gb, 0.5), ("l1", gb, 0.5), ("l2", gb, 0.5)]);
        let plan = m.plan(&p, 2.0);
        // The last module reloads first in backward: it gets dram.
        assert_eq!(plan.preferred("l2").map(|t| t.index()), Some(0));
        assert_eq!(plan.preferred("l0").map(|t| t.index()), Some(1));
        // Nested paths match their planned ancestor.
        assert_eq!(plan.preferred("l2/mlp").map(|t| t.index()), Some(0));
        assert_eq!(plan.preferred("unknown"), None);
    }

    #[test]
    fn planning_is_deterministic() {
        let gb = 1_000_000_000u64;
        let m = two_tier_model(gb, Some(2e9));
        let p = profile(&[("l0", gb, 0.3), ("l1", gb / 2, 0.4), ("l2", gb, 0.3)]);
        assert_eq!(m.plan(&p, 2.0), m.plan(&p, 2.0));
    }

    #[test]
    fn job_overhead_prices_segment_counts() {
        let links = vec![TierLink::new("ssd", 1e9, 1e9)];
        let io = IoEngine::tiered(SimClock::new(), links);
        io.set_store_job_overhead(0.01);
        let stack = TierStack::single(Arc::new(CpuTarget::new(1 << 40)));
        let m = CostModel::from_parts(&io, &stack);
        let bytes = [1_000_000_000u64];
        // One job per tier without a segment size: 1 s transfer + 10 ms.
        assert!((m.store_drain_secs(&bytes) - 1.01).abs() < 1e-12);
        // Priced at 256 MB segments: ceil(1e9 / 256e6) = 4 jobs.
        let seg = m.clone().with_segment_bytes(256_000_000);
        assert_eq!(seg.jobs_for(bytes[0]), 4);
        assert!((seg.store_drain_secs(&bytes) - 1.04).abs() < 1e-12);
        assert_eq!(seg.jobs_for(0), 0, "empty tiers pay no overhead");
    }

    #[test]
    fn zero_overhead_keeps_legacy_drain_times() {
        let m = two_tier_model(u64::MAX, None);
        let seg = m.clone().with_segment_bytes(1 << 20);
        let split = [2_000_000_000, 1_000_000_000];
        assert_eq!(m.store_drain_secs(&split), seg.store_drain_secs(&split));
    }

    #[test]
    fn modeled_step_never_beats_pure_compute() {
        let m = two_tier_model(u64::MAX, Some(2e9));
        let p = profile(&[("l0", 1 << 30, 0.5), ("l1", 1 << 30, 0.5)]);
        let assign = m.front_first_assignment(&p);
        let step = m.modeled_step_secs(&p, &assign, 2.0);
        assert!(step >= 3.0 - 1e-12, "fwd 1 s + bwd 2 s bounds the step");
    }
}
