//! Adaptive offloading (paper Section 3.3.3, Figure 8).
//!
//! Offloading tensors that sit *after* the memory peak does not lower the
//! peak — it only delays memory reclaim. The adaptive algorithm profiles
//! one step to learn each module's forward compute time and offload
//! volume, then picks the last module `m` whose offloads (and its own
//! reload) can finish before module `m`'s backward begins, given the
//! measured write bandwidth. Modules after `m` keep their activations in
//! GPU memory. The backward pass is assumed to take `bwd_fwd_ratio`
//! (default 2×) the forward time.

use crate::costmodel::{CostModel, TierPlan};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Profile of one module (leaf scope) collected during the profiling
/// step — the per-node annotations of the paper's Figure 8 tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModuleProfile {
    /// Module path, e.g. `"model/layer2/mlp"`.
    pub path: String,
    /// Bytes this module's activations transfer when offloaded.
    pub offload_bytes: u64,
    /// Forward computation time of the module, seconds.
    pub fwd_secs: f64,
    /// Observed store-transfer time of the module's offloads, seconds
    /// (link occupancy, as priced by the I/O engine).
    #[serde(default)]
    pub store_secs: f64,
    /// Observed load-transfer time of the module's reloads, seconds.
    #[serde(default)]
    pub load_secs: f64,
}

/// Whole-step profile (the root annotations of Figure 8).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct StepProfile {
    /// Modules in forward order.
    pub modules: Vec<ModuleProfile>,
    /// Total forward-propagation time, seconds.
    pub fwd_total_secs: f64,
    /// Total bytes the forward pass offloaded.
    pub fwd_io_bytes: u64,
    /// Time the write direction was busy during forward, seconds.
    pub fwd_io_secs: f64,
}

impl StepProfile {
    /// Measured forward write bandwidth, bytes/s (used as the budget when
    /// the caller does not supply the channel's rated bandwidth).
    pub fn measured_write_bps(&self) -> f64 {
        if self.fwd_io_secs > 0.0 {
            self.fwd_io_bytes as f64 / self.fwd_io_secs
        } else {
            f64::INFINITY
        }
    }
}

/// The planner's decision: which module paths keep their activations in
/// GPU memory.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct AdaptivePlan {
    /// Module paths whose activations are *not* offloaded.
    pub keep_paths: HashSet<String>,
    /// Diagnostic: required bandwidth for each candidate cutoff, in
    /// forward order (`required[m]` = bandwidth needed if `m` were the
    /// last module to offload).
    pub required_bps: Vec<f64>,
    /// Index of the chosen last-offloaded module, if any module is
    /// offloaded at all.
    pub last_offloaded: Option<usize>,
}

impl AdaptivePlan {
    /// A plan that offloads every module except the last (the default
    /// before profiling, matching Figure 4 ④ where the final module's
    /// activations stay resident).
    pub fn keep_last_only(module_paths: &[String]) -> AdaptivePlan {
        let mut keep = HashSet::new();
        if let Some(last) = module_paths.last() {
            keep.insert(last.clone());
        }
        AdaptivePlan {
            keep_paths: keep,
            required_bps: Vec::new(),
            last_offloaded: module_paths.len().checked_sub(2),
        }
    }

    /// Decides the cutoff from a step profile.
    ///
    /// For each candidate `m`, the data that must be transferred by the
    /// time module `m`'s backward begins is every earlier module's
    /// offload plus module `m`'s offload *and* reload; the deadline is
    /// the end of forward plus `bwd_fwd_ratio ×` the forward time of all
    /// modules after `m`. The largest `m` whose required bandwidth fits
    /// within `write_bps` wins; later modules are kept. The final module
    /// is always kept.
    ///
    /// # Panics
    /// Panics if `write_bps` is not positive.
    pub fn decide(profile: &StepProfile, write_bps: f64, bwd_fwd_ratio: f64) -> AdaptivePlan {
        assert!(write_bps > 0.0, "write bandwidth must be positive");
        let n = profile.modules.len();
        if n == 0 {
            return AdaptivePlan::default();
        }
        let total_fwd: f64 = profile
            .fwd_total_secs
            .max(profile.modules.iter().map(|m| m.fwd_secs).sum::<f64>());
        // Suffix forward times: time of modules strictly after m.
        let mut suffix = vec![0.0f64; n + 1];
        for m in (0..n).rev() {
            suffix[m] = suffix[m + 1] + profile.modules[m].fwd_secs;
        }
        let mut required = Vec::with_capacity(n);
        let mut prefix_bytes = 0u64;
        for m in 0..n {
            prefix_bytes += profile.modules[m].offload_bytes;
            // Offloads of modules ≤ m, plus module m's reload.
            let data = prefix_bytes + profile.modules[m].offload_bytes;
            let deadline = total_fwd + bwd_fwd_ratio * suffix[m + 1];
            required.push(if deadline > 0.0 {
                data as f64 / deadline
            } else {
                f64::INFINITY
            });
        }
        // Largest feasible cutoff, excluding the final module (always
        // kept).
        let mut last_offloaded = None;
        for m in (0..n.saturating_sub(1)).rev() {
            if required[m] <= write_bps {
                last_offloaded = Some(m);
                break;
            }
        }
        let mut keep_paths: HashSet<String> = match last_offloaded {
            Some(m) => profile.modules[m + 1..]
                .iter()
                .map(|mp| mp.path.clone())
                .collect(),
            None => profile.modules.iter().map(|mp| mp.path.clone()).collect(),
        };
        keep_paths.insert(profile.modules[n - 1].path.clone());
        AdaptivePlan {
            keep_paths,
            required_bps: required,
            last_offloaded,
        }
    }

    /// Decides the cutoff from a step profile using the placement
    /// [`CostModel`] instead of a raw bandwidth figure — the paper's ROK
    /// machinery fed by the same critical-path model the tier planner
    /// scores with.
    ///
    /// Two refinements over [`AdaptivePlan::decide`]:
    ///
    /// 1. The bandwidth budget is [`CostModel::effective_write_bps`] of
    ///    the *planned* byte split — with a shared write bus this is
    ///    strictly less than the parallel link sum the raw path assumes.
    /// 2. A stage-barrier trim: the cost model prices the forward
    ///    stage's stores as if they drained before the backward (see
    ///    [`crate::costmodel`]), so tail modules are kept resident until
    ///    the planned drain hides inside the forward pass — offload as
    ///    much as the bus can absorb before the backward, and no more.
    ///    The cache lets those stores run into the backward, so the trim
    ///    is conservative.
    pub fn decide_with_cost(
        profile: &StepProfile,
        cost: &CostModel,
        plan: &TierPlan,
        bwd_fwd_ratio: f64,
    ) -> AdaptivePlan {
        let n = profile.modules.len();
        if n == 0 || cost.tiers().is_empty() {
            return AdaptivePlan::default();
        }
        // Per-module tier index under the plan; unplanned modules take
        // the front-first fallback the stack itself would apply.
        let fallback = cost.front_first_assignment(profile);
        let module_tier: Vec<Option<usize>> = profile
            .modules
            .iter()
            .zip(&fallback)
            .map(|(m, fb)| {
                plan.preferred(&m.path)
                    .and_then(|tid| cost.tier_index(tid))
                    .or(*fb)
            })
            .collect();
        let mut split = cost.split_for(profile, &module_tier);
        let budget = cost.effective_write_bps(&split);
        let mut out = AdaptivePlan::decide(profile, budget, bwd_fwd_ratio);
        // The split priced every module; drop the ones decide() kept.
        let offloaded_through = out.last_offloaded.map(|m| m + 1).unwrap_or(0);
        for (tier, module) in module_tier
            .iter()
            .zip(&profile.modules)
            .skip(offloaded_through)
        {
            if let Some(i) = *tier {
                split[i] = split[i].saturating_sub(module.offload_bytes);
            }
        }
        let total_fwd = profile
            .fwd_total_secs
            .max(profile.modules.iter().map(|m| m.fwd_secs).sum::<f64>());
        let t0 = profile.modules.first().map(|m| m.fwd_secs).unwrap_or(0.0);
        while let Some(m) = out.last_offloaded {
            if t0 + cost.store_drain_secs(&split) <= total_fwd {
                break;
            }
            out.keep_paths.insert(profile.modules[m].path.clone());
            if let Some(i) = module_tier[m] {
                split[i] = split[i].saturating_sub(profile.modules[m].offload_bytes);
            }
            out.last_offloaded = m.checked_sub(1);
        }
        out
    }

    /// Whether the module at `path` (or any of its ancestors) is kept.
    pub fn keeps(&self, path: &str) -> bool {
        if self.keep_paths.contains(path) {
            return true;
        }
        // A kept module keeps everything nested inside it.
        self.keep_paths
            .iter()
            .any(|k| path.starts_with(k.as_str()) && path.as_bytes().get(k.len()) == Some(&b'/'))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(mods: &[(&str, u64, f64)], fwd_total: f64) -> StepProfile {
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
            fwd_total_secs: fwd_total,
            fwd_io_bytes: mods.iter().map(|m| m.1).sum(),
            fwd_io_secs: 0.0,
        }
    }

    #[test]
    fn ample_bandwidth_offloads_all_but_last() {
        let p = profile(&[("l0", 100, 1.0), ("l1", 100, 1.0), ("l2", 100, 1.0)], 3.0);
        let plan = AdaptivePlan::decide(&p, 1e12, 2.0);
        assert_eq!(plan.last_offloaded, Some(1));
        assert!(plan.keeps("l2"));
        assert!(!plan.keeps("l0"));
        assert!(!plan.keeps("l1"));
    }

    #[test]
    fn scarce_bandwidth_keeps_a_longer_tail() {
        // Each module produces 1 GB in 1 s; bandwidth 0.5 GB/s. With 4
        // modules: m=2 requires (3+1) GB by t = 4 + 2*1 = 6 s -> 0.67
        // GB/s (too much); m=1 requires 3 GB by 4+2*2=8 s -> 0.375 GB/s
        // (fits). So modules 2,3 are kept.
        let gb = 1_000_000_000u64;
        let p = profile(
            &[
                ("l0", gb, 1.0),
                ("l1", gb, 1.0),
                ("l2", gb, 1.0),
                ("l3", gb, 1.0),
            ],
            4.0,
        );
        let plan = AdaptivePlan::decide(&p, 0.5e9, 2.0);
        assert_eq!(plan.last_offloaded, Some(1));
        assert!(plan.keeps("l2") && plan.keeps("l3"));
        assert!(!plan.keeps("l0") && !plan.keeps("l1"));
    }

    #[test]
    fn hopeless_bandwidth_keeps_everything() {
        let p = profile(&[("l0", 1 << 30, 0.001), ("l1", 1 << 30, 0.001)], 0.002);
        let plan = AdaptivePlan::decide(&p, 1.0, 2.0);
        assert_eq!(plan.last_offloaded, None);
        assert!(plan.keeps("l0") && plan.keeps("l1"));
    }

    #[test]
    fn final_module_is_always_kept() {
        let p = profile(&[("l0", 10, 1.0), ("l1", 10, 1.0)], 2.0);
        let plan = AdaptivePlan::decide(&p, 1e12, 2.0);
        assert!(plan.keeps("l1"));
    }

    #[test]
    fn required_bandwidth_is_monotone_for_uniform_modules() {
        // With identical modules, later cutoffs need strictly more
        // bandwidth (more data, less time).
        let p = profile(
            &[
                ("a", 100, 1.0),
                ("b", 100, 1.0),
                ("c", 100, 1.0),
                ("d", 100, 1.0),
            ],
            4.0,
        );
        let plan = AdaptivePlan::decide(&p, 1e12, 2.0);
        for w in plan.required_bps.windows(2) {
            assert!(w[0] < w[1], "{:?}", plan.required_bps);
        }
    }

    #[test]
    fn keeps_matches_nested_paths() {
        let mut plan = AdaptivePlan::default();
        plan.keep_paths.insert("model/l3".into());
        assert!(plan.keeps("model/l3"));
        assert!(plan.keeps("model/l3/mlp"));
        assert!(!plan.keeps("model/l30"));
        assert!(!plan.keeps("model/l2"));
    }

    #[test]
    fn keep_last_only_default() {
        let paths = vec!["l0".to_string(), "l1".into(), "l2".into()];
        let plan = AdaptivePlan::keep_last_only(&paths);
        assert!(plan.keeps("l2"));
        assert!(!plan.keeps("l0"));
        assert_eq!(plan.last_offloaded, Some(1));
    }

    #[test]
    fn cost_model_budget_is_bus_aware() {
        use crate::io::{IoEngine, TierLink};
        use crate::target::CpuTarget;
        use crate::tier::{Tier, TierStack};
        use ssdtrain_simhw::SimClock;
        use std::sync::Arc;

        // Two 1 GB/s links behind a 1 GB/s bus: the raw planner would
        // budget 2 GB/s and offload everything; the cost model knows the
        // bus serialises the stores and keeps a longer tail.
        let io = IoEngine::tiered_with_bus(
            SimClock::new(),
            vec![
                TierLink::new("dram", 1e9, 1e9),
                TierLink::new("ssd", 1e9, 1e9),
            ],
            1e9,
        );
        let stack = TierStack::new(vec![
            Tier::new("dram", Arc::new(CpuTarget::new(1 << 40)), 0),
            Tier::new("ssd", Arc::new(CpuTarget::new(1 << 40)), 1),
        ]);
        let cost = CostModel::from_parts(&io, &stack);
        let gb = 1_000_000_000u64;
        let p = profile(
            &[
                ("l0", gb, 0.25),
                ("l1", gb, 0.25),
                ("l2", gb, 0.25),
                ("l3", gb, 0.25),
            ],
            1.0,
        );
        let plan = cost.plan(&p, 2.0);
        let raw = AdaptivePlan::decide(&p, io.write_bps(), 2.0);
        let guided = AdaptivePlan::decide_with_cost(&p, &cost, &plan, 2.0);
        // Raw 2 GB/s budget: m=1 needs 3 GB by 2 s → 1.5 GB/s, feasible.
        assert_eq!(raw.last_offloaded, Some(1), "raw budget offloads freely");
        assert!(
            guided.last_offloaded < raw.last_offloaded,
            "bus-aware budget keeps a longer tail: {:?} vs {:?}",
            guided.last_offloaded,
            raw.last_offloaded
        );
    }

    #[test]
    fn stage_barrier_trim_hides_the_drain() {
        use crate::io::IoEngine;
        use crate::target::CpuTarget;
        use crate::tier::TierStack;
        use ssdtrain_simhw::SimClock;
        use std::sync::Arc;

        // One 1 GB/s link; 4 modules × 0.3 GB in 1 s of forward. The
        // deadline criterion alone offloads l0..l2 (0.9 GB), but that
        // drains at t0 + 0.9 = 1.15 s > 1 s; trimming l2 leaves 0.6 GB,
        // which hides (0.25 + 0.6 ≤ 1.0).
        let io = IoEngine::new(SimClock::new(), 1e9, 1e9);
        let stack = TierStack::single(Arc::new(CpuTarget::new(1 << 40)));
        let cost = CostModel::from_parts(&io, &stack);
        let mb = 300_000_000u64;
        let p = profile(
            &[
                ("l0", mb, 0.25),
                ("l1", mb, 0.25),
                ("l2", mb, 0.25),
                ("l3", mb, 0.25),
            ],
            1.0,
        );
        let plan = cost.plan(&p, 2.0);
        let guided = AdaptivePlan::decide_with_cost(&p, &cost, &plan, 2.0);
        assert_eq!(guided.last_offloaded, Some(1));
        assert!(guided.keeps("l2") && guided.keeps("l3"));
        assert!(!guided.keeps("l1"));
    }

    #[test]
    fn figure8_style_tree_cutoff() {
        // A miniature of the paper's Figure 8: attention and MLP blocks
        // with distinct sizes; verify the planner pauses offloading at
        // the documented point when bandwidth only covers the early
        // blocks.
        let mb = 1_000_000u64;
        let p = profile(
            &[
                ("l0/attn", 60 * mb, 0.010),
                ("l0/mlp", 90 * mb, 0.012),
                ("l1/attn", 60 * mb, 0.010),
                ("l1/mlp", 90 * mb, 0.012),
            ],
            0.044,
        );
        // Generous budget: everything but the tail module offloads.
        let generous = AdaptivePlan::decide(&p, 10e9, 2.0);
        assert_eq!(generous.last_offloaded, Some(2));
        // Tight budget: required[2] = (60+90+60+60)MB / (0.044+2*0.012)
        // ≈ 3.97 GB/s; with 3 GB/s we fall back to m=1 (210MB / 0.088 ≈
        // 2.4 GB/s).
        let tight = AdaptivePlan::decide(&p, 3e9, 2.0);
        assert_eq!(tight.last_offloaded, Some(1));
        assert!(tight.keeps("l1/attn") && tight.keeps("l1/mlp"));
    }
}
