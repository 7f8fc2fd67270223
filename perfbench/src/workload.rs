//! The benchmark's workloads: one offloading session configuration
//! each, plus the Keep-strategy reference it is compared against.

use ssdtrain::{OffloadClass, PlacementStrategy, TensorCacheConfig};
use ssdtrain_bench::paper_testbed;
use ssdtrain_models::{Arch, ModelConfig};
use ssdtrain_train::{OffloadBackend, SessionBuilder, SessionConfig};

/// Steps run after construction (and after the profiling step, where
/// the workload profiles) before measurement starts. The first step of
/// an overlapped-optimizer session has no deferred update to run, so
/// its simulated outcome differs from every later one; two steps leave
/// a margin.
pub const WARMUP_STEPS: usize = 2;

/// One named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Figure 10 configuration (symbolic GPT, SSD backend).
    PaperFig10,
    /// Many small tensors over a DRAM front tier spilling to SSD, with
    /// gradients and optimizer state offloaded too (symbolic BERT).
    SmallblockMixed,
    /// A real f32 GPT whose tensors round-trip through spill files.
    FunctionalGpt,
}

/// `paper-fig10` model: GPT H8192 L4, batch 16.
const FIG10: (Arch, usize, usize, usize) = (Arch::Gpt, 8192, 4, 16);
/// `smallblock-mixed` model: BERT H2048 L8, batch 8.
const SMALLBLOCK: (Arch, usize, usize, usize) = (Arch::Bert, 2048, 8, 8);
/// `smallblock-mixed` DRAM front tier.
const SMALLBLOCK_DRAM_BYTES: u64 = 1 << 30;
/// `smallblock-mixed` fixed cost of submitting one store job.
const SMALLBLOCK_STORE_JOB_SECS: f64 = 1e-3;
/// `smallblock-mixed` media bytes charged per SSD write operation.
const SMALLBLOCK_WRITE_OVERHEAD_BYTES: u64 = 512 << 10;
/// `smallblock-mixed` coalescing segment size.
const SMALLBLOCK_SEGMENT_BYTES: u64 = 256 << 20;
/// `smallblock-mixed` backward prefetch: groups of this many modules,
/// this many groups ahead.
const SMALLBLOCK_GROUP: usize = 2;
/// Momentum of every workload that keeps optimizer state.
const MOMENTUM: f32 = 0.9;
/// `functional-gpt` batch size.
const FUNCTIONAL_BATCH: usize = 4;

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::PaperFig10,
        Workload::SmallblockMixed,
        Workload::FunctionalGpt,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperFig10 => "paper-fig10",
            Workload::SmallblockMixed => "smallblock-mixed",
            Workload::FunctionalGpt => "functional-gpt",
        }
    }

    /// The workload called `name`, if there is one.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether tensors are shape-only (timing and memory model only).
    pub fn symbolic(self) -> bool {
        self != Workload::FunctionalGpt
    }

    /// Whether set-up runs the adaptive profiling step, as
    /// `fig10_overhead` does. The other two start measuring straight
    /// from construction, as `bench_io` and `quickstart` do.
    pub fn profiles(self) -> bool {
        self == Workload::PaperFig10
    }

    /// The percentile reported as `host_step_ms.tail`: the highest of
    /// 50/75/90/95/99 that leaves at least ten samples beyond it at the
    /// step count a 10 s run reaches on a 2-core host. Fixed per
    /// workload so the metric means the same thing on every run.
    pub fn tail_percentile(self) -> f64 {
        match self {
            Workload::FunctionalGpt => 75.0,
            _ => 99.0,
        }
    }

    fn functional_model() -> ModelConfig {
        ModelConfig {
            arch: Arch::Gpt,
            hidden: 128,
            layers: 4,
            heads: 4,
            vocab: 512,
            seq: 64,
            dropout_p: 0.1,
            fused_attention: true,
            tp: 1,
        }
    }

    /// The measured offloading session.
    pub fn builder(self, seed: u64) -> SessionBuilder {
        match self {
            Workload::PaperFig10 => {
                let (arch, h, l, b) = FIG10;
                paper_testbed(arch, h, l, b)
                    .strategy(PlacementStrategy::Offload)
                    .seed(seed)
            }
            Workload::SmallblockMixed => {
                let (arch, h, l, b) = SMALLBLOCK;
                paper_testbed(arch, h, l, b)
                    .strategy(PlacementStrategy::Offload)
                    .backend(OffloadBackend::Tiered {
                        dram_bytes: SMALLBLOCK_DRAM_BYTES,
                    })
                    .store_job_overhead(SMALLBLOCK_STORE_JOB_SECS)
                    .ssd_write_overhead(SMALLBLOCK_WRITE_OVERHEAD_BYTES)
                    .coalesce_segment(SMALLBLOCK_SEGMENT_BYTES)
                    .prefetch_group(SMALLBLOCK_GROUP)
                    .prefetch_depth(SMALLBLOCK_GROUP)
                    .offload(OffloadClass::Gradient, true)
                    .offload(OffloadClass::OptimizerState, true)
                    .overlap_optimizer(true)
                    .momentum(MOMENTUM)
                    .seed(seed)
            }
            Workload::FunctionalGpt => SessionConfig::builder()
                .model(Workload::functional_model())
                .batch_size(FUNCTIONAL_BATCH)
                .strategy(PlacementStrategy::Offload)
                .cache(TensorCacheConfig::offload_everything())
                .offload(OffloadClass::Gradient, true)
                .offload(OffloadClass::OptimizerState, true)
                .overlap_optimizer(true)
                .momentum(MOMENTUM)
                .seed(seed),
        }
    }

    /// The same model, batch and seed with everything resident: Keep
    /// strategy, no state class offloaded, the plain optimizer.
    pub fn reference(self, seed: u64) -> SessionBuilder {
        let base = match self {
            Workload::PaperFig10 => {
                let (arch, h, l, b) = FIG10;
                paper_testbed(arch, h, l, b)
            }
            Workload::SmallblockMixed => {
                let (arch, h, l, b) = SMALLBLOCK;
                paper_testbed(arch, h, l, b).momentum(MOMENTUM)
            }
            Workload::FunctionalGpt => SessionConfig::builder()
                .model(Workload::functional_model())
                .batch_size(FUNCTIONAL_BATCH)
                .momentum(MOMENTUM),
        };
        base.strategy(PlacementStrategy::Keep).seed(seed)
    }

    /// The knobs that define the workload, for the run manifest, read
    /// from the session config the workload builds.
    pub fn knobs(self, seed: u64) -> Vec<(&'static str, String)> {
        let c = self.config(seed, ssdtrain::TraceSink::disabled());
        let classes: Vec<&str> = c.offload.iter().map(|k| k.label()).collect();
        vec![
            ("model", format!("{:?}", c.model)),
            ("batch", c.batch_size.to_string()),
            ("symbolic", c.symbolic.to_string()),
            ("backend", format!("{:?}", c.backend)),
            ("cache", format!("{:?}", c.cache)),
            ("classes", classes.join(",")),
            ("overlap_optimizer", c.overlap_optimizer.to_string()),
            ("momentum", c.momentum.to_string()),
            (
                "store_job_overhead_secs",
                c.system.store_job_overhead_secs.to_string(),
            ),
            (
                "ssd_write_overhead_bytes",
                c.system.ssd_write_overhead_bytes.to_string(),
            ),
            ("profile_step", self.profiles().to_string()),
            ("warmup_steps", WARMUP_STEPS.to_string()),
        ]
    }

    /// Offload-session config with `sink` attached.
    pub fn config(self, seed: u64, sink: ssdtrain::TraceSink) -> SessionConfig {
        self.builder(seed)
            .trace(sink)
            .build()
            .expect("workload config is valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn every_config_builds() {
        for w in Workload::ALL {
            w.builder(1).build().expect("offload config");
            w.reference(1).build().expect("reference config");
        }
    }
}
