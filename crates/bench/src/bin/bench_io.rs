//! I/O-path ablation on the paper testbed: per-tensor stores vs
//! coalesced segments, on-demand backward loads vs double-buffered
//! group prefetch (BERT H2048 L8, batch 8, TP=2, symbolic, tiered
//! backend — a many-small-tensors regime where per-job and per-op
//! overheads actually register). Every arm pays the same per-store-job
//! submission overhead
//! and per-write-op media overhead, so the table isolates what
//! batching buys: fewer jobs on the queue clock, fewer ops on the wear
//! meter, and backward stalls hidden behind the second staging buffer.
//!
//! Prints a table and emits `results/BENCH_io.json`; the
//! `scripts/bench_check.sh` gates read that file. At the testbed's link
//! speed the forward's stores hide behind the backward, so what batching
//! buys in step time shows where the links bind: the JSON also carries
//! every arm's step at a quarter of the testbed's link speed.

use ssdtrain::{OffloadStats, PlacementStrategy};
use ssdtrain_bench::{gb, paper_testbed, print_table, scaled_testbed};
use ssdtrain_models::Arch;
use ssdtrain_simhw::SystemConfig;
use ssdtrain_train::{OffloadBackend, TrainSession};

/// Fixed per-store-job submission cost (driver/syscall/queue doorbell):
/// the term that makes many small jobs slower than few large ones.
const STORE_JOB_OVERHEAD_SECS: f64 = 1e-3;
/// Media bytes each write op charges beyond its payload (mapping
/// granularity / page padding): the term that inflates the effective
/// WAF of small writes.
const SSD_WRITE_OVERHEAD_BYTES: u64 = 512 << 10;
/// Bounded DRAM front tier, so most of the step's traffic reaches the
/// flash where the wear meter watches it.
const DRAM_FRONT_BYTES: u64 = 1 << 30;
/// Link scale where the store path binds the step.
const BINDING_SCALE: f64 = 0.25;

struct Arm {
    name: &'static str,
    /// Coalescing segment size (0 = per-tensor stores).
    segment_bytes: u64,
    /// Group size in modules (0 = per-module prefetch path).
    group_modules: usize,
    /// Prefetch lookahead (modules or groups); 0 disables prefetch.
    depth: usize,
}

struct Row {
    arm: &'static Arm,
    step_secs: f64,
    waf: f64,
    offload: OffloadStats,
    /// The same arm's step at [`BINDING_SCALE`] link speed.
    binding_step_secs: f64,
}

const ARMS: [Arm; 4] = [
    // Baseline: every tensor its own store job, backward loads only
    // when unpack blocks on them.
    Arm {
        name: "per-tensor-ondemand",
        segment_bytes: 0,
        group_modules: 0,
        depth: 0,
    },
    // The paper's configuration: per-tensor stores, per-module
    // prefetch two modules ahead.
    Arm {
        name: "per-tensor-depth2",
        segment_bytes: 0,
        group_modules: 0,
        depth: 2,
    },
    // The coalesced path at two segment sizes, both consuming backward
    // groups of two modules on the double buffer.
    Arm {
        name: "coalesced-64m-group",
        segment_bytes: 64 << 20,
        group_modules: 2,
        depth: 2,
    },
    Arm {
        name: "coalesced-256m-group",
        segment_bytes: 256 << 20,
        group_modules: 2,
        depth: 2,
    },
];

fn run_arm(arm: &'static Arm) -> Row {
    let mut row = run_arm_on(arm, SystemConfig::dac_testbed());
    row.binding_step_secs = run_arm_on(arm, scaled_testbed(BINDING_SCALE)).step_secs;
    row
}

fn run_arm_on(arm: &'static Arm, system: SystemConfig) -> Row {
    let mut builder = paper_testbed(Arch::Bert, 2048, 8, 8)
        .system(system)
        .strategy(PlacementStrategy::Offload)
        .backend(OffloadBackend::Tiered {
            dram_bytes: DRAM_FRONT_BYTES,
        })
        .store_job_overhead(STORE_JOB_OVERHEAD_SECS)
        .ssd_write_overhead(SSD_WRITE_OVERHEAD_BYTES)
        .coalesce_segment(arm.segment_bytes)
        .prefetch_group(arm.group_modules);
    if arm.depth > 0 {
        builder = builder.prefetch_depth(arm.depth);
    } else {
        builder = builder.cache(ssdtrain::TensorCacheConfig {
            prefetch: false,
            coalesce_segment_bytes: arm.segment_bytes,
            prefetch_group_modules: arm.group_modules,
            ..Default::default()
        });
    }
    let cfg = builder.build().expect("valid config");
    let mut session = TrainSession::new(cfg).expect("session construction");
    let metrics = session.run_step().expect("measured step");

    // Effective WAF straight off the SSD tier's wear meter: media
    // bytes (payload + per-op overhead) over host bytes.
    let cache = session.cache().expect("offload strategy owns a cache");
    let waf = cache
        .tiers()
        .tier_ids()
        .into_iter()
        .find(|t| cache.tiers().name(*t) == "ssd")
        .and_then(|t| cache.tiers().device(t))
        .and_then(|d| d.wear_snapshot())
        .map(|w| w.effective_waf())
        .unwrap_or(0.0);

    Row {
        arm,
        step_secs: metrics.step_secs,
        waf,
        offload: metrics.offload,
        binding_step_secs: 0.0,
    }
}

fn emit_json(rows: &[Row]) {
    let mut out =
        String::from("{\n  \"bench\": \"io\",\n  \"model\": \"bert_h2048_l8\",\n  \"batch\": 8,\n");
    out.push_str(&format!(
        "  \"store_job_overhead_secs\": {STORE_JOB_OVERHEAD_SECS},\n  \"ssd_write_overhead_bytes\": {SSD_WRITE_OVERHEAD_BYTES},\n  \"binding_link_scale\": {BINDING_SCALE},\n  \"arms\": [\n"
    ));
    for (i, row) in rows.iter().enumerate() {
        let o = &row.offload;
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"segment_mib\": {}, \"group_modules\": {}, \"prefetch_depth\": {}, \"step_secs\": {:.6}, \"binding_step_secs\": {:.6}, \"waf\": {:.6}, \"load_stall_secs\": {:.6}, \"store_stall_secs\": {:.6}, \"arena_high_water_bytes\": {}, \"store_jobs\": {}, \"coalesce_segments\": {}, \"prefetch_groups\": {}, \"offloaded_bytes\": {}}}{}\n",
            row.arm.name,
            row.arm.segment_bytes >> 20,
            row.arm.group_modules,
            row.arm.depth,
            row.step_secs,
            row.binding_step_secs,
            row.waf,
            o.stall_secs,
            o.store_stall_secs,
            o.arena_high_water_bytes,
            o.store_jobs,
            o.coalesce_segments,
            o.prefetch_groups,
            o.offloaded_bytes,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    if std::fs::create_dir_all("results").is_ok()
        && std::fs::write("results/BENCH_io.json", &out).is_ok()
    {
        println!("\nwritten results/BENCH_io.json");
    }
}

fn main() {
    let rows: Vec<Row> = ARMS.iter().map(run_arm).collect();

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            let o = &row.offload;
            vec![
                row.arm.name.to_owned(),
                if row.arm.segment_bytes > 0 {
                    format!("{}", row.arm.segment_bytes >> 20)
                } else {
                    "-".into()
                },
                format!("{:.3}", row.step_secs),
                format!("{:.3}", row.binding_step_secs),
                format!("{:.3}", row.waf),
                format!("{:.4}", o.stall_secs),
                format!("{:.3}", o.store_stall_secs),
                format!("{:.2}", gb(o.arena_high_water_bytes)),
                format!("{}", o.store_jobs),
                format!("{}", o.coalesce_segments),
                format!("{:.2}", gb(o.offloaded_bytes)),
            ]
        })
        .collect();
    let binding_header = format!("step s ×{BINDING_SCALE}");
    print_table(
        "I/O path ablation (BERT H2048 L8, B=8, TP=2, tiered)",
        &[
            "arm",
            "seg MiB",
            "step s",
            &binding_header,
            "waf",
            "load stall s",
            "store stall s",
            "arena hw GB",
            "store jobs",
            "segments",
            "offloaded GB",
        ],
        &table,
    );
    emit_json(&rows);
    let jobs = |coalesced: bool| {
        rows.iter()
            .filter(move |r| (r.arm.segment_bytes > 0) == coalesced)
            .map(|r| r.offload.store_jobs)
    };
    let per_tensor = jobs(false).max().unwrap_or(0);
    let segments = jobs(true).min().unwrap_or(0);
    println!(
        "\ncoalescing collapses {per_tensor} per-tensor store jobs into {segments} sequential\n\
         segments: the per-job submission overhead leaves the step clock\n\
         and the per-op media padding leaves the wear meter (lower effective WAF).\n\
         group prefetch on the double buffer keeps the backward's next group in\n\
         flight while the current one is consumed, holding the load stall at or\n\
         below the on-demand baseline."
    );
}
