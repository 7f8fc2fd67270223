//! Figure 10 — step time and activation memory peak with and without
//! TBA offloading, for BERT/GPT/T5 at the paper's three
//! (hidden, layers) points, batch 16, tensor-parallel over 2 GPUs.

use ssdtrain::PlacementStrategy;
use ssdtrain_bench::{
    export_trace, gib, measured_step, paper_session, paper_session_traced, print_table, sink_for,
    trace_path_from_args,
};
use ssdtrain_models::Arch;

fn main() {
    let trace_path = trace_path_from_args();
    let sink = sink_for(&trace_path);
    let configs = [(8192usize, 4usize), (12288, 3), (16384, 2)];
    let archs = [Arch::Bert, Arch::Gpt, Arch::T5];
    let batch = 16;

    let mut rows = Vec::new();
    for arch in archs {
        for (h, l) in configs {
            let mut keep = paper_session(arch, h, l, batch, PlacementStrategy::Keep);
            let mk = measured_step(&mut keep, PlacementStrategy::Keep);
            let mut off =
                paper_session_traced(arch, h, l, batch, PlacementStrategy::Offload, sink.clone());
            let mo = measured_step(&mut off, PlacementStrategy::Offload);
            let overhead = (mo.step_secs / mk.step_secs - 1.0) * 100.0;
            let reduction = (1.0 - mo.act_peak_bytes as f64 / mk.act_peak_bytes as f64) * 100.0;
            rows.push(vec![
                format!("{arch} H{h} L{l}"),
                format!("{:.3}", mk.step_secs),
                format!("{:.3}", mo.step_secs),
                format!("{:+.2}%", overhead),
                format!("{:.2}", gib(mk.act_peak_bytes)),
                format!("{:.2}", gib(mo.act_peak_bytes)),
                format!("{:.0}%", reduction),
                format!("{:.4}", mo.offload.stall_secs),
                format!(
                    "{:.4}",
                    mo.offload.store_stall_secs + mo.offload.memory_stall_secs
                ),
            ]);
        }
    }
    print_table(
        "Figure 10 — step time and activation peak, keep vs TBA offload (B=16, TP=2)",
        &[
            "model",
            "keep s",
            "TBA s",
            "overhead",
            "keep GiB",
            "TBA GiB",
            "peak cut",
            "load stall s",
            "store wait s",
        ],
        &rows,
    );
    println!(
        "\npaper claims: TBA has almost no step-time overhead in all cases (I/O fully \
         overlapped; stall ≈ 0) and cuts the activation peak by 28–47%.\n\
         the overhead is the exposed I/O: `load stall s` waits on reloads in backward, \
         `store wait s` on stores to land (stage-barrier drains and the backward's memory wait)."
    );
    if let Some(path) = trace_path {
        export_trace(&sink, &path);
    }
}
