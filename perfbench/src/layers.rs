//! Per-layer numbers: the simulator's own counters for one steady-state
//! step, and simulated self time per trace span category.

use crate::measure::FirstStep;
use crate::report::Metrics;
use ssdtrain::trace::{EventKind, TraceEvent};
use ssdtrain::{OffloadClass, TraceCategory};
use ssdtrain_train::StepMetrics;

const GB: f64 = 1e9;
const GIB: f64 = (1u64 << 30) as f64;

/// `num / den`, 0 when nothing was attempted.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Records the cache, coalescer, I/O, tier, class, arena, SSD, memory,
/// optimizer-engine and session counters of `first`.
pub fn record_step_counters(first: &FirstStep, out: &mut Metrics) {
    let m = &first.metrics;
    let o = &m.offload;
    out.set("cache.load_stall_s", o.stall_secs);
    out.set("cache.store_drain_stall_s", o.store_stall_secs);
    out.set("cache.offloaded_gb", o.offloaded_bytes as f64 / GB);
    out.set("cache.reloaded_gb", o.reloaded_bytes as f64 / GB);
    out.set("cache.dedup_hits", o.dedup_hits as f64);
    out.set("cache.forwarded", o.forwarded as f64);
    out.set("cache.cancelled_stores", o.cancelled_stores as f64);
    out.set("cache.kept", o.kept as f64);
    out.set(
        "cache.prefetch_hit_ratio",
        ratio(o.prefetches, o.prefetches + o.sync_loads),
    );
    out.set("coalesce.segments", o.coalesce_segments as f64);
    out.set(
        "coalesce.coalesced_bytes_ratio",
        ratio(o.coalesced_bytes, o.offloaded_bytes),
    );
    out.set("coalesce.evictions", o.coalesce_evictions as f64);
    out.set("io.store_jobs", o.store_jobs as f64);
    out.set("io.prefetch_groups", o.prefetch_groups as f64);

    for (tier, names) in [
        (
            "dram",
            [
                "tier.dram.write_busy_s",
                "tier.dram.read_busy_s",
                "tier.dram.stall_s",
                "tier.dram.spilled_in_gb",
            ],
        ),
        (
            "ssd",
            [
                "tier.ssd.write_busy_s",
                "tier.ssd.read_busy_s",
                "tier.ssd.stall_s",
                "tier.ssd.spilled_in_gb",
            ],
        ),
    ] {
        let t = o.tiers.iter().find(|t| t.name == tier);
        let values = t.map_or([0.0; 4], |t| {
            [
                t.write_busy_secs,
                t.read_busy_secs,
                t.stall_secs,
                t.spilled_in_bytes as f64 / GB,
            ]
        });
        for (name, v) in names.into_iter().zip(values) {
            out.set(name, v);
        }
    }

    for (class, names) in [
        (
            OffloadClass::Activation,
            [
                "class.activation.offloaded_gb",
                "class.activation.stores",
                "class.activation.loads",
            ],
        ),
        (
            OffloadClass::Gradient,
            [
                "class.gradient.offloaded_gb",
                "class.gradient.stores",
                "class.gradient.loads",
            ],
        ),
        (
            OffloadClass::OptimizerState,
            [
                "class.optimizer_state.offloaded_gb",
                "class.optimizer_state.stores",
                "class.optimizer_state.loads",
            ],
        ),
    ] {
        let values = o.class(class).map_or([0.0; 3], |c| {
            [
                c.offloaded_bytes as f64 / GB,
                c.stores as f64,
                c.loads as f64,
            ]
        });
        for (name, v) in names.into_iter().zip(values) {
            out.set(name, v);
        }
    }

    out.set("arena.high_water_gb", o.arena_high_water_bytes as f64 / GB);
    out.set(
        "arena.slab_reuse_ratio",
        ratio(first.arena.reuses, first.arena.acquisitions),
    );
    out.set(
        "ssd.effective_waf",
        ratio(first.ssd_media_bytes, first.ssd_host_bytes),
    );
    out.set("ssd.host_write_gb", first.ssd_host_bytes as f64 / GB);
    out.set(
        "memory.act_at_bwd_start_gib",
        m.act_at_bwd_start as f64 / GIB,
    );
    out.set("opt_engine.exposed_s", m.opt_exposed_secs);
    out.set("opt_engine.inline_s", m.opt_secs);
    out.set("session.fwd_s", m.fwd_secs);
    out.set("session.comm_s", m.comm_secs);
}

/// How the offloading step compares with the Keep reference: step-time
/// overhead and activation-peak cut, both in percent.
pub fn vs_reference(offload: &StepMetrics, keep: &StepMetrics) -> (f64, f64) {
    (
        (offload.step_secs / keep.step_secs - 1.0) * 100.0,
        (1.0 - offload.act_peak_bytes as f64 / keep.act_peak_bytes as f64) * 100.0,
    )
}

/// Span categories whose spans nest inside a parent span: a span's
/// children are the spans of these categories that lie within its
/// interval. The compute stream nests step → stage → exposed waits
/// (load stalls and store drains); a reload's span wraps the link
/// transfer that carries it. Store spans are the write transfers
/// themselves and have no children.
fn child_categories(cat: TraceCategory) -> &'static [TraceCategory] {
    match cat {
        TraceCategory::Session => &[TraceCategory::Stage],
        TraceCategory::Stage => &[TraceCategory::Stall, TraceCategory::Tier],
        TraceCategory::Load => &[TraceCategory::Link],
        _ => &[],
    }
}

/// The `trace.self_s.*` key of a span, if the catalogue reports it.
fn self_time_key(e: &TraceEvent) -> Option<&'static str> {
    Some(match (e.cat, e.name.as_str()) {
        (TraceCategory::Session, "step") => "trace.self_s.session",
        (TraceCategory::Stage, "stage.load_mb0") => "trace.self_s.stage.load_mb0",
        (TraceCategory::Stage, "stage.forward") => "trace.self_s.stage.forward",
        (TraceCategory::Stage, "stage.comm") => "trace.self_s.stage.comm",
        (TraceCategory::Stage, "stage.backward") => "trace.self_s.stage.backward",
        (TraceCategory::Stage, "stage.optimizer") => "trace.self_s.stage.optimizer",
        (TraceCategory::Stall, _) => "trace.self_s.stall",
        (TraceCategory::Tier, _) => "trace.self_s.tier",
        (TraceCategory::Store, _) => "trace.self_s.store",
        (TraceCategory::Load, _) => "trace.self_s.load",
        (TraceCategory::Link, _) => "trace.self_s.link",
        _ => return None,
    })
}

fn span_bounds(e: &TraceEvent) -> Option<(f64, f64)> {
    match e.kind {
        EventKind::Span { dur_secs } => {
            let start = e.ts.as_secs();
            Some((start, start + dur_secs))
        }
        _ => None,
    }
}

/// Length of the union of `intervals`.
fn union_len(mut intervals: Vec<(f64, f64)>) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for (s, e) in intervals {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

/// Simulated self time per reported span kind, summed over `events`: a
/// span's duration minus the part of its interval its child spans
/// cover. Every catalogue key is present (0 when no span of that kind
/// ran).
pub fn self_times(events: &[TraceEvent]) -> Vec<(&'static str, f64)> {
    let mut totals: Vec<(&'static str, f64)> = crate::report::PER_LAYER
        .iter()
        .filter(|(n, _)| n.starts_with("trace.self_s."))
        .map(|(n, _)| (*n, 0.0))
        .collect();
    let spans: Vec<(&TraceEvent, (f64, f64))> = events
        .iter()
        .filter_map(|e| span_bounds(e).map(|b| (e, b)))
        .collect();
    for (e, (start, end)) in &spans {
        let Some(key) = self_time_key(e) else {
            continue;
        };
        let children = child_categories(e.cat);
        let covered: Vec<(f64, f64)> = spans
            .iter()
            .filter(|(c, _)| c.step == e.step && children.contains(&c.cat))
            .map(|(_, (s, t))| (s.max(*start), t.min(*end)))
            .filter(|(s, t)| t > s)
            .collect();
        let own = (end - start) - union_len(covered);
        if let Some(slot) = totals.iter_mut().find(|(k, _)| *k == key) {
            slot.1 += own.max(0.0);
        }
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssdtrain::TraceSink;
    use ssdtrain_simhw::SimTime;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union_len(vec![(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]), 4.0);
        assert_eq!(union_len(Vec::new()), 0.0);
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let sink = TraceSink::enabled();
        sink.next_step();
        sink.span(TraceCategory::Session, "step", t(0.0), t(10.0));
        sink.span(TraceCategory::Stage, "stage.forward", t(0.0), t(4.0));
        sink.span(TraceCategory::Stage, "stage.backward", t(4.0), t(10.0));
        // Two overlapping stalls inside backward: 2 s covered, not 3.
        sink.span(TraceCategory::Stall, "stall.load", t(5.0), t(6.5));
        sink.span(TraceCategory::Stall, "stall.load", t(6.0), t(7.0));
        // A reload and the link transfer inside it.
        sink.span(TraceCategory::Load, "load", t(1.0), t(3.0));
        sink.span(TraceCategory::Link, "xfer.offload-read", t(1.5), t(3.0));
        // A store overlapping forward is not forward's child.
        sink.span(TraceCategory::Store, "store", t(1.0), t(2.0));
        let got: std::collections::BTreeMap<_, _> =
            self_times(&sink.events()).into_iter().collect();
        assert_eq!(got["trace.self_s.session"], 0.0);
        assert_eq!(got["trace.self_s.stage.forward"], 4.0);
        assert_eq!(got["trace.self_s.stage.backward"], 4.0);
        assert_eq!(got["trace.self_s.stall"], 2.5);
        assert_eq!(got["trace.self_s.load"], 0.5);
        assert_eq!(got["trace.self_s.link"], 1.5);
        assert_eq!(got["trace.self_s.store"], 1.0);
        assert_eq!(got["trace.self_s.tier"], 0.0);
    }
}
