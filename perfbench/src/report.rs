//! Metric catalogue and the benchmark's JSON output.

use std::collections::BTreeMap;

/// End-to-end metrics (`--trace 0`): name and unit. Simulated seconds
/// carry the unit `sim_s`; host wall-clock times carry `ms` or `s`.
/// Host step times are per-layer numbers: on a shared 2-core host their
/// run-to-run spread is wider than any bound a gate could use.
pub const END_TO_END: &[(&str, &str)] = &[
    ("sim_step_s", "sim_s"),
    ("act_peak_gib", "GiB"),
    ("gpu_peak_gib", "GiB"),
    ("ssd_media_gb_per_step", "GB"),
    ("setup_s", "s"),
    ("host_peak_rss_mib", "MiB"),
];

/// Per-layer metrics (`--trace 1`), named by module: name and unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("cache.load_stall_s", "sim_s"),
    ("cache.store_drain_stall_s", "sim_s"),
    ("cache.offloaded_gb", "GB"),
    ("cache.reloaded_gb", "GB"),
    ("cache.dedup_hits", "count"),
    ("cache.forwarded", "count"),
    ("cache.cancelled_stores", "count"),
    ("cache.kept", "count"),
    ("cache.prefetch_hit_ratio", "ratio"),
    ("coalesce.segments", "count"),
    ("coalesce.coalesced_bytes_ratio", "ratio"),
    ("coalesce.evictions", "count"),
    ("io.store_jobs", "count"),
    ("io.prefetch_groups", "count"),
    ("tier.dram.write_busy_s", "sim_s"),
    ("tier.dram.read_busy_s", "sim_s"),
    ("tier.dram.stall_s", "sim_s"),
    ("tier.dram.spilled_in_gb", "GB"),
    ("tier.ssd.write_busy_s", "sim_s"),
    ("tier.ssd.read_busy_s", "sim_s"),
    ("tier.ssd.stall_s", "sim_s"),
    ("tier.ssd.spilled_in_gb", "GB"),
    ("class.activation.offloaded_gb", "GB"),
    ("class.activation.stores", "count"),
    ("class.activation.loads", "count"),
    ("class.gradient.offloaded_gb", "GB"),
    ("class.gradient.stores", "count"),
    ("class.gradient.loads", "count"),
    ("class.optimizer_state.offloaded_gb", "GB"),
    ("class.optimizer_state.stores", "count"),
    ("class.optimizer_state.loads", "count"),
    ("arena.high_water_gb", "GB"),
    ("arena.slab_reuse_ratio", "ratio"),
    ("ssd.effective_waf", "ratio"),
    ("ssd.host_write_gb", "GB"),
    ("memory.act_at_bwd_start_gib", "GiB"),
    ("opt_engine.exposed_s", "sim_s"),
    ("opt_engine.inline_s", "sim_s"),
    ("session.fwd_s", "sim_s"),
    ("session.comm_s", "sim_s"),
    ("host_step_ms.p50", "ms"),
    ("host_step_ms.tail", "ms"),
    ("session.new_ms", "ms"),
    ("session.profile_step_ms", "ms"),
    ("ref.overhead_pct", "%"),
    ("ref.act_peak_cut_pct", "%"),
    ("trace.self_s.session", "sim_s"),
    ("trace.self_s.stage.load_mb0", "sim_s"),
    ("trace.self_s.stage.forward", "sim_s"),
    ("trace.self_s.stage.comm", "sim_s"),
    ("trace.self_s.stage.backward", "sim_s"),
    ("trace.self_s.stage.optimizer", "sim_s"),
    ("trace.self_s.stall", "sim_s"),
    ("trace.self_s.tier", "sim_s"),
    ("trace.self_s.store", "sim_s"),
    ("trace.self_s.load", "sim_s"),
    ("trace.self_s.link", "sim_s"),
    ("trace.overhead_pct", "%"),
    ("cache.pack_ns", "ns/op"),
    ("cache.unpack_ns", "ns/op"),
    ("io.submit_store_ns", "ns/op"),
    ("io.submit_load_ns", "ns/op"),
    ("coalesce.stage_ns", "ns/op"),
    ("coalesce.seal_ns", "ns/op"),
    ("arena.acquire_ns", "ns/op"),
    ("arena.release_ns", "ns/op"),
    ("target.write_ns", "ns/op"),
    ("target.read_ns", "ns/op"),
    ("tensor.matmul_ns", "ns/op"),
];

/// Named metric values collected during a run.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Records `value` under `name` (the last write wins).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Catalogue names with no recorded value, and recorded names
    /// outside the catalogue.
    pub fn mismatches(&self, catalogue: &[(&str, &str)]) -> Vec<String> {
        let mut out: Vec<String> = catalogue
            .iter()
            .filter(|(n, _)| !self.values.contains_key(n))
            .map(|(n, _)| format!("missing metric {n}"))
            .collect();
        for name in self.values.keys() {
            if !catalogue.iter().any(|(n, _)| n == name) {
                out.push(format!("unlisted metric {name}"));
            }
        }
        for (name, v) in &self.values {
            if !v.is_finite() {
                out.push(format!("metric {name} is not finite: {v}"));
            }
        }
        out
    }

    /// The `metrics` object of the result line, in catalogue order.
    /// Values print with every digit Rust's shortest round-trip form
    /// keeps.
    pub fn to_json(&self, catalogue: &[(&str, &str)]) -> String {
        let fields: Vec<String> = catalogue
            .iter()
            .map(|(name, unit)| {
                let v = self.values.get(name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(name),
                    v,
                    json_str(unit)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// A fixed-width `name  value  unit` table for people.
    pub fn table(&self, catalogue: &[(&str, &str)]) -> String {
        let width = catalogue.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        catalogue
            .iter()
            .map(|(name, unit)| {
                let v = self.values.get(name).copied().unwrap_or(f64::NAN);
                format!("  {name:<width$}  {v:>16.6}  {unit}\n")
            })
            .collect()
    }
}

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
    catalogue: &[(&str, &str)],
) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json(catalogue)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(catalogue: &[(&'static str, &str)]) -> Vec<&'static str> {
        catalogue.iter().map(|(n, _)| *n).collect()
    }

    /// The names `BENCHMARK.json` lists under `key`, in file order.
    fn benchmark_json_names(key: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let start = text.find(&format!("\"{key}\"")).expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.match_indices("\"name\": \"")
            .map(|(i, m)| {
                let rest = &body[i + m.len()..];
                rest[..rest.find('"').expect("name closes")].to_owned()
            })
            .collect()
    }

    #[test]
    fn names_are_valid_and_unique() {
        let mut all = names(END_TO_END);
        all.extend(names(PER_LAYER));
        for n in &all {
            assert!(n.len() <= 64, "{n}");
            assert!(n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
        let mut dedup = all.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len(), "duplicate metric name");
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        assert_eq!(benchmark_json_names("end_to_end"), names(END_TO_END));
        assert_eq!(benchmark_json_names("per_layer"), names(PER_LAYER));
    }

    #[test]
    fn result_line_shape() {
        let mut m = Metrics::default();
        m.set("sim_step_s", 1.5);
        let line = result_line(true, 3, 0, &m, &END_TO_END[..1]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"sim_step_s\": {\"value\": 1.5, \"unit\": \"sim_s\"}}}"
        );
        assert_eq!(m.mismatches(&END_TO_END[..1]), Vec::<String>::new());
        assert_eq!(m.mismatches(&END_TO_END[..2]).len(), 1);
    }

    #[test]
    fn escapes_json_strings() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}
