//! Set-up, the measured step loop, and the checks every measured step
//! must pass.

use crate::workload::{Workload, WARMUP_STEPS};
use ssdtrain::TraceSink;
use ssdtrain_simhw::{ArenaStats, WearMeter};
use ssdtrain_train::{StepMetrics, TrainSession};
use std::time::{Duration, Instant};

/// Milliseconds in `d`.
fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A session that finished set-up, with what set-up cost.
pub struct Setup {
    /// The session, ready for its first measured step.
    pub session: TrainSession,
    /// Host seconds from construction to the end of warm-up.
    pub total_s: f64,
    /// Host milliseconds spent in `TrainSession::new`.
    pub new_ms: f64,
    /// Host milliseconds spent in the profiling step (0 when the
    /// workload does not profile).
    pub profile_ms: f64,
    /// Losses of the warm-up steps, in order.
    pub warmup_losses: Vec<f32>,
}

/// Builds the workload's offload session, profiles it where the
/// workload does, and runs the warm-up steps.
///
/// # Panics
/// Panics if construction or a set-up step fails: there is no
/// steady state to measure then.
pub fn set_up(w: Workload, seed: u64, sink: TraceSink) -> Setup {
    let start = Instant::now();
    let mut session = TrainSession::new(w.config(seed, sink)).expect("session construction");
    let new_ms = ms(start.elapsed());
    let mut profile_ms = 0.0;
    if w.profiles() {
        let t = Instant::now();
        session.profile_step().expect("profiling step");
        profile_ms = ms(t.elapsed());
    }
    let warmup_losses = (0..WARMUP_STEPS)
        .map(|_| session.run_step().expect("warm-up step").loss)
        .collect();
    Setup {
        session,
        total_s: start.elapsed().as_secs_f64(),
        new_ms,
        profile_ms,
        warmup_losses,
    }
}

/// Set-up costs sampled across the measured window: whenever `every`
/// has passed since the last sample, one more set-up is run, timed and
/// dropped. Spreading the samples over the run averages the host's
/// speed drift the way the measured steps see it.
pub struct SetupSamples {
    w: Workload,
    seed: u64,
    every: Duration,
    last: Instant,
    /// Host seconds of every set-up.
    pub total_s: Vec<f64>,
    /// `TrainSession::new` milliseconds of every set-up.
    pub new_ms: Vec<f64>,
    /// Profiling-step milliseconds of every set-up.
    pub profile_ms: Vec<f64>,
    /// Peak resident set, read just before the first sampled set-up.
    rss_mib: Option<f64>,
}

impl SetupSamples {
    /// Starts from `first`, the set-up of the measured session. About
    /// twenty samples fall in `window`, fewer when one set-up is long:
    /// set-up never takes more than a sixth of the run.
    pub fn new(w: Workload, seed: u64, first: &Setup, window: Duration) -> SetupSamples {
        let every = (window / 20).max(Duration::from_secs_f64(5.0 * first.total_s));
        let mut samples = SetupSamples {
            w,
            seed,
            every,
            last: Instant::now(),
            total_s: Vec::new(),
            new_ms: Vec::new(),
            profile_ms: Vec::new(),
            rss_mib: None,
        };
        samples.record(first);
        samples
    }

    fn record(&mut self, s: &Setup) {
        self.total_s.push(s.total_s);
        self.new_ms.push(s.new_ms);
        self.profile_ms.push(s.profile_ms);
    }

    /// Takes one more sample if one is due.
    pub fn sample_if_due(&mut self) {
        if self.last.elapsed() >= self.every {
            self.rss_mib.get_or_insert_with(peak_rss_mib);
            let s = set_up(self.w, self.seed, TraceSink::disabled());
            self.record(&s);
            self.last = Instant::now();
        }
    }

    /// Peak resident set of the measured session alone, in MiB: read
    /// before the first sampled set-up builds a second session, or now
    /// when none has run.
    pub fn host_peak_rss_mib(&self) -> f64 {
        self.rss_mib.unwrap_or_else(peak_rss_mib)
    }
}

/// The SSD tier's wear meter, when the session has one.
fn ssd_wear(session: &TrainSession) -> Option<WearMeter> {
    let cache = session.cache()?;
    let tiers = cache.tiers();
    tiers
        .tier_ids()
        .into_iter()
        .find(|t| tiers.name(*t) == "ssd")
        .and_then(|t| tiers.device(t))
        .and_then(|d| d.wear_snapshot())
}

fn arena_stats(session: &TrainSession) -> ArenaStats {
    session
        .cache()
        .map(|c| c.arena().stats())
        .unwrap_or_default()
}

/// Staging-arena traffic of one step.
#[derive(Debug, Clone, Copy, Default)]
pub struct ArenaDelta {
    /// Payload bytes acquired.
    pub acquired_bytes: u64,
    /// Payload bytes released.
    pub released_bytes: u64,
    /// Slab acquisitions.
    pub acquisitions: u64,
    /// Acquisitions served from a free list.
    pub reuses: u64,
}

impl ArenaDelta {
    fn between(before: &ArenaStats, after: &ArenaStats) -> ArenaDelta {
        let reuses = after.slab_reuses - before.slab_reuses;
        ArenaDelta {
            acquired_bytes: after.acquired_bytes - before.acquired_bytes,
            released_bytes: after.released_bytes - before.released_bytes,
            acquisitions: after.slab_allocs - before.slab_allocs + reuses,
            reuses,
        }
    }
}

/// Every simulated number of a step the steady-state gate compares, in
/// a fixed order. The arena counters in `OffloadStats` are cumulative
/// over the session (acquired and released bytes too, despite their
/// per-step docs), so the step's arena traffic comes in as `arena`
/// deltas instead.
fn sim_signature(m: &StepMetrics, media_bytes: u64, arena: &ArenaDelta) -> Vec<f64> {
    let o = &m.offload;
    let mut v = vec![
        m.step_secs,
        m.fwd_secs,
        m.comm_secs,
        m.opt_secs,
        m.opt_exposed_secs,
        m.act_peak_bytes as f64,
        m.total_peak_bytes as f64,
        m.act_at_bwd_start as f64,
        m.model_flops as f64,
        m.ssd_host_writes as f64,
        media_bytes as f64,
        f64::from(u8::from(m.oom)),
        o.offloaded_bytes as f64,
        o.store_jobs as f64,
        o.dedup_avoided_bytes as f64,
        o.dedup_hits as f64,
        o.forwarded as f64,
        o.forwarded_bytes as f64,
        o.cancelled_stores as f64,
        o.cancelled_bytes as f64,
        o.prefetches as f64,
        o.sync_loads as f64,
        o.reloaded_bytes as f64,
        o.kept as f64,
        o.stall_secs,
        o.store_stall_secs,
        o.store_failures as f64,
        o.load_retries as f64,
        o.fallback_bytes as f64,
        o.kept_resident_bytes as f64,
        o.spilled_bytes as f64,
        o.placement_kept_bytes as f64,
        arena.acquired_bytes as f64,
        arena.released_bytes as f64,
        arena.acquisitions as f64,
        arena.reuses as f64,
        o.arena_high_water_bytes as f64,
        o.coalesce_segments as f64,
        o.coalesced_bytes as f64,
        o.coalesce_evictions as f64,
        o.prefetch_groups as f64,
        o.prefetch_group_bytes as f64,
    ];
    for t in &o.tiers {
        v.extend([
            t.bytes_written as f64,
            t.bytes_read as f64,
            t.stores as f64,
            t.loads as f64,
            t.spilled_in_bytes as f64,
            t.demoted_in_bytes as f64,
            t.stall_secs,
            t.write_busy_secs,
            t.read_busy_secs,
        ]);
    }
    for c in &o.classes {
        v.extend([
            c.offloaded_bytes as f64,
            c.reloaded_bytes as f64,
            c.stores as f64,
            c.loads as f64,
        ]);
    }
    v
}

/// Byte-conservation and health checks of one steady-state step: per
/// class, offloaded == reloaded; Σ tier writes == Σ class bytes ==
/// offloaded bytes; no OOM; recovery never engaged.
fn conservation_problems(m: &StepMetrics) -> Vec<String> {
    let o = &m.offload;
    let mut problems = Vec::new();
    for c in &o.classes {
        if c.offloaded_bytes != c.reloaded_bytes {
            problems.push(format!(
                "class {}: offloaded {} B != reloaded {} B",
                c.class, c.offloaded_bytes, c.reloaded_bytes
            ));
        }
    }
    let class_sum: u64 = o.classes.iter().map(|c| c.offloaded_bytes).sum();
    let tier_sum: u64 = o.tiers.iter().map(|t| t.bytes_written).sum();
    if class_sum != o.offloaded_bytes || tier_sum != o.offloaded_bytes {
        problems.push(format!(
            "byte account: tiers {tier_sum} B, classes {class_sum} B, offloaded {} B",
            o.offloaded_bytes
        ));
    }
    if m.oom {
        problems.push("simulated GPU ran out of memory".into());
    }
    if m.degraded() {
        problems.push("offload recovery engaged".into());
    }
    problems
}

/// What the first measured step left behind, for the per-layer report.
pub struct FirstStep {
    /// Its metrics.
    pub metrics: StepMetrics,
    /// SSD host bytes written during it.
    pub ssd_host_bytes: u64,
    /// SSD media bytes written during it (host bytes × effective WAF).
    pub ssd_media_bytes: u64,
    /// Its staging-arena traffic.
    pub arena: ArenaDelta,
}

/// Drives measured steps on one session and checks each.
pub struct Runner {
    /// The session under measurement.
    pub session: TrainSession,
    /// Host milliseconds of every measured step.
    pub host_ms: Vec<f64>,
    /// Loss of every measured step (NaN for a step that errored).
    pub losses: Vec<f32>,
    /// Whether each measured step failed a check or errored.
    pub step_failed: Vec<bool>,
    /// The first measured step (set after one step).
    pub first: Option<FirstStep>,
    /// The first few problems seen, for the report.
    pub problems: Vec<String>,
    signature: Option<Vec<f64>>,
    wear: Option<WearMeter>,
}

impl Runner {
    /// Wraps a session that finished set-up.
    pub fn new(session: TrainSession) -> Runner {
        let wear = ssd_wear(&session);
        Runner {
            session,
            host_ms: Vec::new(),
            losses: Vec::new(),
            step_failed: Vec::new(),
            first: None,
            problems: Vec::new(),
            signature: None,
            wear,
        }
    }

    /// Measured steps so far.
    pub fn attempted(&self) -> u64 {
        self.step_failed.len() as u64
    }

    /// Measured steps that failed.
    pub fn failed(&self) -> u64 {
        self.step_failed.iter().filter(|f| **f).count() as u64
    }

    /// Marks measured step `i` failed for `why`.
    pub fn fail(&mut self, i: usize, why: String) {
        self.step_failed[i] = true;
        if self.problems.len() < 8 {
            self.problems.push(format!("step {i}: {why}"));
        }
    }

    /// Runs and checks one measured step; returns its simulated
    /// signature when it completed.
    pub fn step(&mut self) -> Option<Vec<f64>> {
        let arena_before = arena_stats(&self.session);
        let start = Instant::now();
        let result = self.session.run_step();
        self.host_ms.push(ms(start.elapsed()));
        let i = self.step_failed.len();
        self.step_failed.push(false);
        let m = match result {
            Ok(m) => m,
            Err(e) => {
                self.losses.push(f32::NAN);
                self.fail(i, format!("step error: {e}"));
                return None;
            }
        };
        self.losses.push(m.loss);
        let wear = ssd_wear(&self.session);
        let (host, media) = match (&self.wear, &wear) {
            (Some(a), Some(b)) => (b.host_bytes - a.host_bytes, b.media_bytes - a.media_bytes),
            _ => (0, 0),
        };
        self.wear = wear;
        let arena = ArenaDelta::between(&arena_before, &arena_stats(&self.session));
        let signature = sim_signature(&m, media, &arena);
        for p in conservation_problems(&m) {
            self.fail(i, p);
        }
        match &self.signature {
            Some(first) if *first != signature => {
                let fields: Vec<usize> = (0..first.len().max(signature.len()))
                    .filter(|k| first.get(*k) != signature.get(*k))
                    .collect();
                self.fail(
                    i,
                    format!(
                        "simulated metrics differ from the first measured step (fields {fields:?})"
                    ),
                );
            }
            Some(_) => {}
            None => {
                self.signature = Some(signature.clone());
                self.first = Some(FirstStep {
                    metrics: m,
                    ssd_host_bytes: host,
                    ssd_media_bytes: media,
                    arena,
                });
            }
        }
        Some(signature)
    }
}

/// Fewest measured steps that leave ten samples beyond the workload's
/// tail percentile.
pub fn min_steps(w: Workload) -> usize {
    (1..)
        .find(|n| crate::stats::samples_beyond(*n, w.tail_percentile()) >= 10)
        .expect("a finite step count reaches ten samples")
}

/// The Keep-strategy reference run: its warm-up, then `steps` more
/// steps. Returns the metrics of the first step after warm-up and the
/// losses of every step.
pub fn reference_run(w: Workload, seed: u64, steps: usize) -> (StepMetrics, Vec<f32>) {
    let cfg = w
        .reference(seed)
        .build()
        .expect("reference config is valid");
    let mut keep = TrainSession::new(cfg).expect("reference session");
    let mut losses = Vec::new();
    let mut first = None;
    for i in 0..WARMUP_STEPS + steps.max(1) {
        let m = keep.run_step().expect("reference step");
        losses.push(m.loss);
        if i == WARMUP_STEPS {
            first = Some(m);
        }
    }
    (first.expect("the reference ran past warm-up"), losses)
}

/// Checks measured losses against the Keep reference bit for bit:
/// `warmup` then `runner`'s measured steps line up with `reference`.
pub fn check_losses(runner: &mut Runner, warmup: &[f32], reference: &[f32]) {
    if warmup != &reference[..warmup.len()] {
        runner.fail(0, "warm-up losses differ from the Keep reference".into());
    }
    for i in 0..runner.losses.len() {
        let (got, want) = (runner.losses[i], reference[warmup.len() + i]);
        if got.to_bits() != want.to_bits() {
            runner.fail(i, format!("loss {got} != Keep reference {want}"));
        }
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where the
/// kernel does not report it.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_has_ten_samples_beyond() {
        assert_eq!(min_steps(Workload::FunctionalGpt), 40);
        assert_eq!(min_steps(Workload::PaperFig10), 1000);
    }

    /// Signature of the second measured step (checks passing) of a
    /// fresh set-up at `seed`.
    fn steady_signature(w: Workload, seed: u64) -> (Vec<f64>, StepMetrics) {
        let mut r = Runner::new(set_up(w, seed, TraceSink::disabled()).session);
        r.step();
        let sig = r.step().expect("step completes");
        assert_eq!(r.failed(), 0, "{:?}", r.problems);
        (sig, r.first.expect("first step recorded").metrics)
    }

    #[test]
    fn symbolic_simulated_metrics_are_seed_invariant() {
        for w in [Workload::PaperFig10, Workload::SmallblockMixed] {
            assert_eq!(
                steady_signature(w, 42).0,
                steady_signature(w, 7).0,
                "{}",
                w.name()
            );
        }
    }

    #[test]
    fn simulated_values_match_the_reproduction() {
        let (_, fig10) = steady_signature(Workload::PaperFig10, 42);
        assert_eq!(format!("{:.6}", fig10.step_secs), "1.402057");
        assert_eq!(format!("{:.2}", fig10.act_peak_gib()), "5.50");
        assert_eq!(format!("{:.4}", fig10.offload.store_stall_secs), "0.0267");
        let (_, small) = steady_signature(Workload::SmallblockMixed, 42);
        assert_eq!(format!("{:.6}", small.step_secs), "0.457958");
    }

    #[test]
    fn rss_is_reported() {
        assert!(peak_rss_mib() > 0.0);
    }
}
