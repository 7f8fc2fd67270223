//! Steady-state training benchmark for the SSDTrain reproduction.
//!
//! ```sh
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-fig10 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Runs one workload's offloading `TrainSession` for many steady-state
//! steps in this process, checks every step, and prints the metrics of
//! `BENCHMARK.json`: the end-to-end set with `--trace 0`, the per-layer
//! set (from a traced run) with `--trace 1`. The last line of standard
//! output is the result object; the lines before it are the run
//! manifest and a table for people. Spill files go under
//! `.perfbench_run/` in the working directory and are removed at exit.
//! `perfbench/METRICS.md` explains the workloads and metrics.

mod layers;
mod measure;
mod micro;
mod report;
mod stats;
mod workload;

use measure::{check_losses, min_steps, reference_run, set_up, Runner, SetupSamples};
use report::{json_str, result_line, Metrics, END_TO_END, PER_LAYER};
use ssdtrain::TraceSink;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::Workload;

/// Version of the record layout (manifest keys and metric catalogue).
const SCHEMA_VERSION: u32 = 1;
const GIB: f64 = (1u64 << 30) as f64;

const USAGE: &str = "usage: perfbench --workload <paper-fig10|smallblock-mixed|functional-gpt> \
                     --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// What one run measured and checked.
struct Outcome {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    notes: Vec<String>,
}

impl Outcome {
    fn from_runners(metrics: Metrics, runners: &[&Runner], notes: Vec<String>) -> Outcome {
        Outcome {
            metrics,
            attempted: runners.iter().map(|r| r.attempted()).sum(),
            failed: runners.iter().map(|r| r.failed()).sum(),
            problems: runners.iter().flat_map(|r| r.problems.clone()).collect(),
            notes,
        }
    }
}

/// Runs measured steps on `runners` in turn until `budget` has passed
/// and each has at least `min` steps. `after_round` sees each round.
fn step_until(
    runners: &mut [&mut Runner],
    budget: Duration,
    min: usize,
    mut after_round: impl FnMut(&mut [&mut Runner], Vec<Option<Vec<f64>>>),
) {
    let start = Instant::now();
    while start.elapsed() < budget || runners.iter().any(|r| r.attempted() < min as u64) {
        let sigs = runners.iter_mut().map(|r| r.step()).collect();
        after_round(runners, sigs);
    }
}

/// Compares the offloading run with its Keep reference: the reference
/// metrics, and (for workloads with real data) every loss bit for bit.
fn verify_against_reference(
    args: &Args,
    runners: &mut [&mut Runner],
    warmup: &[Vec<f32>],
) -> ssdtrain_train::StepMetrics {
    let w = args.workload;
    let steps = if w.symbolic() {
        1
    } else {
        runners.iter().map(|r| r.losses.len()).max().unwrap_or(1)
    };
    let (keep, losses) = reference_run(w, args.seed, steps);
    if !w.symbolic() {
        for (r, warm) in runners.iter_mut().zip(warmup) {
            check_losses(r, warm, &losses);
        }
    }
    keep
}

/// Host step time of `runner`'s measured steps: median and the
/// workload's tail percentile, in ms.
fn host_step_ms(w: Workload, runner: &Runner) -> (f64, f64) {
    (
        stats::median(&runner.host_ms),
        stats::percentile(&runner.host_ms, w.tail_percentile()),
    )
}

fn host_step_note(w: Workload, runner: &Runner) -> String {
    let (p50, tail) = host_step_ms(w, runner);
    let (n, p) = (runner.host_ms.len(), w.tail_percentile());
    format!(
        "host step (untraced): p50 {p50:.4} ms, p{p} {tail:.4} ms over {n} steps ({} beyond p{p})",
        stats::samples_beyond(n, p)
    )
}

fn run_end_to_end(args: &Args) -> Outcome {
    let w = args.workload;
    let budget = Duration::from_secs(args.seconds);
    let setup = set_up(w, args.seed, TraceSink::disabled());
    let mut setups = SetupSamples::new(w, args.seed, &setup, budget);
    let warmup = vec![setup.warmup_losses];
    let mut runner = Runner::new(setup.session);
    step_until(&mut [&mut runner], budget, min_steps(w), |_, _| {
        setups.sample_if_due();
    });
    let rss = setups.host_peak_rss_mib();
    let keep = verify_against_reference(args, &mut [&mut runner], &warmup);

    let mut m = Metrics::default();
    if let Some(first) = &runner.first {
        let s = &first.metrics;
        m.set("sim_step_s", s.step_secs);
        m.set("act_peak_gib", s.act_peak_bytes as f64 / GIB);
        m.set("gpu_peak_gib", s.total_peak_bytes as f64 / GIB);
        m.set("ssd_media_gb_per_step", first.ssd_media_bytes as f64 / 1e9);
    }
    m.set("setup_s", stats::median(&setups.total_s));
    m.set("host_peak_rss_mib", rss);

    let mut notes = vec![
        host_step_note(w, &runner),
        format!(
            "setup_s is the median of {} set-ups spread over the run",
            setups.total_s.len()
        ),
        format!(
            "failed_step_ratio {}/{}",
            runner.failed(),
            runner.attempted()
        ),
    ];
    if let Some(first) = &runner.first {
        let (overhead, cut) = layers::vs_reference(&first.metrics, &keep);
        notes.push(format!(
            "vs Keep: step overhead {overhead:+.2}% (paper: almost none), activation peak cut \
             {cut:.1}% (paper: 28-47%); load stall {:.6} sim_s, store-drain stall {:.6} sim_s",
            first.metrics.offload.stall_secs, first.metrics.offload.store_stall_secs,
        ));
    }
    Outcome::from_runners(m, &[&runner], notes)
}

fn run_traced(args: &Args, scratch: &Path) -> Outcome {
    let w = args.workload;
    let budget = Duration::from_secs(args.seconds);
    let setup = set_up(w, args.seed, TraceSink::disabled());
    let mut setups = SetupSamples::new(w, args.seed, &setup, budget / 2);
    let sink = TraceSink::enabled();
    let traced_setup = set_up(w, args.seed, sink.clone());
    sink.clear();
    let warmup = vec![setup.warmup_losses, traced_setup.warmup_losses];
    let mut plain = Runner::new(setup.session);
    let mut traced = Runner::new(traced_setup.session);

    // Half the run alternates untraced and traced steps; the trace of
    // the first traced step gives self times and the size stream.
    let mut events = None;
    step_until(
        &mut [&mut plain, &mut traced],
        budget / 2,
        min_steps(w),
        |runners, sigs| {
            if events.is_none() {
                events = Some(sink.events());
            }
            sink.clear();
            if let [Some(a), Some(b)] = &sigs[..] {
                if a != b {
                    let i = runners[1].step_failed.len() - 1;
                    runners[1].fail(i, "tracing changed the simulated metrics".into());
                }
            }
            setups.sample_if_due();
        },
    );
    let events = events.unwrap_or_default();
    let keep = verify_against_reference(args, &mut [&mut plain, &mut traced], &warmup);

    let mut m = Metrics::default();
    if let Some(first) = &plain.first {
        layers::record_step_counters(first, &mut m);
        let (overhead, cut) = layers::vs_reference(&first.metrics, &keep);
        m.set("ref.overhead_pct", overhead);
        m.set("ref.act_peak_cut_pct", cut);
    }
    for (name, v) in layers::self_times(&events) {
        m.set(name, v);
    }
    let (p50_plain, p50_traced) = (
        stats::median(&plain.host_ms),
        stats::median(&traced.host_ms),
    );
    m.set("trace.overhead_pct", (p50_traced / p50_plain - 1.0) * 100.0);
    let (p50, tail) = host_step_ms(w, &plain);
    m.set("host_step_ms.p50", p50);
    m.set("host_step_ms.tail", tail);
    m.set("session.new_ms", stats::median(&setups.new_ms));
    m.set("session.profile_step_ms", stats::median(&setups.profile_ms));

    // The other half times single layers' public functions.
    let cfg = w.config(args.seed, TraceSink::disabled());
    let stream = micro::Stream::from_events(&events);
    let spill_dir = scratch.join("micro-target");
    let target = micro::Target {
        symbolic: w.symbolic(),
        cache: cfg.cache.clone(),
        link_bps: (
            cfg.system.offload_write_bps(),
            cfg.system.offload_read_bps(),
        ),
        // Workloads that do not coalesce are sealed at smallblock-mixed's
        // segment size.
        segment_bytes: match cfg.cache.coalesce_segment_bytes {
            0 => 256 << 20,
            b => b,
        },
        spill_dir: &spill_dir,
    };
    let each = budget / 12;
    let pairs = [
        (
            ["cache.pack_ns", "cache.unpack_ns"],
            micro::cache_pack_unpack(&target, &stream, each),
        ),
        (
            ["io.submit_store_ns", "io.submit_load_ns"],
            micro::io_submit(&target, &stream, each),
        ),
        (
            ["coalesce.stage_ns", "coalesce.seal_ns"],
            micro::coalesce(&target, &stream, each),
        ),
        (
            ["arena.acquire_ns", "arena.release_ns"],
            micro::arena(&stream, each),
        ),
        (
            ["target.write_ns", "target.read_ns"],
            micro::target(&target, &stream, each),
        ),
    ];
    for (names, values) in pairs {
        for (name, v) in names.into_iter().zip(values) {
            m.set(name, v);
        }
    }
    let gpt = Workload::FunctionalGpt.config(0, TraceSink::disabled());
    m.set(
        "tensor.matmul_ns",
        micro::matmul(gpt.batch_size * gpt.model.seq, gpt.model.hidden, each),
    );

    let notes = vec![
        host_step_note(w, &plain),
        format!(
            "{} traced steps: host p50 {p50_traced:.4} ms",
            traced.attempted()
        ),
        format!(
            "size stream: {} stores, {} loads",
            stream.stores.len(),
            stream.loads.len()
        ),
    ];
    Outcome::from_runners(m, &[&plain, &traced], notes)
}

/// The commit of the repository at `root`, with `-dirty` appended when
/// tracked files differ from it, or `unknown` when `root` is not a git
/// work tree (a source export) or git is missing. Only `root/.git` is
/// consulted: git does not search the directories above `root`.
fn commit_of(root: &Path) -> String {
    std::process::Command::new("git")
        .arg("--git-dir")
        .arg(root.join(".git"))
        .arg("--work-tree")
        .arg(root)
        .args(["describe", "--always", "--dirty", "--abbrev=40"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".into())
}

/// The repository the benchmark was built from: the parent of its own
/// package directory.
fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits inside the repository")
}

fn manifest(args: &Args) -> String {
    let knobs: Vec<String> = args
        .workload
        .knobs(args.seed)
        .into_iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(&v)))
        .collect();
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"schema\": {SCHEMA_VERSION}, \"workload\": {}, \"seed\": {}, \"seconds\": {}, \
         \"trace\": {}, \"commit\": {}, \"host_parallelism\": {parallelism}, \
         \"model_validation\": \"simulated timing model; not validated against hardware\", \
         \"knobs\": {{{}}}}}",
        json_str(args.workload.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_str(&commit_of(repo_root())),
        knobs.join(", ")
    )
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Sessions spill under the system temp dir; keep that inside the
    // working directory. Set before any thread starts.
    let run_dir = PathBuf::from(".perfbench_run");
    let scratch = std::env::current_dir()
        .expect("working directory")
        .join(&run_dir)
        .join(format!("tmp-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        return ExitCode::from(1);
    }
    std::env::set_var("TMPDIR", &scratch);

    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    let mut outcome = if args.trace {
        run_traced(&args, &scratch)
    } else {
        run_end_to_end(&args)
    };
    let mismatches = outcome.metrics.mismatches(catalogue);
    let correct = outcome.failed == 0 && outcome.problems.is_empty() && mismatches.is_empty();
    outcome.problems.extend(mismatches);

    println!("{{\"manifest\": {}}}", manifest(&args));
    println!(
        "{} ({}):",
        args.workload.name(),
        if args.trace {
            "per-layer, traced run"
        } else {
            "end-to-end"
        }
    );
    print!("{}", outcome.metrics.table(catalogue));
    for note in &outcome.notes {
        println!("note: {note}");
    }
    for p in &outcome.problems {
        println!("problem: {p}");
    }
    let line = result_line(
        correct,
        outcome.attempted.max(1),
        outcome.failed,
        &outcome.metrics,
        catalogue,
    );
    let _ = std::fs::remove_dir_all(&scratch);
    // Only succeeds when no other run is using it.
    let _ = std::fs::remove_dir(&run_dir);
    println!("{line}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&strings(&[
            "--workload",
            "smallblock-mixed",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .expect("valid");
        assert_eq!(a.workload, Workload::SmallblockMixed);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3, true));
        assert!(parse_args(&strings(&["--workload", "x", "--seed", "1"])).is_err());
        assert!(parse_args(&strings(&["--seed", "1", "--seconds", "1"])).is_err());
        assert!(parse_args(&strings(&["--trace", "2"])).is_err());
    }

    fn git(dir: &Path, args: &[&str]) {
        let ok = std::process::Command::new("git")
            .arg("-C")
            .arg(dir)
            .args([
                "-c",
                "user.name=t",
                "-c",
                "user.email=t@t",
                "-c",
                "commit.gpgsign=false",
            ])
            .args(args)
            .output()
            .expect("git runs")
            .status
            .success();
        assert!(ok, "git {args:?}");
    }

    #[test]
    fn commit_is_marked_dirty_when_tracked_files_change() {
        let dir = repo_root()
            .join(".perfbench_run")
            .join(format!("git-test-{}", std::process::id()));
        let plain = dir.join("plain");
        let repo = dir.join("repo");
        std::fs::create_dir_all(&plain).expect("plain dir");
        std::fs::create_dir_all(&repo).expect("repo dir");
        assert_eq!(commit_of(&plain), "unknown");

        git(&repo, &["init", "-q"]);
        std::fs::write(repo.join("f"), "a").expect("write");
        git(&repo, &["add", "f"]);
        git(&repo, &["commit", "-q", "-m", "c"]);
        let clean = commit_of(&repo);
        assert_eq!(clean.len(), 40, "{clean}");
        assert!(clean.bytes().all(|b| b.is_ascii_hexdigit()), "{clean}");

        std::fs::write(repo.join("f"), "b").expect("write");
        assert_eq!(commit_of(&repo), format!("{clean}-dirty"));
        git(&repo, &["add", "f"]);
        assert_eq!(
            commit_of(&repo),
            format!("{clean}-dirty"),
            "staged counts too"
        );
        std::fs::remove_dir_all(&dir).expect("clean up");
    }
}
