//! The mbist benchmark: one command for the `coverage`, `synth-search`
//! and `serve-routed` workloads, and for `serve`, which runs only when
//! named.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload coverage|synth-search|serve|serve-routed|all \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Every run checks its outputs (see `check.rs`) and prints, as its last
//! line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
//! ledger with `--trace 1`. Lines before it name every metric with its
//! unit and record the provenance of the run.
//!
//! Invoked with an `mbist` command as its first argument (`serve …`,
//! `coverage …`) the binary behaves exactly like `mbist`: the serve
//! workloads start their daemon this way, `serve --shards` re-invokes it
//! for each shard, and `setup_s` times cold starts of it.

mod check;
mod coverage;
mod serve;
mod stats;
mod synth;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use stats::{median, tail, Ledger, Tail};

/// The benchmark's workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 3] = ["coverage", "synth-search", "serve-routed"];
/// Runs only when named: the daemon without the router, the comparison
/// partner of `serve-routed` (see README.md).
const EXTRA_WORKLOAD: &str = "serve";

/// End-to-end metrics: name, unit.
const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ok_ratio", "ratio"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
    ("faults_per_s", "1/s"),
    ("candidates_per_s", "1/s"),
    ("found_ops_per_cell", "ops/cell"),
    ("found_coverage", "ratio"),
];

/// Per-layer metrics of the traced runs: name, unit. A workload that does
/// not exercise a layer reports it as 0.
const PER_LAYER: [(&str, &str); 44] = [
    ("mem.universe.ms", "ms"),
    ("mem.universe.faults", "count"),
    ("march.expand.ms", "ms"),
    ("march.expand.steps", "count"),
    ("march.trace.compile.ms", "ms"),
    ("march.trace.bytes", "bytes"),
    ("march.simulate.packed.ms", "ms"),
    ("march.simulate.packed.faults", "count"),
    ("march.simulate.sliced.ms", "ms"),
    ("march.simulate.sliced.faults", "count"),
    ("march.simulate.full.ms", "ms"),
    ("march.simulate.full.faults", "count"),
    ("march.routing.batchable_ratio", "ratio"),
    ("march.fanout.auto_over_serial", "ratio"),
    ("cli.format.ms", "ms"),
    ("coverage.unaccounted.ms", "ms"),
    ("search.oracle.setup.ms", "ms"),
    ("search.strategy.self.ms", "ms"),
    ("search.oracle.compile.ms", "ms"),
    ("search.oracle.simulate.ms", "ms"),
    ("search.oracle.evaluations", "count"),
    ("search.oracle.memo_hit_ratio", "ratio"),
    ("search.exact.ms", "ms"),
    ("search.unaccounted.ms", "ms"),
    ("client.encode.ms", "ms"),
    ("client.decode.ms", "ms"),
    ("service.kind.coverage.exec_p50_us", "us"),
    ("service.kind.coverage.latency_p50_us", "us"),
    ("service.kind.detects.exec_p50_us", "us"),
    ("service.kind.detects.latency_p50_us", "us"),
    ("service.cache.trace_hit_ratio", "ratio"),
    ("service.cache.result_hit_ratio", "ratio"),
    ("service.cache.bytes", "bytes"),
    ("service.queue.rejected_busy", "count"),
    ("service.network_residual.ms", "ms"),
    ("router.forwarded", "count"),
    ("router.shed", "count"),
    ("router.shard.0.requests", "count"),
    ("router.shard.1.requests", "count"),
    ("router.residual.ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("reconcile.layer_sum.ms", "ms"),
    ("reconcile.total.ms", "ms"),
    ("reconcile.residual_share", "ratio"),
];

/// A reconciliation residual above this share of the total is flagged.
const RESIDUAL_FLAG: f64 = 0.10;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// One slice of a timed region: whole passes over the operation schedule
/// lasting at least a second, or one second of a serve phase. Rates are
/// medians over slices, so a burst of interference that spans fewer than
/// half of them does not move them.
#[derive(Default, Clone)]
pub struct Slice {
    pub secs: f64,
    /// Operations completed, failed ones included.
    pub ops: f64,
    /// CPU time of the working processes.
    pub cpu_ms: f64,
    /// Fault verdicts produced (simulated, or answered by the daemon).
    pub faults: f64,
    /// March tests scored: oracle evaluations for the search, graded
    /// tests elsewhere.
    pub candidates: f64,
}

/// What one workload run measured. Counts and times cover the untraced
/// timed region only; `ledger` holds the traced run's per-layer figures.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    /// Error, busy and timeout replies.
    pub failed: u64,
    /// Output-check failures: any entry makes the run incorrect.
    pub errors: Vec<String>,
    pub setup_s: f64,
    pub slices: Vec<Slice>,
    pub latencies_ms: Vec<f64>,
    /// The tail, when the workload computes its own (per slice or pass,
    /// then the median over them); otherwise it is taken over
    /// `latencies_ms`.
    pub tail: Option<Tail>,
    pub peak_rss_mb: f64,
    /// Ops per cell of each march test the workload returned.
    pub ops_per_cell: Vec<f64>,
    /// Coverage (detected / total) of each march test it returned.
    pub coverage: Vec<f64>,
    /// Complete passes over the workload's operation schedule.
    pub passes: usize,
    pub ledger: Ledger,
}

impl Report {
    fn tail(&self) -> Option<Tail> {
        self.tail
            .or_else(|| (!self.latencies_ms.is_empty()).then(|| tail(&self.latencies_ms)))
    }

    fn end_to_end(&self) -> Vec<(&'static str, f64)> {
        let lat = if self.latencies_ms.is_empty() {
            vec![0.0]
        } else {
            self.latencies_ms.clone()
        };
        let slices = if self.slices.is_empty() {
            vec![Slice::default()]
        } else {
            self.slices.clone()
        };
        let rate = |f: fn(&Slice) -> f64| {
            median(&slices.iter().map(|s| f(s) / s.secs).collect::<Vec<_>>())
        };
        let values = [
            self.setup_s,
            rate(|s| s.ops),
            median(&lat),
            self.tail().map_or(0.0, |t| t.value),
            1.0 - self.failed as f64 / self.attempted.max(1) as f64,
            median(&slices.iter().map(|s| s.cpu_ms / s.ops).collect::<Vec<_>>()),
            self.peak_rss_mb,
            rate(|s| s.faults),
            rate(|s| s.candidates),
            stats::mean(&self.ops_per_cell),
            stats::mean(&self.coverage),
        ];
        END_TO_END.iter().map(|(name, _)| *name).zip(values).collect()
    }
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args { workload: String::new(), seed: 1, seconds: 25.0, trace: false };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("flag `{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => {
                args.seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?
            }
            "--seconds" => {
                args.seconds =
                    value.parse().map_err(|_| format!("bad --seconds `{value}`"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}` (0|1)")),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let known = args.workload == "all"
        || args.workload == EXTRA_WORKLOAD
        || WORKLOADS.contains(&args.workload.as_str());
    if !known {
        return Err(format!(
            "--workload must be one of {}, {EXTRA_WORKLOAD} or all",
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(args)
}

fn own_exe() -> PathBuf {
    std::env::current_exe().expect("the benchmark can locate its own binary")
}

/// Wall time, in seconds, of one cold start of this binary as
/// `mbist <args>`, run to completion.
pub fn cold_start_s(args: &[&str]) -> Result<f64, String> {
    let start = Instant::now();
    let status = Command::new(own_exe())
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cold start of `{}`: {e}", args.join(" ")))?;
    let secs = start.elapsed().as_secs_f64();
    if !status.success() {
        return Err(format!("cold start of `{}` exited with {status}", args.join(" ")));
    }
    Ok(secs)
}

/// `setup_s` samples are taken this far apart across the timed region.
/// Host speed on a shared machine moves by tens of percent within
/// seconds; samples taken back to back land in one such stretch, while
/// samples spread like this see the same mix of host speeds as the
/// operations they sit between.
const SETUP_EVERY: Duration = Duration::from_secs(1);
/// A run takes at least this many `setup_s` samples.
const SETUP_MIN_SAMPLES: usize = 9;

/// The `setup_s` samples of one run, taken between operations (the time
/// they take is left out of the timed region) and reduced to a median.
#[derive(Default)]
pub struct Setup {
    samples: Vec<f64>,
    last: Option<Instant>,
}

impl Setup {
    /// Whether the next sample is due: at the start of the timed region,
    /// then once `SETUP_EVERY` has passed since the last.
    pub fn due(&self) -> bool {
        self.last.is_none_or(|t| t.elapsed() >= SETUP_EVERY)
    }

    /// Takes one sample with `take`; returns the wall time it took.
    pub fn sample(
        &mut self,
        take: impl FnOnce() -> Result<f64, String>,
        errors: &mut Vec<String>,
    ) -> Duration {
        let start = Instant::now();
        match take() {
            Ok(s) => self.samples.push(s),
            Err(e) => errors.push(e),
        }
        self.last = Some(Instant::now());
        start.elapsed()
    }

    /// Tops the samples up to `SETUP_MIN_SAMPLES` and returns their
    /// median in seconds (0 when every sample failed).
    pub fn finish(
        mut self,
        mut take: impl FnMut() -> Result<f64, String>,
        errors: &mut Vec<String>,
    ) -> f64 {
        for _ in self.samples.len()..SETUP_MIN_SAMPLES {
            match take() {
                Ok(s) => self.samples.push(s),
                Err(e) => {
                    errors.push(e);
                    break;
                }
            }
        }
        if self.samples.is_empty() {
            0.0
        } else {
            median(&self.samples)
        }
    }
}

/// Runs whole passes over `schedule` (`mbist` argument lists, in an order
/// `rng` shuffles each pass) in process, until `args.seconds` have passed
/// and at least `min_passes` are done, timing each call into `report`.
/// Every later output of an operation must equal its first. `account`
/// adds the work of each successful output to the open slice and rejects
/// an output it cannot read; slices close after the first pass that ends
/// a second or more after they opened, since CPU time is read in 10 ms
/// ticks. Cold starts of `mbist <setup>` are timed between operations
/// for `setup_s`. Returns each operation's first output.
pub fn run_passes(
    args: &Args,
    schedule: &[Vec<String>],
    min_passes: usize,
    setup: &[&str],
    rng: &mut stats::Rng,
    report: &mut Report,
    account: impl Fn(&str, &mut Slice) -> Result<(), String>,
) -> Vec<Option<String>> {
    let mut outputs: Vec<Option<String>> = vec![None; schedule.len()];
    let mut setup_samples = Setup::default();
    let mut start = Instant::now();
    let mut slice =
        Slice { cpu_ms: stats::cpu_ms("self").unwrap_or(0.0), ..Slice::default() };
    let mut slice_start = start;
    // `slice.cpu_ms` holds the CPU reading at the slice's start until it
    // closes.
    let close = |slice: &mut Slice, slice_start: &mut Instant, report: &mut Report| {
        let cpu = stats::cpu_ms("self").unwrap_or(0.0);
        slice.secs = slice_start.elapsed().as_secs_f64();
        slice.cpu_ms = cpu - slice.cpu_ms;
        report
            .slices
            .push(std::mem::replace(slice, Slice { cpu_ms: cpu, ..Slice::default() }));
        *slice_start = Instant::now();
    };
    while report.passes < min_passes || start.elapsed().as_secs_f64() < args.seconds {
        let mut order: Vec<usize> = (0..schedule.len()).collect();
        rng.shuffle(&mut order);
        for i in order {
            if setup_samples.due() {
                // Left out of the timed region: its wall time shifts the
                // region's clocks, the CPU this process spent on it is
                // added to the slice's starting reading.
                let cpu = stats::cpu_ms("self").unwrap_or(0.0);
                let pause =
                    setup_samples.sample(|| cold_start_s(setup), &mut report.errors);
                start += pause;
                slice_start += pause;
                slice.cpu_ms += stats::cpu_ms("self").unwrap_or(0.0) - cpu;
            }
            let (result, ms) = stats::timed(|| mbist_cli::run(&schedule[i]));
            report.attempted += 1;
            slice.ops += 1.0;
            let text = match result {
                Ok(text) => text,
                Err(e) => {
                    report.failed += 1;
                    report.errors.push(format!("{:?}: {e}", schedule[i]));
                    continue;
                }
            };
            report.latencies_ms.push(ms);
            if let Err(e) = account(&text, &mut slice) {
                report.errors.push(format!("{:?}: {e}", schedule[i]));
            }
            match &outputs[i] {
                Some(first) => {
                    let what = format!("rerun of {:?}", schedule[i]);
                    if let Err(e) = check::same_bytes(&what, &text, first) {
                        report.errors.push(e);
                    }
                }
                None => outputs[i] = Some(text),
            }
        }
        report.passes += 1;
        if slice_start.elapsed().as_secs_f64() >= 1.0 {
            close(&mut slice, &mut slice_start, report);
        }
    }
    if report.slices.is_empty() {
        close(&mut slice, &mut slice_start, report);
    }
    report.peak_rss_mb = stats::peak_rss_mb("self").unwrap_or(0.0);
    report.setup_s = setup_samples.finish(|| cold_start_s(setup), &mut report.errors);
    outputs
}

fn run_workload(args: &Args) -> Report {
    let mut report = match args.workload.as_str() {
        "coverage" => coverage::run(args),
        "synth-search" => synth::run(args),
        "serve" => serve::run(args, false),
        "serve-routed" => serve::run(args, true),
        other => unreachable!("workload `{other}` was validated"),
    };
    if let Err(e) = check::self_test() {
        report.errors.push(e);
    }
    report
}

fn provenance(args: &Args, report: &Report) -> String {
    let commit = if std::path::Path::new(".git").exists() {
        Command::new("git")
            .args(["rev-parse", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    } else {
        None
    };
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let t = report.tail();
    format!(
        "{{\"provenance\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"commit\":\"{}\",\"nproc\":{nproc},\"profile\":\"{}\",\"passes\":{},\
         \"ops\":{},\"op_tail_percentile\":{},\"op_tail_samples\":{}}}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        commit.as_deref().unwrap_or("unavailable"),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        report.passes,
        report.attempted,
        t.as_ref().map_or(0.0, |t| t.percentile),
        t.as_ref().map_or(0, |t| t.samples),
    )
}

/// Prints the human-readable block for one workload and returns its
/// metrics as `(name, value, unit)`.
fn summarize(args: &Args, report: &Report) -> Vec<(String, f64, &'static str)> {
    println!("{}", provenance(args, report));
    let e2e = report.end_to_end();
    for ((name, value), (_, unit)) in e2e.iter().zip(END_TO_END) {
        println!("{:<10} {name:<20} {value:>14.4} {unit}", args.workload);
        if *name == "ok_ratio" {
            println!(
                "{:<10} {:<20} {:>14.4} ratio",
                args.workload,
                "failed_ratio",
                1.0 - value
            );
        }
    }
    if args.trace {
        for (name, unit) in PER_LAYER {
            println!(
                "{:<10} {name:<38} {:>14.4} {unit}",
                args.workload,
                report.ledger.get(name)
            );
        }
        let share = report.ledger.get("reconcile.residual_share");
        println!(
            "{:<10} reconcile: layers {:.3} ms of {:.3} ms, residual {:.1}%{}",
            args.workload,
            report.ledger.get("reconcile.layer_sum.ms"),
            report.ledger.get("reconcile.total.ms"),
            share * 100.0,
            if share.abs() > RESIDUAL_FLAG { " (FLAGGED: residual above 10%)" } else { "" }
        );
        PER_LAYER.iter().map(|(n, u)| (n.to_string(), report.ledger.get(n), *u)).collect()
    } else {
        e2e.iter().zip(END_TO_END).map(|((n, v), (_, u))| (n.to_string(), *v, u)).collect()
    }
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ =
            write!(out, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    out.push_str("}}");
    out
}

fn main() {
    let first = std::env::args().nth(1).unwrap_or_default();
    if !first.is_empty() && !first.starts_with("--") {
        // Behave as `mbist` (see the crate docs).
        let argv: Vec<String> = std::env::args().skip(1).collect();
        match mbist_cli::run(&argv) {
            Ok(output) => print!("{output}"),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(e.exit_code());
            }
        }
        return;
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut metrics = Vec::new();
    for name in names {
        let one = Args { workload: name.to_string(), ..args };
        let report = run_workload(&one);
        for e in &report.errors {
            eprintln!("perfbench: {name}: output check failed: {e}");
        }
        correct &= report.errors.is_empty() && report.attempted > 0;
        attempted += report.attempted;
        failed += report.failed;
        let block = summarize(&one, &report);
        if args.workload == "all" {
            metrics
                .extend(block.into_iter().map(|(n, v, u)| (format!("{name}.{n}"), v, u)));
        } else {
            metrics = block;
        }
    }
    println!("{}", result_line(correct, attempted, failed, &metrics));
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use mbist_service::json::Json;

    /// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
    fn listed(key: &str) -> Vec<(String, String)> {
        let spec = Json::parse(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let Some(Json::Arr(items)) = spec.get(key) else { panic!("no `{key}` list") };
        items
            .iter()
            .map(|m| {
                let field =
                    |k| m.get(k).and_then(Json::as_str).expect("string field").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn reported_metrics_match_benchmark_json() {
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(own(&super::END_TO_END), listed("end_to_end"));
        assert_eq!(own(&super::PER_LAYER), listed("per_layer"));
    }
}
