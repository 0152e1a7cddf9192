//! `coverage`: in-process `mbist_cli::run(["coverage", …])` at CLI
//! defaults (all 11 classes, default engine, default `--jobs`).
//!
//! The operation set is fixed so that run-to-run figures compare: it
//! spans 256 to 16K bit-oriented words (where trace compile is a large
//! share) down to 256×1 uncapped (~30K faults, where simulation is nearly
//! all of it), plus 1K×8 word-oriented and 1K×8 two-port. The seed orders
//! each pass. An odd number of operations keeps the median inside one
//! operation's samples instead of between two. The slowest operation,
//! which sets the tail, is March C++ at 16K×1, where single-threaded trace
//! compile is most of the time: on a shared host the second core comes
//! and goes, and a tail set by a parallel simulate (as March B at 256×1
//! uncapped did) doubled with it from run to run.

use std::time::Instant;

use mbist_march::{
    expand_with, fault_route, library, ClassCoverage, CompiledTrace, CoverageOptions,
    CoverageReport, ExpandOptions, FaultRoute,
};
use mbist_mem::{class_universe_sampled, FaultKind, MemGeometry};

use crate::check;
use crate::stats::{ms_since, timed, Ledger, Rng};
use crate::{Args, Report};

struct Op {
    test: &'static str,
    words: u64,
    width: u8,
    ports: u8,
    /// `--max-faults` (0 = uncapped).
    max_faults: usize,
}

const fn op(test: &'static str, words: u64, width: u8, ports: u8, max_faults: usize) -> Op {
    Op { test, words, width, ports, max_faults }
}

const OPS: [Op; 15] = [
    op("march-c", 16384, 1, 1, 64),
    op("march-c++", 16384, 1, 1, 256),
    op("mats+", 8192, 1, 1, 256),
    op("march-x", 4096, 1, 1, 64),
    op("march-y", 4096, 1, 1, 256),
    op("march-a", 1024, 1, 1, 256),
    op("march-b", 1024, 1, 1, 16),
    op("march-c", 256, 1, 1, 0),
    op("mats+", 256, 1, 1, 0),
    op("mats+", 256, 1, 1, 256),
    op("march-c+", 256, 1, 1, 64),
    op("march-c", 1024, 8, 1, 256),
    op("march-b", 1024, 8, 1, 32),
    op("march-x", 1024, 8, 2, 64),
    op("march-a", 1024, 8, 2, 16),
];

impl Op {
    fn args(&self) -> Vec<String> {
        [
            "coverage",
            self.test,
            "--words",
            &self.words.to_string(),
            "--width",
            &self.width.to_string(),
            "--ports",
            &self.ports.to_string(),
            "--max-faults",
            &self.max_faults.to_string(),
        ]
        .map(String::from)
        .to_vec()
    }

    fn geometry(&self) -> MemGeometry {
        MemGeometry::new(self.words, self.width, self.ports)
    }
}

/// The cold start timed for `setup_s`: a fresh `mbist` process answering
/// March C at 16K×1 (cap 64, one job), where trace compile dominates
/// (about 20 to 40 ms on a 2-core host), so process start-up noise is a
/// small share of it.
const SETUP: [&str; 8] =
    ["coverage", "march-c", "--words", "16384", "--max-faults", "64", "--jobs", "1"];

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let mut rng = Rng::new(args.seed);
    let schedule: Vec<Vec<String>> = OPS.iter().map(Op::args).collect();
    let outputs = crate::run_passes(
        args,
        &schedule,
        1,
        &SETUP,
        &mut rng,
        &mut report,
        |text, slice| {
            slice.faults += check::coverage_totals(text)?.1 as f64;
            slice.candidates += 1.0;
            Ok(())
        },
    );
    // Quality figures (every pass runs every operation once, so means per
    // operation are means per call) and the full-replay oracle, outside
    // the timed region.
    for (op, text) in OPS.iter().zip(&outputs) {
        let Some(text) = text else { continue };
        let (detected, total) = match check::coverage_totals(text) {
            Ok(t) => t,
            Err(e) => {
                report.errors.push(format!("{:?}: {e}", op.args()));
                continue;
            }
        };
        report.coverage.push(detected as f64 / total.max(1) as f64);
        let test = library::by_name(op.test).expect("library test");
        report.ops_per_cell.push(test.ops_per_cell() as f64);
        let mut full_args = op.args();
        full_args.extend(["--engine", "full", "--jobs", "2"].map(String::from));
        match mbist_cli::run(&full_args) {
            Ok(oracle) => {
                let what = format!("coverage {} on {}", op.test, op.geometry());
                if let Err(e) = check::same_bytes(&what, text, &oracle) {
                    report.errors.push(e);
                }
            }
            Err(e) => report.errors.push(format!("full oracle {full_args:?}: {e}")),
        }
    }

    if args.trace {
        let untraced_mean_ms = crate::stats::mean(&report.latencies_ms);
        traced(&mut rng, &outputs, untraced_mean_ms, &mut report);
    }
    report
}

/// Passes over the operation set in the traced phase: a fixed amount of
/// work, so the per-layer totals compare across commits.
const TRACED_PASSES: usize = 5;

/// Re-drives each operation through the public calls behind
/// `evaluate_coverage`, timing each layer, for `TRACED_PASSES` passes over
/// the set. The traced report must equal the untraced CLI text.
fn traced(
    rng: &mut Rng,
    outputs: &[Option<String>],
    untraced_mean_ms: f64,
    report: &mut Report,
) {
    let ledger = &mut report.ledger;
    let (mut wall_ms, mut auto_ms, mut serial_ms) = (0.0, 0.0, 0.0);
    let (mut batchable, mut routed, mut ops) = (0usize, 0usize, 0usize);
    for _ in 0..TRACED_PASSES {
        let mut order: Vec<usize> = (0..OPS.len()).collect();
        rng.shuffle(&mut order);
        for &i in &order {
            let op = &OPS[i];
            let op_start = Instant::now();
            let (text, trace, universes) = redrive(op, ledger, &mut batchable, &mut routed);
            wall_ms += ms_since(op_start);
            match &outputs[i] {
                Some(want) => {
                    if let Err(e) = check::same_bytes("traced coverage", &text, want) {
                        report.errors.push(e);
                    }
                }
                None => {
                    report.errors.push(format!("no untraced output for {:?}", op.args()))
                }
            }
            if ops < OPS.len() {
                // Fan-out, on the first pass: the same simulate call with
                // `jobs` auto and with 1, outside the operation's span.
                let engine = CoverageOptions::default().engine;
                for universe in &universes {
                    auto_ms += timed(|| trace.detect_universe(universe, None, engine)).1;
                    serial_ms +=
                        timed(|| trace.detect_universe(universe, Some(1), engine)).1;
                }
            }
            ops += 1;
        }
    }
    let layers: f64 = [
        "mem.universe.ms",
        "march.expand.ms",
        "march.trace.compile.ms",
        "march.simulate.packed.ms",
        "march.simulate.sliced.ms",
        "march.simulate.full.ms",
        "cli.format.ms",
    ]
    .iter()
    .map(|name| ledger.get(name))
    .sum();
    ledger.set("coverage.unaccounted.ms", wall_ms - layers);
    ledger.set("march.routing.batchable_ratio", batchable as f64 / routed.max(1) as f64);
    ledger.set("march.fanout.auto_over_serial", auto_ms / serial_ms);
    ledger.set("trace.overhead_ratio", wall_ms / ops as f64 / untraced_mean_ms);
    ledger.set("reconcile.layer_sum.ms", layers);
    ledger.set("reconcile.total.ms", wall_ms);
    ledger.set("reconcile.residual_share", (wall_ms - layers) / wall_ms);
}

/// One operation through `class_universe_sampled`, `expand_with`,
/// `CompiledTrace::from_steps_owned`, `detect_universe` per fault route
/// and the report formatter. Returns the report text, the trace and each
/// class's universe.
fn redrive(
    op: &Op,
    ledger: &mut Ledger,
    batchable: &mut usize,
    routed: &mut usize,
) -> (String, CompiledTrace, Vec<Vec<FaultKind>>) {
    let test = library::by_name(op.test).expect("library test");
    let geometry = op.geometry();
    let options = CoverageOptions::default();

    let (steps, ms) =
        timed(|| expand_with(&test, &geometry, &ExpandOptions::for_geometry(&geometry)));
    ledger.add("march.expand.ms", ms);
    ledger.add("march.expand.steps", steps.len() as f64);
    let (trace, ms) = timed(|| CompiledTrace::from_steps_owned(geometry, steps));
    ledger.add("march.trace.compile.ms", ms);
    ledger.add("march.trace.bytes", trace.approx_bytes() as f64);

    let mut rows = Vec::with_capacity(options.classes.len());
    let mut universes = Vec::with_capacity(options.classes.len());
    for &class in &options.classes {
        let (universe, ms) = timed(|| {
            class_universe_sampled(&geometry, class, &options.spec, op.max_faults)
        });
        ledger.add("mem.universe.ms", ms);
        ledger.add("mem.universe.faults", universe.len() as f64);
        let mut flags = vec![false; universe.len()];
        for (route, ms_name, faults_name) in [
            (
                FaultRoute::Packed,
                "march.simulate.packed.ms",
                "march.simulate.packed.faults",
            ),
            (
                FaultRoute::Sliced,
                "march.simulate.sliced.ms",
                "march.simulate.sliced.faults",
            ),
            (FaultRoute::Full, "march.simulate.full.ms", "march.simulate.full.faults"),
        ] {
            let picked: Vec<usize> = (0..universe.len())
                .filter(|&k| fault_route(options.engine, universe[k]) == route)
                .collect();
            if picked.is_empty() {
                continue;
            }
            let part: Vec<FaultKind> = picked.iter().map(|&k| universe[k]).collect();
            let (found, ms) =
                timed(|| trace.detect_universe(&part, options.jobs, options.engine));
            ledger.add(ms_name, ms);
            ledger.add(faults_name, part.len() as f64);
            for (&k, flag) in picked.iter().zip(found) {
                flags[k] = flag;
            }
            if route == FaultRoute::Packed {
                *batchable += part.len();
            }
            *routed += part.len();
        }
        rows.push(ClassCoverage {
            class,
            detected: flags.iter().filter(|&&d| d).count(),
            total: universe.len(),
        });
        universes.push(universe);
    }
    let report = CoverageReport { test: test.name().to_string(), geometry, rows };
    let (text, ms) = timed(|| report.to_string());
    ledger.add("cli.format.ms", ms);
    (text, trace, universes)
}
