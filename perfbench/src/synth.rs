//! `synth-search`: in-process `mbist_cli::run(["synth-search", …])` at the
//! default budget.
//!
//! Every pass runs the same 72 searches over five universes (the classic
//! five, +af, +sof, +snpsf/anpsf, all 11), 256 and 1024 words and both
//! strategies, in an order the seed shuffles. Converging searches (the
//! first three universes) stop after ~100 evaluations, where memo hits and
//! early exit dominate; at 256 words each runs with eight seeds drawn from
//! the run's seed, so the median falls inside their dense cluster rather
//! than between two unlike searches. The NPSF and all-11 universes exhaust
//! the budget and load the per-candidate compile and simulate; with the
//! converging searches at 1024 words they set the tail and most of the
//! evaluation rate. Their cost follows the candidates a seed happens to
//! visit, so they run at fixed seeds — 1, the CLI default, and 2 at 1024
//! words — to keep that from swamping run-to-run comparisons. A pass takes
//! about 12 s on a 2-core host, so a 25 s run makes two or three. The
//! tail is taken over the first two passes only: over their 144 searches
//! it falls inside the cluster of budget-exhausting searches (near 0.8 s),
//! while a third pass would move it up that cluster (near 1.1 s) and a
//! single pass's 72 searches put it at the cluster's edge, where it jumps
//! between unlike searches. Passes after the first
//! repeat the first's inputs, so each rerun doubles as a determinism check.

use std::time::Instant;

use mbist_march::SimEngine;
use mbist_mem::{FaultClass, MemGeometry};
use mbist_search::{
    candidate_test, report_text, Composition, Evolutionary, FitnessOracle, SearchOptions,
    SearchOutcome, SearchStrategy, Strategy,
};

use crate::check;
use crate::stats::{ms_since, tail, timed, Ledger, Rng};
use crate::{Args, Report};

const UNIVERSES: [&str; 5] = [
    "saf,tf,cfin,cfid,cfst",
    "saf,tf,cfin,cfid,cfst,af",
    "saf,tf,cfin,cfid,cfst,sof",
    "saf,tf,cfin,cfid,cfst,snpsf,anpsf",
    "saf,tf,cfin,cfid,cfst,af,sof,drf,puf,snpsf,anpsf",
];
const WORDS: [u64; 2] = [256, 1024];
/// Universes (indexes into `UNIVERSES`) whose searches converge.
const CONVERGING: usize = 3;
/// Seeded searches per converging universe and strategy at 256 words.
const SEEDED_REPEATS: usize = 8;
const STRATEGIES: [&str; 2] = ["evolve", "compose"];
/// Passes a run makes at least; the tail is taken over these.
const MIN_PASSES: usize = 2;
/// The per-class fault cap of the search's universe (`SearchOptions`
/// default; the CLI has no flag for it).
const FAULT_CAP: usize = 256;

struct Search {
    universe: &'static str,
    words: u64,
    strategy: &'static str,
    seed: u64,
}

impl Search {
    fn args(&self) -> Vec<String> {
        [
            "synth-search",
            "--universe",
            self.universe,
            "--words",
            &self.words.to_string(),
            "--strategy",
            self.strategy,
            "--seed",
            &self.seed.to_string(),
        ]
        .map(String::from)
        .to_vec()
    }

    fn classes(&self) -> Vec<FaultClass> {
        FaultClass::parse_list(self.universe).expect("valid universe")
    }

    fn geometry(&self) -> MemGeometry {
        MemGeometry::bit_oriented(self.words)
    }

    /// The options `mbist synth-search` builds from [`Search::args`].
    fn options(&self) -> SearchOptions {
        SearchOptions {
            geometry: self.geometry(),
            classes: self.classes(),
            target_coverage: 1.0,
            budget: 2000,
            seed: self.seed,
            max_elements: 12,
            jobs: None,
            engine: SimEngine::Packed,
            strategy: Strategy::parse_name(self.strategy).expect("valid strategy"),
            ..SearchOptions::default()
        }
    }
}

/// The cold start timed for `setup_s`: a fresh `mbist` process running a
/// converging search at 1024 words (about 10 ms on a 2-core host).
const SETUP: [&str; 7] = [
    "synth-search",
    "--universe",
    "saf,tf,cfin,cfid,cfst",
    "--words",
    "1024",
    "--jobs",
    "1",
];

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let mut rng = Rng::new(args.seed);
    let mut searches = Vec::new();
    for (u, universe) in UNIVERSES.into_iter().enumerate() {
        for words in WORDS {
            for strategy in STRATEGIES {
                let seeds: Vec<u64> = if words == WORDS[1] {
                    vec![1, 2]
                } else if u >= CONVERGING {
                    vec![1]
                } else {
                    (0..SEEDED_REPEATS).map(|_| 1 + rng.below(1 << 20)).collect()
                };
                for seed in seeds {
                    searches.push(Search { universe, words, strategy, seed });
                }
            }
        }
    }
    let schedule: Vec<Vec<String>> = searches.iter().map(Search::args).collect();
    let outputs = crate::run_passes(
        args,
        &schedule,
        MIN_PASSES,
        &SETUP,
        &mut rng,
        &mut report,
        |text, slice| {
            let (_, total) = check::synth_claim(text)?;
            let (_, evaluations) = check::synth_complexity(text)?;
            slice.candidates += evaluations as f64;
            slice.faults += (evaluations * total) as f64;
            Ok(())
        },
    );

    // The tail over the first `MIN_PASSES` passes only (see the module
    // docs); later passes still count in every other figure.
    if let Some(first) = report.latencies_ms.get(..MIN_PASSES * searches.len()) {
        report.tail = Some(tail(first));
    }

    // Quality of what each search found, and the full-engine re-score,
    // outside the timed region.
    for (search, text) in searches.iter().zip(&outputs) {
        let Some(text) = text else { continue };
        let quality = check::synth_claim(text).and_then(|(detected, total)| {
            let (ops_per_cell, _) = check::synth_complexity(text)?;
            check::synth_rescore(text, search.geometry(), &search.classes(), FAULT_CAP)?;
            Ok((detected as f64 / total.max(1) as f64, ops_per_cell as f64))
        });
        match quality {
            Ok((coverage, ops_per_cell)) => {
                report.coverage.push(coverage);
                report.ops_per_cell.push(ops_per_cell);
            }
            Err(e) => report.errors.push(format!("{:?}: {e}", search.args())),
        }
    }

    if args.trace {
        let untraced_mean_ms = crate::stats::mean(&report.latencies_ms);
        traced(&mut rng, &searches, &outputs, untraced_mean_ms, &mut report);
    }
    report
}

/// One pass re-driven through `FitnessOracle::new`, the strategy's
/// `search`, `evaluate_exact` and `report_text`; the traced report must
/// equal the untraced CLI text.
fn traced(
    rng: &mut Rng,
    searches: &[Search],
    outputs: &[Option<String>],
    untraced_mean_ms: f64,
    report: &mut Report,
) {
    let ledger = &mut report.ledger;
    let (mut wall_ms, mut evaluations, mut memo_hits) = (0.0, 0usize, 0usize);
    let mut order: Vec<usize> = (0..searches.len()).collect();
    rng.shuffle(&mut order);
    for i in order {
        let start = Instant::now();
        let outcome = redrive(&searches[i], ledger);
        wall_ms += ms_since(start);
        evaluations += outcome.1;
        memo_hits += outcome.2;
        match &outputs[i] {
            Some(want) => {
                let what = format!("traced synth-search {:?}", searches[i].args());
                if let Err(e) = check::same_bytes(&what, &outcome.0, want) {
                    report.errors.push(e);
                }
            }
            None => report
                .errors
                .push(format!("no untraced output for {:?}", searches[i].args())),
        }
    }
    let spans = [
        "search.oracle.setup.ms",
        "search.strategy.span.ms",
        "search.exact.span.ms",
        "cli.format.ms",
    ];
    let layers: f64 = spans.iter().map(|n| ledger.get(n)).sum();
    ledger.set("search.unaccounted.ms", wall_ms - layers);
    ledger.set("search.oracle.evaluations", evaluations as f64);
    ledger.set(
        "search.oracle.memo_hit_ratio",
        memo_hits as f64 / (memo_hits + evaluations).max(1) as f64,
    );
    ledger.set("trace.overhead_ratio", wall_ms / searches.len() as f64 / untraced_mean_ms);
    ledger.set("reconcile.layer_sum.ms", layers);
    ledger.set("reconcile.total.ms", wall_ms);
    ledger.set("reconcile.residual_share", (wall_ms - layers) / wall_ms);
}

/// Returns the report text, the oracle's evaluations and its memo hits.
fn redrive(search: &Search, ledger: &mut Ledger) -> (String, usize, usize) {
    let options = search.options();
    let (mut oracle, ms) = timed(|| FitnessOracle::new(&options));
    ledger.add("search.oracle.setup.ms", ms);
    let (run, span) = timed(|| match options.strategy {
        Strategy::Evolutionary => Evolutionary.search(&mut oracle, &options),
        Strategy::Composition => Composition.search(&mut oracle, &options),
    });
    let (c1, s1) = oracle.timing();
    let (fit, exact_span) = timed(|| oracle.evaluate_exact(&run.elements));
    let (c2, s2) = oracle.timing();
    // The oracle's compile and simulate times are summed over its worker
    // threads; the self times below subtract them from the wall spans
    // they ran in, so they read low (never below 0) when workers overlap.
    let ms = |ns: u64| ns as f64 / 1e6;
    ledger.add("search.strategy.span.ms", span);
    ledger.add("search.strategy.self.ms", (span - ms(c1 + s1)).max(0.0));
    ledger.add("search.exact.span.ms", exact_span);
    ledger.add("search.exact.ms", (exact_span - ms(c2 - c1 + s2 - s1)).max(0.0));
    ledger.add("search.oracle.compile.ms", ms(c2));
    ledger.add("search.oracle.simulate.ms", ms(s2));
    let outcome = SearchOutcome {
        test: candidate_test("found", &run.elements),
        detected: fit.detected,
        total: oracle.total(),
        target_detected: oracle.target_detected(),
        evaluations: oracle.evaluations(),
        generations: run.generations,
        converged: fit.detected >= oracle.target_detected(),
        strategy: options.strategy,
        compile_ns: c2,
        simulate_ns: s2,
        memo_hits: oracle.memo_hits(),
    };
    let (text, ms) = timed(|| report_text(&outcome, &options));
    ledger.add("cli.format.ms", ms);
    (text, oracle.evaluations(), oracle.memo_hits())
}
