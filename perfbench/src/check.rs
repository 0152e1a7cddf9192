//! Output checks: a wrong answer fails the run instead of becoming a data
//! point. [`self_test`] feeds every checker a corrupted output and
//! requires it to be rejected, so a checker that accepts anything cannot
//! pass silently.

use mbist_march::{evaluate_coverage, CoverageOptions, MarchTest, SimEngine};
use mbist_mem::{FaultClass, MemGeometry};

/// Byte equality of an output with its reference (the `--engine full`
/// coverage oracle, an offline CLI text, or an earlier run of the same
/// seed).
pub fn same_bytes(what: &str, got: &str, want: &str) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    let at = got.bytes().zip(want.bytes()).take_while(|(a, b)| a == b).count();
    Err(format!(
        "{what}: output differs from its reference at byte {at} \
         (got {} bytes, want {} bytes)",
        got.len(),
        want.len()
    ))
}

/// `(detected, total)` summed over a coverage report's class rows
/// (`  SAF     128/128   (100.0%)`). A report without rows, or with a row
/// that does not parse, is an error rather than a zero.
pub fn coverage_totals(text: &str) -> Result<(usize, usize), String> {
    let mut sum = (0, 0);
    let mut rows = 0;
    for line in text.lines().skip(1) {
        let frac = line.split_whitespace().nth(1).unwrap_or_default();
        let (d, t) = frac
            .split_once('/')
            .ok_or_else(|| format!("coverage row without a fraction: `{line}`"))?;
        sum.0 +=
            d.parse::<usize>().map_err(|_| format!("bad detected count in `{line}`"))?;
        sum.1 += t.parse::<usize>().map_err(|_| format!("bad total in `{line}`"))?;
        rows += 1;
    }
    if rows == 0 {
        return Err("coverage report has no class rows".into());
    }
    Ok(sum)
}

/// The `(detected, total)` a `synth-search` report claims, from its
/// `coverage D/T (…)` line.
pub fn synth_claim(report: &str) -> Result<(usize, usize), String> {
    let line = report
        .lines()
        .find_map(|l| l.strip_prefix("coverage "))
        .ok_or("synth-search report has no coverage line")?;
    let frac = line.split_whitespace().next().unwrap_or_default();
    let (d, t) = frac.split_once('/').ok_or("malformed coverage fraction")?;
    Ok((
        d.parse().map_err(|_| format!("bad detected count `{d}`"))?,
        t.parse().map_err(|_| format!("bad total `{t}`"))?,
    ))
}

/// The march test a `synth-search` report found, parsed from its first
/// line (`found: ⇕(w0); …`).
pub fn synth_test(report: &str) -> Result<MarchTest, String> {
    let first = report.lines().next().unwrap_or_default();
    let notation = first.split_once(": ").map_or(first, |(_, n)| n);
    MarchTest::parse("found", notation).map_err(|e| format!("found test: {e}"))
}

/// A `synth-search` report's `complexity Nn, E evaluations, G
/// generations` line as `(ops per cell, evaluations)`. The ops per cell
/// must equal the length of the test on the report's first line.
pub fn synth_complexity(report: &str) -> Result<(usize, usize), String> {
    let line = report
        .lines()
        .find_map(|l| l.strip_prefix("complexity "))
        .ok_or("synth-search report has no complexity line")?;
    let mut parts = line.split(", ");
    let mut field = |suffix: &str| -> Result<usize, String> {
        parts
            .next()
            .and_then(|p| p.strip_suffix(suffix))
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| format!("malformed complexity line `{line}`"))
    };
    let ops_per_cell = field("n")?;
    let evaluations = field(" evaluations")?;
    let found = synth_test(report)?.ops_per_cell();
    if ops_per_cell != found {
        return Err(format!(
            "complexity line says {ops_per_cell}n but the found test is {found}n"
        ));
    }
    Ok((ops_per_cell, evaluations))
}

/// Re-scores a `synth-search` report's test on the `Full` engine over the
/// search's own fault universe (every class sampled to at most `cap`
/// faults) and requires the report's detected and total counts to match.
pub fn synth_rescore(
    report: &str,
    geometry: MemGeometry,
    classes: &[FaultClass],
    cap: usize,
) -> Result<(), String> {
    let (detected, total) = synth_claim(report)?;
    let test = synth_test(report)?;
    let full = evaluate_coverage(
        &test,
        &geometry,
        &CoverageOptions {
            classes: classes.to_vec(),
            max_faults_per_class: Some(cap),
            jobs: Some(2),
            engine: SimEngine::Full,
            ..CoverageOptions::default()
        },
    );
    let full_detected: usize = full.rows.iter().map(|r| r.detected).sum();
    let full_total: usize = full.rows.iter().map(|r| r.total).sum();
    if (full_detected, full_total) == (detected, total) {
        Ok(())
    } else {
        Err(format!(
            "synth-search claims {detected}/{total} but the full engine scores \
             its test {full_detected}/{full_total}"
        ))
    }
}

/// A serve reply against the offline answer for the same request: the
/// CLI's coverage text, or the full-replay verdict for `detects`.
pub fn serve_reply(
    what: &str,
    reply_text: Option<&str>,
    reply_detected: Option<bool>,
    want: &Expected,
) -> Result<(), String> {
    match want {
        Expected::Text(text) => match reply_text {
            Some(got) => same_bytes(what, got, text),
            None => Err(format!("{what}: reply carries no text")),
        },
        Expected::Detected(flag) => match reply_detected {
            Some(got) if got == *flag => Ok(()),
            Some(got) => {
                Err(format!("{what}: server says detected={got}, replay says {flag}"))
            }
            None => Err(format!("{what}: reply carries no verdict")),
        },
    }
}

/// The offline answer a serve reply must equal.
pub enum Expected {
    Text(String),
    Detected(bool),
}

fn must_reject(name: &str, verdict: Result<(), String>) -> Result<(), String> {
    match verdict {
        Err(_) => Ok(()),
        Ok(()) => Err(format!("self-test: the {name} checker accepted a corrupted output")),
    }
}

/// Corrupts one output per checker and requires each corruption to be
/// rejected (and each untouched output to be accepted). Returns the
/// number of corrupted outputs rejected.
pub fn self_test() -> Result<usize, String> {
    let coverage =
        mbist_cli::run(&["coverage", "march-c", "--words", "64"].map(String::from))
            .map_err(|e| format!("self-test: coverage failed: {e}"))?;
    same_bytes("self-test coverage", &coverage, &coverage)?;
    must_reject(
        "coverage",
        same_bytes("self-test", &coverage.replacen("100.0", "99.9", 1), &coverage),
    )?;
    coverage_totals(&coverage)?;
    let header = coverage.lines().next().unwrap_or_default();
    must_reject("coverage totals (no rows)", coverage_totals(header).map(drop))?;
    must_reject(
        "coverage totals (bad row)",
        coverage_totals(&coverage.replacen("128/128", "128-128", 1)).map(drop),
    )?;

    let g = MemGeometry::bit_oriented(64);
    let classes = [FaultClass::StuckAt, FaultClass::Transition];
    let report = mbist_cli::run(
        &["synth-search", "--universe", "saf,tf", "--words", "64"].map(String::from),
    )
    .map_err(|e| format!("self-test: synth-search failed: {e}"))?;
    synth_rescore(&report, g, &classes, 256)?;
    let (d, t) = synth_claim(&report)?;
    let lied = report.replacen(
        &format!("coverage {d}/{t}"),
        &format!("coverage {}/{t}", d - 1),
        1,
    );
    must_reject("synth-search re-score", synth_rescore(&lied, g, &classes, 256))?;
    must_reject("synth-search determinism", same_bytes("self-test", &lied, &report))?;
    let without = |prefix: &str| -> String {
        report
            .lines()
            .filter(|l| !l.starts_with(prefix))
            .map(|l| format!("{l}\n"))
            .collect()
    };
    must_reject(
        "synth-search coverage line",
        synth_claim(&without("coverage ")).map(drop),
    )?;
    let (n, _) = synth_complexity(&report)?;
    must_reject(
        "synth-search complexity line (missing)",
        synth_complexity(&without("complexity ")).map(drop),
    )?;
    must_reject(
        "synth-search complexity line (wrong length)",
        synth_complexity(&report.replacen(
            &format!("complexity {n}n"),
            &format!("complexity {}n", n + 1),
            1,
        ))
        .map(drop),
    )?;

    let text = Expected::Text(coverage.clone());
    serve_reply("self-test", Some(&coverage), None, &text)?;
    must_reject(
        "serve coverage",
        serve_reply("self-test", Some(&coverage[1..]), None, &text),
    )?;
    let verdict = Expected::Detected(true);
    serve_reply("self-test", None, Some(true), &verdict)?;
    must_reject("serve detects", serve_reply("self-test", None, Some(false), &verdict))?;
    Ok(10)
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_checker_rejects_a_corrupted_output() {
        assert_eq!(super::self_test(), Ok(10));
    }
}
