//! `gpsbench compare BASE.json... -- HEAD.json...`: the paired rule for
//! claiming a change, applied to each (workload, end-to-end metric).
//!
//! The i-th base run of a workload is paired with its i-th head run, so
//! pass the files in the order the runs alternated. A metric's tolerance
//! is its bound from `BENCHMARK.json` times the base median, or its
//! absolute floor when that is larger. A change is `better` on a metric
//! when there are at least 10 pairs, the head wins at least 9 in 10 of
//! them (ties count for neither side), and the medians differ by more than
//! the base runs' interquartile range. It is `worse` when the head median
//! is past the base median by more than the tolerance, `unresolved` when
//! the base runs spread wider than the tolerance (unless every head run
//! beats every base run), and `same` otherwise.
//!
//! Every record compared must come from the same host, run length and
//! mode: numbers from another machine or another `--smoke` setting say
//! nothing about the change.

use crate::spec::{Metric, Spec};
use crate::stats;
use gps_obs::json::{self, Json};
use std::collections::BTreeMap;

const MIN_PAIRS: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Unresolved,
    Same,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Same => "same",
        }
    }
}

/// The comparison of one metric on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    pub pairs: usize,
    pub wins: usize,
    pub base_median: f64,
    pub head_median: f64,
    /// Base interquartile range over the base median.
    pub base_spread: f64,
    pub verdict: Verdict,
}

/// Applies the paired rule to base and head samples of one metric.
pub fn compare(base: &[f64], head: &[f64], metric: &Metric) -> Comparison {
    let gain = |b: f64, h: f64| {
        if metric.higher_is_better {
            h - b
        } else {
            b - h
        }
    };
    let pairs = base.len().min(head.len());
    let wins = (0..pairs).filter(|&i| gain(base[i], head[i]) > 0.0).count();
    let (mb, mh) = (stats::median(base), stats::median(head));
    let iqr = stats::iqr(base);
    let tolerance = (metric.bound.unwrap_or(0.0) * mb.abs()).max(metric.floor);
    let dominates = base.iter().all(|&b| head.iter().all(|&h| gain(b, h) > 0.0));
    let verdict = if pairs >= MIN_PAIRS && wins * 10 >= pairs * 9 && gain(mb, mh) > iqr {
        Verdict::Better
    } else if -gain(mb, mh) > tolerance {
        Verdict::Worse
    } else if iqr > tolerance && !dominates {
        Verdict::Unresolved
    } else {
        Verdict::Same
    };
    Comparison {
        pairs,
        wins,
        base_median: mb,
        head_median: mh,
        base_spread: iqr / mb.abs(),
        verdict,
    }
}

/// One untraced result record.
#[derive(Debug)]
struct Run {
    workload: String,
    /// Host stamp, run length and smoke flag: what must match across
    /// every record compared.
    conditions: (Json, Json, Json),
    values: BTreeMap<String, f64>,
}

fn parse_run(text: &str) -> Result<Run, String> {
    let doc = json::parse(text)?;
    let field = |key: &str| doc.get(key).ok_or(format!("no {key:?}"));
    let workload = field("workload")?
        .as_str()
        .ok_or("workload is not a string")?
        .to_string();
    if field("trace")?.as_u64() != Some(0) {
        return Err("a traced run; compare untraced runs".to_string());
    }
    let conditions = (
        field("host")?.clone(),
        field("seconds")?.clone(),
        field("smoke")?.clone(),
    );
    let Json::Obj(metrics) = field("metrics")? else {
        return Err("metrics is not an object".to_string());
    };
    let values = metrics
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok(Run {
        workload,
        conditions,
        values,
    })
}

/// Fails unless every record was taken under the first one's conditions.
fn same_conditions(runs: &[(&str, Run)]) -> Result<(), String> {
    let Some((first_path, first)) = runs.first() else {
        return Ok(());
    };
    for (path, run) in runs {
        let (a, b) = (&first.conditions, &run.conditions);
        for (what, x, y) in [
            ("host", &a.0, &b.0),
            ("seconds", &a.1, &b.1),
            ("smoke", &a.2, &b.2),
        ] {
            if x != y {
                return Err(format!(
                    "{path} and {first_path} differ in {what}: {y:?} against {x:?}"
                ));
            }
        }
    }
    Ok(())
}

type Runs = BTreeMap<String, Vec<BTreeMap<String, f64>>>;

fn by_workload<'a>(runs: impl Iterator<Item = &'a Run>) -> Runs {
    let mut out = Runs::new();
    for run in runs {
        out.entry(run.workload.clone())
            .or_default()
            .push(run.values.clone());
    }
    out
}

/// The `compare` subcommand. Returns `false` when any metric is `worse`.
pub fn main(args: &[String], spec: &Spec) -> Result<bool, String> {
    let split = args
        .iter()
        .position(|a| a == "--")
        .ok_or("usage: gpsbench compare BASE.json... -- HEAD.json...")?;
    let runs = args
        .iter()
        .filter(|a| *a != "--")
        .map(|path| {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            Ok((
                path.as_str(),
                parse_run(&text).map_err(|e| format!("{path}: {e}"))?,
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    same_conditions(&runs)?;
    let (base, head) = runs.split_at(split);
    let base = by_workload(base.iter().map(|(_, r)| r));
    let head = by_workload(head.iter().map(|(_, r)| r));
    let mut worse = false;
    println!(
        "{:<14} {:<14} {:>14} {:>14} {:>7} {:>7}  verdict",
        "workload", "metric", "base_median", "head_median", "wins", "spread"
    );
    for (workload, base_runs) in &base {
        let Some(head_runs) = head.get(workload) else {
            println!("{workload:<14} (no head runs)");
            continue;
        };
        for metric in &spec.end_to_end {
            let values = |runs: &[BTreeMap<String, f64>]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.get(&metric.name).copied())
                    .collect()
            };
            let c = compare(&values(base_runs), &values(head_runs), metric);
            worse |= c.verdict == Verdict::Worse;
            println!(
                "{workload:<14} {:<14} {:>14.6} {:>14.6} {:>3}/{:<3} {:>7.4}  {}",
                metric.name,
                c.base_median,
                c.head_median,
                c.wins,
                c.pairs,
                c.base_spread,
                c.verdict.name()
            );
        }
    }
    Ok(!worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher_is_better: bool, bound: f64, floor: f64) -> Metric {
        Metric {
            name: "m".to_string(),
            unit: "s".to_string(),
            higher_is_better,
            bound: Some(bound),
            floor,
        }
    }

    fn lower(bound: f64) -> Metric {
        metric(false, bound, 0.0)
    }

    /// Ten synthetic runs around `center` with a ±1 % wobble.
    fn runs(center: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center * (1.0 + 0.01 * ((i * 7 % 5) as f64 - 2.0) / 2.0))
            .collect()
    }

    #[test]
    fn a_consistent_win_beyond_the_spread_is_better() {
        let c = compare(&runs(100.0), &runs(90.0), &lower(0.10));
        assert_eq!((c.wins, c.pairs), (10, 10));
        assert_eq!(c.verdict, Verdict::Better);
        // Direction matters: for a higher-is-better metric it is a loss.
        assert_eq!(
            compare(&runs(100.0), &runs(90.0), &metric(true, 0.05, 0.0)).verdict,
            Verdict::Worse
        );
    }

    #[test]
    fn fewer_than_ten_pairs_never_claims_a_gain() {
        let c = compare(&runs(100.0)[..9], &runs(90.0)[..9], &lower(0.10));
        assert_eq!(c.verdict, Verdict::Same);
    }

    #[test]
    fn a_regression_past_the_bound_is_worse() {
        let c = compare(&runs(100.0), &runs(112.0), &lower(0.10));
        assert_eq!(c.verdict, Verdict::Worse);
        // Within the bound it is not.
        assert_eq!(
            compare(&runs(100.0), &runs(105.0), &lower(0.10)).verdict,
            Verdict::Same
        );
    }

    #[test]
    fn a_change_inside_the_absolute_floor_is_not_worse() {
        // A 300 µs set-up growing by 100 µs is a third worse, but well
        // inside set-up time's 50 ms floor.
        let setup = metric(false, 0.25, 0.05);
        let c = compare(&runs(300e-6), &runs(400e-6), &setup);
        assert_eq!(c.verdict, Verdict::Same);
        // Past the floor it is worse.
        let c = compare(&runs(300e-6), &runs(0.06), &setup);
        assert_eq!(c.verdict, Verdict::Worse);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let base: Vec<f64> = (0..10)
            .map(|i| if i % 2 == 0 { 80.0 } else { 120.0 })
            .collect();
        let head: Vec<f64> = (0..10)
            .map(|i| if i % 2 == 0 { 121.0 } else { 79.0 })
            .collect();
        let c = compare(&base, &head, &lower(0.10));
        assert!(c.base_spread > 0.10);
        assert_eq!(c.verdict, Verdict::Unresolved);
        // Unless every head run beats every base run.
        let head = vec![70.0; 10];
        let c = compare(&base, &head, &lower(0.10));
        assert_eq!(c.verdict, Verdict::Same);
    }

    #[test]
    fn a_win_inside_the_parent_spread_is_not_better() {
        let base: Vec<f64> = (0..10).map(|i| 100.0 + (i % 4) as f64 * 2.0).collect();
        let head: Vec<f64> = base.iter().map(|b| b - 0.5).collect();
        let c = compare(&base, &head, &lower(0.10));
        assert_eq!(c.wins, 10);
        assert_eq!(c.verdict, Verdict::Same);
    }

    fn record(cpu: &str, seconds: u64, smoke: bool) -> String {
        format!(
            "{{\"workload\": \"admit_eb\", \"seed\": 1, \"trace\": 0, \"seconds\": {seconds}, \
             \"smoke\": {smoke}, \"host\": {{\"nproc\": 2, \"cpu_model\": \"{cpu}\"}}, \
             \"correct\": true, \"metrics\": {{\"p50_us\": {{\"value\": 50.0, \"unit\": \"us\"}}}}}}"
        )
    }

    #[test]
    fn records_from_another_host_length_or_mode_are_refused() {
        let run = |text: String| parse_run(&text).unwrap();
        let base = ("base.json", run(record("Xeon", 20, false)));
        assert_eq!(base.1.values["p50_us"], 50.0);
        let same = ("head.json", run(record("Xeon", 20, false)));
        assert!(same_conditions(&[base, same]).is_ok());
        for (other, what) in [
            (record("EPYC", 20, false), "host"),
            (record("Xeon", 10, false), "seconds"),
            (record("Xeon", 20, true), "smoke"),
        ] {
            let base = ("base.json", run(record("Xeon", 20, false)));
            let err = same_conditions(&[base, ("head.json", run(other))]).unwrap_err();
            assert!(err.contains(what), "{err}");
        }
    }
}
