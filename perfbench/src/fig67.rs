//! The benchmark's own recomputation of the Fig. 6 and Fig. 7 tables from
//! the `Metrics` of their 15 cells (the five collaborative benchmarks
//! under baseline, owner and sharer tracking), printed as one JSON line
//! of the table's cells, formatted as `repro_all` prints them, so
//! `run.py` can compare the two outside the timed phase.

use hsc_core::{CoherenceConfig, Metrics, SystemConfig};
use hsc_workloads::{collaborative_workloads, try_run_workload_on};

use crate::spans::json_str;

/// Percent saved against the baseline.
fn saved(base: u64, value: u64) -> f64 {
    if base == 0 {
        0.0
    } else {
        100.0 * (1.0 - value as f64 / base as f64)
    }
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

fn row(cells: &[String]) -> String {
    let quoted: Vec<String> = cells.iter().map(|c| json_str(c)).collect();
    format!("[{}]", quoted.join(","))
}

pub fn run() -> String {
    let configs = [
        CoherenceConfig::baseline(),
        CoherenceConfig::owner_tracking(),
        CoherenceConfig::sharer_tracking(),
    ];
    let mut fig6 = Vec::new();
    let mut fig7 = Vec::new();
    let (mut cyc_saved, mut probe_saved) = (Vec::new(), Vec::new());
    let mut events = 0;
    let mut errors = Vec::new();
    for w in collaborative_workloads() {
        let runs: Vec<Metrics> = configs
            .iter()
            .filter_map(|c| match try_run_workload_on(w.as_ref(), SystemConfig::scaled(*c)) {
                Ok(r) => Some(r.metrics),
                Err(e) => {
                    errors.push(json_str(&format!("{}: {e}", w.name())));
                    None
                }
            })
            .collect();
        let [base, own, shr] = runs.as_slice() else {
            continue;
        };
        events += base.events + own.events + shr.events;
        let (c_own, c_shr) =
            (saved(base.gpu_cycles, own.gpu_cycles), saved(base.gpu_cycles, shr.gpu_cycles));
        let (p_own, p_shr) =
            (saved(base.probes_sent, own.probes_sent), saved(base.probes_sent, shr.probes_sent));
        cyc_saved.push(c_shr);
        probe_saved.push(p_shr);
        fig6.push(row(&[w.name().to_owned(), format!("{c_own:.2}"), format!("{c_shr:.2}")]));
        fig7.push(row(&[
            w.name().to_owned(),
            base.probes_sent.to_string(),
            own.probes_sent.to_string(),
            shr.probes_sent.to_string(),
            format!("{p_own:.2}"),
            format!("{p_shr:.2}"),
        ]));
    }
    format!(
        "{{\"fig6\":[{}],\"fig6_avg\":{},\"fig7\":[{}],\"fig7_avg\":{},\"events\":{events},\"errors\":[{}]}}",
        fig6.join(","),
        json_str(&format!("{:+.2}", mean(&cyc_saved))),
        fig7.join(","),
        json_str(&format!("{:.2}", mean(&probe_saved))),
        errors.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saved_is_percent_of_the_baseline() {
        assert_eq!(saved(200, 50), 75.0);
        assert_eq!(saved(0, 5), 0.0);
        assert!(saved(100, 120) < 0.0);
    }
}
