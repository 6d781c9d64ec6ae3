//! In-process half of the hsc benchmark: runs one workload, checks its
//! outputs, and prints one JSON line of raw measurements (per-round and
//! per-cell host times, set-up times, work counts and, for a traced run,
//! per-layer figures) that `run.py` turns into metrics.
//!
//! ```text
//! hsc-perfbench <config_sweep|trace_observed|litmus_explore|fig67>
//!               --seed <n> --seconds <s> [--trace-out <file>] [--report <file>]
//! ```
//!
//! Every workload follows the same shape: set up three times (inputs plus
//! an untimed warm-up), run whole rounds of its cells for about
//! `--seconds`, check the outputs, and — with `--trace-out` — run one more
//! round with spans around each layer call, writing the spans as a
//! Chrome-trace JSON.

mod fig67;
mod litmus;
mod spans;
mod sweep;
mod traces;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use hsc_core::Metrics;
use hsc_sim::StatSet;

use crate::spans::{json_str, Spans};

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Command-line options shared by every workload.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace_out: Option<String>,
    pub report: Option<String>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let workload = it.next().ok_or("missing workload name")?;
    let mut args = Args { workload, seed: 1, seconds: 10.0, trace_out: None, report: None };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err(format!("--seconds {value}: must be positive"));
                }
            }
            "--trace-out" => args.trace_out = Some(value),
            "--report" => args.report = Some(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Host seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Host seconds of each timed round.
    pub round_s: Vec<f64>,
    /// Per cell (in cell order), the median of its host times over the
    /// rounds, in milliseconds.
    pub cell_ms: Vec<f64>,
    /// Verified cells completed so far in the timed phase.
    pub cells_done: u64,
    /// Protocol states reached so far in the timed phase: distinct
    /// explored states for the model checker, processed events for timed
    /// runs.
    pub states: u64,
    /// Per timed round, the verified cells and the states it added.
    pub round_cells: Vec<u64>,
    pub round_states: Vec<u64>,
    /// Operations (cells) attempted and failed in the timed phase.
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold.
    pub errors: Vec<String>,
    /// Per-layer figures of the traced round.
    pub layers: Layers,
    /// Host seconds of the traced round, if one ran.
    pub traced_round_s: Option<f64>,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }
}

/// Named per-layer figures, summed as they are added.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<String, f64>);

impl Layers {
    pub fn add(&mut self, name: &str, v: f64) {
        *self.0.entry(name.to_owned()).or_insert(0.0) += v;
    }

    pub fn add_ms(&mut self, name: &str, d: Duration) {
        self.add(name, d.as_secs_f64() * 1e3);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    pub fn set(&mut self, name: &str, v: f64) {
        self.0.insert(name.to_owned(), v);
    }

    /// Host nanoseconds of `System::run` per processed event, from the
    /// summed run time and event count.
    fn add_ns_per_event(&mut self) {
        let events = self.get("core.events");
        if events > 0.0 {
            self.set("core.ns_per_event", self.get("core.run_ms") * 1e6 / events);
        }
    }

    /// Adds the modelled components' simulated counts of one run.
    pub fn add_sim(&mut self, m: &Metrics) {
        for (name, v) in sim_counts(m) {
            self.add(name, v as f64);
        }
    }
}

/// The simulated counts the benchmark reports per layer. Deterministic:
/// a host-only change must leave every one identical.
pub fn sim_counts(m: &Metrics) -> [(&'static str, u64); 11] {
    let s = &m.stats;
    [
        ("sim.gpu_cycles", m.gpu_cycles),
        ("noc.probes", m.probes_sent),
        ("noc.mem_reads", m.mem_reads),
        ("noc.mem_writes", m.mem_writes),
        ("mem.l2_hits", summed(s, "l2.hits")),
        ("mem.l2_misses", summed(s, "l2.misses")),
        ("mem.tcp_hits", summed(s, "tcp.hits")),
        ("mem.tcp_misses", summed(s, "tcp.misses")),
        ("mem.llc_hits", summed(s, "llc.hits")),
        ("mem.llc_misses", summed(s, "llc.misses")),
        ("core.dir_txns", summed(s, "dir.txn_latency_count")),
    ]
}

/// A counter summed over every instance of its controller: `l2.hits`
/// adds `cp0.l2.hits`, `cp1.l2.hits`, and so on.
fn summed(stats: &StatSet, name: &str) -> u64 {
    stats
        .iter()
        .filter(|(k, _)| *k == name || k.strip_suffix(name).is_some_and(|p| p.ends_with('.')))
        .map(|(_, v)| v)
        .sum()
}

/// Runs `setup` [`SETUPS`] times, recording each duration, and keeps the
/// last result.
pub fn repeat_setup<T>(out: &mut Outcome, mut setup: impl FnMut() -> T) -> T {
    let mut last = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let v = setup();
        out.setup_s.push(t.elapsed().as_secs_f64());
        last = Some(v);
    }
    last.expect("at least one set-up")
}

/// Runs whole rounds: the first one, then as many more as make the timed
/// phase fill about `seconds` at the first round's pace. Every round runs
/// the same cells, so the share of failed operations does not depend on
/// the round count. `round(i, out)` returns per-cell host times.
pub fn timed_rounds(
    out: &mut Outcome,
    seconds: f64,
    mut round: impl FnMut(usize, &mut Outcome) -> Vec<Duration>,
) {
    let mut per_cell: Vec<Vec<f64>> = Vec::new();
    let mut total = 1;
    let mut i = 0;
    while i < total {
        let (cells0, states0) = (out.cells_done, out.states);
        let t = Instant::now();
        let cells = round(i, out);
        let dt = t.elapsed().as_secs_f64();
        out.round_s.push(dt);
        out.round_cells.push(out.cells_done - cells0);
        out.round_states.push(out.states - states0);
        if i == 0 {
            total = round_count(seconds, dt);
            per_cell = vec![Vec::new(); cells.len()];
        }
        for (acc, d) in per_cell.iter_mut().zip(cells) {
            acc.push(d.as_secs_f64() * 1e3);
        }
        i += 1;
    }
    out.cell_ms = per_cell.iter().map(|v| median(v)).collect();
}

/// Whole rounds that fill `seconds` at `first_round_s` per round; at
/// least one.
pub fn round_count(seconds: f64, first_round_s: f64) -> usize {
    if first_round_s <= 0.0 {
        return 1;
    }
    ((seconds / first_round_s).floor() as usize).max(1)
}

pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// A seeded permutation of `0..n` (splitmix64 + Fisher–Yates), so the
/// seed decides the order cells run in.
pub fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

fn json_f64s(v: &[f64]) -> String {
    let parts: Vec<String> = v.iter().map(|x| format!("{x:e}")).collect();
    format!("[{}]", parts.join(","))
}

fn to_json(o: &Outcome) -> String {
    let mut s = String::from("{");
    let _ = write!(
        s,
        "\"setup_s\":{},\"round_s\":{},\"cell_ms\":{},\"round_cells\":{:?},\
         \"round_states\":{:?},\"attempted\":{},\"failed\":{},",
        json_f64s(&o.setup_s),
        json_f64s(&o.round_s),
        json_f64s(&o.cell_ms),
        o.round_cells,
        o.round_states,
        o.attempted,
        o.failed
    );
    let errors: Vec<String> = o.errors.iter().map(|e| json_str(e)).collect();
    let _ = write!(s, "\"errors\":[{}],", errors.join(","));
    match o.traced_round_s {
        Some(t) => {
            let _ = write!(s, "\"traced_round_s\":{t:e},");
        }
        None => s.push_str("\"traced_round_s\":null,"),
    }
    let layers: Vec<String> =
        o.layers.0.iter().map(|(k, v)| format!("{}:{v:e}", json_str(k))).collect();
    let _ = write!(s, "\"layers\":{{{}}}}}", layers.join(","));
    s
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hsc-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut spans = Spans::new(args.trace_out.is_some());
    let mut out = match args.workload.as_str() {
        "config_sweep" => sweep::run(&args, &mut spans),
        "trace_observed" => traces::run(&args, &mut spans),
        "litmus_explore" => litmus::run(&args, &mut spans),
        "fig67" => {
            println!("{}", fig67::run());
            return ExitCode::SUCCESS;
        }
        other => {
            eprintln!("hsc-perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    out.layers.add_ns_per_event();
    if let Some(path) = &args.trace_out {
        if let Err(e) = std::fs::write(path, spans.to_chrome_json()) {
            eprintln!("hsc-perfbench: cannot write {path}: {e}");
            return ExitCode::from(1);
        }
    }
    println!("{}", to_json(&out));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_summed_over_controller_instances() {
        let mut s = StatSet::new();
        s.add("cp0.l2.hits", 3);
        s.add("cp1.l2.hits", 4);
        s.add("cp0.l1d.hits", 100);
        s.add("xl2.hits", 100);
        s.add("tcp.hits", 5);
        assert_eq!(summed(&s, "l2.hits"), 7);
        assert_eq!(summed(&s, "tcp.hits"), 5);
    }

    #[test]
    fn ns_per_event_needs_events() {
        let mut l = Layers::default();
        l.add_ns_per_event();
        assert_eq!(l.get("core.ns_per_event"), 0.0);
        l.add("core.run_ms", 2.0);
        l.add("core.events", 1000.0);
        l.add_ns_per_event();
        assert_eq!(l.get("core.ns_per_event"), 2000.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn shuffled_is_a_seeded_permutation() {
        let a = shuffled(88, 7);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..88).collect::<Vec<_>>());
        assert_eq!(a, shuffled(88, 7));
        assert_ne!(a, shuffled(88, 8));
    }

    #[test]
    fn rounds_fill_the_requested_time_with_whole_rounds() {
        assert_eq!(round_count(10.0, 4.0), 2);
        assert_eq!(round_count(10.0, 9.9), 1);
        assert_eq!(round_count(10.0, 40.0), 1, "a round longer than the run still runs once");
        assert_eq!(round_count(10.0, 0.0), 1);
    }

    #[test]
    fn cell_times_are_medians_over_rounds() {
        let mut out = Outcome::default();
        let mut calls = 0;
        timed_rounds(&mut out, 1e-12, |_, _| {
            calls += 1;
            vec![Duration::from_millis(5), Duration::from_millis(15)]
        });
        assert_eq!(calls, 1);
        assert_eq!(out.round_s.len(), 1);
        assert_eq!((out.round_cells.clone(), out.round_states.clone()), (vec![0], vec![0]));
        assert_eq!(out.cell_ms, vec![5.0, 15.0]);
    }

    #[test]
    fn args_reject_unknown_flags_and_bad_values() {
        let parse = |v: &[&str]| parse_args(v.iter().map(|s| (*s).to_owned()));
        let a = parse(&["config_sweep", "--seed", "3", "--seconds", "2.5"]).unwrap();
        assert_eq!((a.seed, a.seconds), (3, 2.5));
        assert!(parse(&["x", "--bogus", "1"]).is_err());
        assert!(parse(&["x", "--seconds", "0"]).is_err());
        assert!(parse(&["x", "--seed"]).is_err());
    }
}
