//! `litmus_explore`: exhaustive `hsc-check` exploration of every litmus
//! scenario, fault-free and under its fault plan, which drives the core
//! through choice mode and `state_hash` instead of the timing wheel.

use std::time::{Duration, Instant};

use hsc_check::litmus::{Litmus, LitmusReport};
use hsc_check::{CheckConfig, ExploreReport};

use crate::spans::Spans;
use crate::{repeat_setup, timed_rounds, Args, Outcome};

/// The scenarios the per-layer table names one by one; any other
/// scenario's exploration time is reported as `check.explore_ms.other`.
const SCENARIOS: [&str; 6] = [
    "two_writers",
    "victim_vs_probe",
    "dup_reply",
    "atomic_vs_eviction",
    "dma_vs_dirty_l2",
    "slc_atomic_vs_probe",
];

/// Explored in the traced run only: 15k and 8.5k states, about 15 s and
/// 14 s each on a two-vCPU host, three quarters of the catalog's time. A
/// single exploration of each would be one long sample that moves with
/// the host's pace; the timed round repeats the short scenarios instead.
const TRACED_ONLY: [&str; 2] = ["victim_vs_probe", "atomic_vs_eviction"];

/// Passes over the short scenarios per round. A pass — one exploration of
/// each — is one cell: timed one by one, a ~1 s exploration moved with
/// the host's pace from second to second far more than a whole pass.
const PASSES: usize = 4;

/// Choice-mode steps timed per scenario for the per-call figures.
const PROBE_STEPS: usize = 64;

/// Rebuilds timed per scenario.
const REBUILDS: u32 = 8;

/// Fault-free and faulty distinct-state counts of one scenario.
type Counts = (Option<u64>, Option<u64>);

fn counts(r: &LitmusReport) -> Counts {
    (r.fault_free.as_ref().map(|x| x.states), r.faulty.as_ref().map(|x| x.states))
}

fn passes(r: &LitmusReport) -> impl Iterator<Item = &ExploreReport> {
    r.fault_free.iter().chain(r.faulty.iter())
}

/// Explores one scenario and checks it: no counterexample, no truncation.
fn explore(l: &Litmus, out: &mut Outcome) -> (LitmusReport, bool) {
    let r = l.check_exhaustive(&CheckConfig::default());
    let mut ok = true;
    for p in passes(&r) {
        if let Some(cx) = &p.counterexample {
            out.errors.push(format!("{}: counterexample: {cx}", l.name));
            ok = false;
        }
        if p.truncated {
            out.errors.push(format!("{}: exploration truncated", l.name));
            ok = false;
        }
    }
    (r, ok)
}

pub fn run(args: &Args, spans: &mut Spans) -> Outcome {
    let mut out = Outcome::default();
    // Set-up: the catalog, in its own order (the seed does not change
    // this workload's inputs), plus a warm-up exploration of its first
    // scenario whose state counts every later exploration must repeat.
    let mut warm: Vec<Counts> = Vec::new();
    let (short, deep, warm_name) = repeat_setup(&mut out, || {
        let mut all = Litmus::catalog();
        let warm_name = all[0].name;
        warm.push(counts(&all[0].check_exhaustive(&CheckConfig::default())));
        all.retain(|l| l.exhaustive);
        let (deep, short): (Vec<Litmus>, Vec<Litmus>) =
            all.into_iter().partition(|l| TRACED_ONLY.contains(&l.name));
        (short, deep, warm_name)
    });
    let mut first: Vec<Counts> = vec![(None, None); short.len()];

    timed_rounds(&mut out, args.seconds, |round, out| {
        (0..PASSES)
            .map(|pass| {
                let t = Instant::now();
                let mut ok = true;
                for (i, l) in short.iter().enumerate() {
                    let (r, verified) = explore(l, out);
                    ok &= verified;
                    out.states += passes(&r).map(|p| p.states).sum::<u64>();
                    if round == 0 && pass == 0 {
                        first[i] = counts(&r);
                    } else {
                        out.check(first[i] == counts(&r), || {
                            format!("{}: round {round} pass {pass} state counts differ", l.name)
                        });
                    }
                }
                out.attempted += 1;
                if ok {
                    out.cells_done += 1;
                } else {
                    out.failed += 1;
                }
                t.elapsed()
            })
            .collect()
    });

    // State counts repeat across explorations of the same scenario.
    let warm_timed = short.iter().position(|l| l.name == warm_name).map(|i| first[i]);
    out.check(warm.iter().all(|c| Some(*c) == warm_timed), || {
        format!("{warm_name}: state counts differ across explorations ({warm:?} vs {warm_timed:?})")
    });

    if args.trace_out.is_some() {
        traced_round(&short, &deep, &first, spans, &mut out);
    }
    out
}

fn name_of(l: &Litmus) -> &'static str {
    SCENARIOS.iter().copied().find(|s| *s == l.name).unwrap_or("other")
}

/// One more round, the timed round's explorations each in a span, then
/// one exploration of each [`TRACED_ONLY`] scenario outside it. The first
/// exploration of every scenario is followed by the three calls the
/// explorer repeats for every state — rebuild (`Litmus::build` plus
/// `enable_choice_mode`), `step_choice` and `state_hash` — timed on their
/// own along one path through the scenario.
fn traced_round(
    short: &[Litmus],
    deep: &[Litmus],
    first: &[Counts],
    spans: &mut Spans,
    out: &mut Outcome,
) {
    let mut tally = Tally::default();
    let t = Instant::now();
    spans.begin("litmus_explore.round");
    for pass in 0..PASSES {
        spans.begin("litmus_explore.pass");
        for (i, l) in short.iter().enumerate() {
            let c = tally.explore(l, PASSES as u32, pass == 0, spans, out);
            out.check(c == first[i], || {
                format!("{}: traced state counts differ from the untraced run", l.name)
            });
        }
        spans.end();
    }
    spans.end();
    out.traced_round_s = Some(t.elapsed().as_secs_f64());
    spans.begin("litmus_explore.traced_only");
    for l in deep {
        tally.explore(l, 1, true, spans, out);
    }
    spans.end();

    let Tally { states, deepest, explore_ms, probe } = tally;
    let per = |d: Duration, n: u32, scale: f64| {
        if n > 0 {
            d.as_secs_f64() * scale / f64::from(n)
        } else {
            0.0
        }
    };
    out.layers.set("check.states", states as f64);
    out.layers.set("check.deepest", deepest as f64);
    out.layers.set("check.ms_per_state", if states > 0 { explore_ms / states as f64 } else { 0.0 });
    out.layers.set("check.rebuild_ms", per(probe.rebuild, probe.rebuilds, 1e3));
    out.layers.set("check.step_ns", per(probe.step, probe.steps, 1e9));
    out.layers.set("check.state_hash_ns", per(probe.hash, probe.steps, 1e9));
}

/// The traced round's figures: states, depth and mean exploration time
/// over one exploration of each scenario, and the per-call probes.
#[derive(Debug, Default)]
struct Tally {
    states: u64,
    deepest: usize,
    explore_ms: f64,
    probe: Probe,
}

impl Tally {
    /// Explores `l` in a span, adding a `runs`-th of its time to
    /// `check.explore_ms.<scenario>` (the mean over its `runs`
    /// explorations); on its `first` exploration also counts its states
    /// and depth and probes its per-state calls.
    fn explore(
        &mut self,
        l: &Litmus,
        runs: u32,
        first: bool,
        spans: &mut Spans,
        out: &mut Outcome,
    ) -> Counts {
        spans.begin(&format!("scenario {}", l.name));
        spans.begin("check.explore");
        let (r, _) = explore(l, out);
        let d = spans.end() / runs;
        out.layers.add_ms(&format!("check.explore_ms.{}", name_of(l)), d);
        self.explore_ms += d.as_secs_f64() * 1e3;
        if first {
            self.states += passes(&r).map(|p| p.states).sum::<u64>();
            self.deepest = self.deepest.max(passes(&r).map(|p| p.deepest).max().unwrap_or(0));
            if let Err(e) = self.probe.path(l, spans) {
                out.errors.push(format!("{}: {e}", l.name));
            }
        }
        spans.end();
        counts(&r)
    }
}

/// Host time of the calls the explorer repeats for every state.
#[derive(Debug, Default)]
struct Probe {
    rebuild: Duration,
    rebuilds: u32,
    step: Duration,
    hash: Duration,
    steps: u32,
}

impl Probe {
    /// Rebuilds the fault-free system [`REBUILDS`] times, then walks one
    /// path (always the first pending event) for up to [`PROBE_STEPS`]
    /// steps, timing `state_hash` and `step_choice` at each.
    fn path(&mut self, l: &Litmus, spans: &mut Spans) -> Result<(), String> {
        let mut sys = None;
        for _ in 0..REBUILDS {
            spans.begin("check.rebuild");
            let mut s = l.build(None, None);
            let wired = s.enable_choice_mode();
            self.rebuild += spans.end();
            self.rebuilds += 1;
            wired.map_err(|e| format!("choice mode: {e}"))?;
            sys = Some(s);
        }
        let mut sys = sys.expect("at least one rebuild");
        spans.begin("check.path");
        let mut n = 0;
        while n < PROBE_STEPS && sys.choice_count() > 0 {
            let t = Instant::now();
            std::hint::black_box(sys.state_hash());
            let t2 = Instant::now();
            let stepped = sys.step_choice(0);
            self.hash += t2 - t;
            self.step += t2.elapsed();
            self.steps += 1;
            n += 1;
            if let Err(e) = stepped {
                spans.end();
                return Err(format!("step_choice: {e}"));
            }
        }
        spans.end();
        Ok(())
    }
}
