//! `config_sweep`: every benchmark (the ten CHAI kernels plus `tqh`) under
//! every `CoherenceConfig` preset, in process with observability off —
//! the engine's hot path across all protocol configurations.

use std::time::Instant;

use hsc_core::{CoherenceConfig, Metrics, SystemBuilder, SystemConfig};
use hsc_workloads::{
    all_workloads, collaborative_workloads, extension_workloads, try_run_workload_on, Workload,
    DEFAULT_EVENT_BUDGET,
};

use crate::spans::Spans;
use crate::{repeat_setup, shuffled, timed_rounds, Args, Outcome};

/// A coherence preset under the name its constructor has.
pub type Preset = (&'static str, fn() -> CoherenceConfig);

/// Every preset.
const PRESETS: [Preset; 8] = [
    ("baseline", CoherenceConfig::baseline),
    ("early_response", CoherenceConfig::early_response),
    ("no_wb_clean_victims", CoherenceConfig::no_wb_clean_victims),
    ("drop_clean_victims", CoherenceConfig::drop_clean_victims),
    ("llc_write_back", CoherenceConfig::llc_write_back),
    ("llc_write_back_l3_on_wt", CoherenceConfig::llc_write_back_l3_on_wt),
    ("owner_tracking", CoherenceConfig::owner_tracking),
    ("sharer_tracking", CoherenceConfig::sharer_tracking),
];

/// The warm-up cell: one small benchmark under the baseline.
const WARM_UP: &str = "bs";

struct Suite {
    workloads: Vec<Box<dyn Workload>>,
    /// (workload index, preset index), in the seed's order.
    cells: Vec<(usize, usize)>,
}

fn suite(seed: u64) -> Suite {
    let workloads: Vec<Box<dyn Workload>> =
        all_workloads().into_iter().chain(extension_workloads()).collect();
    let all: Vec<(usize, usize)> =
        (0..workloads.len()).flat_map(|w| (0..PRESETS.len()).map(move |p| (w, p))).collect();
    let cells = shuffled(all.len(), seed).into_iter().map(|i| all[i]).collect();
    Suite { workloads, cells }
}

fn config(p: usize) -> SystemConfig {
    SystemConfig::scaled(PRESETS[p].1())
}

pub fn run(args: &Args, spans: &mut Spans) -> Outcome {
    let mut out = Outcome::default();
    let suite = repeat_setup(&mut out, || {
        let s = suite(args.seed);
        let w = s.workloads.iter().find(|w| w.name() == WARM_UP).expect("warm-up benchmark");
        let _ = try_run_workload_on(w.as_ref(), config(0));
        s
    });
    let n = suite.cells.len();
    // First-round metrics of every cell, indexed like `suite.cells`.
    let mut first: Vec<Option<Metrics>> = vec![None; n];

    timed_rounds(&mut out, args.seconds, |round, out| {
        let mut times = Vec::with_capacity(n);
        for (i, &(w, p)) in suite.cells.iter().enumerate() {
            let wl = suite.workloads[w].as_ref();
            let t = Instant::now();
            let r = try_run_workload_on(wl, config(p));
            times.push(t.elapsed());
            out.attempted += 1;
            match r {
                Ok(r) => {
                    out.cells_done += 1;
                    out.states += r.metrics.events;
                    if round == 0 {
                        first[i] = Some(r.metrics);
                    } else {
                        out.check(first[i].as_ref() == Some(&r.metrics), || {
                            format!("{}/{}: round {round} metrics differ", wl.name(), PRESETS[p].0)
                        });
                    }
                }
                Err(e) => {
                    out.failed += 1;
                    out.errors.push(format!("{}/{}: {e}", wl.name(), PRESETS[p].0));
                }
            }
        }
        times
    });

    // A repeated cell gives identical metrics, whatever the round count.
    let pick = (args.seed as usize) % n;
    let (w, p) = suite.cells[pick];
    let again = try_run_workload_on(suite.workloads[w].as_ref(), config(p)).ok().map(|r| r.metrics);
    out.check(again.is_some() && again == first[pick], || {
        format!("{}/{}: a repeated run gave other metrics", suite.workloads[w].name(), PRESETS[p].0)
    });
    check_figures(&suite, &first, &mut out);

    if args.trace_out.is_some() {
        traced_round(&suite, &first, spans, &mut out);
    }
    out
}

/// The paper's qualitative claims, checked on the sweep's own metrics.
fn check_figures(suite: &Suite, first: &[Option<Metrics>], out: &mut Outcome) {
    let get = |name: &str, preset: &str| -> Option<&Metrics> {
        let i = suite
            .cells
            .iter()
            .position(|&(w, p)| suite.workloads[w].name() == name && PRESETS[p].0 == preset)?;
        first[i].as_ref()
    };
    // Figs. 6 and 7 on the five collaborative benchmarks.
    for w in collaborative_workloads() {
        let name = w.name();
        let (Some(base), Some(own), Some(shr)) =
            (get(name, "baseline"), get(name, "owner_tracking"), get(name, "sharer_tracking"))
        else {
            out.errors.push(format!("{name}: missing tracking cells"));
            continue;
        };
        out.check(own.probes_sent < base.probes_sent && shr.probes_sent < base.probes_sent, || {
            format!(
                "{name}: tracking does not cut probes ({} / {} / {})",
                base.probes_sent, own.probes_sent, shr.probes_sent
            )
        });
        out.check(shr.probes_sent <= own.probes_sent, || {
            format!("{name}: sharer tracking sends more probes than owner tracking")
        });
        out.check(own.gpu_cycles < base.gpu_cycles && shr.gpu_cycles < base.gpu_cycles, || {
            format!("{name}: tracking does not save simulated cycles")
        });
    }
    // Fig. 5: llcWB+useL3OnWT cuts directory<->memory accesses on average
    // over the paper's ten benchmarks.
    let mut saved = Vec::new();
    for w in all_workloads() {
        if let (Some(b), Some(l3)) =
            (get(w.name(), "baseline"), get(w.name(), "llc_write_back_l3_on_wt"))
        {
            let base = (b.mem_reads + b.mem_writes) as f64;
            saved.push(1.0 - (l3.mem_reads + l3.mem_writes) as f64 / base.max(1.0));
        }
    }
    let avg = saved.iter().sum::<f64>() / saved.len().max(1) as f64;
    out.check(saved.len() == 10 && avg > 0.0, || {
        format!("llcWB+useL3OnWT does not cut memory accesses on average ({:.2}%)", avg * 100.0)
    });
}

/// One more round, calling the layers one by one with a span around each,
/// and checking that its simulated counts equal the untraced round's.
fn traced_round(suite: &Suite, first: &[Option<Metrics>], spans: &mut Spans, out: &mut Outcome) {
    let t = Instant::now();
    spans.begin("config_sweep.round");
    for (i, &(w, p)) in suite.cells.iter().enumerate() {
        let wl = suite.workloads[w].as_ref();
        let preset = PRESETS[p].0;
        spans.begin(&format!("cell {}/{preset}", wl.name()));
        spans.begin("workloads.build");
        let mut b = SystemBuilder::new(config(p));
        wl.build(&mut b);
        let mut sys = b.build();
        let build = spans.end();
        spans.begin("core.run");
        let run = sys.run(DEFAULT_EVENT_BUDGET);
        let run_t = spans.end();
        spans.begin("workloads.verify");
        let verified = wl.verify(&sys);
        let verify = spans.end();
        spans.end();

        out.layers.add_ms("workloads.build_ms", build);
        out.layers.add_ms("workloads.verify_ms", verify);
        out.layers.add_ms("core.run_ms", run_t);
        out.layers.add_ms(&format!("core.run_ms.{preset}"), run_t);
        match (run, verified) {
            (Ok(m), Ok(())) => {
                out.layers.add("core.events", m.events as f64);
                out.layers.add_sim(&m);
                out.check(first[i].as_ref() == Some(&m), || {
                    format!("{}/{preset}: traced metrics differ from the untraced run", wl.name())
                });
            }
            (Err(e), _) => out.errors.push(format!("{}/{preset} traced: {e}", wl.name())),
            (_, Err(e)) => out.errors.push(format!("{}/{preset} traced: {e}", wl.name())),
        }
    }
    spans.end();
    out.traced_round_s = Some(t.elapsed().as_secs_f64());
}
