//! `trace_observed`: the five `TrafficSpec` presets, generated from the
//! run's seed, written to `hsc-trace` text, parsed back, and replayed
//! under `baseline` and `sharer_tracking` with full observability; each
//! round serialises the run report and every Perfetto trace.

use std::time::{Duration, Instant};

use hsc_core::{CoherenceConfig, Metrics, ObsConfig, ObsData, SystemBuilder, SystemConfig};
use hsc_obs::{RunRecord, RunReport};
use hsc_workloads::trace::{presets, TraceProgram, TraceWorkload, TrafficSpec};
use hsc_workloads::{run_workload_observed, try_run_workload_on, Workload, DEFAULT_EVENT_BUDGET};

use crate::spans::Spans;
use crate::sweep::Preset;
use crate::{repeat_setup, timed_rounds, Args, Outcome};

/// Operations per stream, as a multiple of each preset's own count, so a
/// round runs for seconds rather than milliseconds.
const OPS_SCALE: usize = 48;

/// Sampling epoch of the observed runs, in ticks.
const EPOCH_TICKS: u64 = 50_000;

const CONFIGS: [Preset; 2] = [
    ("baseline", CoherenceConfig::baseline),
    ("sharer_tracking", CoherenceConfig::sharer_tracking),
];

/// The five presets, re-seeded from the run's seed and scaled up.
fn specs(seed: u64) -> Vec<(&'static str, TrafficSpec)> {
    presets()
        .into_iter()
        .map(|(name, _, spec)| {
            let seed = spec.seed ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            (name, TrafficSpec { seed, ops: spec.ops * OPS_SCALE, ..spec })
        })
        .collect()
}

/// Host time of each step of the text round trip.
#[derive(Debug, Default, Clone, Copy)]
struct RoundTrip {
    generate: Duration,
    to_text: Duration,
    parse: Duration,
    bytes: usize,
}

/// Generates a spec's trace, writes it as text and parses it back, with a
/// span around each step. Returns the parsed program, or why the round
/// trip failed.
fn generate(spec: &TrafficSpec, spans: &mut Spans) -> Result<(TraceProgram, RoundTrip), String> {
    spans.begin("trace.generate");
    let program = spec.generate();
    let generate = spans.end();
    spans.begin("trace.to_text");
    let text = program.to_text();
    let to_text = spans.end();
    spans.begin("trace.parse");
    let parsed = TraceProgram::parse(&text);
    let parse = spans.end();
    let parsed = parsed.map_err(|e| format!("parse: {e}"))?;
    if parsed != program {
        return Err("the parsed trace differs from the generated one".into());
    }
    Ok((parsed, RoundTrip { generate, to_text, parse, bytes: text.len() }))
}

struct Cell {
    trace: usize,
    config: usize,
}

fn cells(traces: usize) -> Vec<Cell> {
    (0..traces)
        .flat_map(|trace| (0..CONFIGS.len()).map(move |config| Cell { trace, config }))
        .collect()
}

fn config(c: usize) -> SystemConfig {
    SystemConfig::scaled(CONFIGS[c].1())
}

fn record(name: &str, config: &str, obs: &ObsData, m: &Metrics) -> RunRecord {
    let mut rec = RunRecord {
        workload: name.to_owned(),
        config: config.to_owned(),
        outcome: "completed".to_owned(),
        ticks: m.ticks,
        gpu_cycles: m.gpu_cycles,
        counters: m.stats.iter().map(|(k, v)| (k.to_owned(), v)).collect(),
        ..RunRecord::default()
    };
    rec.attach_obs(obs);
    rec
}

pub fn run(args: &Args, spans: &mut Spans) -> Outcome {
    let mut out = Outcome::default();
    let specs = specs(args.seed);
    let mut off = Spans::new(false);
    let traces: Vec<(&str, TraceWorkload)> = repeat_setup(&mut out, || {
        let traces: Vec<(&str, TraceWorkload)> = specs
            .iter()
            .map(|(name, spec)| {
                let (p, _) = generate(spec, &mut off).unwrap_or_else(|e| panic!("{name}: {e}"));
                (*name, TraceWorkload::new(p))
            })
            .collect();
        // Warm-up: the first preset (`uniform`) under the baseline, unobserved.
        let _ = try_run_workload_on(&traces[0].1, config(0));
        traces
    });
    let cells = cells(traces.len());
    let mut first: Vec<Option<Metrics>> = vec![None; cells.len()];
    let mut report = RunReport::new("hsc-perfbench trace_observed");

    timed_rounds(&mut out, args.seconds, |round, out| {
        let mut times = Vec::with_capacity(cells.len());
        report = RunReport::new("hsc-perfbench trace_observed");
        for (i, c) in cells.iter().enumerate() {
            let (name, w) = &traces[c.trace];
            let t = Instant::now();
            let run = run_workload_observed(w, config(c.config), ObsConfig::full(EPOCH_TICKS));
            let perfetto = run.obs.perfetto.as_ref().map(|p| p.to_json_string());
            out.attempted += 1;
            match &run.outcome {
                Ok(r) => {
                    report.runs.push(record(name, CONFIGS[c.config].0, &run.obs, &r.metrics));
                    out.cells_done += 1;
                    out.states += r.metrics.events;
                    out.check(perfetto.is_some_and(|p| p.len() > 2), || {
                        format!("{name}/{}: no Perfetto trace", CONFIGS[c.config].0)
                    });
                    if round == 0 {
                        first[i] = Some(r.metrics.clone());
                    } else {
                        out.check(first[i].as_ref() == Some(&r.metrics), || {
                            format!("{name}/{}: round {round} metrics differ", CONFIGS[c.config].0)
                        });
                    }
                }
                Err(e) => {
                    out.failed += 1;
                    out.errors.push(format!("{name}/{}: {e}", CONFIGS[c.config].0));
                }
            }
            times.push(t.elapsed());
        }
        let json = report.to_json_string();
        out.check(json.len() > 2, || "empty run report".into());
        times
    });

    // Observability must not change what is simulated.
    for (i, c) in cells.iter().enumerate() {
        let (name, w) = &traces[c.trace];
        let plain = try_run_workload_on(w, config(c.config)).ok().map(|r| r.metrics);
        out.check(plain.is_some() && plain == first[i], || {
            format!("{name}/{}: observed and unobserved metrics differ", CONFIGS[c.config].0)
        });
    }
    if let Some(path) = &args.report {
        if let Err(e) = report.write_to(std::path::Path::new(path)) {
            out.errors.push(format!("cannot write the run report to {path}: {e}"));
        }
    }
    if args.trace_out.is_some() {
        traced_round(&specs, &cells, &first, spans, &mut out);
    }
    out
}

/// One more round with a span around every layer call: generation, the
/// text round trip, the observed run split into build / run / verify /
/// collect, serialisation, and the unobserved twin that prices the
/// observability.
fn traced_round(
    specs: &[(&'static str, TrafficSpec)],
    cells: &[Cell],
    first: &[Option<Metrics>],
    spans: &mut Spans,
    out: &mut Outcome,
) {
    let t = Instant::now();
    spans.begin("trace_observed.round");
    let mut traces = Vec::new();
    for (name, spec) in specs {
        spans.begin(&format!("trace {name}"));
        let generated = generate(spec, spans);
        spans.end();
        match generated {
            Ok((p, rt)) => {
                out.layers.add_ms("trace.generate_ms", rt.generate);
                out.layers.add_ms("trace.to_text_ms", rt.to_text);
                out.layers.add_ms("trace.parse_ms", rt.parse);
                out.layers.add("trace.bytes", rt.bytes as f64);
                traces.push((*name, TraceWorkload::new(p)));
            }
            Err(e) => {
                spans.end();
                out.errors.push(format!("{name}: {e}"));
                return;
            }
        }
    }
    let mut report = RunReport::new("hsc-perfbench trace_observed");
    for (i, c) in cells.iter().enumerate() {
        let (name, w) = &traces[c.trace];
        let label = CONFIGS[c.config].0;
        spans.begin(&format!("cell {name}/{label}"));
        spans.begin("observed");
        spans.begin("workloads.build");
        let mut b = SystemBuilder::new(config(c.config));
        b.with_observability(ObsConfig::full(EPOCH_TICKS));
        w.build(&mut b);
        let mut sys = b.build();
        let build_t = spans.end();
        spans.begin("core.run");
        let run = sys.run(DEFAULT_EVENT_BUDGET);
        let run_t = spans.end();
        spans.begin("obs.collect");
        let data = sys.take_obs_data();
        spans.end();
        spans.begin("trace.verify");
        let verified = w.verify(&sys);
        let verify_t = spans.end();
        let observed_t = spans.end();
        spans.begin("unobserved");
        let plain = try_run_workload_on(w, config(c.config));
        let plain_t = spans.end();

        out.layers.add_ms("workloads.build_ms", build_t);
        out.layers.add_ms("core.run_ms", run_t);
        out.layers.add_ms(&format!("core.run_ms.{label}"), run_t);
        out.layers.add_ms("trace.verify_ms", verify_t);
        out.layers.add("obs.overhead_ms", (observed_t.as_secs_f64() - plain_t.as_secs_f64()) * 1e3);
        out.layers.add("obs.spans_completed", data.spans_completed as f64);
        let m = match (run, verified, plain) {
            (Ok(m), Ok(()), Ok(p)) => {
                out.check(p.metrics == m && first[i].as_ref() == Some(&m), || {
                    format!("{name}/{label}: traced metrics differ from the untraced run")
                });
                m
            }
            (run, verified, plain) => {
                out.errors.push(format!(
                    "{name}/{label} traced: run {:?}, verify {:?}, unobserved {:?}",
                    run.err(),
                    verified.err(),
                    plain.err()
                ));
                spans.end();
                continue;
            }
        };
        out.layers.add("core.events", m.events as f64);
        out.layers.add_sim(&m);
        report.runs.push(record(name, label, &data, &m));
        if let Some(p) = &data.perfetto {
            spans.begin("obs.perfetto_json");
            let json = p.to_json_string();
            out.layers.add_ms("obs.perfetto_json_ms", spans.end());
            out.layers.add("obs.perfetto_bytes", json.len() as f64);
            out.layers.add("obs.perfetto_events", p.len() as f64);
        }
        spans.end();
    }
    spans.begin("obs.report_json");
    let rj = report.to_json_string();
    let rj_t = spans.end();
    out.layers.add_ms("obs.report_json_ms", rj_t);
    out.layers.add("obs.report_bytes", rj.len() as f64);
    spans.end();
    out.traced_round_s = Some(t.elapsed().as_secs_f64());
}
